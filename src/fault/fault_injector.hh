/**
 * @file
 * Deterministic fault-injection campaigns.
 *
 * A campaign is a declarative plan: a list of timed actions against the
 * models the injector is attached to -- Gilbert-Elliott bursty loss on a
 * net::Channel, soft-error bit flips into memory::Sram, stuck-busy
 * wedges and slow-response faults on core::SlaveDevice slaves, and
 * supply droop spikes into a power::HarvestingSupply. The injector
 * schedules every action on the simulation event queue up front, so a
 * campaign replays identically for a given (plan, seed) pair; random
 * flip addresses come from the injector's own seeded stream and never
 * perturb the channel or sensor streams.
 *
 * Plans can be built programmatically or parsed from a small text
 * format (one action per line, '#'/';' comments):
 *
 *   # seconds  action            args
 *   0.0        channel-ge        0.02 0.4 0.0 0.9   ; pGB pBG lossG lossB
 *   4.0        channel-ge-off
 *   2.0        channel-loss      0.1                ; i.i.d. loss
 *   1.5        sram-flip         0x0210 3           ; addr bit
 *   1.6        sram-random-flip  4                  ; n flips
 *   1.0        wedge             msgProc 0.5        ; seconds, 0 latches
 *   2.0        unwedge           msgProc
 *   2.5        slowdown          msgProc 3.0        ; cost factor
 *   3.0        droop             0.002              ; joules
 *   2.0        node-fail                            ; full supply loss
 *   5.0        node-revive                          ; supply restored
 *
 * node-fail / node-revive act on the node the injector's lifecycle hook
 * is attached to (attachLifecycle), making node death a first-class
 * fault kind alongside the component-level ones.
 *
 * A plan is checked when it loads, and every diagnostic is a
 * sim::FatalError "file:line: message". parsePlan refuses times and
 * durations that are not finite, are negative or lie past the last
 * tick, probabilities outside [0, 1], slowdown factors outside
 * [1, 1e6], negative droops, and addresses, bits and counts that are
 * not unsigned integers. run() then refuses, before it schedules
 * anything, an action whose target is not attached: an SRAM address
 * outside the attached SRAM, a bit outside 0..7, more flips than the
 * SRAM has bits, an unknown device (the message lists the attached
 * ones), a channel action without a channel, a node action without a
 * lifecycle hook, and a droop without a supply.
 */

#ifndef ULP_FAULT_FAULT_INJECTOR_HH
#define ULP_FAULT_FAULT_INJECTOR_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/slave_device.hh"
#include "memory/sram.hh"
#include "net/channel.hh"
#include "power/harvest.hh"
#include "sim/ini.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace ulp::fault {

struct Action
{
    enum class Kind {
        ChannelGe,      ///< a=pGoodToBad b=pBadToGood c=lossGood d=lossBad
        ChannelGeOff,   ///< back to i.i.d. loss
        ChannelLoss,    ///< a=i.i.d. loss probability
        SramFlip,       ///< a=address b=bit
        SramRandomFlip, ///< a=number of flips at random addresses/bits
        Wedge,          ///< target device; a=seconds (0 latches)
        Unwedge,        ///< target device
        Slowdown,       ///< target device; a=cost factor
        Droop,          ///< a=joules drained from the store
        NodeFail,       ///< full supply loss on the attached node
        NodeRevive,     ///< supply restored on the attached node
    };

    double atSeconds = 0.0;
    Kind kind = Kind::ChannelLoss;
    std::string target; ///< device name for Wedge/Unwedge/Slowdown
    double a = 0.0, b = 0.0, c = 0.0, d = 0.0;
    unsigned line = 0; ///< plan line, for diagnostics; 0 = built in code
};

struct CampaignPlan
{
    std::string file = "campaign plan"; ///< names the plan in diagnostics
    std::vector<Action> actions;
};

/** Parse the text plan format above; @p file names it in diagnostics. */
CampaignPlan parsePlan(const std::string &text,
                       const std::string &file = "campaign plan");

class FaultInjector : public sim::SimObject
{
  public:
    FaultInjector(sim::Simulation &simulation, const std::string &name,
                  std::uint64_t seed = 0x5eed);

    void visitStats(sim::stats::Visitor &v) const override;

    // --- attachment points (any subset; run() refuses an action against
    // --- a missing target) -------------------------------------------------
    void attachChannel(net::Channel *c) { channel = c; }
    void attachSram(memory::Sram *s) { sram = s; }
    void attachSupply(power::HarvestingSupply *s) { supply = s; }
    void attachDevice(const std::string &device_name,
                      core::SlaveDevice *device)
    {
        devices[device_name] = device;
    }
    /** Node lifecycle hook for NodeFail/NodeRevive: called with true on
     *  revive, false on fail (e.g. Network::reviveNodeNow /
     *  powerOffNodeNow bound to one node). */
    void attachLifecycle(std::function<void(bool up)> hook)
    {
        lifecycle = std::move(hook);
    }

    /** Check every action of @p plan against the attachments, then
     *  schedule them all (times are absolute seconds). */
    void run(const CampaignPlan &plan);

    /** Parse and run a text plan; @p file names it in diagnostics. */
    void
    runText(const std::string &plan_text,
            const std::string &file = "campaign plan")
    {
        run(parsePlan(plan_text, file));
    }

    std::uint64_t injectedChannelFaults() const
    {
        return static_cast<std::uint64_t>(statChannelFaults.value());
    }
    std::uint64_t injectedBitFlips() const
    {
        return static_cast<std::uint64_t>(statBitFlips.value());
    }
    std::uint64_t injectedDeviceFaults() const
    {
        return static_cast<std::uint64_t>(statDeviceFaults.value());
    }
    std::uint64_t injectedDroops() const
    {
        return static_cast<std::uint64_t>(statDroops.value());
    }
    std::uint64_t injectedLifecycleEvents() const
    {
        return static_cast<std::uint64_t>(statLifecycle.value());
    }

  private:
    /** A scheduled action: its own copy and the event that applies it,
     *  named after the injector ("fault.action"). */
    struct Scheduled
    {
        const std::string &name() const { return injector->name(); }
        void apply() { injector->apply(action); }

        FaultInjector *injector;
        Action action;
        sim::MemberEvent<&Scheduled::apply> event{this, "action"};
    };

    /** Fatal at @p at unless @p action's target is attached. */
    void check(const sim::ini::Cursor &at, const Action &action) const;
    void apply(const Action &action);

    net::Channel *channel = nullptr;
    memory::Sram *sram = nullptr;
    power::HarvestingSupply *supply = nullptr;
    std::function<void(bool up)> lifecycle;
    std::map<std::string, core::SlaveDevice *> devices;

    sim::Random random;
    std::vector<std::unique_ptr<Scheduled>> scheduled;

    sim::stats::Scalar statChannelFaults;
    sim::stats::Scalar statBitFlips;
    sim::stats::Scalar statDeviceFaults;
    sim::stats::Scalar statDroops;
    sim::stats::Scalar statLifecycle;
};

} // namespace ulp::fault

#endif // ULP_FAULT_FAULT_INJECTOR_HH
