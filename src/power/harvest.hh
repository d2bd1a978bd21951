/**
 * @file
 * Energy-harvesting supply models.
 *
 * The paper's design target (100 uW) is chosen so a node can run off
 * energy scavenged from the environment (vibration/solar, §2). These
 * models close the loop: a HarvestSource produces power over time, an
 * EnergyStore (supercapacitor) buffers it, and a HarvestingSupply polls the
 * node's aggregate draw, integrating deposits and withdrawals and counting
 * brown-outs when the store is exhausted.
 */

#ifndef ULP_POWER_HARVEST_HH
#define ULP_POWER_HARVEST_HH

#include <functional>
#include <memory>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ulp::power {

/** Ambient power available for harvesting as a function of time. */
class HarvestSource
{
  public:
    virtual ~HarvestSource() = default;
    /** Instantaneous harvested power (after conversion) in watts. */
    virtual double powerAt(sim::Tick when) const = 0;
};

/** Constant source, e.g. the paper's 100 uW vibration budget. */
class ConstantSource : public HarvestSource
{
  public:
    explicit ConstantSource(double watts) : watts(watts) {}
    double powerAt(sim::Tick) const override { return watts; }

  private:
    double watts;
};

/**
 * Sinusoidal day/night source: max(0, peak * sin(2*pi*t/period)). Models
 * solar harvesting with a dark half-cycle.
 */
class SinusoidalSource : public HarvestSource
{
  public:
    SinusoidalSource(double peak_watts, double period_seconds)
        : peakWatts(peak_watts), periodSeconds(period_seconds)
    {}

    double powerAt(sim::Tick when) const override;

  private:
    double peakWatts;
    double periodSeconds;
};

/** Supercapacitor-style energy buffer. */
class EnergyStore
{
  public:
    /**
     * @param capacity_joules full capacity
     * @param initial_joules starting charge
     */
    EnergyStore(double capacity_joules, double initial_joules)
        : capacityJoules(capacity_joules),
          levelJoules(std::min(initial_joules, capacity_joules))
    {}

    double level() const { return levelJoules; }
    double capacity() const { return capacityJoules; }
    bool empty() const { return levelJoules <= 0.0; }

    /** Add @p joules, clamped at capacity. @return joules accepted. */
    double deposit(double joules);

    /** Remove @p joules, clamped at zero. @return joules delivered. */
    double withdraw(double joules);

  private:
    double capacityJoules;
    double levelJoules;
};

/**
 * Polls the node load at a fixed interval and moves energy through the
 * store. When the store cannot cover an interval's consumption the node is
 * considered browned-out for that interval (counted, and an optional
 * callback fires so the testbench can e.g. reset the node).
 */
class HarvestingSupply : public sim::SimObject
{
  public:
    /**
     * @param load returns the node's instantaneous power draw in watts
     * @param interval polling interval
     */
    HarvestingSupply(sim::Simulation &simulation, const std::string &name,
                     std::unique_ptr<HarvestSource> source, EnergyStore store,
                     std::function<double()> load, sim::Tick interval,
                     sim::SimObject *parent = nullptr);

    void visitStats(sim::stats::Visitor &v) const override;

    /** Begin polling (first poll one interval from now). */
    void start();

    /** Stop polling. */
    void stop();

    const EnergyStore &store() const { return _store; }

    /** Called on every transition into brown-out. */
    void onBrownOut(std::function<void()> cb) { brownOutCb = std::move(cb); }

    /** Called on every transition out of brown-out (store recovered). */
    void onRecover(std::function<void()> cb) { recoverCb = std::move(cb); }

    /**
     * Hysteresis for revive-on-harvest: while browned out, stay browned
     * out until the store refills to @p fraction of capacity. The default
     * (0) leaves brown-out on the first poll the store covers the load —
     * the pre-lifecycle behavior. A dead node draws almost nothing, so
     * without a threshold it would "recover" on the very next poll.
     */
    void setRecoverLevel(double fraction) { recoverFraction = fraction; }

    /**
     * Fault injection: a supply droop spike instantaneously drains
     * @p joules from the store (load transient, connector glitch). An
     * emptied store browns the node out immediately rather than at the
     * next poll.
     */
    void injectDroop(double joules);

    std::uint64_t droops() const
    {
        return static_cast<std::uint64_t>(statDroops.value());
    }

    double harvestedJoules() const { return statHarvested.value(); }
    double consumedJoules() const { return statConsumed.value(); }
    std::uint64_t brownOuts() const
    {
        return static_cast<std::uint64_t>(statBrownOuts.value());
    }
    bool brownedOut() const { return inBrownOut; }

  private:
    void poll();

    std::unique_ptr<HarvestSource> source;
    EnergyStore _store;
    std::function<double()> load;
    sim::Tick interval;
    bool inBrownOut = false;
    double recoverFraction = 0.0;
    std::function<void()> brownOutCb;
    std::function<void()> recoverCb;
    sim::MemberEvent<&HarvestingSupply::poll> pollEvent{this, "poll"};

    sim::stats::Scalar statHarvested;
    sim::stats::Scalar statConsumed;
    sim::stats::Scalar statBrownOuts;
    sim::stats::Scalar statBrownOutTicks;
    sim::stats::Scalar statDroops;
    sim::stats::Scalar statDroopJoules;
};

} // namespace ulp::power

#endif // ULP_POWER_HARVEST_HH
