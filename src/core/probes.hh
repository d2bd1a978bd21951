/**
 * @file
 * Measurement probes. Devices report named milestones (timer alarm
 * posted, TX command accepted, uC went back to sleep, ...) to the node's
 * ProbeRecorder, which keeps a count per probe and emits every
 * milestone on the Probe or Mac telemetry channel. Ticks come from that
 * stream: a ProbeLog installed as the
 * simulation's telemetry sink keeps them, and benches and tests turn
 * pairs of its ticks into the cycle counts the paper reports in Table 4
 * and §6.1.3.
 */

#ifndef ULP_CORE_PROBES_HH
#define ULP_CORE_PROBES_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/telemetry.hh"
#include "sim/types.hh"

namespace ulp::core {

enum class Probe : unsigned {
    TimerAlarm = 0,       ///< a timer posted its alarm interrupt
    AdcSampled,           ///< the ADC data register was read
    FilterDecision,       ///< the threshold filter produced a result
    MsgPrepared,          ///< msgproc finished preparing an outgoing frame
    MsgRxProcessed,       ///< msgproc finished classifying a received frame
    RadioTxCmd,           ///< the radio accepted a transmit command
    RadioTxDone,          ///< the radio finished transmitting
    RadioRxDone,          ///< the radio posted a received frame
    McuWoken,             ///< the EP woke the microcontroller
    McuSlept,             ///< the microcontroller went back to sleep
    TimerReconfigured,    ///< a timer load register was rewritten
    FilterReconfigured,   ///< the filter threshold was rewritten
    EpIsrStart,           ///< the EP left READY to service an interrupt
    EpIsrEnd,             ///< the EP returned to READY
    RadioRetry,           ///< the MAC retransmitted after an ACK timeout
    RadioAckSent,         ///< the MAC auto-acknowledged a received frame
    WatchdogBark,         ///< the watchdog expired and forced a reset
    McuForcedReset,       ///< the microcontroller was forcibly reset
    NodeDown,             ///< full supply loss: the node powered off
    NodeUp,               ///< the node's supply recovered and it rebooted
    LightSleepEnter,      ///< sleep policy froze the node (radio in RX)
    LightSleepExit,       ///< the node resumed from light sleep
    DeepSleepEnter,       ///< sleep policy gated the node (state loss)
    DeepSleepExit,        ///< timer wakeup cold-booted the node
    BeaconTx,             ///< the coordinator MAC transmitted a beacon
    BeaconRx,             ///< a device MAC received (re)sync from a beacon
    BeaconMiss,           ///< an expected beacon never arrived
    MacSleep,             ///< the radio MAC slept between superframes
    MacWake,              ///< the radio MAC woke ahead of a beacon
    MacDataRequest,       ///< a device pulled pending indirect data
    FabricLatch,          ///< the event fabric latched a probe.latch link
    NumProbes,
};

constexpr const char *
probeName(Probe probe)
{
    switch (probe) {
      case Probe::TimerAlarm: return "TimerAlarm";
      case Probe::AdcSampled: return "AdcSampled";
      case Probe::FilterDecision: return "FilterDecision";
      case Probe::MsgPrepared: return "MsgPrepared";
      case Probe::MsgRxProcessed: return "MsgRxProcessed";
      case Probe::RadioTxCmd: return "RadioTxCmd";
      case Probe::RadioTxDone: return "RadioTxDone";
      case Probe::RadioRxDone: return "RadioRxDone";
      case Probe::McuWoken: return "McuWoken";
      case Probe::McuSlept: return "McuSlept";
      case Probe::TimerReconfigured: return "TimerReconfigured";
      case Probe::FilterReconfigured: return "FilterReconfigured";
      case Probe::EpIsrStart: return "EpIsrStart";
      case Probe::EpIsrEnd: return "EpIsrEnd";
      case Probe::RadioRetry: return "RadioRetry";
      case Probe::RadioAckSent: return "RadioAckSent";
      case Probe::WatchdogBark: return "WatchdogBark";
      case Probe::McuForcedReset: return "McuForcedReset";
      case Probe::NodeDown: return "NodeDown";
      case Probe::NodeUp: return "NodeUp";
      case Probe::LightSleepEnter: return "LightSleepEnter";
      case Probe::LightSleepExit: return "LightSleepExit";
      case Probe::DeepSleepEnter: return "DeepSleepEnter";
      case Probe::DeepSleepExit: return "DeepSleepExit";
      case Probe::BeaconTx: return "BeaconTx";
      case Probe::BeaconRx: return "BeaconRx";
      case Probe::BeaconMiss: return "BeaconMiss";
      case Probe::MacSleep: return "MacSleep";
      case Probe::MacWake: return "MacWake";
      case Probe::MacDataRequest: return "MacDataRequest";
      case Probe::FabricLatch: return "FabricLatch";
      default: return "unknown";
    }
}

/** MAC-layer milestones go out on the Mac telemetry channel. */
constexpr bool
isMacProbe(Probe probe)
{
    return probe == Probe::RadioTxCmd || probe == Probe::RadioTxDone ||
           probe == Probe::RadioRxDone || probe == Probe::RadioRetry ||
           probe == Probe::RadioAckSent || probe == Probe::BeaconTx ||
           probe == Probe::BeaconRx || probe == Probe::BeaconMiss ||
           probe == Probe::MacDataRequest;
}

class ProbeRecorder : public sim::SimObject
{
  public:
    ProbeRecorder(sim::Simulation &simulation, const std::string &name,
                  sim::SimObject *parent = nullptr)
        : sim::SimObject(simulation, name, parent),
          obs(simulation.telemetry())
    {
        counts.fill(0);
        if (obs)
            obsId = obs->registerComponent(this->name());
    }

    void
    record(Probe probe)
    {
        auto idx = static_cast<unsigned>(probe);
        ++counts[idx];
        if (obs) {
            auto channel = isMacProbe(probe)
                               ? sim::TelemetryChannel::Mac
                               : sim::TelemetryChannel::Probe;
            if (obs->wants(channel)) {
                obs->record(curTick(), obsId, channel,
                            static_cast<std::uint8_t>(idx), 0,
                            counts[idx]);
            }
        }
    }

    /**
     * Emit a sleep-state transition on the SleepState telemetry channel
     * (a = new state, b = old, payload = running transition count).
     * Probe counts are recorded separately by the callers (the
     * light/deep-sleep and MacSleep/MacWake probes above).
     */
    void
    recordSleepState(sim::SleepCode now, sim::SleepCode was)
    {
        ++sleepTransitions;
        if (obs && obs->wants(sim::TelemetryChannel::SleepState)) {
            obs->record(curTick(), obsId, sim::TelemetryChannel::SleepState,
                        static_cast<std::uint8_t>(now),
                        static_cast<std::uint16_t>(was), sleepTransitions);
        }
    }

    std::uint64_t count(Probe probe) const
    {
        return counts[static_cast<unsigned>(probe)];
    }

  private:
    static constexpr unsigned n = static_cast<unsigned>(Probe::NumProbes);
    std::array<std::uint64_t, n> counts;
    std::uint64_t sleepTransitions = 0;

    sim::TelemetrySink *obs = nullptr;
    std::uint32_t obsId = 0;
};

/**
 * In-memory telemetry sink that keeps every probe's tick history, keyed
 * by (component, probe). It listens on the Probe and Mac channels only
 * and ignores energy getters. Install it with Simulation::setTelemetry
 * before building the node, and declare it first so it outlives the
 * node.
 */
class ProbeLog : public sim::TelemetrySink
{
  public:
    ProbeLog()
    {
        channelMask =
            1u << static_cast<unsigned>(sim::TelemetryChannel::Probe) |
            1u << static_cast<unsigned>(sim::TelemetryChannel::Mac);
    }

    std::uint32_t
    registerComponent(const std::string &name) override
    {
        names.push_back(name);
        return static_cast<std::uint32_t>(names.size() - 1);
    }

    void addEnergyProbe(std::uint32_t, std::function<double()>) override {}

    void
    record(sim::Tick tick, std::uint32_t component, sim::TelemetryChannel,
           std::uint8_t a, std::uint16_t, std::uint64_t) override
    {
        history[{component, a}].push_back(tick);
    }

    /** Every tick @p probe fired on @p component, oldest first. */
    const std::vector<sim::Tick> &
    ticks(const std::string &component, Probe probe) const
    {
        static const std::vector<sim::Tick> none;
        auto name = std::find(names.begin(), names.end(), component);
        if (name == names.end())
            return none;
        auto it = history.find(
            {static_cast<std::uint32_t>(name - names.begin()),
             static_cast<std::uint8_t>(probe)});
        return it == history.end() ? none : it->second;
    }

  private:
    std::vector<std::string> names;
    std::map<std::pair<std::uint32_t, std::uint8_t>, std::vector<sim::Tick>>
        history;
};

} // namespace ulp::core

#endif // ULP_CORE_PROBES_HH
