/**
 * @file
 * The scenario runner: the one code path from a Scenario to a finished
 * run. `ulpsim run`, campaign workers, the scenario benches and the
 * tests all build their runs here, so a scenario section behaves the
 * same under every front end.
 */

#ifndef ULP_SCENARIO_RUN_HH
#define ULP_SCENARIO_RUN_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>

#include "core/network.hh"
#include "fault/fault_injector.hh"
#include "obs/event_log.hh"
#include "scenario/lower.hh"
#include "scenario/resilience.hh"
#include "scenario/scenario.hh"
#include "sleep/controller.hh"

namespace ulp::scenario {

/** Network-wide results the front ends report. */
struct RunTotals
{
    std::uint64_t sinkPackets = 0;    ///< local deliveries at the sink
    std::size_t origins = 0;          ///< distinct origins among them
    std::uint64_t framesPrepared = 0; ///< frames originated network-wide
    double energyJoules = 0.0; ///< node average power x duration, summed
};

/**
 * One scenario run. Construction lowers the scenario and builds, in this
 * order: the telemetry log ([trace] out), the network, the log's energy
 * samplers, the sleep controller, [radio] loss and the [fault] campaign.
 * Same-tick events run in schedule order, so this order fixes the trace
 * bytes. The built parts are public: each front end prints its own
 * report from them.
 *
 * Construction throws sim::FatalError on a scenario the lowering
 * rejects, on [radio] loss without the one-shard broadcast medium, and
 * on an unreadable or malformed fault plan or one whose actions the
 * target node cannot take (a channel action at threads > 1, a droop
 * without a battery), naming the plan file and line.
 */
class ScenarioRun
{
  public:
    explicit ScenarioRun(const Scenario &scenario);

    ScenarioRun(const ScenarioRun &) = delete;
    ScenarioRun &operator=(const ScenarioRun &) = delete;

    /** Run the scenario's duration, through the resilience layer when it
     *  declares [lifecycle], then finish the telemetry log. */
    void run();

    RunTotals totals();

    /** Print the network's statistics, then the fault injector's. */
    void dumpStats(std::ostream &os);

    Lowered low;
    std::unique_ptr<obs::EventLog> log; ///< null without [trace] out
    core::Network network;
    std::optional<sleep::SleepController> sleepCtl; ///< after the samplers
    std::unique_ptr<fault::FaultInjector> injector; ///< null without [fault]
    std::optional<ResilienceReport> resilience; ///< run() with [lifecycle]

  private:
    const Scenario sc;
};

} // namespace ulp::scenario

#endif // ULP_SCENARIO_RUN_HH
