/**
 * @file
 * Ablation: remove the event processor's role and let the general-purpose
 * microcontroller handle every regular event (the paper's critique of
 * SNAP-style designs, §2: the primary computing engine stays powered and
 * does all the work). The EP degenerates into an interrupt dispatcher
 * whose every ISR is a single WAKEUP; the uC performs the sampling and
 * packet staging over the byte-serial bus.
 *
 * Reported: send-path cycles and node power at a moderate duty cycle,
 * versus the real architecture.
 */

#include <cstdio>

#include "bench_util.hh"
#include "compare/fig6.hh"
#include "compare/table4.hh"
#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace {

using namespace ulp;
using namespace ulp::core;

struct Result
{
    std::uint64_t sendCycles;
    double totalWatts;
    double mcuWatts;
};

Result
runNoEp(double duty)
{
    double rate = 800.0 * duty;
    auto period = static_cast<std::uint32_t>(
        std::max(200.0, 100'000.0 / rate));

    ProbeLog log;
    sim::Simulation simulation;
    simulation.setTelemetry(&log);
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 200; };
    SensorNode node(simulation, "node", cfg);
    apps::install(node, apps::buildMcuOnly(period));
    simulation.runForSeconds(4.0);

    // Last complete sample: timer alarm -> TX command.
    const auto &alarms = log.ticks(node.probes().name(), Probe::TimerAlarm);
    const auto &cmds = log.ticks(node.probes().name(), Probe::RadioTxCmd);
    if (alarms.empty() || cmds.empty())
        sim::fatal("no complete timer alarm -> TX command sample");
    sim::Tick end = cmds.back();
    sim::Tick start = 0;
    for (sim::Tick t : alarms) {
        if (t <= end)
            start = t;
    }
    return {node.cyclesBetween(start, end), node.totalAverageWatts(),
            node.micro().averagePowerWatts()};
}

} // namespace

int
main()
{
    bench::banner("Ablation: no event processor (SNAP-style: the uC "
                  "handles all regular events)");

    Result no_ep = runNoEp(0.05);
    std::uint64_t with_ep_cycles = compare::oursSendPathCycles(false);
    compare::Fig6Point with_ep = compare::runFig6Point(0.05, 4.0);

    std::printf("%-34s %14s %14s\n", "", "with EP", "uC-only");
    bench::rule();
    std::printf("%-34s %14llu %14llu\n", "Send path (cycles)",
                static_cast<unsigned long long>(with_ep_cycles),
                static_cast<unsigned long long>(no_ep.sendCycles));
    std::printf("%-34s %14s %14s\n", "Node power @ duty 0.05",
                bench::fmtWatts(with_ep.totalWatts).c_str(),
                bench::fmtWatts(no_ep.totalWatts).c_str());
    std::printf("%-34s %14s %14s\n", "  of which microcontroller",
                bench::fmtWatts(with_ep.mcuWatts).c_str(),
                bench::fmtWatts(no_ep.mcuWatts).c_str());
    bench::rule();
    std::printf("The event-driven fabric both shortens the event (fewer "
                "cycles awake) and moves the\nwork onto blocks an order of "
                "magnitude cheaper than the general-purpose core.\n");
    return 0;
}
