/**
 * @file
 * Energy per serviced event for the three event-servicing paths:
 *
 *   linked   the peripheral event-linking fabric routes the whole sensing
 *            chain (timer -> sample -> prepare -> transmit -> gate); the
 *            event processor never wakes;
 *   EP       the baseline architecture: the event processor's ISRs
 *            service every regular event (application v1);
 *   uC       the SNAP-style ablation: the EP degenerates into a WAKEUP
 *            dispatcher and the general-purpose microcontroller does the
 *            work over the byte-serial bus.
 *
 * Each path runs the same 100 Hz sampling workload on one node; the
 * servicing engines' measured activity factors are then carried into the
 * Equation 1 technology model to project energy per event across process
 * nodes (the §5 methodology: pick the process for the activity factor you
 * actually run at).
 *
 * The second half scales up: a 256-node linked network against the same
 * network unlinked, gated on the K = 1/2/4 oracle (identical counters and
 * a byte-identical merged stats tree) in both configurations, reporting
 * simulated kernel events per sensor action.
 *
 * `--smoke` shrinks both halves for CI.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/apps.hh"
#include "core/network.hh"
#include "core/sensor_node.hh"
#include "fabric/event_fabric.hh"
#include "scenario/run.hh"
#include "scenario/scenario.hh"
#include "sim/simulation.hh"
#include "tech/eq1_model.hh"

namespace {

using namespace ulp;
using namespace ulp::core;
using fabric::Link;
using fabric::Sink;
using fabric::Source;

std::vector<Link>
sensingChain()
{
    return {{Source::Timer0Fire, Sink::AdcSample},
            {Source::AdcThreshold, Sink::MsgProcTx},
            {Source::MsgTxReady, Sink::RadioTx},
            {Source::RadioTxDone, Sink::RadioGate}};
}

enum class Path { Linked, Ep, Mcu };

const char *
pathName(Path path)
{
    switch (path) {
      case Path::Linked: return "linked";
      case Path::Ep: return "EP";
      case Path::Mcu: return "uC";
    }
    return "?";
}

struct PathResult
{
    std::uint64_t events = 0;      ///< sensor actions completed (frames)
    double engineWatts = 0.0;      ///< servicing engines (EP + uC + fabric)
    double engineAlpha = 0.0;      ///< busiest servicing engine's duty
    double nodeEnergy = 0.0;       ///< whole-node ledger, joules
    double seconds = 0.0;
};

PathResult
runPath(Path path, double seconds)
{
    const std::uint32_t period = 1000; // 100 Hz at the 100 kHz system clock

    sim::Simulation simulation;
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 200; };
    SensorNode node(simulation, "node", cfg);

    apps::AppParams params;
    params.samplePeriodCycles = period;
    switch (path) {
      case Path::Linked:
        apps::install(node, apps::buildApp1(params));
        node.fabric().configure(sensingChain(), 0);
        break;
      case Path::Ep:
        apps::install(node, apps::buildApp1(params));
        break;
      case Path::Mcu:
        apps::install(node, apps::buildMcuOnly(period));
        break;
    }
    simulation.runForSeconds(seconds);

    PathResult r;
    r.events = node.radio().framesSent();
    r.seconds = seconds;
    r.nodeEnergy = node.totalEnergyJoules();
    r.engineWatts = node.ep().averagePowerWatts() +
                    node.micro().averagePowerWatts() +
                    node.fabric().averagePowerWatts();
    switch (path) {
      case Path::Linked: r.engineAlpha = node.fabric().utilization(); break;
      case Path::Ep: r.engineAlpha = node.ep().utilization(); break;
      case Path::Mcu: r.engineAlpha = node.micro().utilization(); break;
    }
    if (path == Path::Linked && node.ep().isrsExecuted() != 0) {
        std::fprintf(stderr, "FAIL: linked path woke the EP %llu times\n",
                     static_cast<unsigned long long>(node.ep().isrsExecuted()));
        std::exit(1);
    }
    return r;
}

// ---------------------------------------------------------------------------
// Network scale: linked vs EP servicing under the K = 1/2/4 oracle
// ---------------------------------------------------------------------------

scenario::Scenario
networkScenario(unsigned count, unsigned threads, double seconds, bool linked)
{
    scenario::Scenario sc;
    sc.name = linked ? "fabric-linked" : "fabric-unlinked";
    sc.seconds = seconds;
    sc.seed = 11;
    sc.threads = threads;
    sc.nodes.count = count;
    sc.nodes.app = "app1";
    sc.nodes.period = 2000;
    sc.nodes.signal = "const:200";
    if (linked) {
        sc.events.emplace();
        sc.events->links = sensingChain();
    }
    return sc;
}

Network::Counters
runNetwork(const scenario::Scenario &sc, std::string *stats)
{
    scenario::ScenarioRun run(sc);
    run.run();
    if (stats) {
        std::ostringstream os;
        run.dumpStats(os);
        *stats = os.str();
    }
    return run.network.counters();
}

/** Run @p threads_list and insist every run is byte-identical to K=1. */
Network::Counters
oracle(unsigned count, double seconds, bool linked,
       const std::vector<unsigned> &threads_list)
{
    std::string base_stats;
    Network::Counters base = runNetwork(
        networkScenario(count, threads_list.front(), seconds, linked),
        &base_stats);
    for (std::size_t i = 1; i < threads_list.size(); ++i) {
        std::string stats;
        Network::Counters c = runNetwork(
            networkScenario(count, threads_list[i], seconds, linked),
            &stats);
        if (!(c == base) || stats != base_stats) {
            std::fprintf(stderr,
                         "FAIL: %s network diverged at K=%u "
                         "(counters %s, stats %s)\n",
                         linked ? "linked" : "unlinked", threads_list[i],
                         c == base ? "equal" : "differ",
                         stats == base_stats ? "identical" : "differ");
            std::exit(1);
        }
    }
    return base;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::parseOptions(argc, argv, nullptr).smoke;

    bench::banner("Event fabric: energy per serviced event, "
                  "linked vs EP vs uC");

    const double seconds = smoke ? 0.5 : 2.0;
    std::vector<PathResult> results;
    for (Path path : {Path::Linked, Path::Ep, Path::Mcu})
        results.push_back(runPath(path, seconds));

    std::printf("%-10s %8s %14s %14s %12s\n", "path", "events",
                "engine/event", "node/event", "engine a");
    bench::rule();
    Path paths[] = {Path::Linked, Path::Ep, Path::Mcu};
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PathResult &r = results[i];
        double engine_energy = r.engineWatts * r.seconds;
        std::printf("%-10s %8llu %13.1f nJ %13.1f nJ %12.2e\n",
                    pathName(paths[i]),
                    static_cast<unsigned long long>(r.events),
                    1e9 * engine_energy / r.events,
                    1e9 * r.nodeEnergy / r.events, r.engineAlpha);
    }
    bench::rule();
    std::printf("engine = EP + uC + fabric power over the run; the linked "
                "path is gated on the EP\nnever waking.\n");

    // Equation 1 projection: each path's measured activity factor at each
    // technology node's min-feasible operating point (§5.1 methodology).
    std::printf("\nEq.1 projected servicing energy per event "
                "(energy = P(alpha) x period):\n");
    std::printf("%-8s %8s", "node", "Vdd(V)");
    for (Path path : paths)
        std::printf(" %12s", pathName(path));
    std::printf("\n");
    bench::rule();
    tech::Eq1Model eq1;
    unsigned tech_rows = 0;
    for (const tech::TechNode &tn : tech::standardNodes()) {
        tech::RingOscillator osc(tn);
        auto vdd = eq1.minFeasibleVdd(osc, 25.0);
        if (!vdd)
            continue;
        tech::OscillatorPoint point = osc.evaluate(*vdd, 25.0);
        std::printf("%-8s %8.3f", tn.name.c_str(), *vdd);
        for (const PathResult &r : results) {
            double watts = eq1.totalPower(r.engineAlpha, point);
            std::printf(" %9.3g pJ", 1e12 * watts * r.seconds / r.events);
        }
        std::printf("\n");
        ++tech_rows;
    }
    bench::rule();
    if (tech_rows < 3) {
        std::fprintf(stderr, "FAIL: only %u feasible technology nodes\n",
                     tech_rows);
        return 1;
    }

    // --- network scale under the oracle ----------------------------------
    const unsigned count = smoke ? 64 : 256;
    const double net_seconds = smoke ? 0.15 : 0.3;
    const std::vector<unsigned> threads_list =
        smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4};

    bench::banner(sim::csprintf("%u-node network: linked vs EP servicing "
                                "(oracle: K = 1/2%s byte-identical)",
                                count, smoke ? "" : "/4"));

    Network::Counters linked =
        oracle(count, net_seconds, true, threads_list);
    Network::Counters unlinked =
        oracle(count, net_seconds, false, threads_list);

    auto per_action = [](const Network::Counters &c) {
        return static_cast<double>(c.eventsProcessed) /
               static_cast<double>(c.framesSent ? c.framesSent : 1);
    };
    std::printf("%-26s %14s %14s\n", "", "linked", "EP");
    bench::rule();
    std::printf("%-26s %14llu %14llu\n", "frames sent",
                static_cast<unsigned long long>(linked.framesSent),
                static_cast<unsigned long long>(unlinked.framesSent));
    std::printf("%-26s %14llu %14llu\n", "kernel events",
                static_cast<unsigned long long>(linked.eventsProcessed),
                static_cast<unsigned long long>(unlinked.eventsProcessed));
    std::printf("%-26s %14.1f %14.1f\n", "events per sensor action",
                per_action(linked), per_action(unlinked));
    std::printf("%-26s %14llu %14llu\n", "EP ISRs",
                static_cast<unsigned long long>(linked.epIsrs),
                static_cast<unsigned long long>(unlinked.epIsrs));
    std::printf("%-26s %14llu %14llu\n", "fabric linked",
                static_cast<unsigned long long>(linked.fabricLinked),
                static_cast<unsigned long long>(unlinked.fabricLinked));
    bench::rule();

    if (linked.fabricLinked == 0 ||
        per_action(linked) >= per_action(unlinked)) {
        std::fprintf(stderr, "FAIL: linked network did not reduce events "
                             "per sensor action\n");
        return 1;
    }
    std::printf("oracle: PASS (both configurations byte-identical across "
                "thread counts)\n");
    return 0;
}
