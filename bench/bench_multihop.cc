/**
 * @file
 * Multi-hop scaling sweep: packets delivered at the sink and energy per
 * delivered payload bit as the network grows (64 / 256 / 1024 / 10000
 * nodes on a constant-density grid; the 10k point exercises the pooled
 * frame allocator and SoA node state at memory scale) and as the node
 * density changes (grid pitch
 * sweep at 64 nodes, which moves the hop count of the far corner).
 *
 * Every configuration runs through the scenario engine on the spatial
 * radio model with BFS routes toward a corner sink, and every scale is
 * gated on the cross-thread-count oracle: the merged statistics of the
 * 2- and 4-shard runs must be byte-identical to the sequential run
 * before the row is reported.
 *
 * Flags (the shared bench harness, bench_util.hh):
 *   (none)         the full table on stdout
 *   --smoke        one short gated run at 64 nodes (CI under sanitizers)
 *   --json[=PATH]  write the rows as the BENCH_multihop.json snapshot
 *   --check[=PATH] re-run the committed rows up to 256 nodes (Release
 *                  CI only: a sanitizer or Debug build is slower)
 */

#include <chrono>
#include <climits>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "scenario/lower.hh"
#include "scenario/run.hh"
#include "sim/logging.hh"

using namespace ulp;

namespace {

/** Payload bits per delivered sample frame (1 data byte). */
constexpr double payloadBits = 8.0;

scenario::Scenario
gridScenario(unsigned nodes, unsigned threads, double spacing,
             double seconds)
{
    scenario::Scenario sc;
    sc.name = "bench-multihop";
    sc.seconds = seconds;
    sc.seed = 42;
    sc.threads = threads;
    sc.nodes.count = nodes;
    sc.nodes.app = "app3";
    sc.nodes.period = 2000;
    sc.nodes.placement = scenario::Placement::Grid;
    sc.nodes.spacing = spacing;
    sc.radio.model = scenario::RadioModel::Spatial;
    sc.radio.spatial.pathLossExponent = 2.8;
    sc.radio.spatial.sensitivityDbm = -90.0;
    sc.routes.sink = 0;
    return sc;
}

struct RunResult
{
    core::Network::Counters counters;
    scenario::RunTotals totals;
    double hostSeconds = 0.0; ///< wall-clock time of the run itself
    std::string stats;
};

RunResult
run(const scenario::Scenario &sc)
{
    scenario::ScenarioRun scenarioRun(sc);
    const auto start = std::chrono::steady_clock::now();
    scenarioRun.run();
    RunResult r;
    r.hostSeconds = bench::secondsSince(start);
    r.counters = scenarioRun.network.counters();
    r.totals = scenarioRun.totals();
    std::ostringstream os;
    scenarioRun.dumpStats(os);
    r.stats = os.str();
    return r;
}

/**
 * One row: the workload on one shard, gated on the cross-thread-count
 * oracle, and on packets reaching the sink. Prints its table line.
 */
bench::Row
sweepPoint(unsigned nodes, double spacing, double seconds,
           double minProb = 1.0)
{
    scenario::Scenario sc = gridScenario(nodes, 1, spacing, seconds);
    sc.routes.minProb = minProb;
    const RunResult k1 = run(sc);
    const scenario::RunTotals &t = k1.totals;
    const unsigned maxDepth = scenario::lower(sc).maxDepth();
    // Network energy per delivered payload bit.
    const double energyPerBit =
        t.sinkPackets ? t.energyJoules /
                            (static_cast<double>(t.sinkPackets) * payloadBits)
                      : 0.0;

    // The determinism gate: the same workload on 2 and 4 shards must
    // merge to the identical counters and the identical stats tree. Past
    // 1024 nodes (the 10k memory-scaling point) a K<=2 oracle keeps the
    // row affordable.
    const unsigned maxOracleThreads = nodes > 1024 ? 2 : 4;
    bool oracleOk = true;
    for (unsigned threads : {2u, 4u}) {
        if (threads > maxOracleThreads)
            continue;
        sc.threads = threads;
        RunResult kn = run(sc);
        if (!(kn.counters == k1.counters) || kn.stats != k1.stats ||
            kn.totals.sinkPackets != t.sinkPackets) {
            oracleOk = false;
            std::fprintf(stderr,
                         "bench_multihop: %u nodes: threads=%u diverged "
                         "from the sequential run\n",
                         nodes, threads);
        }
    }

    std::printf("%7u %7gm %6u %6s %9llu %9llu %8zu %10.3f nJ %7s\n",
                nodes, spacing, maxDepth, "0",
                static_cast<unsigned long long>(k1.counters.framesSent),
                static_cast<unsigned long long>(t.sinkPackets), t.origins,
                energyPerBit * 1e9, oracleOk ? "ok" : "FAIL");
    bench::Row row;
    row.input.count("nodes", nodes)
        .number("spacing_m", spacing)
        .number("seconds", seconds)
        .number("min_prob", minProb);
    row.exact.count("max_depth", maxDepth)
        .count("frames_sent", k1.counters.framesSent)
        .count("sink_packets", t.sinkPackets)
        .count("origins", t.origins)
        .flag("threads_oracle_ok", oracleOk)
        .flag("sink_reached", t.sinkPackets > 0);
    // K = 1 run only; lowering is not timed.
    row.rate.number("events_per_host_second",
                    static_cast<double>(k1.counters.eventsProcessed) /
                        k1.hostSeconds);
    row.info.number("total_energy_j", t.energyJoules)
        .number("energy_per_bit_j", energyPerBit);
    return row;
}

/**
 * Scale sweep at constant density, then a density sweep at 64 nodes (a
 * wider pitch stretches the route tree: more hops); --smoke runs one
 * short point. Rows above @p maxNodes are left out.
 */
std::vector<bench::Row>
runSweep(bool smoke, unsigned maxNodes)
{
    std::printf("%7s %8s %6s %6s %9s %9s %8s %13s %7s\n", "nodes",
                "spacing", "hops", "sink", "sent", "packets", "origins",
                "energy/bit", "oracle");
    if (smoke)
        return {sweepPoint(64, 40.0, 0.4)};
    struct Point
    {
        unsigned nodes;
        double spacing, seconds, minProb;
    };
    constexpr Point points[] = {
        {64, 40.0, 2.0, 1.0},
        {256, 40.0, 1.0, 1.0},
        {1024, 40.0, 0.5, 1.0},
        // 10k nodes: the memory-scaling point (pooled frames + SoA node
        // state). The far corner is ~200 hops out, so only the sink's
        // neighborhood delivers within the short window.
        {10000, 40.0, 0.05, 1.0},
        {64, 30.0, 2.0, 1.0},
        // 55 m pitch: the grid links fade (delivery probability ~0.4),
        // so routing must accept lossy hops.
        {64, 55.0, 2.0, 0.4},
    };
    std::vector<bench::Row> rows;
    for (const Point &p : points) {
        if (p.nodes <= maxNodes)
            rows.push_back(
                sweepPoint(p.nodes, p.spacing, p.seconds, p.minProb));
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options options =
        bench::parseOptions(argc, argv, "BENCH_multihop.json", true);
    sim::setQuiet(true); // keep the table clean of msgProc-busy warnings
    // Re-lowering a 10k-node grid is a bench, not a smoke: a check re-runs
    // the rows up to 256 nodes.
    return bench::run(options, "bench_multihop", [](bool smoke, bool check) {
        return runSweep(smoke, check ? 256 : UINT_MAX);
    });
}
