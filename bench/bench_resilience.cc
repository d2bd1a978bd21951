/**
 * @file
 * Resilience sweep: how the mesh degrades and recovers when its busiest
 * relays die mid-run, across churn rates (how many of the top relays
 * fail) and repair policies (none / periodic / triggered / the
 * energy-aware metric on battery-backed nodes), at 64 to 1024 nodes on
 * a constant-density grid with a center sink.
 *
 * Every row runs the scenario through the ResilienceManager — declared
 * kills land on exact ticks, repair rides the modeled µC
 * reconfiguration path — and is gated on the cross-thread-count
 * oracle: counters, the merged statistics tree and the resilience
 * report of the 2- and 4-shard runs must be byte-identical to the
 * sequential run before the row is reported.
 *
 * The largest meshes saturate: the 16-bit sample timer caps the period
 * at ~0.65 s, so past a few hundred nodes the sink funnel congests and
 * the absolute delivery ratios collapse. Those rows stay in the sweep
 * as determinism-at-scale gates — repair still beats no-repair, but
 * read the 64-node block for the recovery story.
 *
 * Flags (the shared bench harness, bench_util.hh):
 *   (none)         the full table on stdout
 *   --smoke        one short gated run at 64 nodes (CI under sanitizers)
 *   --json[=PATH]  write the rows as a BENCH_resilience.json snapshot
 *   --check[=PATH] re-run the committed 64-node rows: repair rounds,
 *                  route updates and both flags must match exactly
 */

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "scenario/lower.hh"
#include "scenario/run.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

using namespace ulp;
using scenario::RepairPolicy;
using scenario::RouteMetric;

namespace {

/** Named policy variants swept per churn point. */
struct Policy
{
    const char *name;
    RepairPolicy repair;
    RouteMetric metric;
};

constexpr Policy policies[] = {
    {"none", RepairPolicy::None, RouteMetric::Hops},
    {"periodic", RepairPolicy::Periodic, RouteMetric::Hops},
    {"triggered", RepairPolicy::Triggered, RouteMetric::Hops},
    {"energy", RepairPolicy::Triggered, RouteMetric::Energy},
};

/**
 * The survivable-mesh grid: reconfigurable (app4) relays routing to a
 * center sink over the spatial radio. The sampling stagger shrinks
 * with the node count so the largest per-node timer period still fits
 * the 16-bit hardware timer.
 */
scenario::Scenario
gridScenario(unsigned nodes, unsigned threads, double seconds)
{
    const unsigned side =
        static_cast<unsigned>(std::lround(std::sqrt(nodes)));
    const unsigned center = (side / 2 - 1) * side + (side / 2 - 1);
    const std::uint32_t period = 60000;
    const std::uint32_t stagger = (65535 - period) / (nodes - 1);

    scenario::Scenario sc;
    sc.name = "bench-resilience";
    sc.seconds = seconds;
    sc.seed = 42;
    sc.threads = threads;
    sc.nodes.count = nodes;
    sc.nodes.app = "app4";
    sc.nodes.period = period;
    sc.nodes.periodStagger = stagger;
    sc.nodes.placement = scenario::Placement::Grid;
    sc.nodes.spacing = 30.0;
    sc.radio.model = scenario::RadioModel::Spatial;
    sc.radio.spatial.pathLossExponent = 2.8;
    sc.radio.spatial.sensitivityDbm = -90.0;
    sc.routes.sink = center;
    sc.lifecycle.emplace();
    return sc;
}

/** Subtree size of every node in the lowered route tree. */
std::vector<unsigned>
subtreeSizes(const scenario::Lowered &low)
{
    const unsigned N = static_cast<unsigned>(low.parents.size());
    std::vector<unsigned> sub(N, 1);
    for (unsigned d = low.maxDepth(); d > 0; --d) {
        for (unsigned i = 0; i < N; ++i) {
            if (low.depth[i] == d && low.parents[i] != UINT_MAX)
                sub[low.parents[i]] += sub[i];
        }
    }
    return sub;
}

/** The `kills` busiest relays of the lowered route tree, busiest first. */
std::vector<unsigned>
busiestRelays(const scenario::Scenario &sc, unsigned kills)
{
    scenario::Lowered low = scenario::lower(sc);
    std::vector<unsigned> sub = subtreeSizes(low);
    std::vector<unsigned> order;
    for (unsigned i = 0; i < sc.nodes.count; ++i)
        if (i != *sc.routes.sink)
            order.push_back(i);
    std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
        return sub[a] != sub[b] ? sub[a] > sub[b] : a < b;
    });
    order.resize(kills);
    return order;
}

struct RunResult
{
    core::Network::Counters counters;
    scenario::ResilienceReport report;
    std::string reportText;
    double totalEnergyJ = 0.0;
    std::string stats;
};

RunResult
run(const scenario::Scenario &sc)
{
    scenario::ScenarioRun scenarioRun(sc);
    scenarioRun.run();

    RunResult r;
    r.report = *scenarioRun.resilience;
    std::ostringstream rep;
    scenario::printResilienceReport(rep, r.report);
    r.reportText = rep.str();
    r.totalEnergyJ = scenarioRun.totals().energyJoules;
    std::ostringstream os;
    scenarioRun.dumpStats(os);
    r.stats = os.str();
    r.counters = scenarioRun.network.counters();
    return r;
}

/**
 * One sweep row: `kills` busiest relays die together at seconds / 4
 * under the given repair policy, gated on the K = 2/4 oracle.
 */
bench::Row
sweepPoint(unsigned nodes, double seconds, unsigned kills,
           const Policy &policy)
{
    scenario::Scenario sc = gridScenario(nodes, 1, seconds);
    const double killAt = seconds / 4.0;
    for (unsigned relay : busiestRelays(sc, kills))
        sc.lifecycle->fail.push_back({relay, killAt});
    sc.lifecycle->repair = policy.repair;
    sc.lifecycle->repairPeriod = 0.5;
    sc.lifecycle->metric = policy.metric;
    if (policy.metric == RouteMetric::Energy) {
        // Reserve-aware routing needs a battery to read reserves from.
        // 0.5 J over a few seconds never browns out — the declared
        // kills stay the only churn; the metric just sees the busier
        // relays' deeper discharge.
        sc.lifecycle->battery = 0.5;
        sc.lifecycle->batteryInterval = 0.05;
    }
    RunResult k1 = run(sc);
    const scenario::ResilienceReport &rep = k1.report;

    // The determinism gate: the same churn on 2 and 4 shards must merge
    // to identical counters, stats and resilience report.
    bool oracleOk = true;
    for (unsigned threads : {2u, 4u}) {
        sc.threads = threads;
        RunResult kn = run(sc);
        if (!(kn.counters == k1.counters) || kn.stats != k1.stats ||
            kn.reportText != k1.reportText) {
            oracleOk = false;
            std::fprintf(stderr,
                         "bench_resilience: %u nodes %s: threads=%u "
                         "diverged from the sequential run\n",
                         nodes, policy.name, threads);
        }
    }

    const double lifetime = sim::ticksToSeconds(rep.lastDeliveryTick);
    std::printf("%7u %6u %10s %7.3f %7.3f %7llu %8llu %6.2fs %6.2fs %7s\n",
                nodes, kills, policy.name, rep.steadyDeliveryRatio,
                rep.postRepairDeliveryRatio,
                static_cast<unsigned long long>(rep.repairRounds),
                static_cast<unsigned long long>(rep.repairUpdates),
                sim::ticksToSeconds(rep.firstDeathTick), lifetime,
                oracleOk ? "ok" : "FAIL");
    bench::Row row;
    row.input.count("nodes", nodes)
        .number("seconds", seconds)
        .count("kills", kills)
        .text("policy", policy.name);
    // Every repaired row must actually deliver after its last repair
    // round; a silent zero is a regression, not a row.
    row.exact.count("repair_rounds", rep.repairRounds)
        .count("repair_updates", rep.repairUpdates)
        .flag("threads_oracle_ok", oracleOk)
        .flag("delivers_after_repair",
              rep.repairRounds == 0 || rep.postRepairDeliveryRatio > 0.0);
    row.info.number("steady_delivery_ratio", rep.steadyDeliveryRatio)
        .number("post_repair_delivery_ratio", rep.postRepairDeliveryRatio)
        .number("first_death_s", sim::ticksToSeconds(rep.firstDeathTick))
        .number("first_partition_s",
                sim::ticksToSeconds(rep.firstPartitionTick))
        .number("lifetime_s", lifetime) // last window that still delivered
        .number("total_energy_j", k1.totalEnergyJ);
    return row;
}

/**
 * Churn-rate x repair-policy grid at 64 nodes, then the scale points:
 * larger meshes, triggered repair vs none; --smoke runs one short
 * point, and --check the 64-node block.
 */
std::vector<bench::Row>
runSweep(bool smoke, bool check)
{
    std::printf("%7s %6s %10s %7s %7s %7s %8s %7s %7s %7s\n", "nodes",
                "kills", "policy", "steady", "postfix", "rounds",
                "updates", "death", "life", "oracle");
    if (smoke)
        return {sweepPoint(64, 4.0, 3, policies[2])};
    std::vector<bench::Row> rows;
    for (unsigned kills : {3u, 6u})
        for (const Policy &policy : policies)
            rows.push_back(sweepPoint(64, 8.0, kills, policy));
    if (check)
        return rows;
    rows.push_back(sweepPoint(256, 6.0, 6, policies[0]));
    rows.push_back(sweepPoint(256, 6.0, 6, policies[2]));
    rows.push_back(sweepPoint(1024, 4.0, 8, policies[2]));
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options options =
        bench::parseOptions(argc, argv, "BENCH_resilience.json", true);
    sim::setQuiet(true); // keep the table clean of msgProc-busy warnings
    return bench::run(options, "bench_resilience", runSweep);
}
