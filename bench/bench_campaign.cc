/**
 * @file
 * Campaign fan-out throughput: runs/second for one seed ensemble over a
 * 3x3 multihop grid, executed five ways —
 *
 *   in-process    executeRun() in a loop, no store, no processes: the
 *                 floor every orchestration overhead is measured from;
 *   spawn-per-run the coordinator restricted to one run per worker
 *                 (jobs=1, runs-per-worker=1): what a hand-rolled
 *                 `for seed in ...; do ulpsim run; done` shell loop
 *                 pays, with a fork+exec+scenario-parse per run;
 *   pool jobs=1/2/4  the real pipelined pool, workers parse the
 *                 scenario once and stream runs.
 *
 * The per-run stats records of the jobs=1 and jobs=4 pools must be
 * byte-identical (the campaign determinism contract); the bench exits
 * nonzero when they are not. Rows run with more jobs than hardware
 * threads are flagged oversubscribed — throughput there measures
 * queuing, not speedup, and is reported for correctness only.
 *
 *   bench_campaign [--smoke] [--json[=PATH]] [--check[=PATH]]
 *
 * The flags are the shared bench harness's (bench_util.hh): --json
 * writes the BENCH_campaign.json snapshot, --smoke shrinks the ensemble
 * for CI, and --check re-runs the full ensemble against the snapshot:
 * runs_ok and stats_identical must equal the committed values.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "campaign/runner.hh"
#include "campaign/spec.hh"
#include "campaign/store.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"

#include <unistd.h>

using namespace ulp;

namespace {

constexpr const char *scenarioText = R"ini(
[scenario]
name = bench-campaign-grid
seconds = 1
seed = 42

[nodes]
count = 9
app = app3
period = 2000
signal = sine:60,5
placement = grid
spacing = 40

[radio]
model = spatial
path-loss-exponent = 2.8
sensitivity-dbm = -90

[routes]
sink = 0
)ini";

std::string
selfExecutable()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return "bench_campaign";
    buf[n] = '\0';
    return buf;
}

struct Execution
{
    double wall = 0.0;
    std::map<std::uint64_t, std::string> stats; ///< ok run id -> stats JSON
};

/** One configuration: in-process when @p jobs is 0, else the pool. */
Execution
execute(const scenario::Scenario &base, const std::string &canonical,
        const std::vector<campaign::RunSpec> &runs, unsigned jobs,
        unsigned runsPerWorker)
{
    Execution result;
    const auto start = std::chrono::steady_clock::now();
    if (jobs == 0) {
        for (const campaign::RunSpec &run : runs) {
            result.stats[run.id] = campaign::executeRun(
                campaign::resolveRun(base, run, "<bench_campaign>"));
        }
        result.wall = bench::secondsSince(start);
        return result;
    }

    const std::filesystem::path storePath =
        std::filesystem::temp_directory_path() /
        "bench_campaign_store.jsonl";
    std::filesystem::remove(storePath);
    campaign::ResultsStore store = campaign::ResultsStore::open(
        storePath.string(),
        {"bench", "<inline>", runs.size(),
         campaign::campaignDigest(canonical, runs)},
        false);

    campaign::RunnerConfig cfg;
    cfg.workerExe = selfExecutable();
    cfg.jobs = jobs;
    cfg.timeoutSeconds = 120.0;
    cfg.quiet = true;
    cfg.runsPerWorker = runsPerWorker;
    campaign::runCampaign(canonical, runs, store, cfg);
    result.wall = bench::secondsSince(start);
    for (const campaign::RunRecord &record :
         campaign::ResultsStore::load(storePath.string())) {
        if (record.ok())
            result.stats[record.id] = record.stats;
    }
    std::filesystem::remove(storePath);
    return result;
}

struct Config
{
    const char *label;
    const char *mode;
    unsigned jobs;          ///< 0: in-process
    unsigned runsPerWorker; ///< 0: unlimited
};

constexpr Config configs[] = {
    {"in-process loop (no store, no workers)", "in_process", 0, 0},
    {"spawn per run (shell-loop equivalent)", "spawn_per_run", 1, 1},
    {"worker pool, jobs=1", "pool", 1, 0},
    {"worker pool, jobs=2", "pool", 2, 0},
    {"worker pool, jobs=4", "pool", 4, 0},
};

/**
 * A seed ensemble of 16 runs of 1 simulated second (6 of 0.25 s under
 * --smoke) through every configuration: one row each, and the table.
 */
std::vector<bench::Row>
measure(bool smoke)
{
    const unsigned ensemble = smoke ? 6 : 16;
    scenario::Scenario base =
        scenario::parseScenario(scenarioText, "<bench_campaign>");
    base.seconds = smoke ? 0.25 : 1.0;
    const std::string canonical = scenario::printScenario(base);
    std::vector<campaign::RunSpec> runs;
    for (unsigned r = 0; r < ensemble; ++r) {
        campaign::RunSpec run;
        run.id = r;
        run.overrides.emplace_back("scenario.seed",
                                   std::to_string(base.seed + r));
        runs.push_back(std::move(run));
    }
    bench::banner(sim::csprintf("Campaign fan-out: %u-seed ensemble, "
                                "9-node multihop grid, %g simulated "
                                "second(s) per run",
                                ensemble, base.seconds));

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<bench::Row> rows;
    std::vector<Execution> done;
    for (const Config &c : configs) {
        const Execution &x = done.emplace_back(
            execute(base, canonical, runs, c.jobs, c.runsPerWorker));
        bench::Row &row = rows.emplace_back();
        row.input.text("mode", c.mode)
            .count("jobs", std::max(c.jobs, 1u))
            .count("runs", ensemble)
            .number("seconds", base.seconds);
        // The determinism contract: per-run stats bytes must not depend
        // on the job count (or on running in-process).
        row.exact.count("runs_ok", x.stats.size())
            .flag("stats_identical", x.stats == done[0].stats);
        row.rate.number("runs_per_s", ensemble / x.wall);
        // More jobs than hardware threads measures queuing, not speedup.
        row.info.number("wall_s", x.wall)
            .flag("oversubscribed", c.jobs > hw);
    }

    const double pool1 = done[2].wall;
    std::printf("%-42s %8s %10s %9s %7s\n", "configuration", "wall s",
                "runs/s", "vs pool1", "oversub");
    bench::rule();
    bool identical = true;
    for (std::size_t i = 0; i < done.size(); ++i) {
        std::printf("%-42s %8.3f %10.2f %8.2fx %7s\n", configs[i].label,
                    done[i].wall, ensemble / done[i].wall,
                    pool1 / done[i].wall, configs[i].jobs > hw ? "yes" : "no");
        identical = identical && done[i].stats == done[0].stats;
    }
    bench::rule();
    std::printf("coordinator overhead vs in-process: %+.1f ms/run; "
                "spawn-per-run pays %+.1f ms/run more than the pool\n",
                1e3 * (pool1 - done[0].wall) / ensemble,
                1e3 * (done[1].wall - pool1) / ensemble);
    std::printf("per-run stats identical across jobs=1/2/4 and "
                "in-process: %s\n", identical ? "yes" : "NO");
    if (hw < 4) {
        std::printf("note: only %u hardware thread(s); parallel rows "
                    "are oversubscribed and establish correctness, not "
                    "speedup\n", hw);
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    // Workers exec this very binary with the campaign-worker verb.
    if (argc > 1 && std::strcmp(argv[1], "campaign-worker") == 0)
        return campaign::workerMain(argc, argv);

    const bench::Options options =
        bench::parseOptions(argc, argv, "BENCH_campaign.json", true);
    sim::setQuiet(true); // the in-process rows would chatter otherwise
    return bench::run(options, "bench_campaign",
                      [](bool smoke, bool) { return measure(smoke); });
}
