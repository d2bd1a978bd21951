/**
 * @file
 * Campaign engine tests: spec parsing (with a mutation test of the spec
 * reader) and expansion, the append-only results store
 * (round-trip, torn-tail recovery, resume bookkeeping), the
 * multi-process runner (all-ok fan-out, job-count determinism, resume
 * completing exactly the missing runs, crash/flaky/wedge robustness via
 * the "!"-prefixed test hooks), and report aggregation with the
 * baseline gate.
 *
 * This binary is its own campaign worker: main() dispatches the
 * "campaign-worker" verb to campaign::workerMain before gtest sees
 * argv, so RunnerConfig::workerExe can simply be /proc/self/exe.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/report.hh"
#include "campaign/runner.hh"
#include "campaign/spec.hh"
#include "campaign/store.hh"
#include "mutation.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"

using namespace ulp;

namespace {

/** A 4-node routed grid small enough that one run is a few ms. */
constexpr const char *baseScenarioText = R"ini(
[scenario]
name = test-campaign-grid
seconds = 0.2
seed = 7

[nodes]
count = 4
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

scenario::Scenario
baseScenario()
{
    return scenario::parseScenario(baseScenarioText, "<test_campaign>");
}

std::string
selfExecutable()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    EXPECT_GT(n, 0);
    buf[n > 0 ? n : 0] = '\0';
    return buf;
}

/** Unique per-test scratch directory, removed on destruction. */
struct TmpDir
{
    std::filesystem::path path;

    TmpDir()
    {
        std::string templ = (std::filesystem::temp_directory_path() /
                             "ulp_test_campaign.XXXXXX")
                                .string();
        char *dir = ::mkdtemp(templ.data());
        EXPECT_NE(dir, nullptr);
        path = dir ? dir : templ;
    }
    ~TmpDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string
    file(const std::string &name) const
    {
        return (path / name).string();
    }
};

campaign::RunnerConfig
testConfig(unsigned jobs, double timeoutSeconds = 60.0)
{
    campaign::RunnerConfig cfg;
    cfg.workerExe = selfExecutable();
    cfg.jobs = jobs;
    cfg.timeoutSeconds = timeoutSeconds;
    cfg.testHooks = true;
    cfg.quiet = true;
    return cfg;
}

/** A seed-ensemble run list over the test scenario. */
std::vector<campaign::RunSpec>
seedRuns(unsigned count, std::uint64_t seedBase = 100)
{
    std::vector<campaign::RunSpec> runs;
    for (unsigned r = 0; r < count; ++r) {
        campaign::RunSpec run;
        run.id = r;
        run.overrides.emplace_back("scenario.seed",
                                   std::to_string(seedBase + r));
        runs.push_back(std::move(run));
    }
    return runs;
}

campaign::ResultsStore
freshStore(const std::string &path, const std::string &canonical,
           const std::vector<campaign::RunSpec> &runs)
{
    return campaign::ResultsStore::open(
        path,
        {"test", "<inline>", runs.size(),
         campaign::campaignDigest(canonical, runs)},
        false);
}

std::map<std::uint64_t, campaign::RunRecord>
loadById(const std::string &path)
{
    std::map<std::uint64_t, campaign::RunRecord> out;
    for (campaign::RunRecord &record :
         campaign::ResultsStore::load(path)) {
        EXPECT_EQ(out.count(record.id), 0u)
            << "duplicate record for run " << record.id;
        out[record.id] = std::move(record);
    }
    return out;
}

} // namespace

// --- spec ------------------------------------------------------------------

TEST(CampaignSpec, ParsesSectionsAndExpandsCartesianProduct)
{
    const campaign::CampaignSpec spec = campaign::parseCampaign(
        "[campaign]\n"
        "name = sweep\n"
        "scenario = base.ini\n"
        "repeat = 2\n"
        "seed-base = 100\n"
        "[axis]\n"
        "nodes.period = 1000, 2000\n"
        "scenario.seconds = 1..3\n"
        "[run]\n"
        "nodes.count = 6\n",
        "<spec>");
    EXPECT_EQ(spec.name, "sweep");
    EXPECT_EQ(spec.scenario, "base.ini");
    EXPECT_EQ(spec.repeat, 2u);
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[0].values,
              (std::vector<std::string>{"1000", "2000"}));
    EXPECT_EQ(spec.axes[1].values,
              (std::vector<std::string>{"1", "2", "3"}));

    const std::vector<campaign::RunSpec> runs =
        campaign::expandRuns(spec, baseScenario());
    // 2 periods x 3 seconds x 2 seeds + 1 explicit run.
    ASSERT_EQ(runs.size(), 13u);
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].id, i);

    // Last axis fastest, seeds innermost: run 0 and 1 differ only in
    // seed; run 2 moves `scenario.seconds`; run 6 moves `nodes.period`.
    EXPECT_EQ(runs[0].label(),
              "nodes.period=1000 scenario.seconds=1 scenario.seed=100");
    EXPECT_EQ(runs[1].label(),
              "nodes.period=1000 scenario.seconds=1 scenario.seed=101");
    EXPECT_EQ(runs[2].label(),
              "nodes.period=1000 scenario.seconds=2 scenario.seed=100");
    EXPECT_EQ(runs[6].label(),
              "nodes.period=2000 scenario.seconds=1 scenario.seed=100");
    // The explicit [run] section lands after the sweep, verbatim.
    EXPECT_EQ(runs[12].label(), "nodes.count=6");
}

TEST(CampaignSpec, RepeatWithoutSeedBaseUsesTheScenarioSeed)
{
    const campaign::CampaignSpec spec = campaign::parseCampaign(
        "[campaign]\n"
        "scenario = base.ini\n"
        "repeat = 3\n",
        "<spec>");
    const std::vector<campaign::RunSpec> runs =
        campaign::expandRuns(spec, baseScenario()); // base seed = 7
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].label(), "scenario.seed=7");
    EXPECT_EQ(runs[2].label(), "scenario.seed=9");
}

TEST(CampaignSpec, SingleRunCampaignEmitsNoSeedOverride)
{
    const campaign::CampaignSpec spec = campaign::parseCampaign(
        "[campaign]\nscenario = base.ini\n", "<spec>");
    const std::vector<campaign::RunSpec> runs =
        campaign::expandRuns(spec, baseScenario());
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_TRUE(runs[0].overrides.empty());
}

TEST(CampaignSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(campaign::parseCampaign("[campaign]\nname = x\n", "<s>"),
                 sim::FatalError); // no scenario
    EXPECT_THROW(campaign::parseCampaign("name = x\n", "<s>"),
                 sim::FatalError); // key before any section
    EXPECT_THROW(campaign::parseCampaign("[campaign]\nscenario = b\n"
                                         "[axis]\nk = 1\nk = 2\n",
                                         "<s>"),
                 sim::FatalError); // duplicate axis
    EXPECT_THROW(campaign::parseCampaign("[campaign]\nscenario = b\n"
                                         "repeat = 0\n",
                                         "<s>"),
                 sim::FatalError);
    EXPECT_THROW(campaign::parseCampaign("[campaign]\nscenario = b\n"
                                         "[axis]\nk = 5..2\n",
                                         "<s>"),
                 sim::FatalError); // backwards range
    EXPECT_THROW(campaign::parseCampaign("[campaign]\nscenario = b\n"
                                         "[run]\n",
                                         "<s>"),
                 sim::FatalError); // empty [run]
}

TEST(CampaignSpec, RangeBoundsAreDecimal)
{
    const campaign::CampaignSpec spec = campaign::parseCampaign(
        "[campaign]\nscenario = b\n[axis]\nnodes.count = 010..012\n",
        "<spec>");
    ASSERT_EQ(spec.axes.size(), 1u);
    EXPECT_EQ(spec.axes[0].values,
              (std::vector<std::string>{"10", "11", "12"}));
}

TEST(CampaignSpec, MutantsLoadOrFailNamingTheFile)
{
    // [campaign], [axis] and [run] sections, a range and a hex seed.
    test::TestDir tmp;
    test::mutate(tmp.file("mutant.ini"),
                 "[campaign]\n"
                 "name = sweep\n"
                 "scenario = base.ini ; relative to this file\n"
                 "repeat = 2\n"
                 "seed-base = 0x10\n"
                 "[axis]\n"
                 "nodes.period = 1000, 2000\n"
                 "scenario.seconds = 1..3\n"
                 "[run]\n"
                 "nodes.count = 6\n"
                 "node.1.x = 5\n",
                 "[]=#;,.@>-0x1 \n", [](const std::string &path) {
                     campaign::parseCampaignFile(path);
                 });
}

TEST(CampaignSpec, RepeatCannotCombineWithAnExplicitSeedAxis)
{
    const campaign::CampaignSpec spec = campaign::parseCampaign(
        "[campaign]\nscenario = b\nrepeat = 2\n"
        "[axis]\nscenario.seed = 1, 2\n",
        "<spec>");
    EXPECT_THROW(campaign::expandRuns(spec, baseScenario()),
                 sim::FatalError);
}

TEST(CampaignSpec, ResolveRunAppliesOverridesAndRevalidates)
{
    const scenario::Scenario base = baseScenario();

    campaign::RunSpec run;
    run.overrides.emplace_back("nodes.period", "500");
    run.overrides.emplace_back("scenario.seed", "42");
    const scenario::Scenario sc =
        campaign::resolveRun(base, run, "<test>");
    EXPECT_EQ(sc.nodes.period, 500u);
    EXPECT_EQ(sc.seed, 42u);

    campaign::RunSpec bogusKey;
    bogusKey.overrides.emplace_back("nodes.no-such-key", "1");
    EXPECT_THROW(campaign::resolveRun(base, bogusKey, "<test>"),
                 sim::FatalError);

    // applyScenarioKey accepts a [node 9] override in isolation; the
    // batch re-validation must still catch the out-of-range index.
    campaign::RunSpec outOfRange;
    outOfRange.overrides.emplace_back("node.9.period", "1000");
    EXPECT_THROW(campaign::resolveRun(base, outOfRange, "<test>"),
                 sim::FatalError);
}

TEST(CampaignSpec, DigestCoversScenarioAndRunList)
{
    const std::vector<campaign::RunSpec> runs = seedRuns(3);
    const std::uint64_t digest = campaign::campaignDigest("scenario", runs);
    EXPECT_EQ(digest, campaign::campaignDigest("scenario", runs));
    EXPECT_NE(digest, campaign::campaignDigest("scenario2", runs));
    EXPECT_NE(digest, campaign::campaignDigest("scenario", seedRuns(4)));
    EXPECT_NE(digest,
              campaign::campaignDigest("scenario", seedRuns(3, 200)));
}

// --- store -----------------------------------------------------------------

TEST(ResultsStore, RoundTripsRecordsThroughDisk)
{
    TmpDir tmp;
    const std::string path = tmp.file("store.jsonl");
    const campaign::ResultsStore::Header header{"camp", "base.ini", 2,
                                                0xdeadbeefULL};
    {
        campaign::ResultsStore store =
            campaign::ResultsStore::open(path, header, false);
        EXPECT_TRUE(store.completed().empty());

        campaign::RunRecord ok;
        ok.id = 0;
        ok.status = "ok";
        ok.attempts = 1;
        ok.elapsedUs = 1234;
        ok.overrides = {"nodes.period=500", "scenario.seed=1"};
        ok.stats = "{\"events\":10,\"energy_j\":1.5e-05}";
        store.append(ok);

        campaign::RunRecord failed;
        failed.id = 1;
        failed.status = "failed";
        failed.attempts = 2;
        failed.error = "worker said \"no\"\n\ttab and \x01 control";
        store.append(failed);
    }

    campaign::ResultsStore::Header loaded;
    const std::vector<campaign::RunRecord> records =
        campaign::ResultsStore::load(path, &loaded);
    EXPECT_EQ(loaded.campaign, "camp");
    EXPECT_EQ(loaded.scenario, "base.ini");
    EXPECT_EQ(loaded.runs, 2u);
    EXPECT_EQ(loaded.digest, 0xdeadbeefULL);

    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].id, 0u);
    EXPECT_EQ(records[0].status, "ok");
    EXPECT_EQ(records[0].attempts, 1u);
    EXPECT_EQ(records[0].elapsedUs, 1234u);
    EXPECT_EQ(records[0].overrides,
              (std::vector<std::string>{"nodes.period=500",
                                        "scenario.seed=1"}));
    // The stats object must survive verbatim — it is the byte-identity
    // contract the determinism oracle compares.
    EXPECT_EQ(records[0].stats, "{\"events\":10,\"energy_j\":1.5e-05}");
    EXPECT_EQ(records[1].status, "failed");
    EXPECT_EQ(records[1].attempts, 2u);
    EXPECT_EQ(records[1].error,
              "worker said \"no\"\n\ttab and \x01 control");
}

TEST(ResultsStore, ResumeTruncatesATornFinalLine)
{
    TmpDir tmp;
    const std::string path = tmp.file("store.jsonl");
    const campaign::ResultsStore::Header header{"camp", "b", 4, 99};
    {
        campaign::ResultsStore store =
            campaign::ResultsStore::open(path, header, false);
        for (std::uint64_t id = 0; id < 2; ++id) {
            campaign::RunRecord record;
            record.id = id;
            record.status = "ok";
            record.stats = "{}";
            store.append(record);
        }
    }
    // A coordinator killed mid-write leaves a partial last line.
    {
        std::ofstream torn(path, std::ios::app);
        torn << "{\"id\":2,\"status\":\"ok";
    }

    // load() tolerates the torn tail; the torn record is not returned.
    EXPECT_EQ(campaign::ResultsStore::load(path).size(), 2u);

    campaign::ResultsStore store =
        campaign::ResultsStore::open(path, header, true);
    EXPECT_EQ(store.tornTail(), 1u);
    EXPECT_EQ(store.completed(),
              (std::set<std::uint64_t>{0, 1})); // the torn id 2 is gone

    // Appending after the truncation yields a clean, fully parseable
    // store again.
    campaign::RunRecord record;
    record.id = 2;
    record.status = "ok";
    record.stats = "{}";
    store.append(record);
    EXPECT_EQ(campaign::ResultsStore::load(path).size(), 3u);
}

TEST(ResultsStore, RefusesCorruptMiddleAndMismatchedStores)
{
    TmpDir tmp;
    const std::string path = tmp.file("store.jsonl");
    const campaign::ResultsStore::Header header{"camp", "b", 2, 7};
    {
        campaign::ResultsStore store =
            campaign::ResultsStore::open(path, header, false);
        campaign::RunRecord record;
        record.id = 0;
        record.status = "ok";
        record.stats = "{}";
        store.append(record);
    }

    // Existing file without --resume: overwriting results must be an
    // explicit choice.
    EXPECT_THROW(campaign::ResultsStore::open(path, header, false),
                 sim::FatalError);

    // Resuming under a different digest (edited spec) must fail loudly.
    campaign::ResultsStore::Header other = header;
    other.digest = 8;
    EXPECT_THROW(campaign::ResultsStore::open(path, other, true),
                 sim::FatalError);

    // A torn line in the MIDDLE is data loss, not a crash artifact.
    std::string text;
    {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    {
        std::ofstream out(path, std::ios::trunc);
        out << text << "garbage not json\n";
        campaign::RunRecord record; // valid line after the corruption
        out << "{\"id\":1,\"status\":\"ok\",\"attempts\":1,"
               "\"elapsed_us\":0,\"overrides\":[],\"stats\":{},"
               "\"error\":\"\"}\n";
        (void)record;
    }
    EXPECT_THROW(campaign::ResultsStore::load(path), sim::FatalError);
    EXPECT_THROW(campaign::ResultsStore::open(path, header, true),
                 sim::FatalError);
}

TEST(ResultsStore, UnreadableValuesInAMiddleRecordAreFatal)
{
    TmpDir tmp;
    const std::string path = tmp.file("store.jsonl");
    const std::string header =
        "{\"type\":\"campaign\",\"campaign\":\"camp\",\"scenario\":\"b\","
        "\"runs\":2,\"digest\":\"0000000000000007\"}\n";
    const std::string last =
        "{\"id\":1,\"status\":\"ok\",\"attempts\":1,\"elapsed_us\":0,"
        "\"overrides\":[],\"stats\":{},\"error\":\"\"}\n";
    // An unknown member is skipped only when it is JSON; a stats value
    // that is not JSON is not read as 0, and one the report summarizes
    // must be a number when the store loads, not when it is reported.
    for (const char *middle :
         {"{\"id\":0,\"status\":\"ok\",\"note\":@@ garbage @@,"
          "\"stats\":{}}\n",
          "{\"id\":0,\"status\":\"ok\","
          "\"stats\":{\"delivery_ratio\":oops}}\n",
          "{\"id\":0,\"status\":\"ok\","
          "\"stats\":{\"delivery_ratio\":\"x\"}}\n"}) {
        std::ofstream(path, std::ios::trunc) << header << middle << last;
        try {
            campaign::ResultsStore::load(path);
            ADD_FAILURE() << "loaded: " << middle;
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(path + ":2:"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ResultsStore, FieldEncodingRoundTrips)
{
    const std::string nasty = "a b\tc%20\r\nd";
    EXPECT_EQ(campaign::decodeField(campaign::encodeField(nasty)), nasty);
    // The encoded form must be line-framing safe.
    const std::string encoded = campaign::encodeField(nasty);
    EXPECT_EQ(encoded.find_first_of(" \t\r\n"), std::string::npos);
}

// --- runner ----------------------------------------------------------------

TEST(CampaignRunner, RunsEveryRunToAnOkRecord)
{
    TmpDir tmp;
    const std::string canonical =
        scenario::printScenario(baseScenario());
    const std::vector<campaign::RunSpec> runs = seedRuns(6);
    const std::string path = tmp.file("store.jsonl");

    campaign::ResultsStore store = freshStore(path, canonical, runs);
    const campaign::CampaignResult outcome =
        campaign::runCampaign(canonical, runs, store, testConfig(2));
    EXPECT_EQ(outcome.ok, 6u);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_EQ(outcome.skipped, 0u);

    const auto byId = loadById(path);
    ASSERT_EQ(byId.size(), 6u);
    for (const auto &[id, record] : byId) {
        EXPECT_EQ(record.status, "ok") << "run " << id;
        EXPECT_EQ(record.attempts, 1u);
        EXPECT_NE(record.stats.find("\"delivery_ratio\":"),
                  std::string::npos);
    }
}

TEST(CampaignRunner, PerRunStatsAreByteIdenticalAcrossJobCounts)
{
    TmpDir tmp;
    const std::string canonical =
        scenario::printScenario(baseScenario());
    const std::vector<campaign::RunSpec> runs = seedRuns(4);

    auto statsAt = [&](unsigned jobs, const std::string &path) {
        campaign::ResultsStore store = freshStore(path, canonical, runs);
        const campaign::CampaignResult outcome = campaign::runCampaign(
            canonical, runs, store, testConfig(jobs));
        EXPECT_EQ(outcome.ok, runs.size());
        std::map<std::uint64_t, std::string> stats;
        for (const auto &[id, record] : loadById(path))
            stats[id] = record.stats;
        return stats;
    };

    const auto serial = statsAt(1, tmp.file("jobs1.jsonl"));
    const auto parallel = statsAt(4, tmp.file("jobs4.jsonl"));
    ASSERT_EQ(serial.size(), 4u);
    EXPECT_EQ(serial, parallel);

    // And the workers agree with an in-process execution of the same
    // resolved scenario — the protocol adds nothing to the stats bytes.
    const scenario::Scenario base = baseScenario();
    for (const auto &[id, stats] : serial) {
        EXPECT_EQ(stats,
                  campaign::executeRun(
                      campaign::resolveRun(base, runs[id], "<test>")))
            << "run " << id;
    }
}

TEST(CampaignRunner, ResumeCompletesExactlyTheMissingRuns)
{
    TmpDir tmp;
    const std::string canonical =
        scenario::printScenario(baseScenario());
    const std::vector<campaign::RunSpec> runs = seedRuns(5);
    const std::string path = tmp.file("store.jsonl");
    const std::uint64_t digest =
        campaign::campaignDigest(canonical, runs);

    {
        campaign::ResultsStore store = freshStore(path, canonical, runs);
        const campaign::CampaignResult outcome = campaign::runCampaign(
            canonical, runs, store, testConfig(2));
        ASSERT_EQ(outcome.ok, 5u);
    }

    // Simulate a crash that lost runs 1 and 3: rewrite the store with
    // those records dropped.
    {
        std::ifstream in(path);
        std::string line;
        std::vector<std::string> kept;
        while (std::getline(in, line)) {
            if (line.find("\"id\":1,") == std::string::npos &&
                line.find("\"id\":3,") == std::string::npos) {
                kept.push_back(line);
            }
        }
        ASSERT_EQ(kept.size(), 4u); // header + 3 records
        std::ofstream out(path, std::ios::trunc);
        for (const std::string &keep : kept)
            out << keep << "\n";
    }

    campaign::ResultsStore store = campaign::ResultsStore::open(
        path, {"test", "<inline>", runs.size(), digest}, true);
    EXPECT_EQ(store.completed(), (std::set<std::uint64_t>{0, 2, 4}));
    const campaign::CampaignResult outcome =
        campaign::runCampaign(canonical, runs, store, testConfig(2));
    EXPECT_EQ(outcome.ok, 2u);
    EXPECT_EQ(outcome.skipped, 3u);

    // Every run present exactly once (loadById asserts no duplicates).
    const auto byId = loadById(path);
    ASSERT_EQ(byId.size(), 5u);
    for (std::uint64_t id = 0; id < 5; ++id) {
        ASSERT_TRUE(byId.count(id)) << "run " << id;
        EXPECT_EQ(byId.at(id).status, "ok");
    }
}

TEST(CampaignRunner, CrashedRunIsRetriedOnceThenRecordedFailed)
{
    TmpDir tmp;
    const std::string canonical =
        scenario::printScenario(baseScenario());
    std::vector<campaign::RunSpec> runs = seedRuns(3);
    runs[1].overrides.emplace_back("!kill", "hard");
    const std::string path = tmp.file("store.jsonl");

    campaign::ResultsStore store = freshStore(path, canonical, runs);
    const campaign::CampaignResult outcome =
        campaign::runCampaign(canonical, runs, store, testConfig(2));
    EXPECT_EQ(outcome.ok, 2u);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(outcome.retried, 1u);

    const auto byId = loadById(path);
    ASSERT_EQ(byId.size(), 3u);
    EXPECT_EQ(byId.at(0).status, "ok");
    EXPECT_EQ(byId.at(2).status, "ok");
    const campaign::RunRecord &dead = byId.at(1);
    EXPECT_EQ(dead.status, "failed");
    EXPECT_EQ(dead.attempts, 2u); // fresh worker, one retry
    EXPECT_NE(dead.error.find("signal 9"), std::string::npos)
        << dead.error;
}

TEST(CampaignRunner, NonzeroExitIsRetriedAndCaptured)
{
    TmpDir tmp;
    const std::string canonical =
        scenario::printScenario(baseScenario());
    std::vector<campaign::RunSpec> runs = seedRuns(2);
    runs[0].overrides.emplace_back("!kill", "exit");
    const std::string path = tmp.file("store.jsonl");

    campaign::ResultsStore store = freshStore(path, canonical, runs);
    const campaign::CampaignResult outcome =
        campaign::runCampaign(canonical, runs, store, testConfig(1));
    EXPECT_EQ(outcome.ok, 1u);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(outcome.retried, 1u);
    const auto byId = loadById(path);
    EXPECT_NE(byId.at(0).error.find("exited with status 3"),
              std::string::npos)
        << byId.at(0).error;
}

TEST(CampaignRunner, FlakyRunRecoversOnTheRetry)
{
    TmpDir tmp;
    const std::string canonical =
        scenario::printScenario(baseScenario());
    std::vector<campaign::RunSpec> runs = seedRuns(2);
    // The hook SIGKILLs the worker the first time through and succeeds
    // once its marker file exists — exercising the happy retry path.
    runs[0].overrides.emplace_back("!flaky", tmp.file("marker"));
    const std::string path = tmp.file("store.jsonl");

    campaign::ResultsStore store = freshStore(path, canonical, runs);
    const campaign::CampaignResult outcome =
        campaign::runCampaign(canonical, runs, store, testConfig(2));
    EXPECT_EQ(outcome.ok, 2u);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_EQ(outcome.retried, 1u);

    const auto byId = loadById(path);
    EXPECT_EQ(byId.at(0).status, "ok");
    EXPECT_EQ(byId.at(0).attempts, 2u);
    EXPECT_EQ(byId.at(1).attempts, 1u);
}

TEST(CampaignRunner, WedgedWorkerIsKilledByTheTimeout)
{
    TmpDir tmp;
    const std::string canonical =
        scenario::printScenario(baseScenario());
    std::vector<campaign::RunSpec> runs = seedRuns(2);
    runs[0].overrides.emplace_back("!kill", "wedge");
    const std::string path = tmp.file("store.jsonl");

    campaign::ResultsStore store = freshStore(path, canonical, runs);
    const campaign::CampaignResult outcome = campaign::runCampaign(
        canonical, runs, store, testConfig(2, 0.3));
    EXPECT_EQ(outcome.ok, 1u);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(outcome.retried, 1u); // wedged again on the retry

    const auto byId = loadById(path);
    const campaign::RunRecord &wedged = byId.at(0);
    EXPECT_EQ(wedged.status, "failed");
    EXPECT_EQ(wedged.attempts, 2u);
    EXPECT_NE(wedged.error.find("timeout"), std::string::npos)
        << wedged.error;
    EXPECT_EQ(byId.at(1).status, "ok");
}

TEST(CampaignRunner, DeterministicScenarioErrorFailsWithoutRetry)
{
    TmpDir tmp;
    const std::string canonical =
        scenario::printScenario(baseScenario());
    std::vector<campaign::RunSpec> runs = seedRuns(2);
    // A bad override is a clean worker-reported failure: retrying on a
    // fresh process cannot change the outcome, so the runner must not.
    runs[0].overrides.emplace_back("nodes.no-such-key", "1");
    const std::string path = tmp.file("store.jsonl");

    campaign::ResultsStore store = freshStore(path, canonical, runs);
    const campaign::CampaignResult outcome =
        campaign::runCampaign(canonical, runs, store, testConfig(1));
    EXPECT_EQ(outcome.ok, 1u);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(outcome.retried, 0u);

    const auto byId = loadById(path);
    EXPECT_EQ(byId.at(0).status, "failed");
    EXPECT_EQ(byId.at(0).attempts, 1u);
    EXPECT_NE(byId.at(0).error.find("no-such-key"), std::string::npos)
        << byId.at(0).error;
}

// --- report ----------------------------------------------------------------

namespace {

campaign::RunRecord
okRecord(std::uint64_t id, const std::string &axis, unsigned seed,
         double delivery, double energyPerBit, double lifetime)
{
    campaign::RunRecord record;
    record.id = id;
    record.status = "ok";
    if (!axis.empty())
        record.overrides.push_back(axis);
    record.overrides.push_back("scenario.seed=" + std::to_string(seed));
    char stats[256];
    std::snprintf(stats, sizeof stats,
                  "{\"delivery_ratio\":%.6f,\"energy_per_bit_j\":%.9g,"
                  "\"lifetime_s\":%.6f}",
                  delivery, energyPerBit, lifetime);
    record.stats = stats;
    return record;
}

} // namespace

TEST(CampaignReport, GroupsBySweepPointIgnoringTheEnsembleSeed)
{
    std::vector<campaign::RunRecord> records;
    for (unsigned seed = 0; seed < 4; ++seed) {
        records.push_back(okRecord(seed, "nodes.period=1000", seed,
                                   0.90 + 0.01 * seed, 1e-6, 10.0));
        records.push_back(okRecord(4 + seed, "nodes.period=2000", seed,
                                   0.70 + 0.01 * seed, 2e-6, 20.0));
    }
    // A failed record must not contribute to any group.
    campaign::RunRecord failed;
    failed.id = 8;
    failed.status = "failed";
    failed.overrides = {"nodes.period=1000", "scenario.seed=9"};
    records.push_back(failed);

    const std::vector<campaign::GroupSummary> groups =
        campaign::summarize(records);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].group, "nodes.period=1000");
    EXPECT_EQ(groups[0].n, 4u);
    // Nearest-rank p50 over {0.90,0.91,0.92,0.93} is the 2nd value.
    EXPECT_NEAR(groups[0].deliveryP50, 0.91, 1e-9);
    EXPECT_NEAR(groups[0].deliveryP99, 0.93, 1e-9);
    EXPECT_EQ(groups[1].group, "nodes.period=2000");
    EXPECT_NEAR(groups[1].energyPerBitP50, 2e-6, 1e-15);
    EXPECT_NEAR(groups[1].lifetimeP50, 20.0, 1e-9);
}

TEST(CampaignReport, BaselineGatePassesWithinToleranceAndFailsOutside)
{
    TmpDir tmp;
    std::vector<campaign::RunRecord> records;
    for (unsigned seed = 0; seed < 3; ++seed)
        records.push_back(okRecord(seed, "nodes.period=1000", seed,
                                   0.9, 1e-6, 10.0));
    const std::vector<campaign::GroupSummary> groups =
        campaign::summarize(records);

    const std::string path = tmp.file("baseline.json");
    campaign::writeBaseline(path, {"camp", "b", 3, 1}, groups);
    EXPECT_EQ(campaign::checkBaseline(path, groups, 0.05), 0u);

    // Nudge delivery by 2%: inside a 5% band, outside a 1% band.
    std::vector<campaign::GroupSummary> nudged = groups;
    nudged[0].deliveryP50 *= 1.02;
    EXPECT_EQ(campaign::checkBaseline(path, nudged, 0.05), 0u);
    EXPECT_GT(campaign::checkBaseline(path, nudged, 0.01), 0u);

    // A group missing from either side is a violation, not a skip.
    std::vector<campaign::GroupSummary> renamed = groups;
    renamed[0].group = "nodes.period=9999";
    EXPECT_GT(campaign::checkBaseline(path, renamed, 0.05), 0u);
}

TEST(CampaignReport, ReformattedBaselineGatesLikeTheCompactOne)
{
    TmpDir tmp;
    std::vector<campaign::RunRecord> records;
    for (unsigned seed = 0; seed < 3; ++seed)
        records.push_back(okRecord(seed, "nodes.period=1000", seed,
                                   0.9, 1e-6, 10.0));
    const std::vector<campaign::GroupSummary> groups =
        campaign::summarize(records);
    const std::string compact = tmp.file("baseline.json");
    campaign::writeBaseline(compact, {"camp", "b", 3, 1}, groups);

    // The same baseline as `python3 -m json.tool` prints it.
    const std::string pretty = tmp.file("pretty.json");
    std::ofstream(pretty) << R"({
    "campaign": "camp",
    "groups": [
        {
            "group": "nodes.period=1000",
            "n": 3,
            "delivery_ratio_p50": 0.9,
            "energy_per_bit_j_p50": 1e-06,
            "lifetime_s_p50": 10.0
        }
    ]
}
)";

    std::vector<campaign::GroupSummary> nudged = groups;
    nudged[0].deliveryP50 *= 1.02;
    std::vector<campaign::GroupSummary> renamed = groups;
    renamed[0].group = "nodes.period=9999";
    for (const auto &[current, tolerance] :
         {std::pair{groups, 0.05}, std::pair{nudged, 0.05},
          std::pair{nudged, 0.01}, std::pair{renamed, 0.05}}) {
        EXPECT_EQ(campaign::checkBaseline(pretty, current, tolerance),
                  campaign::checkBaseline(compact, current, tolerance));
    }
    EXPECT_EQ(campaign::checkBaseline(pretty, groups, 0.05), 0u);
    EXPECT_GT(campaign::checkBaseline(pretty, nudged, 0.01), 0u);
}

// ---------------------------------------------------------------------------

int
main(int argc, char **argv)
{
    // This binary is its own campaign worker: the runner tests point
    // workerExe at /proc/self/exe and the verb must win before gtest
    // parses the command line.
    if (argc > 1 && std::strcmp(argv[1], "campaign-worker") == 0)
        return campaign::workerMain(argc, argv);

    ::testing::InitGoogleTest(&argc, argv);
    sim::setQuiet(true);
    return RUN_ALL_TESTS();
}
