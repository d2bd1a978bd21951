/**
 * @file
 * Telemetry subsystem tests. The headline property is the determinism
 * oracle from the issue: for a fixed seed, the merged binary trace of a
 * 64-node network is byte-identical whether the simulation ran on 1, 2
 * or 4 shards. Also covers the exporters (validated with the in-tree
 * VCD parser and JSON parser), ring-overflow drop accounting, channel
 * list parsing, the energy totals of sharded vs sequential runs, and the
 * in-memory ProbeLog sink that serves ordered probe histories.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/apps.hh"
#include "core/network.hh"
#include "core/probes.hh"
#include "core/sensor_node.hh"
#include "mutation.hh"
#include "obs/event_log.hh"
#include "obs/exporters.hh"
#include "obs/trace_reader.hh"
#include "sim/ini.hh"
#include "sim/json.hh"
#include "sim/telemetry.hh"

using namespace ulp;

namespace {

/** Same workload as test_parallel's oracle: app v1 near saturation. */
scenario::NetworkSpec
oracleSpec(unsigned nodes, unsigned threads)
{
    scenario::NetworkSpec spec;
    spec.threads = threads;
    spec.channelSeed = 42;
    for (unsigned i = 0; i < nodes; ++i) {
        core::NodeConfig nc;
        nc.address = static_cast<std::uint16_t>(1 + i);
        nc.seed = 1000 + i;
        nc.sensorSignal = [](sim::Tick) { return 200; };
        core::apps::AppParams params;
        params.samplePeriodCycles = 2500 + 37 * i;
        spec.addNode().withConfig(nc).withApp("app1").withParams(params);
    }
    return spec;
}

std::string
freshDir(const std::string &leaf)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / leaf;
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Run the oracle network with tracing and return the trace directory;
 *  the network's counters go to @p counters when it is given. */
std::string
runTraced(unsigned nodes, unsigned threads, double seconds,
          const std::string &leaf,
          std::uint32_t mask = sim::allTelemetryChannels,
          core::Network::Counters *counters = nullptr)
{
    obs::EventLogConfig ecfg;
    ecfg.dir = freshDir(leaf);
    ecfg.channelMask = mask;
    obs::EventLog log(ecfg, threads);

    scenario::NetworkSpec spec = oracleSpec(nodes, threads);
    spec.telemetrySink = [&log](unsigned s) { return &log.sink(s); };
    core::Network network(spec);
    for (unsigned s = 0; s < threads; ++s)
        log.attachSampler(s, network.shardSimulation(s));
    network.runForSeconds(seconds);
    log.finish();
    EXPECT_GT(log.totalRecorded(), 0u);
    EXPECT_EQ(log.totalDropped(), 0u);
    if (counters)
        *counters = network.counters();
    return ecfg.dir;
}

} // namespace

TEST(ObsDeterminism, TracingAddsNoModelEvents)
{
    // Each shard's energy sampler fires every period; those firings are
    // the simulator's work, so a traced run counts the untraced run's
    // events at every thread count.
    for (unsigned threads : {1u, 2u, 4u}) {
        core::Network untraced(oracleSpec(8, threads));
        untraced.runForSeconds(0.05);
        core::Network::Counters traced;
        runTraced(8, threads, 0.05,
                  "obs_events_k" + std::to_string(threads),
                  sim::allTelemetryChannels, &traced);
        EXPECT_EQ(traced.eventsProcessed,
                  untraced.counters().eventsProcessed)
            << "threads=" << threads;
    }
}

TEST(ObsDeterminism, MergedLogByteIdenticalAcrossThreadCounts)
{
    const unsigned nodes = 64;
    const double seconds = 0.05;

    std::string dir1 = runTraced(nodes, 1, seconds, "obs_k1");
    obs::MergedLog log1 = obs::readTraceDir(dir1);
    std::string bytes1 = obs::serializeMerged(log1);
    ASSERT_FALSE(log1.records.empty());
    // Every node contributes several instrumented components.
    EXPECT_GE(log1.components.size(), nodes);

    for (unsigned threads : {2u, 4u}) {
        std::string dir = runTraced(nodes, threads, seconds,
                                    "obs_k" + std::to_string(threads));
        obs::MergedLog log = obs::readTraceDir(dir);
        EXPECT_EQ(log.shards, threads);
        std::string bytes = obs::serializeMerged(log);
        EXPECT_EQ(bytes1.size(), bytes.size())
            << "threads=" << threads;
        EXPECT_TRUE(bytes1 == bytes)
            << "merged trace differs between threads=1 and threads="
            << threads;
    }
}

TEST(ObsExporters, VcdValidatesAndCoversAllHardwareChannels)
{
    std::string dir = runTraced(8, 2, 0.06, "obs_vcd");
    obs::MergedLog log = obs::readTraceDir(dir);
    std::string vcd = obs::exportVcd(log);

    std::string error;
    EXPECT_TRUE(obs::validateVcd(vcd, &error)) << error;

    // Power states, bus grants, EP FSM and IRQ traffic all present.
    EXPECT_NE(vcd.find("power_state"), std::string::npos);
    EXPECT_NE(vcd.find("mcu_holds_bus"), std::string::npos);
    EXPECT_NE(vcd.find("ep_state"), std::string::npos);
    EXPECT_NE(vcd.find("irq_code"), std::string::npos);
    EXPECT_NE(vcd.find("energy_j"), std::string::npos);
    EXPECT_NE(vcd.find("$timescale 1 ns"), std::string::npos);

    // The validator is not a rubber stamp.
    EXPECT_FALSE(obs::validateVcd("$enddefinitions $end\n#0\n", &error));
    std::string broken = vcd + "\n1NOPE\n";
    EXPECT_FALSE(obs::validateVcd(broken, &error));
}

TEST(ObsExporters, ChromeTraceIsValidJsonAndCoversAllHardwareChannels)
{
    std::string dir = runTraced(8, 2, 0.06, "obs_chrome");
    obs::MergedLog log = obs::readTraceDir(dir);

    obs::ExportNames names;
    names.irq = [](std::uint8_t c) { return "irq" + std::to_string(c); };
    names.probe = [](std::uint8_t p) {
        return "probe" + std::to_string(p);
    };
    std::string json = obs::exportChrome(log, names);

    const sim::json::Document doc("chrome export", json);
    EXPECT_FALSE(doc.root()["traceEvents"].array().empty());

    EXPECT_NE(json.find("\"cat\":\"power\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"bus\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"ep\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"irq\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"energy\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

TEST(ObsExporters, PowerCsvHasSamplesAndTotals)
{
    std::string dir = runTraced(4, 1, 0.02, "obs_power");
    obs::MergedLog log = obs::readTraceDir(dir);
    std::string csv = obs::exportPowerCsv(log);
    EXPECT_NE(csv.find("tick,seconds,component"), std::string::npos);
    EXPECT_NE(csv.find("TOTAL"), std::string::npos);
    EXPECT_NE(csv.find(".power"), std::string::npos);

    std::string summary = obs::summarize(log);
    EXPECT_NE(summary.find("records by channel"), std::string::npos);
    EXPECT_NE(summary.find("energy"), std::string::npos);
}

TEST(ObsEventLog, RingOverflowDropsAreCountedNotFatal)
{
    obs::EventLogConfig ecfg;
    ecfg.dir = freshDir("obs_overflow");
    ecfg.ringCapacity = 64;   // tiny: the oracle workload must overflow
    ecfg.streaming = false;   // nothing drains during the run
    obs::EventLog log(ecfg, 1);

    scenario::NetworkSpec spec = oracleSpec(4, 1);
    spec.telemetrySink = [&log](unsigned s) { return &log.sink(s); };
    core::Network network(spec);
    network.runForSeconds(0.05);
    log.finish();

    EXPECT_GT(log.totalDropped(), 0u);

    // The surviving prefix is still a readable, well-formed trace.
    obs::MergedLog merged = obs::readTraceDir(ecfg.dir);
    EXPECT_EQ(merged.records.size(), 64u);
    ASSERT_EQ(merged.droppedPerShard.size(), 1u);
    EXPECT_EQ(merged.droppedPerShard[0], log.totalDropped());
}

TEST(ObsEventLog, ChannelMaskFiltersRecords)
{
    std::uint32_t mask = 0;
    std::string error;
    ASSERT_TRUE(obs::parseChannelList("power,irq", &mask, &error));

    std::string dir = runTraced(4, 1, 0.02, "obs_masked", mask);
    obs::MergedLog log = obs::readTraceDir(dir);
    ASSERT_FALSE(log.records.empty());
    for (const obs::Record &r : log.records) {
        auto channel = static_cast<sim::TelemetryChannel>(r.channel);
        EXPECT_TRUE(channel == sim::TelemetryChannel::Power ||
                    channel == sim::TelemetryChannel::Irq)
            << "unexpected channel " << unsigned(r.channel);
    }
}

TEST(ObsEventLog, ParseChannelListRejectsUnknownNames)
{
    std::uint32_t mask = 0;
    std::string error;

    EXPECT_TRUE(obs::parseChannelList("all", &mask, &error));
    EXPECT_EQ(mask, sim::allTelemetryChannels);

    EXPECT_TRUE(obs::parseChannelList("power,bus,ep", &mask, &error));
    EXPECT_EQ(mask,
              (1u << unsigned(sim::TelemetryChannel::Power)) |
                  (1u << unsigned(sim::TelemetryChannel::Bus)) |
                  (1u << unsigned(sim::TelemetryChannel::EpFsm)));

    EXPECT_FALSE(obs::parseChannelList("power,bogus", &mask, &error));
    EXPECT_EQ(error, "bogus");
    EXPECT_FALSE(obs::parseChannelList("", &mask, &error));
}

// --------------------------------------------------------------------------
// Hostile trace directories: every mutant of the meta file or of a shard
// file loads and exports, or is refused by an error naming the file.
// --------------------------------------------------------------------------

namespace {

/** Read the trace directory holding @p file and export what loaded. */
void
loadAndExport(const std::string &file)
{
    const obs::MergedLog log =
        obs::readTraceDir(std::filesystem::path(file).parent_path());
    obs::exportVcd(log);
    obs::exportChrome(log);
    obs::summarize(log);
}

/** Trace a 2-node network on 2 shards into the test's own directory. */
void
writeSmallTrace(const test::TestDir &tmp)
{
    runTraced(2, 2, 0.002, tmp.dir.filename().string());
}

} // namespace

TEST(TraceMutation, MetaFile)
{
    test::TestDir tmp;
    writeSmallTrace(tmp);
    const std::string meta = tmp.file("meta.ulpt");
    test::mutate(meta, sim::readFile(meta, "meta"), "0 19\nx_.-",
                 loadAndExport);
}

TEST(TraceMutation, ShardFile)
{
    test::TestDir tmp;
    writeSmallTrace(tmp);
    const std::string shard = tmp.file("shard-0.ulpt");
    test::mutate(shard, sim::readFile(shard, "shard"),
                 std::string_view("\x00\x01\x7f\x80\xff", 5), loadAndExport);
}

TEST(TraceMutation, ShardCountBeyondOnePerNodeFailsWithFileAndLine)
{
    test::TestDir tmp;
    writeSmallTrace(tmp);
    const std::string meta = tmp.file("meta.ulpt");
    test::writeFile(meta, "ulptrace-meta 1\nshards 4000000000\n");
    try {
        obs::readTraceDir(tmp.dir);
        FAIL() << "a shard count of 4000000000 loaded";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(meta + ":2: 'shards'"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Run one app-v3 node (periodic samples plus one relayed frame) with
 * @p log as its telemetry sink, hand the node to @p inspect, and return
 * the statistics dump.
 */
std::string
runApp3Node(core::ProbeLog *log,
            const std::function<void(core::SensorNode &)> &inspect = {})
{
    sim::Simulation simulation;
    simulation.setTelemetry(log);
    core::NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 200; };
    core::SensorNode node(simulation, "node", cfg);
    core::apps::AppParams params;
    params.samplePeriodCycles = 1000;
    core::apps::install(node, core::apps::buildApp3(params));
    simulation.runForSeconds(0.01);

    net::Frame frame;
    frame.seq = 21;
    frame.src = 0x0042;
    frame.dest = 0x0003;
    frame.destPan = cfg.pan;
    frame.payload = {55};
    node.radio().injectFrame(frame);
    simulation.runForSeconds(0.04);

    if (inspect)
        inspect(node);
    std::ostringstream os;
    node.dumpStats(os);
    return os.str();
}

TEST(ProbeLog, LeavesTheNodeStatsUnchanged)
{
    core::ProbeLog log;
    EXPECT_EQ(runApp3Node(nullptr), runApp3Node(&log));
}

TEST(ProbeLog, HistoryMatchesRecorderCounts)
{
    core::ProbeLog log;
    runApp3Node(&log, [&log](core::SensorNode &node) {
        const core::ProbeRecorder &probes = node.probes();
        EXPECT_GT(probes.count(core::Probe::TimerAlarm), 1u);
        EXPECT_EQ(probes.count(core::Probe::RadioRxDone), 1u);
        for (unsigned i = 0; i < unsigned(core::Probe::NumProbes); ++i) {
            auto probe = static_cast<core::Probe>(i);
            const std::vector<sim::Tick> &ticks =
                log.ticks(probes.name(), probe);
            EXPECT_EQ(ticks.size(), probes.count(probe))
                << core::probeName(probe);
        }
    });
    EXPECT_TRUE(log.ticks("node.nosuch", core::Probe::TimerAlarm).empty());
}

TEST(ObsEnergy, ShardedEnergyTotalsMatchSequentialBitwise)
{
    const unsigned nodes = 16;
    const double seconds = 0.05;

    core::Network seq(oracleSpec(nodes, 1));
    core::Network par(oracleSpec(nodes, 4));
    seq.runForSeconds(seconds);
    par.runForSeconds(seconds);

    for (unsigned i = 0; i < nodes; ++i) {
        std::vector<core::ComponentPower> a = seq.node(i).powerReport();
        std::vector<core::ComponentPower> b = par.node(i).powerReport();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t row = 0; row < a.size(); ++row) {
            EXPECT_EQ(a[row].component, b[row].component);
            // Bitwise: the parallel kernel replays the same arithmetic.
            EXPECT_EQ(a[row].averageWatts, b[row].averageWatts)
                << "node" << i << " " << a[row].component;
            EXPECT_EQ(a[row].utilization, b[row].utilization);
        }
        EXPECT_EQ(seq.node(i).totalAverageWatts(),
                  par.node(i).totalAverageWatts());
    }
}
