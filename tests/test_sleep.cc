/**
 * @file
 * Sleep-subsystem tests: the per-node sleep policies (src/sleep), the
 * beacon-enabled duty-cycled 802.15.4 MAC, and their scenario surface.
 *
 *  - [sleep]/[mac] parsing: file:line diagnostics, canonical round-trip,
 *    dotted-key overrides, cross-key validation
 *  - lowering conventions: sink/coordinator exemption, per-node override
 *  - the mid-flight rule extended to sleep: a receiver that enters deep
 *    sleep while a frame is on the air misses it like a dead node, on
 *    both the broadcast and the spatial medium; light sleep keeps the
 *    radio in RX
 *  - beacon MAC: coordinator beacons on the BI grid, device sync and
 *    inter-superframe sleep, the unsynced-device fallback that keeps
 *    multi-hop relays flowing beyond coordinator range
 *  - deep sleep: sub-duty energy profile, DeepSleepTimer reset reason
 *  - the K = 1/2/4 byte-identical stats oracle on a beacon-enabled
 *    duty-cycled grid
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/network.hh"
#include "core/sensor_node.hh"
#include "mcu/reset_reason.hh"
#include "net/channel.hh"
#include "net/frame.hh"
#include "scenario/lower.hh"
#include "scenario/run.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace ulp;
namespace map = ulp::core::map;
using scenario::Placement;
using scenario::RadioModel;
using scenario::Scenario;

namespace {

/** Parse @p text expecting a diagnostic that contains @p where. */
void
expectParseError(const std::string &text, const std::string &where)
{
    try {
        scenario::parseScenario(text, "bad.ini");
        FAIL() << "expected a parse error mentioning '" << where << "'";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
            << "diagnostic was: " << e.what();
    }
}

/** An N-node line with 40 m pitch: node i only hears i-1 and i+1. */
Scenario
chainScenario(unsigned count)
{
    Scenario sc;
    sc.name = "chain";
    sc.seconds = 2.0;
    sc.seed = 7;
    sc.nodes.count = count;
    sc.nodes.app = "app3";
    sc.nodes.period = 2000;
    sc.nodes.placement = Placement::Explicit;
    sc.radio.model = RadioModel::Spatial;
    sc.radio.spatial.pathLossExponent = 2.8;
    sc.radio.spatial.sensitivityDbm = -90.0;
    sc.routes.sink = 0;
    for (unsigned i = 0; i < count; ++i) {
        sc.overrides[i].x = 40.0 * i;
        sc.overrides[i].y = 0.0;
    }
    return sc;
}

/** A 16-node beacon-enabled duty-cycled grid routing to a corner sink. */
Scenario
beaconGridScenario(unsigned threads, double seconds)
{
    Scenario sc;
    sc.name = "beacon-grid";
    sc.seconds = seconds;
    sc.seed = 42;
    sc.threads = threads;
    sc.nodes.count = 16;
    sc.nodes.app = "app3";
    sc.nodes.period = 2000;
    sc.nodes.placement = Placement::Grid;
    sc.nodes.spacing = 40.0;
    sc.radio.model = RadioModel::Spatial;
    sc.radio.spatial.pathLossExponent = 2.8;
    sc.radio.spatial.sensitivityDbm = -90.0;
    sc.routes.sink = 0;
    sc.mac.emplace();
    sc.mac->mode = ulp::sleep::MacMode::Beacon;
    sc.mac->beaconOrder = 4;
    sc.mac->sfOrder = 2;
    sc.mac->guard = 128;
    sc.mac->driftPpm = 40.0;
    return sc;
}

/** Run a scenario through the runner; return merged stats. */
core::Network::Counters
runWithSleep(const Scenario &sc, std::string *stats = nullptr)
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

} // namespace

// --------------------------------------------------------------------------
// [sleep] / [mac] parsing and validation
// --------------------------------------------------------------------------

TEST(SleepScenario, DiagnosticsCarryFileAndLine)
{
    expectParseError("[sleep]\npolicy = nap\n", "bad.ini:2");
    expectParseError("[sleep]\npolicy = nap\n",
                     "'policy' must be none, light or deep");
    expectParseError("[mac]\nmode = aloha\n", "bad.ini:2");
    expectParseError("[mac]\nmode = aloha\n", "'mode' must be csma or beacon");
}

TEST(SleepScenario, UnknownKeysRejected)
{
    expectParseError("[sleep]\nnaptime = 5\n",
                     "unknown key 'naptime' in [sleep]");
    expectParseError("[mac]\nsuperframe = 3\n",
                     "unknown key 'superframe' in [mac]");
}

TEST(SleepScenario, RangeChecks)
{
    expectParseError("[sleep]\nperiod = 0\n", "'period' must be positive");
    expectParseError("[sleep]\non = -1\n", "'on' must be positive");
    expectParseError("[mac]\nbeacon-order = 15\n", "beacon-order");
    expectParseError("[mac]\ndrift-ppm = -3\n",
                     "'drift-ppm' must be non-negative");
    expectParseError("[node 0]\nsleep-period = 0\n",
                     "'sleep-period' must be positive");
    expectParseError("[node 0]\nsleep-on = 0\n", "'sleep-on' must be positive");
}

TEST(SleepScenario, CrossKeyValidation)
{
    // The on-window must fit strictly inside the period — also when the
    // two halves come from different places (override + default).
    expectParseError("[sleep]\npolicy = light\nperiod = 1\non = 1\n",
                     "shorter than the period");
    expectParseError("[sleep]\npolicy = deep\nperiod = 0.5\n"
                     "[node 0]\nsleep-on = 0.6\n",
                     "shorter than the period");

    // Beacon mode needs a coordinator (explicit or the routes sink)...
    expectParseError("[mac]\nmode = beacon\n", "needs a coordinator");
    // ...in range...
    expectParseError("[nodes]\ncount = 2\n[mac]\nmode = beacon\n"
                     "coordinator = 5\n",
                     "coordinator is out of range");
    // ...and a CAP no longer than the beacon interval.
    expectParseError("[mac]\nmode = beacon\ncoordinator = 0\n"
                     "beacon-order = 2\nsf-order = 3\n",
                     "must not exceed beacon-order");
}

TEST(SleepScenario, RoundTripIsCanonical)
{
    Scenario sc = chainScenario(3);
    sc.mac.emplace();
    sc.mac->mode = ulp::sleep::MacMode::Beacon;
    sc.mac->beaconOrder = 5;
    sc.mac->sfOrder = 2;
    sc.mac->guard = 64;
    sc.mac->driftPpm = 40.0;
    sc.mac->coordinator = 0;
    sc.sleep.emplace();
    sc.sleep->policy = ulp::sleep::Policy::Light;
    sc.sleep->period = 0.5;
    sc.sleep->on = 0.05;
    sc.overrides[1].sleepPolicy = ulp::sleep::Policy::Deep;
    sc.overrides[1].sleepPeriod = 2.0;
    sc.overrides[1].sleepOn = 0.25;

    const std::string printed = scenario::printScenario(sc);
    Scenario reparsed = scenario::parseScenario(printed, "roundtrip.ini");
    EXPECT_EQ(reparsed, sc);
    EXPECT_EQ(scenario::printScenario(reparsed), printed);
}

TEST(SleepScenario, DottedKeyOverrides)
{
    Scenario sc = chainScenario(3);
    scenario::applyScenarioKey(sc, "sleep.policy", "deep", "axis");
    scenario::applyScenarioKey(sc, "sleep.period", "10", "axis");
    scenario::applyScenarioKey(sc, "sleep.on", "0.2", "axis");
    scenario::applyScenarioKey(sc, "mac.mode", "beacon", "axis");
    scenario::applyScenarioKey(sc, "mac.beacon-order", "7", "axis");
    scenario::applyScenarioKey(sc, "node.2.sleep-policy", "light", "axis");
    ASSERT_TRUE(sc.sleep.has_value());
    EXPECT_EQ(sc.sleep->policy, ulp::sleep::Policy::Deep);
    EXPECT_DOUBLE_EQ(sc.sleep->period, 10.0);
    EXPECT_DOUBLE_EQ(sc.sleep->on, 0.2);
    ASSERT_TRUE(sc.mac.has_value());
    EXPECT_EQ(sc.mac->mode, ulp::sleep::MacMode::Beacon);
    EXPECT_EQ(sc.mac->beaconOrder, 7u);
    EXPECT_EQ(sc.overrides[2].sleepPolicy, ulp::sleep::Policy::Light);
    scenario::validateScenario(sc, "axis");
}

TEST(SleepScenario, LoweringExemptsSinkAndCoordinator)
{
    Scenario sc = chainScenario(3);
    sc.sleep.emplace();
    sc.sleep->policy = ulp::sleep::Policy::Light;
    sc.mac.emplace();
    sc.mac->mode = ulp::sleep::MacMode::Beacon;

    scenario::Lowered low = scenario::lower(sc);
    EXPECT_EQ(low.spec.mac.mode, ulp::sleep::MacMode::Beacon);
    // The coordinator defaults to the routes sink and never sleeps...
    EXPECT_TRUE(low.spec.nodes[0].macCoordinator);
    EXPECT_EQ(low.spec.nodes[0].sleep.policy, ulp::sleep::Policy::None);
    // ...while every other node inherits the [sleep] default.
    EXPECT_EQ(low.spec.nodes[1].sleep.policy, ulp::sleep::Policy::Light);
    EXPECT_EQ(low.spec.nodes[2].sleep.policy, ulp::sleep::Policy::Light);

    // An explicit override opts the sink back in.
    sc.overrides[0].sleepPolicy = ulp::sleep::Policy::Light;
    scenario::Lowered low2 = scenario::lower(sc);
    EXPECT_EQ(low2.spec.nodes[0].sleep.policy, ulp::sleep::Policy::Light);
}

// --------------------------------------------------------------------------
// The mid-flight rule under sleep transitions (broadcast + spatial)
// --------------------------------------------------------------------------

namespace {

/** Two nodes on a broadcast channel; node 0 transmits one frame by hand. */
struct MidflightChannelTest : ::testing::Test
{
    sim::Simulation simulation;
    net::Channel channel{simulation, "channel",
                         net::Channel::defaultBitRate, 42};
    std::unique_ptr<core::SensorNode> sender;
    std::unique_ptr<core::SensorNode> receiver;
    std::vector<std::uint8_t> wire;

    void
    SetUp() override
    {
        core::NodeConfig cfg;
        cfg.address = 1;
        cfg.sensorSignal = [](sim::Tick) { return 0; };
        sender = std::make_unique<core::SensorNode>(simulation, "sender",
                                                    cfg, &channel);
        cfg.address = 2;
        receiver = std::make_unique<core::SensorNode>(simulation, "receiver",
                                                      cfg, &channel);
        receiver->dataBus().write(map::radioBase + map::radioCtrl,
                                  core::RadioDevice::cmdRxOn);

        net::Frame frame;
        frame.seq = 9;
        frame.src = 1;
        frame.dest = 2;
        frame.payload = {0x55};
        wire = frame.serialize();
        for (std::size_t i = 0; i < wire.size(); ++i) {
            sender->dataBus().write(
                static_cast<map::Addr>(map::radioBase + map::radioTxFifo + i),
                wire[i]);
        }
        sender->dataBus().write(map::radioBase + map::radioTxLen,
                                static_cast<std::uint8_t>(wire.size()));
        sender->dataBus().write(map::radioBase + map::radioCtrl,
                                core::RadioDevice::cmdTx);
    }

    /** Advance to the middle of the frame's airtime. */
    void
    advanceToMidair()
    {
        const double air = static_cast<double>(wire.size()) * 8.0 /
                           net::Channel::defaultBitRate;
        simulation.runForSeconds(air / 2.0);
        ASSERT_TRUE(channel.busy()) << "frame should still be on the air";
    }
};

} // namespace

TEST_F(MidflightChannelTest, DeepSleepEntryDropsMidflightFrame)
{
    advanceToMidair();
    receiver->deepSleepEnter();
    simulation.runForSeconds(0.05);
    // The medium owns the in-flight state: the frame completed, but the
    // receiver left the medium mid-flight and never heard it — exactly
    // the dead-node rule.
    EXPECT_EQ(channel.framesDelivered(), 0u);
    EXPECT_EQ(receiver->radio().framesReceived(), 0u);
    EXPECT_FALSE(receiver->radio().attachedToMedium());
}

TEST_F(MidflightChannelTest, AwakeReceiverHearsTheSameFrame)
{
    advanceToMidair();
    simulation.runForSeconds(0.05);
    EXPECT_EQ(channel.framesDelivered(), 1u);
    EXPECT_EQ(receiver->radio().framesReceived(), 1u);
}

TEST_F(MidflightChannelTest, LightSleepKeepsRadioInRx)
{
    advanceToMidair();
    receiver->lightSleepEnter();
    simulation.runForSeconds(0.05);
    // Light sleep is retention sleep: the radio stays attached and in RX,
    // so the mid-flight frame is delivered normally.
    EXPECT_EQ(channel.framesDelivered(), 1u);
    EXPECT_EQ(receiver->radio().framesReceived(), 1u);
    EXPECT_TRUE(receiver->inLightSleep());
}

namespace {

/** Two positioned nodes on a spatial network; node 0
 *  transmits one frame by hand (the apps never sample in-window). */
scenario::NetworkSpec
spatialPairSpec()
{
    net::SpatialConfig radio;
    radio.pathLossExponent = 2.8;
    radio.sensitivityDbm = -90.0;

    scenario::NetworkSpec spec;
    spec.withThreads(1).withSpatial(radio);
    spec.channelSeed = 42;
    for (unsigned i = 0; i < 2; ++i) {
        core::NodeConfig nc;
        nc.address = static_cast<std::uint16_t>(1 + i);
        nc.seed = 1000 + i;
        nc.sensorSignal = [](sim::Tick) { return 0; };
        core::apps::AppParams params;
        params.samplePeriodCycles = 1'000'000'000; // never samples in-test
        spec.addNode()
            .withConfig(nc)
            .withApp("app1")
            .withParams(params)
            .at(10.0 * i, 0.0);
    }
    return spec;
}

/** Drive one frame from node 0 and optionally deep-sleep node 1 at the
 *  middle of its airtime; returns frames delivered by the medium. */
std::uint64_t
spatialMidflightDeliveries(bool sleep_midflight)
{
    core::Network network(spatialPairSpec());
    network.runUntilTick(sim::secondsToTicks(0.001));

    net::Frame frame;
    frame.seq = 9;
    frame.src = 1;
    frame.dest = 2;
    frame.payload = {0x55};
    const std::vector<std::uint8_t> wire = frame.serialize();
    core::SensorNode &sender = network.node(0);
    network.node(1).dataBus().write(map::radioBase + map::radioCtrl,
                                    core::RadioDevice::cmdRxOn);
    for (std::size_t i = 0; i < wire.size(); ++i) {
        sender.dataBus().write(
            static_cast<map::Addr>(map::radioBase + map::radioTxFifo + i),
            wire[i]);
    }
    sender.dataBus().write(map::radioBase + map::radioTxLen,
                           static_cast<std::uint8_t>(wire.size()));
    const sim::Tick txStart = sim::secondsToTicks(0.001);
    sender.dataBus().write(map::radioBase + map::radioCtrl,
                           core::RadioDevice::cmdTx);

    const sim::Tick airTicks = sim::secondsToTicks(
        static_cast<double>(wire.size()) * 8.0 /
        net::Channel::defaultBitRate);
    network.runUntilTick(txStart + airTicks / 2);
    if (sleep_midflight)
        network.node(1).deepSleepEnter();
    network.runUntilTick(txStart + sim::secondsToTicks(0.05));
    return network.counters().framesDelivered;
}

} // namespace

TEST(MidflightSpatial, DeepSleepEntryDropsMidflightFrame)
{
    EXPECT_EQ(spatialMidflightDeliveries(/*sleep_midflight=*/true), 0u);
}

TEST(MidflightSpatial, AwakeReceiverHearsTheSameFrame)
{
    EXPECT_EQ(spatialMidflightDeliveries(/*sleep_midflight=*/false), 1u);
}

// --------------------------------------------------------------------------
// Beacon-enabled duty-cycled MAC
// --------------------------------------------------------------------------

TEST(BeaconMac, CoordinatorBeaconsOnTheSuperframeGrid)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel",
                         net::Channel::defaultBitRate, 42);
    core::NodeConfig cfg;
    cfg.address = 1;
    cfg.sensorSignal = [](sim::Tick) { return 0; };
    core::SensorNode node(simulation, "coord", cfg, &channel);

    node.dataBus().write(map::radioBase + map::radioBeaconOrder, 3);
    node.dataBus().write(map::radioBase + map::radioSfOrder, 1);
    node.dataBus().write(map::radioBase + map::radioMacMode,
                         core::RadioDevice::macModeBeaconCoord);

    // BI(BO=3) = 960 * 2^3 symbols = 122.88 ms.
    const sim::Tick bi = core::RadioDevice::baseSuperframeTicks << 3;
    EXPECT_EQ(node.radio().beaconIntervalTicks(), bi);

    simulation.runForSeconds(1.0);
    const std::uint64_t sent = node.radio().beaconsSent();
    // One beacon per interval across the 1 s run (8.14 intervals).
    EXPECT_GE(sent, 7u);
    EXPECT_LE(sent, 10u);
    EXPECT_EQ(node.probes().count(core::Probe::BeaconTx), sent);
    // Between superframes the coordinator MAC sleeps (SO < BO).
    EXPECT_GT(node.radio().macSleeps(), 0u);
}

TEST(BeaconMac, DeviceSyncsAndSleepsBetweenSuperframes)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel",
                         net::Channel::defaultBitRate, 42);
    core::NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 0; };

    cfg.address = 1;
    core::SensorNode coord(simulation, "coord", cfg, &channel);
    coord.dataBus().write(map::radioBase + map::radioBeaconOrder, 3);
    coord.dataBus().write(map::radioBase + map::radioSfOrder, 1);
    coord.dataBus().write(map::radioBase + map::radioMacMode,
                          core::RadioDevice::macModeBeaconCoord);

    cfg.address = 2;
    core::SensorNode device(simulation, "device", cfg, &channel);
    device.dataBus().write(map::radioBase + map::radioCtrl,
                           core::RadioDevice::cmdRxOn);
    device.dataBus().write(map::radioBase + map::radioMacMode,
                           core::RadioDevice::macModeBeaconDevice);

    simulation.runForSeconds(1.0);
    EXPECT_TRUE(device.radio().beaconSynced());
    EXPECT_GE(device.radio().beaconsReceived(), 4u);
    EXPECT_GT(device.radio().macSleeps(), 0u);
    EXPECT_EQ(device.probes().count(core::Probe::BeaconRx),
              device.radio().beaconsReceived());
    EXPECT_GT(device.probes().count(core::Probe::MacSleep), 0u);
    // The device adopted the coordinator's superframe structure.
    EXPECT_EQ(device.radio().beaconIntervalTicks(),
              coord.radio().beaconIntervalTicks());
}

TEST(BeaconMac, IndirectFrameIsDeliveredOnDataRequest)
{
    sim::setQuiet(true); // the bare nodes have no ISRs bound
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel",
                         net::Channel::defaultBitRate, 42);
    core::NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 0; };

    cfg.address = 1;
    core::SensorNode coord(simulation, "coord", cfg, &channel);
    coord.dataBus().write(map::radioBase + map::radioAddrLo, 1);
    coord.dataBus().write(map::radioBase + map::radioBeaconOrder, 3);
    coord.dataBus().write(map::radioBase + map::radioSfOrder, 1);
    coord.dataBus().write(map::radioBase + map::radioMacMode,
                          core::RadioDevice::macModeBeaconCoord);

    cfg.address = 2;
    core::SensorNode device(simulation, "device", cfg, &channel);
    device.dataBus().write(map::radioBase + map::radioAddrLo, 2);
    device.dataBus().write(map::radioBase + map::radioCtrl,
                           core::RadioDevice::cmdRxOn);
    device.dataBus().write(map::radioBase + map::radioMacMode,
                           core::RadioDevice::macModeBeaconDevice);

    // The coordinator's unicast data to the device waits in the
    // transaction queue for the device to ask for it.
    net::Frame frame;
    frame.seq = 9;
    frame.src = 1;
    frame.dest = 2;
    frame.destPan = cfg.pan;
    frame.payload = {0x5A};
    std::vector<std::uint8_t> wire = frame.serialize();
    for (std::size_t i = 0; i < wire.size(); ++i)
        coord.dataBus().write(
            static_cast<map::Addr>(map::radioBase + map::radioTxFifo + i),
            wire[i]);
    coord.dataBus().write(map::radioBase + map::radioTxLen,
                          static_cast<std::uint8_t>(wire.size()));
    coord.dataBus().write(map::radioBase + map::radioCtrl,
                          core::RadioDevice::cmdTx);
    EXPECT_EQ(coord.radio().indirectQueued(), 1u);
    EXPECT_EQ(coord.radio().framesSent(), 0u);

    // Two beacon intervals: the first beacon advertises the frame, the
    // device sends one data request, the coordinator delivers it.
    simulation.runForSeconds(0.25);
    sim::setQuiet(false);

    EXPECT_EQ(device.radio().dataRequests(), 1u);
    EXPECT_EQ(device.probes().count(core::Probe::MacDataRequest), 1u);
    EXPECT_EQ(coord.radio().indirectDelivered(), 1u);
    EXPECT_EQ(coord.radio().indirectExpired(), 0u);
    EXPECT_EQ(coord.radio().framesSent(), 1u);
    EXPECT_EQ(coord.radio().lastTxFrame(), frame);
    EXPECT_EQ(coord.probes().count(core::Probe::RadioTxDone), 1u);
    EXPECT_EQ(device.radio().framesReceived(), 1u);
    EXPECT_GE(device.radio().beaconsReceived(), 2u);
}

TEST(BeaconMac, UnsyncedRelayBeyondCoordinatorRangeStillDelivers)
{
    // A 3-node chain: node 2 can never hear coordinator 0's beacons, so
    // it must fall back to unsynchronized transmission or the multi-hop
    // path would starve waiting for a CAP that never comes.
    Scenario sc = chainScenario(3);
    sc.mac.emplace();
    sc.mac->mode = ulp::sleep::MacMode::Beacon;
    sc.mac->beaconOrder = 4;
    sc.mac->sfOrder = 2;

    scenario::ScenarioRun run(sc);
    run.run();
    core::Network &network = run.network;

    core::SensorNode &relay = network.node(1);
    core::SensorNode &leaf = network.node(2);
    EXPECT_TRUE(relay.radio().beaconSynced());
    EXPECT_FALSE(leaf.radio().beaconSynced());
    EXPECT_EQ(leaf.radio().beaconsReceived(), 0u);
    EXPECT_GT(leaf.radio().framesSent(), 0u);

    // The leaf's samples crossed both hops: the sink locally delivered
    // frames whose origin is the leaf's address (1 + index = 3).
    const auto &bySource = network.node(0).msgProc().localDeliveriesBySource();
    auto it = bySource.find(3);
    ASSERT_NE(it, bySource.end());
    EXPECT_GT(it->second, 0u);
}

// --------------------------------------------------------------------------
// Deep sleep: energy profile and reset reason
// --------------------------------------------------------------------------

namespace {

/** Two broadcast nodes sampling continuously; node 1's policy varies. */
Scenario
dutyScenario(ulp::sleep::Policy policy, double period, double on,
             double seconds)
{
    Scenario sc;
    sc.name = "duty";
    sc.seconds = seconds;
    sc.seed = 5;
    sc.nodes.count = 2;
    sc.nodes.app = "app1";
    sc.nodes.period = 1000;
    sc.sleep.emplace();
    sc.sleep->policy = policy;
    sc.sleep->period = period;
    sc.sleep->on = on;
    // Node 0 is the always-awake reference (no sink here to exempt it).
    sc.overrides[0].sleepPolicy = ulp::sleep::Policy::None;
    return sc;
}

} // namespace

TEST(DeepSleep, DutyCycledNodeDrawsAFractionOfAwakePower)
{
    sim::setQuiet(true);
    // 1% duty: awake 10 ms of every second.
    Scenario sleepy = dutyScenario(ulp::sleep::Policy::Deep, 1.0, 0.01, 3.0);
    scenario::ScenarioRun run(sleepy);
    run.run();
    core::Network &network = run.network;

    EXPECT_GE(run.sleepCtl->deepSleeps(), 2u);
    EXPECT_GE(network.node(1).probes().count(core::Probe::DeepSleepEnter),
              2u);
    const double awakeWatts = network.node(0).totalAverageWatts();
    const double sleepyWatts = network.node(1).totalAverageWatts();
    ASSERT_GT(awakeWatts, 0.0);
    EXPECT_GT(sleepyWatts, 0.0);
    // The ledger must show the duty cycle: a node gated 99% of the time
    // cannot average anywhere near the always-awake draw.
    EXPECT_LT(sleepyWatts, 0.25 * awakeWatts);
    sim::setQuiet(false);
}

TEST(DeepSleep, TimerWakeLatchesDeepSleepResetReason)
{
    sim::setQuiet(true);
    Scenario sc = dutyScenario(ulp::sleep::Policy::Deep, 1.0, 0.2, 2.1);
    scenario::ScenarioRun run(sc);
    run.run();

    // t = 2.1 s sits inside on-window k=2: the node is awake, and the
    // last boot was a scheduled deep-sleep wake, not a cold power-on.
    core::SensorNode &node = run.network.node(1);
    EXPECT_FALSE(node.inDeepSleep());
    EXPECT_TRUE(node.alive());
    EXPECT_EQ(node.micro().resetReason(), mcu::ResetReason::DeepSleepTimer);
    EXPECT_GE(node.probes().count(core::Probe::DeepSleepExit), 2u);
    EXPECT_EQ(run.sleepCtl->deepSleeps(),
              node.probes().count(core::Probe::DeepSleepEnter));
    sim::setQuiet(false);
}

TEST(LightSleep, IncomingFrameWakesTheSink)
{
    sim::setQuiet(true);
    // Node 0 originates toward sink 1; the sink opts back into light
    // sleep (overriding the sink exemption), so delivery rides the
    // wake-on-frame path.
    Scenario sc = chainScenario(2);
    sc.routes.sink = 1;
    sc.sleep.emplace();
    sc.sleep->policy = ulp::sleep::Policy::Light;
    sc.sleep->period = 0.5;
    sc.sleep->on = 0.05;
    // The sender must stay awake: with both nodes on the same (phase-
    // aligned) schedule, its frozen sample timer would only ever fire
    // inside shared on-windows and no frame would find the sink asleep.
    sc.overrides[0].sleepPolicy = ulp::sleep::Policy::None;
    sc.overrides[1].sleepPolicy = ulp::sleep::Policy::Light;

    scenario::ScenarioRun run(sc);
    run.run();

    EXPECT_GT(run.sleepCtl->lightSleeps(), 0u);
    EXPECT_GT(run.sleepCtl->frameWakes(), 0u);
    core::SensorNode &sink = run.network.node(1);
    EXPECT_GT(sink.probes().count(core::Probe::LightSleepEnter), 0u);
    EXPECT_FALSE(sink.msgProc().localDeliveriesBySource().empty());
    sim::setQuiet(false);
}

// --------------------------------------------------------------------------
// The K = 1/2/4 oracle on a beacon-enabled duty-cycled grid
// --------------------------------------------------------------------------

TEST(BeaconOracle, StatsAreByteIdenticalAcrossThreadCounts)
{
    sim::setQuiet(true);
    std::string stats1, stats2, stats4;
    core::Network::Counters c1 =
        runWithSleep(beaconGridScenario(1, 1.0), &stats1);
    core::Network::Counters c2 =
        runWithSleep(beaconGridScenario(2, 1.0), &stats2);
    core::Network::Counters c4 =
        runWithSleep(beaconGridScenario(4, 1.0), &stats4);
    sim::setQuiet(false);

    EXPECT_GT(c1.framesDelivered, 0u);
    EXPECT_EQ(c1, c2);
    EXPECT_EQ(c1, c4);
    EXPECT_EQ(stats1, stats2);
    EXPECT_EQ(stats1, stats4);
}

TEST(BeaconOracle, LightSleepScheduleIsThreadCountInvariant)
{
    sim::setQuiet(true);
    Scenario base = beaconGridScenario(1, 1.0);
    base.sleep.emplace();
    base.sleep->policy = ulp::sleep::Policy::Light;
    base.sleep->period = 0.4;
    base.sleep->on = 0.1;
    Scenario sharded = base;
    sharded.threads = 2;

    std::string stats1, stats2;
    core::Network::Counters c1 = runWithSleep(base, &stats1);
    core::Network::Counters c2 = runWithSleep(sharded, &stats2);
    sim::setQuiet(false);

    EXPECT_EQ(c1, c2);
    EXPECT_EQ(stats1, stats2);
}
