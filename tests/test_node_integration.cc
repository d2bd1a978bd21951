/**
 * @file
 * End-to-end integration tests: the four staged applications of §6.1.2
 * running on the full SensorNode, checked against the paper's described
 * behaviour (packets sent, filtering, forwarding, duplicate suppression,
 * reconfiguration via the microcontroller).
 */

#include <gtest/gtest.h>

#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "net/channel.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::core;

namespace {

NodeConfig
testConfig(std::uint8_t sensor_value = 100)
{
    NodeConfig cfg;
    cfg.sensorSignal = [sensor_value](sim::Tick) { return sensor_value; };
    return cfg;
}

} // namespace

TEST(NodeIntegration, App1SendsPeriodicPackets)
{
    sim::Simulation simulation;
    SensorNode node(simulation, "node", testConfig(42));

    apps::AppParams params;
    params.samplePeriodCycles = 1000; // 100 Hz at 100 kHz
    apps::install(node, apps::buildApp1(params));

    simulation.runForSeconds(1.0);

    // 100 Hz for one second: ~100 packets (first alarm after one period).
    EXPECT_GE(node.radio().framesSent(), 98u);
    EXPECT_LE(node.radio().framesSent(), 101u);

    // The transmitted frame carries the sample.
    const net::Frame &frame = node.radio().lastTxFrame();
    ASSERT_EQ(frame.payload.size(), 1u);
    EXPECT_EQ(frame.payload[0], 42);
    EXPECT_EQ(frame.src, node.config().address);
    EXPECT_EQ(frame.sizeBytes(), apps::sampleFrameBytes);

    // The microcontroller ran init exactly once and went back to sleep.
    EXPECT_EQ(node.micro().wakeups(), 1u);
    EXPECT_FALSE(node.micro().awake());

    // No events were dropped at this gentle rate.
    EXPECT_EQ(node.irqBus().dropped(), 0u);
}

TEST(NodeIntegration, App2FiltersBelowThreshold)
{
    sim::Simulation simulation;

    // Signal alternates between 10 and 200 every 10 ms.
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick t) -> std::uint8_t {
        return (t / 10'000'000) % 2 ? 200 : 10;
    };
    SensorNode node(simulation, "node", cfg);

    apps::AppParams params;
    params.samplePeriodCycles = 1000;
    params.threshold = 128;
    apps::install(node, apps::buildApp2(params));

    simulation.runForSeconds(1.0);

    std::uint64_t decisions = node.filter().decisions();
    std::uint64_t passes = node.filter().passes();
    EXPECT_GE(decisions, 98u);
    // Roughly half the samples pass.
    EXPECT_NEAR(static_cast<double>(passes),
                static_cast<double>(decisions) / 2, decisions * 0.2);
    EXPECT_EQ(node.radio().framesSent(), passes);
}

TEST(NodeIntegration, App3ForwardsAndDeduplicates)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel");
    SensorNode node(simulation, "node", testConfig(), &channel);

    apps::AppParams params;
    params.samplePeriodCycles = 50'000; // slow sampling; focus on RX
    params.threshold = 0;
    apps::install(node, apps::buildApp3(params));

    // Let init finish.
    simulation.runForSeconds(0.01);

    // A foreign frame destined elsewhere arrives: the node forwards it.
    net::Frame frame;
    frame.seq = 7;
    frame.src = 0x0055;
    frame.dest = 0x0000;
    frame.destPan = node.config().pan;
    frame.payload = {99};
    node.radio().injectFrame(frame);
    simulation.runForSeconds(0.05);

    EXPECT_EQ(node.msgProc().forwarded(), 1u);
    EXPECT_GE(node.radio().framesSent(), 1u);
    EXPECT_EQ(node.radio().lastTxFrame().seq, 7);
    EXPECT_EQ(node.radio().lastTxFrame().src, 0x0055);

    // The same packet again: duplicate-suppressed by the CAM.
    node.radio().injectFrame(frame);
    simulation.runForSeconds(0.05);
    EXPECT_EQ(node.msgProc().duplicatesDropped(), 1u);
    EXPECT_EQ(node.msgProc().forwarded(), 1u);
}

TEST(NodeIntegration, App4ReconfiguresTimerViaMcu)
{
    sim::Simulation simulation;
    SensorNode node(simulation, "node", testConfig(200));

    apps::AppParams params;
    params.samplePeriodCycles = 1000;
    params.threshold = 0;
    apps::install(node, apps::buildApp4(params));
    simulation.runForSeconds(0.05);

    std::uint64_t wakeups_before = node.micro().wakeups();

    // An irregular (802.15.4 command) frame asks for a 2000-cycle period.
    net::Frame cmd;
    cmd.type = net::Frame::Type::Command;
    cmd.seq = 1;
    cmd.src = 0x0042; // the authorised reconfigurer (see apps.cc ACL)
    cmd.dest = node.config().address;
    cmd.destPan = node.config().pan;
    cmd.payload = {0 /*timer*/, 0x07, 0xD0 /*2000*/};
    node.radio().injectFrame(cmd);
    simulation.runForSeconds(0.1);

    EXPECT_EQ(node.msgProc().irregulars(), 1u);
    EXPECT_EQ(node.micro().wakeups(), wakeups_before + 1);
    EXPECT_FALSE(node.micro().awake()); // back asleep

    // Sampling now happens at the new 2000-cycle (50 Hz) period.
    std::uint64_t sent_before = node.radio().framesSent();
    simulation.runForSeconds(1.0);
    std::uint64_t sent = node.radio().framesSent() - sent_before;
    EXPECT_GE(sent, 48u);
    EXPECT_LE(sent, 52u);

    // And a threshold change too.
    net::Frame cmd2 = cmd;
    cmd2.seq = 2;
    cmd2.payload = {1 /*threshold*/, 255, 0};
    node.radio().injectFrame(cmd2);
    simulation.runForSeconds(0.1);
    EXPECT_EQ(node.filter().threshold(), 255);

    // With threshold 255 and signal 200 nothing passes any more.
    sent_before = node.radio().framesSent();
    simulation.runForSeconds(0.5);
    EXPECT_EQ(node.radio().framesSent(), sent_before);
}

TEST(NodeIntegration, EpIsIdleBetweenEvents)
{
    sim::Simulation simulation;
    SensorNode node(simulation, "node", testConfig());

    apps::AppParams params;
    params.samplePeriodCycles = 10'000; // 10 Hz
    apps::install(node, apps::buildApp1(params));

    simulation.runForSeconds(2.0);

    // At 10 Hz and ~102 busy cycles per sample, utilization ~1 %.
    EXPECT_LT(node.ep().utilization(), 0.05);
    EXPECT_GT(node.ep().utilization(), 0.001);

    // Average EP power must sit near the idle floor (Table 5: 18 nW),
    // far below the 14.25 uW active figure.
    EXPECT_LT(node.ep().averagePowerWatts(), 1e-6);
}

// --------------------------------------------------------------------------
// Shared images: stamping a node's parameter bytes into an image assembled
// for another node of the same shape gives exactly its fresh assembly.
// --------------------------------------------------------------------------

namespace {

/** Periods on both sides of the chained boundary, both ends of the
 *  address range, thresholds, MAC retries and the watchdog off and on. */
std::vector<apps::AppParams>
paramSweep()
{
    std::vector<apps::AppParams> sweep;
    for (std::uint32_t period : {1000u, 0xFFFFu, 0x10000u, 3'000'000u})
        for (std::uint16_t dest : {0x0000, 0xFFFE})
            for (std::uint8_t threshold : {0, 200})
                for (std::uint8_t retries : {0, 3})
                    for (std::uint32_t wdt : {0u, 40'000u})
                        sweep.push_back({period, threshold, dest, retries,
                                         wdt});
    return sweep;
}

} // namespace

TEST(AppImage, StampedImageEqualsFreshAssembly)
{
    for (const char *name :
         {"app1", "app2", "app3", "app4", "blink", "sense", "sink"}) {
        for (const apps::AppParams &p : paramSweep()) {
            // Another node of the same shape, with every parameter byte
            // different: the image is assembled for it.
            apps::AppParams other = p;
            other.samplePeriodCycles =
                p.samplePeriodCycles > 0xFFFF ? 7'777'777 : 555;
            other.dest = 0x1234;
            other.threshold = 77;
            other.macRetries = p.macRetries ? 5 : 0;
            other.watchdogCycles = p.watchdogCycles ? 100'000 : 0;
            const apps::AppShape shape = apps::appShape(name, p);
            ASSERT_EQ(apps::appShape(name, other), shape);

            const apps::AppImage image =
                apps::assembleImage(shape, apps::paramValues(name, other));
            EXPECT_TRUE(image.stamped(apps::paramValues(name, p)) ==
                        apps::buildByName(name, p))
                << name << " period " << p.samplePeriodCycles << " dest "
                << p.dest << " threshold " << unsigned(p.threshold)
                << " retries " << unsigned(p.macRetries) << " watchdog "
                << p.watchdogCycles;
        }
    }
}

TEST(AppImage, InstallWritesTheNodesOwnParameters)
{
    apps::AppParams p;
    p.samplePeriodCycles = 2000;
    p.dest = 0x0BEE;
    apps::AppParams other = p;
    other.samplePeriodCycles = 700;
    other.dest = 0x0001;
    const apps::AppImage image = apps::assembleImage(
        apps::appShape("app1", other), apps::paramValues("app1", other));
    ASSERT_FALSE(image.sites.empty());

    sim::Simulation simulation;
    SensorNode node(simulation, "node", testConfig(42));
    apps::install(node, image, apps::paramValues("app1", p));
    simulation.runForSeconds(1.0);
    // 2000 cycles at 100 kHz: 50 Hz, to the stamped destination.
    EXPECT_GE(node.radio().framesSent(), 48u);
    EXPECT_LE(node.radio().framesSent(), 51u);
    EXPECT_EQ(node.radio().lastTxFrame().dest, 0x0BEE);
}

TEST(AppImage, PeriodRangeIsCheckedPerNode)
{
    apps::AppParams p;
    p.samplePeriodCycles = 0xFFFFu * 50'000u + 1; // one past the chain
    EXPECT_THROW(apps::paramValues("app1", p), sim::FatalError);
    p.samplePeriodCycles = 0xFFFFFFFF; // must not wrap into range
    EXPECT_THROW(apps::paramValues("app1", p), sim::FatalError);
    p.samplePeriodCycles = 0xFFFFu * 50'000u;
    EXPECT_NO_THROW(apps::paramValues("app1", p));
    EXPECT_THROW(apps::appShape("no-such-app", p), sim::FatalError);
}
