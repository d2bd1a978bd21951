/**
 * @file
 * Additional cross-module integration tests: multi-node forwarding over a
 * real channel, application-level memory-bank gating, chained-timer
 * sampling, harvesting-powered nodes, failure injection (radio gated,
 * lossy channels), and whole-tree statistics plumbing.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "baseline/mica2_platform.hh"
#include "baseline/minios.hh"
#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "net/packet_sink.hh"
#include "power/harvest.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::core;

TEST(MultiNode, ForwardingDeliversThroughTheChannel)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel");
    net::PacketSink sink(channel);

    // Sender: v1, addressed to the base station; forwarder: v3, quiet.
    NodeConfig sender_cfg;
    sender_cfg.address = 0x0010;
    sender_cfg.sensorSignal = [](sim::Tick) { return 55; };
    SensorNode sender(simulation, "sender", sender_cfg, &channel);

    NodeConfig fwd_cfg;
    fwd_cfg.address = 0x0011;
    fwd_cfg.clockHz = 100'000.0 * 1.00004; // crystal tolerance
    fwd_cfg.sensorSignal = [](sim::Tick) { return 1; };
    SensorNode forwarder(simulation, "forwarder", fwd_cfg, &channel);

    apps::AppParams params;
    params.samplePeriodCycles = 20'000; // 5 Hz
    apps::install(sender, apps::buildApp1(params));

    apps::AppParams fwd_params;
    fwd_params.samplePeriodCycles = 60'000;
    fwd_params.threshold = 255; // forwarder itself stays quiet
    apps::install(forwarder, apps::buildApp3(fwd_params));

    simulation.runForSeconds(4.0);

    EXPECT_GE(sender.radio().framesSent(), 18u);
    // The forwarder heard and re-flooded the sender's packets.
    EXPECT_GE(forwarder.msgProc().forwarded(), 10u);
    // The sink saw each packet once (originals + duplicates suppressed).
    EXPECT_GE(sink.uniqueDeliveries(), 18u);
    EXPECT_GE(sink.duplicates() + channel.collisions(), 5u);
    EXPECT_EQ(sink.deliveriesFrom(0x0010), sink.uniqueDeliveries());
}

TEST(MultiNode, LossyChannelLosesSomeDeliveries)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel",
                         net::Channel::defaultBitRate, 3);
    channel.setLossProbability(0.3);
    net::PacketSink sink(channel);

    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 10; };
    SensorNode node(simulation, "node", cfg, &channel);
    apps::AppParams params;
    params.samplePeriodCycles = 10'000; // 10 Hz
    apps::install(node, apps::buildApp1(params));

    simulation.runForSeconds(10.0);
    std::uint64_t sent = node.radio().framesSent();
    EXPECT_NEAR(static_cast<double>(sink.uniqueDeliveries()),
                0.7 * static_cast<double>(sent), 0.15 * sent);
}

TEST(MemoryGating, IsrCanGateScratchBanks)
{
    sim::Simulation simulation;
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 7; };
    SensorNode node(simulation, "node", cfg);

    // An ISR that stages scratch data in bank 7, then powers the bank
    // down — the paper's "memory segments holding temporary data".
    node.loadEpProgram(epAssemble(R"(
isr:
    WRITEI 0x0700, 9
    SWITCHOFF MEMBANK7
    TERMINATE
wake_isr:
    SWITCHON MEMBANK7
    WRITEI 0x0700, 4
    TERMINATE
.isr Timer0, isr
.isr Timer1, wake_isr
)"));
    node.irqBus().post(Irq::Timer0);
    simulation.runForSeconds(0.01);
    EXPECT_TRUE(node.memory().bankGated(7));

    // While gated, the bank's contents are gone and reads float high.
    EXPECT_EQ(node.memory().peek(0x0700), 0xFF);

    // A later ISR powers it back up (SWITCHON waits out the 950 ns
    // wakeup) and can use it again.
    node.irqBus().post(Irq::Timer1);
    simulation.runForSeconds(0.01);
    EXPECT_FALSE(node.memory().bankGated(7));
    EXPECT_EQ(node.memory().peek(0x0700), 4);
}

TEST(ChainedTimers, SecondScaleSamplingJustWorks)
{
    sim::Simulation simulation;
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 100; };
    SensorNode node(simulation, "node", cfg);

    apps::AppParams params;
    params.samplePeriodCycles = 100'000; // 1 s at 100 kHz: chained
    apps::install(node, apps::buildApp1(params));

    simulation.runForSeconds(10.5);
    EXPECT_GE(node.radio().framesSent(), 9u);
    EXPECT_LE(node.radio().framesSent(), 11u);
    // Two timers run in chained mode (the fast tick and the counter).
    EXPECT_EQ(node.timers().runningTimers(), 2u);
    // The chained pair still reports the flat ~1.44 uW timer power (the
    // chained counter is quiescent between predecessor completions).
    simulation.runForSeconds(20.0);
    EXPECT_NEAR(node.timers().averagePowerWatts(), 1.44e-6, 0.2e-6);
}

TEST(BlinkSense, NodeMicrobenchmarksBehave)
{
    {
        sim::Simulation simulation;
        NodeConfig cfg;
        SensorNode node(simulation, "node", cfg);
        apps::AppParams params;
        params.samplePeriodCycles = 5000;
        apps::install(node, apps::buildBlink(params));
        simulation.runForSeconds(1.0);
        // ~20 blinks; the "LED" scratch byte was written.
        EXPECT_GE(node.probes().count(Probe::EpIsrEnd), 19u);
        EXPECT_EQ(node.memory().peek(0x0700), 1);
        EXPECT_EQ(node.micro().wakeups(), 1u); // init only
    }
    {
        sim::Simulation simulation;
        NodeConfig cfg;
        cfg.sensorSignal = [](sim::Tick) { return 123; };
        SensorNode node(simulation, "node", cfg);
        apps::AppParams params;
        params.samplePeriodCycles = 5000;
        apps::install(node, apps::buildSense(params));
        simulation.runForSeconds(1.0);
        EXPECT_GE(node.sensor().samples(), 19u);
        // The filter (in statistic mode) holds the last sample, and no
        // pass/fail interrupts were generated.
        EXPECT_EQ(node.filter().decisions(), node.sensor().samples());
        EXPECT_EQ(node.radio().framesSent(), 0u);
    }
}

TEST(FailureInjection, GatedRadioMissesTraffic)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel");
    net::PacketSink sink(channel);

    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 100; };
    SensorNode node(simulation, "node", cfg, &channel);
    apps::AppParams params;
    params.samplePeriodCycles = 50'000;
    apps::install(node, apps::buildApp1(params)); // v1 gates its radio

    simulation.runForSeconds(2.0);

    // Traffic from elsewhere arrives while the node's radio is gated.
    net::Frame frame;
    frame.seq = 1;
    frame.src = 0x0042;
    frame.dest = 0x0000;
    frame.destPan = cfg.pan;
    sink.send(frame);
    simulation.runForSeconds(0.5);
    EXPECT_GE(node.radio().framesMissed(), 1u);
    EXPECT_EQ(node.msgProc().forwarded(), 0u);
}

TEST(Harvesting, NodeRunsOffTheVibrationBudget)
{
    sim::Simulation simulation;
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 100; };
    SensorNode node(simulation, "node", cfg);
    apps::AppParams params;
    params.samplePeriodCycles = 10'000;
    apps::install(node, apps::buildApp2(params));

    power::HarvestingSupply supply(
        simulation, "supply",
        std::make_unique<power::ConstantSource>(100e-6),
        power::EnergyStore(0.05, 0.025),
        [&node] { return node.totalAverageWatts(); },
        sim::secondsToTicks(0.1));
    supply.start();

    simulation.runForSeconds(120.0);
    EXPECT_EQ(supply.brownOuts(), 0u);
    EXPECT_GT(node.radio().framesSent(), 1000u);
    // The 100 uW budget covers the node many times over (paper target).
    EXPECT_GT(100e-6 / node.totalAverageWatts(), 20.0);
}

TEST(Stats, TreeContainsEveryComponent)
{
    sim::Simulation simulation;
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 100; };
    SensorNode node(simulation, "node", cfg);
    apps::AppParams params;
    params.samplePeriodCycles = 1000;
    apps::install(node, apps::buildApp2(params));
    simulation.runForSeconds(1.0);

    std::ostringstream os;
    node.dumpStats(os);
    std::string dump = os.str();
    for (const char *needle :
         {"node.bus.reads", "node.irqBus.posted", "node.ep.isrs",
          "node.ep.busyCycles", "node.timers.alarms",
          "node.filter.decisions", "node.msgProc.framesPrepared",
          "node.radio.framesSent", "node.sensor.samples",
          "node.sram.reads", "node.uC.wakeups",
          "node.powerCtrl.switchOns", "node.compressor.blocksEncoded"}) {
        EXPECT_NE(dump.find(needle), std::string::npos) << needle;
    }
}

TEST(MiniOs, TaskQueueDrainsCleanly)
{
    // After a long run, the MiniOS scheduler must leave no stuck tasks:
    // Q_COUNT returns to zero whenever the CPU sleeps.
    sim::Simulation simulation;
    baseline::Mica2Platform::Config cfg;
    cfg.sensorSignal = [](sim::Tick) { return 77; };
    baseline::Mica2Platform mica(simulation, "mica2", cfg);

    baseline::MiniOsParams params;
    params.softTimerCount = 3;
    baseline::Mica2App app =
        baseline::buildMica2App(baseline::Mica2AppKind::SendNoFilter,
                                params);
    mica.loadProgram(app.image);
    mica.start(app.entry);
    simulation.runForSeconds(5.0);

    EXPECT_GE(mica.framesSent(), 150u);
    ASSERT_TRUE(mica.cpu().sleeping());
    EXPECT_EQ(mica.read(0x0812), 0); // Q_COUNT (minios.cc RAM layout)
}

TEST(MiniOs, BlinkWalksTheLedCounter)
{
    sim::Simulation simulation;
    baseline::Mica2Platform mica(simulation, "mica2", {});
    baseline::MiniOsParams params;
    params.softTimerCount = 2;
    baseline::Mica2App app =
        baseline::buildMica2App(baseline::Mica2AppKind::Blink, params);
    mica.loadProgram(app.image);
    mica.start(app.entry);

    // The three LEDs display a 3-bit counter; sample successive values.
    std::vector<std::uint8_t> seen;
    for (int i = 0; i < 8; ++i) {
        simulation.runForSeconds(0.02); // one blink period
        seen.push_back(mica.ledValue() & 0x7);
    }
    // Strictly incrementing mod 8 from whatever phase we started at.
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], (seen[i - 1] + 1) % 8);
}
