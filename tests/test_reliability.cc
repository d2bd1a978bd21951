/**
 * @file
 * Reliability tests: MAC-layer acknowledged transmission under seeded
 * Gilbert-Elliott bursty loss, watchdog recovery of a wedged
 * microcontroller, and the fault-injection campaign driver.
 *
 * The headline experiment reproduces the ISSUE acceptance criterion:
 * with the channel cycling through deep fades, delivery ratio with
 * ACK + 3 retries must be strictly higher than fire-and-forget.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "fault/fault_injector.hh"
#include "net/channel.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::core;

namespace {

/**
 * A base-station endpoint attached straight to the channel: it counts
 * unique data frames arriving intact for its address and (optionally)
 * acknowledges them after the 802.15.4 RX/TX turnaround, so a MAC
 * sender one hop away sees a realistic ACK path (the ACK itself flies
 * through the lossy channel).
 */
struct AckSink : sim::SimObject, net::Transceiver
{
    AckSink(sim::Simulation &simulation, const std::string &name,
            net::Channel &channel, std::uint16_t address, bool acking)
        : sim::SimObject(simulation, name), channel(channel),
          address(address), acking(acking),
          ackEvent([this] { sendAck(); }, name + ".ackEvent")
    {
        channel.attach(this);
    }

    ~AckSink() override { channel.detach(this); }

    void
    frameArrived(const net::Frame &frame, bool corrupted) override
    {
        if (corrupted || frame.type != net::Frame::Type::Data ||
            frame.dest != address) {
            return;
        }
        delivered.insert({frame.src, frame.seq});
        if (acking && !ackEvent.scheduled()) {
            pendingAck = net::Frame{};
            pendingAck.type = net::Frame::Type::Ack;
            pendingAck.seq = frame.seq;
            pendingAck.src = address;
            pendingAck.dest = frame.src;
            pendingAck.destPan = frame.destPan;
            scheduleRel(&ackEvent, RadioDevice::turnaroundTicks);
        }
    }

    void sendAck() { channel.transmit(this, pendingAck); }

    net::Channel &channel;
    std::uint16_t address;
    bool acking;
    net::Frame pendingAck;
    sim::EventFunctionWrapper ackEvent;
    /** Unique (src, seq) pairs delivered intact. */
    std::set<std::pair<std::uint16_t, std::uint8_t>> delivered;
};

struct ExperimentResult
{
    std::uint64_t prepared = 0;  ///< frames the sender staged for TX
    std::uint64_t delivered = 0; ///< unique frames that reached the sink
    std::uint64_t retransmissions = 0;
    std::uint64_t acksReceived = 0;
    std::uint64_t txFailures = 0;
    std::uint64_t forwarded = 0;

    double
    ratio() const
    {
        return prepared ? static_cast<double>(delivered) / prepared : 0.0;
    }
};

/**
 * Two-hop topology under bursty loss: sender (app1, 10 Hz samples,
 * destination = base station) and forwarder (app3) share a channel with
 * the base-station sink. The Gilbert-Elliott chain spends ~80 % of
 * frames in the Good state and loses 95 % of frames in the Bad state,
 * so bursts eat consecutive attempts unless the MAC retries through
 * them.
 */
ExperimentResult
runDeliveryExperiment(std::uint8_t mac_retries)
{
    constexpr std::uint16_t sinkAddr = 0x0000;

    sim::Simulation simulation;
    net::Channel channel(simulation, "channel", net::Channel::defaultBitRate,
                         /*seed=*/42);
    channel.setGilbertElliott({0.08, 0.35, 0.0, 0.95});

    NodeConfig sender_cfg;
    sender_cfg.address = 0x0010;
    sender_cfg.sensorSignal = [](sim::Tick) { return 42; };
    SensorNode sender(simulation, "sender", sender_cfg, &channel);

    NodeConfig fwd_cfg;
    fwd_cfg.address = 0x0011;
    fwd_cfg.sensorSignal = [](sim::Tick) { return 0; };
    SensorNode forwarder(simulation, "forwarder", fwd_cfg, &channel);

    // The sink is passive (it only counts): the forwarder's auto-ACK
    // covers the sender's hop, and a second acknowledger for the same
    // frame would deterministically collide with it on the air.
    AckSink sink(simulation, "sink", channel, sinkAddr, /*acking=*/false);

    apps::AppParams sender_params;
    sender_params.samplePeriodCycles = 10'000; // 10 Hz
    sender_params.dest = sinkAddr;
    sender_params.macRetries = mac_retries;
    apps::install(sender, apps::buildApp1(sender_params));

    apps::AppParams fwd_params;
    fwd_params.samplePeriodCycles = 0xFFFF; // sampling is not the point
    fwd_params.threshold = 255;             // and nothing passes anyway
    fwd_params.dest = sinkAddr;
    fwd_params.macRetries = mac_retries;
    apps::install(forwarder, apps::buildApp3(fwd_params));

    simulation.runForSeconds(10.0);

    ExperimentResult r;
    r.prepared = sender.msgProc().framesPrepared();
    r.delivered = sink.delivered.size();
    r.retransmissions = sender.radio().retransmissions() +
                        forwarder.radio().retransmissions();
    r.acksReceived = sender.radio().acksReceived() +
                     forwarder.radio().acksReceived();
    r.txFailures = sender.radio().txFailures() +
                   forwarder.radio().txFailures();
    r.forwarded = forwarder.msgProc().forwarded();
    return r;
}

} // namespace

// --------------------------------------------------------------------------
// Acceptance: ACK + retransmit beats fire-and-forget under bursty loss.
// --------------------------------------------------------------------------

TEST(Reliability, RetransmissionsRaiseDeliveryRatioUnderBurstyLoss)
{
    ExperimentResult legacy = runDeliveryExperiment(0);
    ExperimentResult mac = runDeliveryExperiment(3);

    // Both runs staged the same periodic traffic.
    EXPECT_GE(legacy.prepared, 95u);
    EXPECT_EQ(legacy.prepared, mac.prepared);

    // The multi-hop path was really exercised.
    EXPECT_GT(legacy.forwarded, 0u);
    EXPECT_GT(mac.forwarded, 0u);

    // Fire-and-forget loses every frame a fade touches; the MAC retried
    // its way through the bursts.
    EXPECT_GT(mac.delivered, legacy.delivered);
    EXPECT_GT(mac.ratio(), legacy.ratio());
    EXPECT_GT(mac.retransmissions, 0u);
    EXPECT_GT(mac.acksReceived, 0u);

    // Legacy radios know nothing of ACKs or retries.
    EXPECT_EQ(legacy.retransmissions, 0u);
    EXPECT_EQ(legacy.acksReceived, 0u);

    // With a retry budget of 3 the residual loss should be small: the
    // chain leaves the Bad state with p = 0.35 per frame, so four
    // attempts rarely all land in a fade.
    EXPECT_GT(mac.ratio(), 0.85);
    EXPECT_LT(legacy.ratio(), mac.ratio() - 0.05);
}

TEST(Reliability, CleanChannelNeedsNoRetransmissions)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel");

    NodeConfig cfg;
    cfg.address = 0x0010;
    cfg.sensorSignal = [](sim::Tick) { return 42; };
    SensorNode sender(simulation, "sender", cfg, &channel);
    AckSink sink(simulation, "sink", channel, 0x0000, true);

    apps::AppParams params;
    params.samplePeriodCycles = 10'000;
    params.dest = 0x0000;
    params.macRetries = 3;
    apps::install(sender, apps::buildApp1(params));

    simulation.runForSeconds(2.0);

    EXPECT_GE(sender.radio().framesSent(), 18u);
    EXPECT_EQ(sender.radio().retransmissions(), 0u);
    EXPECT_EQ(sender.radio().txFailures(), 0u);
    EXPECT_EQ(sender.radio().acksReceived(), sender.radio().framesSent());
    EXPECT_EQ(sink.delivered.size(), sender.msgProc().framesPrepared());
}

TEST(Reliability, RetryBudgetExhaustionPostsTxFail)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel");
    channel.setLossProbability(1.0); // nothing ever gets through

    NodeConfig cfg;
    cfg.address = 0x0010;
    cfg.sensorSignal = [](sim::Tick) { return 42; };
    SensorNode sender(simulation, "sender", cfg, &channel);

    apps::AppParams params;
    params.samplePeriodCycles = 10'000;
    params.dest = 0x0000;
    params.macRetries = 3;
    apps::install(sender, apps::buildApp1(params));

    simulation.runForSeconds(1.0);

    // Every transaction burned its full retry budget and failed; the
    // RadioTxFail interrupt let the EP gate the radio again, so the
    // pipeline kept running instead of deadlocking on the first loss.
    EXPECT_EQ(sender.radio().framesSent(), 0u);
    EXPECT_GE(sender.radio().txFailures(), 8u);
    EXPECT_EQ(sender.radio().retransmissions(),
              3 * sender.radio().txFailures());
    EXPECT_GE(sender.msgProc().framesPrepared(), 9u);
}

// --------------------------------------------------------------------------
// Watchdog: a wedged microcontroller is force-reset and the node recovers.
// --------------------------------------------------------------------------

TEST(Reliability, WatchdogRecoversWedgedMicrocontroller)
{
    sim::Simulation simulation;
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 0; };
    SensorNode node(simulation, "node", cfg);

    // Hand-built image: init programs the watchdog load (20 units =
    // 5120 cycles = 51.2 ms) but leaves it disarmed; the hang handler
    // arms it and spins forever, holding the bus; the recovery handler
    // (wakeup vector 7, entered after the bark) disarms it and sleeps.
    std::string ep_src = R"(
watchdog_isr:
    WAKEUP 7
.isr Watchdog, watchdog_isr
)";
    std::string mcu_src = sim::csprintf(".org %u\n", unsigned{map::mcuCodeBase}) +
                          R"(
init:
    LDI r0, 0
    STS WDT_LOADHI, r0
    LDI r0, 20
    STS WDT_LOADLO, r0
    SLEEP
hang:
    LDI r0, 1
    STS WDT_CTRL, r0
spin:
    JMP spin
recovered:
    LDI r0, 0
    STS WDT_CTRL, r0
    SLEEP
)";

    apps::NodeApp app;
    app.name = "wedge-recovery";
    app.ep = epAssemble(ep_src);
    app.mcu = mcu::assemble(mcu_src, epDefaultSymbols());
    app.initEntry = app.mcu.symbol("init");
    app.vectors[7] = app.mcu.symbol("recovered");
    apps::install(node, app);

    simulation.runForSeconds(0.01);
    ASSERT_FALSE(node.micro().awake());

    // Wedge: wake the core straight into the spin loop.
    sim::Tick hung_at = simulation.curTick();
    node.micro().wake(app.mcu.symbol("hang"));
    simulation.runForSeconds(0.5);

    // The watchdog barked exactly once, the core was force-reset, and
    // the recovery handler ran and disarmed the watchdog.
    EXPECT_EQ(node.timers().watchdogBarks(), 1u);
    EXPECT_EQ(node.micro().forcedResets(), 1u);
    EXPECT_FALSE(node.micro().awake());
    EXPECT_FALSE(node.timers().watchdogEnabled());
    EXPECT_EQ(node.probes().count(Probe::WatchdogBark), 1u);
    EXPECT_EQ(node.probes().count(Probe::McuForcedReset), 1u);

    // Recovery latency: the bark fires one full countdown (51.2 ms)
    // after the hung handler armed the watchdog.
    sim::Tick bark = node.probes().last(Probe::WatchdogBark);
    ASSERT_NE(bark, sim::maxTick);
    double latency = static_cast<double>(bark - hung_at) / 1e9;
    EXPECT_GT(latency, 0.050);
    EXPECT_LT(latency, 0.060);
}

TEST(Reliability, KickedWatchdogNeverBarks)
{
    sim::Simulation simulation;
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 42; };
    SensorNode node(simulation, "node", cfg);

    // app1 with the watchdog armed: init programs a ~128 ms timeout and
    // the 10 ms timer ISR kicks it, so it never expires.
    apps::AppParams params;
    params.samplePeriodCycles = 1000;
    params.watchdogCycles = 12'800;
    apps::install(node, apps::buildApp1(params));

    simulation.runForSeconds(2.0);

    EXPECT_TRUE(node.timers().watchdogEnabled());
    EXPECT_GE(node.timers().watchdogKicks(), 190u);
    EXPECT_EQ(node.timers().watchdogBarks(), 0u);
    EXPECT_EQ(node.micro().forcedResets(), 0u);
    EXPECT_GE(node.radio().framesSent(), 190u);
}

// --------------------------------------------------------------------------
// Fault-injection campaigns
// --------------------------------------------------------------------------

TEST(FaultInjector, ParsesTextPlans)
{
    fault::CampaignPlan plan = fault::parsePlan(R"(
# a comment
0.0   channel-ge        0.02 0.4 0.0 0.9   ; pGB pBG lossG lossB
4.0   channel-ge-off
2.0   channel-loss      0.1
1.5   sram-flip         0x0210 3
1.6   sram-random-flip  4
1.0   wedge             msgProc 0.5
2.0   unwedge           msgProc
2.5   slowdown          msgProc 3.0
3.0   droop             0.002
)");

    ASSERT_EQ(plan.actions.size(), 9u);
    using Kind = fault::Action::Kind;
    EXPECT_EQ(plan.actions[0].kind, Kind::ChannelGe);
    EXPECT_DOUBLE_EQ(plan.actions[0].b, 0.4);
    EXPECT_EQ(plan.actions[3].kind, Kind::SramFlip);
    EXPECT_DOUBLE_EQ(plan.actions[3].a, 0x0210);
    EXPECT_EQ(plan.actions[5].kind, Kind::Wedge);
    EXPECT_EQ(plan.actions[5].target, "msgProc");
    EXPECT_DOUBLE_EQ(plan.actions[8].a, 0.002);
}

TEST(FaultInjector, RejectsMalformedPlans)
{
    EXPECT_THROW(fault::parsePlan("0.0 frobnicate 1"), sim::FatalError);
    EXPECT_THROW(fault::parsePlan("0.0 channel-loss"), sim::FatalError);
    EXPECT_THROW(fault::parsePlan("0.0 wedge"), sim::FatalError);
    EXPECT_THROW(fault::parsePlan("oops channel-loss 0.1"),
                 sim::FatalError);
}

TEST(FaultInjector, CampaignActionsLandOnSchedule)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel");

    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 42; };
    SensorNode node(simulation, "node", cfg, &channel);

    fault::FaultInjector injector(simulation, "injector");
    injector.attachChannel(&channel);
    injector.attachSram(&node.memory());
    injector.attachDevice("msgProc", &node.msgProc());

    injector.runText(R"(
0.1  channel-ge   0.05 0.5 0.0 1.0
0.2  sram-flip    0x0410 0
0.3  wedge        msgProc 0.1
0.6  slowdown     msgProc 2.0
0.7  channel-ge-off
)");

    simulation.runForSeconds(0.05);
    EXPECT_FALSE(channel.gilbertElliottEnabled());
    EXPECT_FALSE(node.msgProc().busWedged());

    simulation.runForSeconds(0.2); // t = 0.25
    EXPECT_TRUE(channel.gilbertElliottEnabled());
    EXPECT_EQ(node.memory().bitFlips(), 1u);

    simulation.runForSeconds(0.1); // t = 0.35: inside the wedge window
    EXPECT_TRUE(node.msgProc().busWedged());

    simulation.runForSeconds(0.15); // t = 0.5: wedge expired
    EXPECT_FALSE(node.msgProc().busWedged());

    simulation.runForSeconds(0.3); // t = 0.8
    EXPECT_FALSE(channel.gilbertElliottEnabled());
    EXPECT_DOUBLE_EQ(node.msgProc().faultSlowdown(), 2.0);

    EXPECT_EQ(injector.injectedChannelFaults(), 2u);
    EXPECT_EQ(injector.injectedBitFlips(), 1u);
    EXPECT_EQ(injector.injectedDeviceFaults(), 2u);
}

TEST(FaultInjector, UnattachedTargetIsFatal)
{
    sim::Simulation simulation;
    fault::FaultInjector injector(simulation, "injector");
    injector.runText("0.0 droop 0.001"); // no supply attached
    EXPECT_THROW(simulation.runForSeconds(0.1), sim::FatalError);
}

TEST(FaultInjector, BitFlipCorruptsStoredData)
{
    sim::Simulation simulation;
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 0; };
    SensorNode node(simulation, "node", cfg);

    node.memory().poke(0x0410, 0b0001'0000);
    fault::FaultInjector injector(simulation, "injector");
    injector.attachSram(&node.memory());
    injector.runText("0.01 sram-flip 0x0410 4");
    simulation.runForSeconds(0.05);

    EXPECT_EQ(node.memory().peek(0x0410), 0);
    EXPECT_EQ(node.memory().bitFlips(), 1u);
}

TEST(FaultInjector, SeededCampaignsReplayIdentically)
{
    auto run = [](std::uint64_t seed) {
        sim::Simulation simulation;
        NodeConfig cfg;
        cfg.sensorSignal = [](sim::Tick) { return 0; };
        SensorNode node(simulation, "node", cfg);

        fault::FaultInjector injector(simulation, "injector", seed);
        injector.attachSram(&node.memory());
        injector.runText("0.01 sram-random-flip 16");
        simulation.runForSeconds(0.05);

        std::vector<std::uint8_t> image;
        for (unsigned a = 0x0400; a < 0x0800; ++a)
            image.push_back(node.memory().peek(
                static_cast<std::uint16_t>(a)));
        return image;
    };

    auto a = run(7);
    auto b = run(7);
    auto c = run(8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(FaultInjector, WedgedDeviceFloatsTheBus)
{
    sim::Simulation simulation;
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return 42; };
    SensorNode node(simulation, "node", cfg);

    node.dataBus().write(map::filterBase + map::filterThresh, 99);
    EXPECT_EQ(node.dataBus().read(map::filterBase + map::filterThresh), 99);

    node.filter().injectWedge(); // latched
    EXPECT_EQ(node.dataBus().read(map::filterBase + map::filterThresh),
              0xFF);
    node.dataBus().write(map::filterBase + map::filterThresh, 11);
    EXPECT_EQ(node.dataBus().wedgedAccesses(), 2u);

    node.filter().clearWedge();
    EXPECT_EQ(node.dataBus().read(map::filterBase + map::filterThresh), 99);
    EXPECT_EQ(node.filter().threshold(), 99);
}
