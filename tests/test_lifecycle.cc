/**
 * @file
 * Survivable-mesh tests: node lifecycle (fail/revive/battery death),
 * in-simulation route repair, and the degradation metrics.
 *
 *  - mid-flight death: a frame already on the air when its transmitter
 *    dies completes (the medium owns in-flight state); a receiver that
 *    dies mid-flight misses it — on both the broadcast and the spatial
 *    topology of the medium
 *  - the K = 1/2/4 oracle under churn: declared fail/revive events plus
 *    triggered route repair produce identical counters, a byte-identical
 *    merged stats tree, and an identical resilience report at every
 *    thread count — battery depletion and the energy-aware metric too
 *  - the ISSUE acceptance scenario: a 64-node grid loses its 3 busiest
 *    relays mid-run; with repair the steady-state delivery ratio
 *    recovers to >= 90% of the undisturbed run, without it the mesh
 *    stays degraded
 *  - repair is paid for: the re-taught node's microcontroller wakes up
 *    for the route-update command and the extra energy lands in its
 *    ledger
 *  - a revived node rejoins: reinstalling the factory image plus one
 *    repair round puts its frames back on the sink
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/network.hh"
#include "net/channel.hh"
#include "net/medium.hh"
#include "net/relay.hh"
#include "net/spatial.hh"
#include "scenario/lower.hh"
#include "scenario/resilience.hh"
#include "scenario/scenario.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"

using namespace ulp;
using scenario::Placement;
using scenario::RadioModel;
using scenario::RepairPolicy;
using scenario::RouteMetric;
using scenario::Scenario;

namespace {

/** Counts intact and corrupted arrivals; never transmits. */
struct CountingRx : net::Transceiver
{
    unsigned frames = 0;
    unsigned corrupted = 0;

    void
    frameArrived(const net::Frame &, bool corr) override
    {
        if (corr)
            ++corrupted;
        else
            ++frames;
    }
};

net::Frame
dataFrame()
{
    net::Frame frame;
    frame.type = net::Frame::Type::Data;
    frame.seq = 1;
    frame.destPan = 0x22;
    frame.dest = 2;
    frame.src = 1;
    frame.payload = {0xAA, 0xBB, 0xCC};
    return frame;
}

/**
 * A 16-node spatial grid of reconfigurable (app4) relays routing to a
 * corner sink, with links strong enough that the undisturbed mesh
 * delivers cleanly and enough sampling stagger to avoid lockstep
 * collision bursts.
 */
Scenario
churnGrid(unsigned threads, double seconds)
{
    Scenario sc;
    sc.name = "churn";
    sc.seconds = seconds;
    sc.seed = 42;
    sc.threads = threads;
    sc.nodes.count = 16;
    sc.nodes.app = "app4";
    sc.nodes.period = 50000;
    sc.nodes.periodStagger = 797;
    sc.nodes.placement = Placement::Grid;
    sc.nodes.spacing = 30.0;
    sc.radio.model = RadioModel::Spatial;
    sc.radio.spatial.pathLossExponent = 2.8;
    sc.radio.spatial.sensitivityDbm = -90.0;
    sc.routes.sink = 0;
    sc.lifecycle.emplace();
    return sc;
}

struct ChurnRun
{
    core::Network::Counters counters;
    std::string stats;
    scenario::ResilienceReport report;
    std::string reportText;
};

ChurnRun
runChurn(const Scenario &sc)
{
    scenario::Lowered low = scenario::lower(sc);
    core::Network network(low.spec);
    scenario::ResilienceManager manager(network, sc, low);

    ChurnRun out;
    out.report = manager.run();
    std::ostringstream stats;
    network.dumpStats(stats);
    out.stats = stats.str();
    std::ostringstream report;
    scenario::printResilienceReport(report, out.report);
    out.reportText = report.str();
    out.counters = network.counters();
    return out;
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

// ---------------------------------------------------------------------------
// Mid-flight death: the medium owns in-flight state.
// ---------------------------------------------------------------------------

TEST(MidflightDeath, BroadcastTransmitterDetachCompletesFrame)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "chan");
    CountingRx tx, rx;
    channel.attach(&tx);
    channel.attach(&rx);

    sim::Tick end = channel.transmit(&tx, dataFrame());
    ASSERT_GT(end, simulation.curTick());

    // The transmitter dies halfway through its own frame.
    sim::EventFunctionWrapper kill([&] { channel.detach(&tx); }, "kill");
    simulation.eventq().schedule(&kill, (simulation.curTick() + end) / 2);
    simulation.runForSeconds(0.01);

    EXPECT_EQ(rx.frames, 1u) << "in-flight frame must survive its sender";
    EXPECT_EQ(rx.corrupted, 0u);
    EXPECT_EQ(channel.framesDelivered(), 1u);
}

TEST(MidflightDeath, BroadcastReceiverDetachMissesFrame)
{
    sim::Simulation simulation;
    net::Channel channel(simulation, "chan");
    CountingRx tx, rx, witness;
    channel.attach(&tx);
    channel.attach(&rx);
    channel.attach(&witness);

    sim::Tick end = channel.transmit(&tx, dataFrame());
    sim::EventFunctionWrapper kill([&] { channel.detach(&rx); }, "kill");
    simulation.eventq().schedule(&kill, (simulation.curTick() + end) / 2);
    simulation.runForSeconds(0.01);

    EXPECT_EQ(rx.frames, 0u) << "a dead receiver hears nothing";
    EXPECT_EQ(witness.frames, 1u) << "survivors still hear the frame";
}

TEST(MidflightDeath, SpatialTransmitterDetachCompletesFrame)
{
    sim::Simulation simulation;
    net::FrameRelay relay(1);
    net::SpatialConfig cfg;
    cfg.linkSeed = 7;
    net::SpatialModel model(cfg, {{0.0, 0.0}, {10.0, 0.0}});
    ASSERT_EQ(model.deliveryProb(0, 1), 1.0);
    net::Channel medium(simulation, "medium", relay, 0, model);

    CountingRx tx, rx;
    medium.attach(&tx);
    medium.bind(&tx, 0);
    medium.attach(&rx);
    medium.bind(&rx, 1);

    sim::Tick end = medium.transmit(&tx, dataFrame());
    sim::EventFunctionWrapper kill([&] { medium.detach(&tx); }, "kill");
    simulation.eventq().schedule(&kill, (simulation.curTick() + end) / 2);
    simulation.runForSeconds(0.01);

    EXPECT_EQ(rx.frames, 1u) << "in-flight frame must survive its sender";
    EXPECT_EQ(medium.framesDelivered(), 1u);
}

TEST(MidflightDeath, SpatialReceiverDetachMissesFrame)
{
    sim::Simulation simulation;
    net::FrameRelay relay(1);
    net::SpatialConfig cfg;
    cfg.linkSeed = 7;
    net::SpatialModel model(cfg, {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}});
    net::Channel medium(simulation, "medium", relay, 0, model);

    CountingRx tx, rx, witness;
    medium.attach(&tx);
    medium.bind(&tx, 0);
    medium.attach(&rx);
    medium.bind(&rx, 1);
    medium.attach(&witness);
    medium.bind(&witness, 2);

    sim::Tick end = medium.transmit(&tx, dataFrame());
    sim::EventFunctionWrapper kill([&] { medium.detach(&rx); }, "kill");
    simulation.eventq().schedule(&kill, (simulation.curTick() + end) / 2);
    simulation.runForSeconds(0.01);

    EXPECT_EQ(rx.frames, 0u) << "a dead receiver hears nothing";
    EXPECT_GE(witness.frames + witness.corrupted, 1u);
}

// ---------------------------------------------------------------------------
// The K = 1/2/4 oracle under churn.
// ---------------------------------------------------------------------------

TEST(LifecycleOracle, ChurnAndRepairAtEveryThreadCount)
{
    // Two deaths (one timed to land mid-traffic, not on a round tick),
    // one revive, triggered repair. threads = 1 is the oracle.
    auto make = [](unsigned threads) {
        Scenario sc = churnGrid(threads, 4.0);
        sc.lifecycle->fail = {{1, 1.013}, {5, 1.471}};
        sc.lifecycle->revive = {{5, 3.008}};
        sc.lifecycle->repair = RepairPolicy::Triggered;
        sc.lifecycle->repairPeriod = 0.5;
        return sc;
    };
    ChurnRun k1 = runChurn(make(1));
    ChurnRun k2 = runChurn(make(2));
    ChurnRun k4 = runChurn(make(4));

    EXPECT_GT(k1.counters.framesSent, 0u);
    EXPECT_GT(k1.report.repairUpdates, 0u);
    EXPECT_EQ(k1.counters, k2.counters);
    EXPECT_EQ(k1.counters, k4.counters);
    EXPECT_EQ(k1.stats, k2.stats);
    EXPECT_EQ(k1.stats, k4.stats);
    EXPECT_EQ(k1.reportText, k2.reportText);
    EXPECT_EQ(k1.reportText, k4.reportText);
}

TEST(LifecycleOracle, BatteryAndEnergyMetricAtEveryThreadCount)
{
    // Battery-driven supplies poll on each node's own shard; the
    // energy-aware metric reads reserves at synchronized control
    // points. Both must be thread-count-invariant.
    auto make = [](unsigned threads) {
        Scenario sc = churnGrid(threads, 4.0);
        sc.lifecycle->repair = RepairPolicy::Periodic;
        sc.lifecycle->repairPeriod = 0.5;
        sc.lifecycle->metric = RouteMetric::Energy;
        sc.lifecycle->energyWeight = 4.0;
        sc.lifecycle->battery = 0.02;
        sc.lifecycle->batteryInitial = 0.02;
        sc.lifecycle->harvest = 100e-6;
        sc.lifecycle->batteryInterval = 0.05;
        sc.lifecycle->reviveLevel = 0.25;
        return sc;
    };
    ChurnRun k1 = runChurn(make(1));
    ChurnRun k2 = runChurn(make(2));
    ChurnRun k4 = runChurn(make(4));

    EXPECT_GT(k1.counters.framesSent, 0u);
    EXPECT_EQ(k1.counters, k2.counters);
    EXPECT_EQ(k1.counters, k4.counters);
    EXPECT_EQ(k1.stats, k2.stats);
    EXPECT_EQ(k1.stats, k4.stats);
    EXPECT_EQ(k1.reportText, k2.reportText);
    EXPECT_EQ(k1.reportText, k4.reportText);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: 64 nodes, 3 busiest relays die.
// ---------------------------------------------------------------------------

/** The 64-node acceptance grid (center sink, light clean load). */
Scenario
acceptanceGrid()
{
    Scenario sc;
    sc.name = "resilience-grid";
    sc.seconds = 8.0;
    sc.seed = 42;
    sc.nodes.count = 64;
    sc.nodes.app = "app4";
    sc.nodes.period = 60000;
    sc.nodes.periodStagger = 83;
    sc.nodes.placement = Placement::Grid;
    sc.nodes.spacing = 30.0;
    sc.radio.model = RadioModel::Spatial;
    sc.radio.spatial.pathLossExponent = 2.8;
    sc.radio.spatial.sensitivityDbm = -90.0;
    sc.routes.sink = 27;
    sc.lifecycle.emplace();
    return sc;
}

TEST(Resilience, BusiestRelayDeathRecoversWithRepair)
{
    // Identify the 3 busiest relays from the lowered route tree.
    Scenario base = acceptanceGrid();
    scenario::Lowered low = scenario::lower(base);
    std::vector<unsigned> sub = subtreeSizes(low);
    std::vector<unsigned> order;
    for (unsigned i = 0; i < base.nodes.count; ++i)
        if (i != *base.routes.sink)
            order.push_back(i);
    std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
        return sub[a] != sub[b] ? sub[a] > sub[b] : a < b;
    });
    std::vector<scenario::LifecycleEvent> kills = {
        {order[0], 2.0}, {order[1], 2.0}, {order[2], 2.0}};
    // Busiest relays carry real subtrees, or the kill proves nothing.
    ASSERT_GE(sub[order[0]], 8u);
    ASSERT_GE(sub[order[2]], 4u);

    Scenario undisturbed = acceptanceGrid();
    ChurnRun clean = runChurn(undisturbed);

    Scenario broken = acceptanceGrid();
    broken.lifecycle->fail = kills;
    ChurnRun unrepaired = runChurn(broken);

    Scenario repaired = acceptanceGrid();
    repaired.lifecycle->fail = kills;
    repaired.lifecycle->repair = RepairPolicy::Triggered;
    repaired.lifecycle->repairPeriod = 0.5;
    ChurnRun fixed = runChurn(repaired);

    // The undisturbed mesh delivers cleanly; losing the busiest relays
    // without repair guts it; triggered repair restores >= 90% of the
    // undisturbed steady-state delivery ratio.
    EXPECT_GT(clean.report.steadyDeliveryRatio, 0.85);
    EXPECT_LT(unrepaired.report.steadyDeliveryRatio,
              0.6 * clean.report.steadyDeliveryRatio);
    EXPECT_GE(fixed.report.steadyDeliveryRatio,
              0.9 * clean.report.steadyDeliveryRatio);
    EXPECT_GT(fixed.report.repairUpdates, 0u);
    EXPECT_GT(fixed.report.postRepairDeliveries, 0u);
    EXPECT_EQ(fixed.report.firstDeathTick, sim::secondsToTicks(2.0));
    // The dense 30 m grid never partitions outright: degradation is
    // about routes through dead relays, not disconnection.
    EXPECT_EQ(unrepaired.report.firstPartitionTick, 0u);
}

// ---------------------------------------------------------------------------
// Repair is paid for through the modeled reconfiguration path.
// ---------------------------------------------------------------------------

TEST(Resilience, RepairEnergyLandsInTheLedger)
{
    // Kill the busiest 16-node relay; compare a child that must be
    // re-taught across repair-off and repair-on runs. The route-update
    // command wakes its microcontroller, and that wake costs energy.
    Scenario sc = churnGrid(1, 4.0);
    scenario::Lowered low = scenario::lower(sc);
    std::vector<unsigned> sub = subtreeSizes(low);
    unsigned busiest = UINT_MAX;
    for (unsigned i = 0; i < sc.nodes.count; ++i) {
        if (i == *sc.routes.sink)
            continue;
        if (busiest == UINT_MAX || sub[i] > sub[busiest])
            busiest = i;
    }
    ASSERT_GT(sub[busiest], 1u);
    unsigned child = UINT_MAX;
    for (unsigned i = 0; i < sc.nodes.count; ++i)
        if (low.parents[i] == busiest)
            child = std::min(child, i);
    ASSERT_NE(child, UINT_MAX);

    sc.lifecycle->fail = {{busiest, 1.5}};

    auto run = [&](RepairPolicy policy, std::uint64_t &wakes,
                   double &mcuJoules) {
        Scenario variant = sc;
        variant.lifecycle->repair = policy;
        variant.lifecycle->repairPeriod = 0.5;
        scenario::Lowered lowered = scenario::lower(variant);
        core::Network network(lowered.spec);
        scenario::ResilienceManager manager(network, variant, lowered);
        scenario::ResilienceReport report = manager.run();
        wakes = network.node(child).micro().wakeups();
        mcuJoules =
            network.node(child).micro().energyTracker().energyJoules();
        return report;
    };

    std::uint64_t wakesOff = 0, wakesOn = 0;
    double joulesOff = 0.0, joulesOn = 0.0;
    run(RepairPolicy::None, wakesOff, joulesOff);
    scenario::ResilienceReport repaired =
        run(RepairPolicy::Triggered, wakesOn, joulesOn);

    EXPECT_GT(repaired.repairUpdates, 0u);
    EXPECT_GT(wakesOn, wakesOff)
        << "the route-update command must wake the child's uC";
    EXPECT_GT(joulesOn, joulesOff)
        << "the repair wake must show up in the energy ledger";
}

TEST(Resilience, RevivedNodeRejoinsAndDelivers)
{
    // Node 5 dies before its first sample and revives mid-run: every
    // frame the sink sees from it is post-revive, through the
    // reinstalled factory image plus one repair round.
    Scenario sc = churnGrid(1, 5.0);
    sc.lifecycle->fail = {{5, 0.1}};
    sc.lifecycle->revive = {{5, 2.5}};
    sc.lifecycle->repair = RepairPolicy::Triggered;
    sc.lifecycle->repairPeriod = 0.5;

    scenario::Lowered low = scenario::lower(sc);
    core::Network network(low.spec);
    scenario::ResilienceManager manager(network, sc, low);
    scenario::ResilienceReport report = manager.run();

    EXPECT_GT(report.repairUpdates, 0u);
    const auto &bySource =
        network.node(0).msgProc().localDeliveriesBySource();
    const std::uint16_t addr5 = low.addresses[5];
    ASSERT_TRUE(bySource.contains(addr5))
        << "the revived node's frames must reach the sink";
    EXPECT_GT(bySource.at(addr5), 0u);
    EXPECT_TRUE(network.node(5).alive());
}

// ---------------------------------------------------------------------------
// Reinstall: every install path loads the code a fresh assembly would.
// ---------------------------------------------------------------------------

/** Every SRAM byte installing @p app writes: ISR table entries, uC
 *  vectors, EP code and uC chunks. */
std::vector<std::pair<unsigned, std::uint8_t>>
installedBytes(const core::apps::NodeApp &app)
{
    std::vector<std::pair<unsigned, std::uint8_t>> out;
    auto word = [&](unsigned addr, std::uint16_t v) {
        out.push_back({addr, static_cast<std::uint8_t>(v >> 8)});
        out.push_back({addr + 1, static_cast<std::uint8_t>(v & 0xFF)});
    };
    for (const auto &[irq, handler] : app.ep.isrBindings)
        word(core::map::isrTableBase + 2 * static_cast<unsigned>(irq),
             handler);
    for (const auto &[index, handler] : app.vectors)
        word(core::map::mcuVectorBase + 2 * index, handler);
    for (std::size_t i = 0; i < app.ep.code.size(); ++i)
        out.push_back({static_cast<unsigned>(app.ep.base + i), app.ep.code[i]});
    for (const mcu::ImageChunk &chunk : app.mcu.chunks) {
        for (std::size_t i = 0; i < chunk.bytes.size(); ++i)
            out.push_back({static_cast<unsigned>(chunk.base + i),
                           chunk.bytes[i]});
    }
    return out;
}

::testing::AssertionResult
holdsApp(core::SensorNode &node, const core::apps::NodeApp &app)
{
    for (const auto &[addr, value] : installedBytes(app)) {
        const std::uint8_t got =
            node.memory().peek(static_cast<std::uint16_t>(addr));
        if (got != value) {
            return ::testing::AssertionFailure()
                   << node.name() << " holds " << unsigned(got) << " at "
                   << addr << ", a fresh " << app.name << " has "
                   << unsigned(value);
        }
    }
    return ::testing::AssertionSuccess();
}

/** Overwrite everything an install writes, so only a reinstall can
 *  restore it. */
void
scribble(core::SensorNode &node, const core::apps::NodeApp &app)
{
    for (const auto &[addr, value] : installedBytes(app)) {
        node.memory().poke(static_cast<std::uint16_t>(addr),
                           static_cast<std::uint8_t>(~value));
    }
}

TEST(Reinstall, ReviveAndDeepSleepWakeLoadFreshlyAssembledCode)
{
    // Three nodes share one app4 image with different parameter bytes;
    // the fourth runs another application.
    scenario::NetworkSpec spec;
    const char *names[] = {"app4", "app4", "app4", "sink"};
    for (unsigned i = 0; i < 4; ++i) {
        core::NodeConfig nc;
        nc.address = static_cast<std::uint16_t>(1 + i);
        nc.seed = 100 + i;
        core::apps::AppParams params;
        params.samplePeriodCycles = 40'000 + 1'111 * i;
        params.threshold = static_cast<std::uint8_t>(30 * i);
        params.dest = static_cast<std::uint16_t>(0xFFFE - i);
        spec.addNode().withConfig(nc).withApp(names[i]).withParams(params);
    }
    core::Network network(spec);
    auto fresh = [&](unsigned i) {
        const scenario::NodeSpec &ns = network.spec().nodes[i];
        return core::apps::buildByName(ns.app, ns.params);
    };
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(holdsApp(network.node(i), fresh(i)));
    network.runUntilTick(sim::secondsToTicks(0.5));

    network.powerOffNodeNow(1);
    scribble(network.node(1), fresh(1));
    network.reviveNodeNow(1);
    EXPECT_TRUE(holdsApp(network.node(1), fresh(1)));

    network.node(2).deepSleepEnter();
    scribble(network.node(2), fresh(2));
    network.wakeNodeFromDeepSleep(2);
    EXPECT_TRUE(holdsApp(network.node(2), fresh(2)));

    network.runUntilTick(sim::secondsToTicks(1.0));
    EXPECT_GT(network.node(1).radio().framesSent(), 0u);
    EXPECT_GT(network.node(2).radio().framesSent(), 0u);
}

} // namespace
