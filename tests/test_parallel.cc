/**
 * @file
 * Parallel-kernel tests: the sharded conservative-sync simulation must
 * reproduce the single-threaded kernel exactly, not approximately. The
 * core oracle is a 64-node near-saturation network (heavy collisions)
 * run at 1, 2 and 4 shards: every headline counter must be identical,
 * and the merged statistics tree must be byte-identical.
 *
 * The broadcast medium gets the same oracle under deep sleep (radios
 * leave and rejoin the medium) and with two broadcast domains.
 *
 * Also covers the kernel-level machinery the parallel mode leans on:
 * the (origin tick, sequence) event ordering key, scheduleCrossShard
 * placement and the SPSC flight mailbox.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/apps.hh"
#include "core/network.hh"
#include "core/sensor_node.hh"
#include "function_event.hh"
#include "net/channel.hh"
#include "net/pool.hh"
#include "net/relay.hh"
#include "scenario/lower.hh"
#include "scenario/run.hh"
#include "scenario/scenario.hh"
#include "scenario/spec.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"

using namespace ulp;

namespace {

/** The bench workload: app v1 nodes near channel saturation. */
scenario::NetworkSpec
benchSpec(unsigned nodes, unsigned threads)
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

core::Network::Counters
runBenchNetwork(unsigned nodes, unsigned threads, double seconds)
{
    core::Network network(benchSpec(nodes, threads));
    network.runForSeconds(seconds);
    return network.counters();
}

/** The bench workload on a 40 m grid under the spatial radio model —
 *  the configuration where locality partitioning actually severs shard
 *  pairs, so it exercises the per-pair-lookahead kernel path. */
scenario::NetworkSpec
gridSpec(unsigned nodes, unsigned threads)
{
    unsigned side = 1;
    while (side * side < nodes)
        ++side;
    net::SpatialConfig radio;
    radio.pathLossExponent = 2.8;
    radio.sensitivityDbm = -90.0;

    scenario::NetworkSpec spec;
    spec.withThreads(threads).withSpatial(radio);
    spec.channelSeed = 42;
    for (unsigned i = 0; i < nodes; ++i) {
        core::NodeConfig nc;
        nc.address = static_cast<std::uint16_t>(1 + i);
        nc.seed = 1000 + i;
        nc.sensorSignal = [](sim::Tick) { return 200; };
        core::apps::AppParams params;
        params.samplePeriodCycles = 2500 + 37 * (i % 64);
        spec.addNode()
            .withConfig(nc)
            .withApp("app1")
            .withParams(params)
            .at(40.0 * (i % side), 40.0 * (i / side));
    }
    return spec;
}

core::Network::Counters
runGridNetwork(unsigned nodes, unsigned threads, double seconds)
{
    core::Network network(gridSpec(nodes, threads));
    network.runForSeconds(seconds);
    return network.counters();
}

TEST(ParallelNetwork, MatchesDirectSequentialBuild)
{
    // Guard the Network refactor: threads=1 through core::Network must be
    // bit-identical to building the simulation by hand the way the bench
    // and ulpsim always did.
    sim::Simulation simulation;
    net::Channel channel(simulation, "channel",
                         net::Channel::defaultBitRate, 42);
    std::vector<std::unique_ptr<core::SensorNode>> nodes;
    for (unsigned i = 0; i < 8; ++i) {
        core::NodeConfig nc;
        nc.address = static_cast<std::uint16_t>(1 + i);
        nc.seed = 1000 + i;
        nc.sensorSignal = [](sim::Tick) { return 200; };
        nodes.push_back(std::make_unique<core::SensorNode>(
            simulation, "node" + std::to_string(i), nc, &channel));
        core::apps::AppParams params;
        params.samplePeriodCycles = 2500 + 37 * i;
        core::apps::install(*nodes.back(), core::apps::buildApp1(params));
    }
    simulation.runForSeconds(0.05);

    core::Network::Counters got = runBenchNetwork(8, 1, 0.05);
    EXPECT_EQ(got.eventsProcessed, simulation.eventq().numProcessed());
    EXPECT_EQ(got.framesDelivered, channel.framesDelivered());
    EXPECT_EQ(got.collisions, channel.collisions());
    EXPECT_EQ(got.endTick, simulation.curTick());
    std::uint64_t sent = 0;
    for (const auto &node : nodes)
        sent += node->radio().framesSent();
    EXPECT_EQ(got.framesSent, sent);
    EXPECT_GT(got.framesSent, 0u);
}

TEST(ParallelNetwork, DeterminismAcrossThreadCounts)
{
    // The acceptance oracle: 64 nodes near saturation, so the run is
    // dense with cross-shard collisions, at K = 1, 2, 4 shards.
    core::Network::Counters k1 = runBenchNetwork(64, 1, 0.05);
    core::Network::Counters k2 = runBenchNetwork(64, 2, 0.05);
    core::Network::Counters k4 = runBenchNetwork(64, 4, 0.05);

    EXPECT_GT(k1.framesSent, 0u);
    EXPECT_GT(k1.collisions, 0u); // saturation: the hard case is exercised

    EXPECT_EQ(k1, k2);
    EXPECT_EQ(k1, k4);
}

TEST(ParallelNetwork, RepeatedParallelRunsAreDeterministic)
{
    core::Network::Counters a = runBenchNetwork(16, 4, 0.05);
    core::Network::Counters b = runBenchNetwork(16, 4, 0.05);
    EXPECT_EQ(a, b);
}

TEST(ParallelNetwork, MergedStatsByteIdentical)
{
    core::Network seq(benchSpec(16, 1));
    core::Network par(benchSpec(16, 4));
    seq.runForSeconds(0.05);
    par.runForSeconds(0.05);

    std::ostringstream a, b;
    seq.dumpStats(a);
    par.dumpStats(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ParallelNetwork, SpatialGridDeterminismAcrossThreadCounts)
{
    // Same oracle as above, but on the spatial grid: locality
    // partitioning plus per-pair lookahead must still merge to the
    // sequential counters bit-for-bit.
    core::Network::Counters k1 = runGridNetwork(64, 1, 0.05);
    core::Network::Counters k2 = runGridNetwork(64, 2, 0.05);
    core::Network::Counters k4 = runGridNetwork(64, 4, 0.05);

    EXPECT_GT(k1.framesSent, 0u);
    EXPECT_EQ(k1, k2);
    EXPECT_EQ(k1, k4);
}

TEST(ParallelNetwork, TenThousandNodeGridIsDeterministic)
{
    // The memory-scaling point: 10k nodes must build (pooled frame
    // records, reserved per-shard queues) and reproduce exactly across
    // reruns and across shard counts.
    core::Network::Counters a = runGridNetwork(10'000, 1, 0.05);
    core::Network::Counters b = runGridNetwork(10'000, 1, 0.05);
    core::Network::Counters k2 = runGridNetwork(10'000, 2, 0.05);

    EXPECT_GT(a.framesSent, 0u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, k2);
}

TEST(ParallelNetwork, ChurnedNodesReviveOnTheirHomeShard)
{
    // Node death + revival under the locality partition: the revived
    // node must come back on its original shard (Network panics if it
    // does not — the partition's lookahead map would be wrong), and the
    // churned run must stay thread-count invariant. Victims sit in
    // opposite grid corners so at K=4 they land on different shards.
    auto churn = [](unsigned threads) {
        core::Network network(gridSpec(64, threads));
        for (unsigned victim : {5u, 58u}) {
            network.scheduleNodePowerOff(victim, sim::secondsToTicks(0.01));
            network.scheduleNodeRevive(victim, sim::secondsToTicks(0.03));
        }
        network.runForSeconds(0.05);
        return network.counters();
    };
    core::Network::Counters k1 = churn(1);
    core::Network::Counters k4 = churn(4);
    EXPECT_GT(k1.framesSent, 0u);
    EXPECT_EQ(k1, k4);
}

TEST(ParallelNetwork, EpochAndSyncCountsAreDeterministic)
{
    // Epoch barriers and pre-delivery syncs are fixed by the horizon, the
    // lookahead and the model, not by the host: two runs of the spatial
    // grid at one K count the same on every shard, and the counts are
    // pinned so a change to the sync protocol shows here. Every shard
    // syncs before all 63 frame ends of the run: a relayed record is
    // synced on whether or not a node of the shard can hear it.
    struct Expected
    {
        unsigned threads;
        std::vector<std::uint64_t> epochs;
        std::vector<std::uint64_t> syncs;
    };
    const Expected expected[] = {
        {2, {142, 142}, {63, 63}},
        {4, {142, 142, 142, 142}, {63, 63, 63, 63}},
    };
    for (const Expected &want : expected) {
        SCOPED_TRACE(want.threads);
        for (int run = 0; run < 2; ++run) {
            core::Network network(gridSpec(64, want.threads));
            network.runForSeconds(0.05);
            std::vector<std::uint64_t> epochs, syncs;
            for (const sim::ShardCounters &c : network.kernelCounters()) {
                epochs.push_back(c.epochs);
                syncs.push_back(c.syncs);
                EXPECT_LE(c.parks, c.waits);
            }
            EXPECT_EQ(epochs, want.epochs);
            EXPECT_EQ(syncs, want.syncs);
        }
    }
}

TEST(ParallelNetwork, SpecValidation)
{
    scenario::NetworkSpec spec = benchSpec(2, 4);
    EXPECT_THROW(core::Network{spec}, sim::FatalError); // threads > nodes
    spec = benchSpec(2, 0);
    EXPECT_THROW(core::Network{spec}, sim::FatalError);
    spec = scenario::NetworkSpec{};                     // zero nodes
    EXPECT_THROW(core::Network{spec}, sim::FatalError);
    spec = benchSpec(4, 2);
    spec.nodes[0].app = "no-such-app";                  // appShape fatal
    EXPECT_THROW(core::Network{spec}, sim::FatalError);
}

// --------------------------------------------------------------------------
// Broadcast medium: the same oracle under deep sleep and with two domains.
// --------------------------------------------------------------------------

/** Merged stats of @p sc at @p threads shards, run under its [sleep]
 *  schedule. */
std::string
scenarioStats(scenario::Scenario sc, unsigned threads)
{
    sc.threads = threads;
    scenario::ScenarioRun run(sc);
    run.run();
    std::ostringstream os;
    run.dumpStats(os);
    return os.str();
}

TEST(BroadcastOracle, DeepSleepStatsAcrossThreadCounts)
{
    // 64 forwarding nodes on one lossless broadcast domain; every node
    // but the sink deep-sleeps (radio detached) 400 ms of every 500 ms.
    scenario::Scenario sc;
    sc.name = "bcast-deepsleep";
    sc.seconds = 1.2;
    sc.seed = 5;
    sc.nodes.count = 64;
    sc.nodes.app = "app3";
    sc.nodes.period = 4000;
    sc.nodes.signal = "sine:60,5";
    sc.routes.sink = 0;
    sc.sleep.emplace();
    sc.sleep->policy = ulp::sleep::Policy::Deep;
    sc.sleep->period = 0.5;
    sc.sleep->on = 0.1;

    const std::string k1 = scenarioStats(sc, 1);
    ASSERT_NE(k1.find("channel.framesDelivered"), std::string::npos);
    EXPECT_EQ(k1, scenarioStats(sc, 2));
    EXPECT_EQ(k1, scenarioStats(sc, 4));
}

TEST(BroadcastOracle, TwoDomainsAtEveryThreadCount)
{
    // Nodes 8-15 form a second broadcast domain: its traffic never
    // reaches, or collides with, nodes 0-7. Blocks of the 16 nodes land
    // on different shards at K = 2 and 4.
    scenario::Scenario sc;
    sc.name = "bcast-two-domains";
    sc.seconds = 0.3;
    sc.seed = 9;
    sc.nodes.count = 16;
    sc.nodes.period = 1500;
    sc.nodes.signal = "const:200";
    for (unsigned i = 8; i < 16; ++i)
        sc.overrides[i].domain = 1;

    const std::string k1 = scenarioStats(sc, 1);
    ASSERT_NE(k1.find("channel0.framesSent"), std::string::npos);
    ASSERT_NE(k1.find("channel1.framesSent"), std::string::npos);
    EXPECT_EQ(k1, scenarioStats(sc, 2));
    EXPECT_EQ(k1, scenarioStats(sc, 4));
}

TEST(BroadcastOracle, BroadcastChannelIsTheOneMediumAtOneThread)
{
    scenario::Scenario sc;
    sc.nodes.count = 4;
    sc.overrides[3].domain = 1;
    scenario::Lowered low = scenario::lower(sc);
    core::Network k1(low.spec);
    ASSERT_NE(k1.broadcastChannel(0), nullptr);
    EXPECT_EQ(k1.broadcastChannel(1), k1.broadcastChannel(0));
    EXPECT_EQ(k1.broadcastChannel(2), nullptr); // past the last domain

    low.spec.threads = 2;
    core::Network k2(low.spec);
    EXPECT_EQ(k2.broadcastChannel(0), nullptr);
}

// --------------------------------------------------------------------------
// Scheduler epoch arithmetic and pair lookahead.
// --------------------------------------------------------------------------

TEST(ParallelScheduler, EndOfTimeEpochArithmetic)
{
    // Regression (S2): epoch_start + epoch_len used to overflow Tick
    // when the lookahead or horizon sat near maxTick, wrapping the epoch
    // window back to ~0. The clamped arithmetic must terminate and leave
    // every queue exactly at the horizon.
    sim::EventQueue q0, q1;
    sim::ParallelScheduler sched(sim::maxTick - 5);
    sched.addShard(q0, nullptr);
    sched.addShard(q1, nullptr);
    sched.run(sim::maxTick - 2);
    EXPECT_EQ(q0.curTick(), sim::maxTick - 2);
    EXPECT_EQ(q1.curTick(), sim::maxTick - 2);
}

TEST(ParallelScheduler, SeveredPairsRunTheHorizonInOneEpoch)
{
    // A pair severed in both directions (maxTick lookahead) must not
    // bound each other's epochs: a long horizon with a short global
    // lookahead completes instantly instead of in horizon/lookahead
    // barrier rounds.
    sim::EventQueue q0, q1;
    int ran = 0;
    test::FunctionEvent ev([&] { ++ran; }, "ev");
    q0.schedule(&ev, 1000);

    sim::ParallelScheduler sched(100);
    sched.addShard(q0, nullptr);
    sched.addShard(q1, nullptr);
    sched.setPairLookahead(0, 1, sim::maxTick);
    sched.setPairLookahead(1, 0, sim::maxTick);
    sched.run(1'000'000'000'000ull);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(q0.curTick(), 1'000'000'000'000ull);
    EXPECT_EQ(q1.curTick(), 1'000'000'000'000ull);
}

TEST(ParallelScheduler, StalledPeerIsAwaitedPastTheYieldBudget)
{
    // Shard 1 stalls its host thread for 50 ms inside an event, far past
    // the time a waiter yields before it parks. Shard 0 must park at its
    // next barrier, wake when shard 1 publishes, and both must run every
    // event to the horizon: ten epoch barriers each (at 100, ..., 1000).
    sim::EventQueue q[2];
    int ran[2] = {};
    std::vector<std::unique_ptr<test::FunctionEvent>> events;
    for (int shard = 0; shard < 2; ++shard) {
        for (sim::Tick when = 50; when < 1000; when += 100) {
            const bool stall = shard == 1 && when == 150;
            events.push_back(std::make_unique<test::FunctionEvent>(
                [&ran, shard, stall] {
                    if (stall) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(50));
                    }
                    ++ran[shard];
                },
                "ev"));
            q[shard].schedule(events.back().get(), when);
        }
    }

    sim::ParallelScheduler sched(100);
    sched.addShard(q[0], nullptr);
    sched.addShard(q[1], nullptr);
    sched.run(1000);
    for (int shard = 0; shard < 2; ++shard) {
        SCOPED_TRACE(shard);
        EXPECT_EQ(ran[shard], 10);
        EXPECT_EQ(q[shard].curTick(), 1000u);
        EXPECT_EQ(sched.counters(shard).epochs, 10u);
        EXPECT_EQ(sched.counters(shard).syncs, 0u);
        EXPECT_LE(sched.counters(shard).parks, sched.counters(shard).waits);
    }
    EXPECT_GE(sched.counters(0).parks, 1u);
    EXPECT_GT(sched.counters(0).waitSeconds, 0.0);
}

TEST(ParallelScheduler, WarningsPrintInTickThenShardOrder)
{
    // Two severed shards run with no barrier between them, so their
    // workers warn in whatever order the threads happen to run. The
    // scheduler holds each worker's lines and prints them after the
    // join in (tick, shard) order; tick 30 is shared, and shard 1's two
    // lines at 30 keep the order they were raised in.
    sim::EventQueue q0, q1;
    std::vector<std::unique_ptr<test::FunctionEvent>> events;
    auto warnAt = [&](sim::EventQueue &q, sim::Tick when,
                      const char *text) {
        events.push_back(std::make_unique<test::FunctionEvent>(
            [text] { sim::warn("%s", text); }, "warn"));
        q.schedule(events.back().get(), when);
    };
    warnAt(q1, 20, "shard1 at 20");
    warnAt(q0, 10, "shard0 at 10");
    warnAt(q1, 30, "shard1 at 30, first");
    warnAt(q1, 30, "shard1 at 30, second");
    warnAt(q0, 30, "shard0 at 30");
    warnAt(q1, 40, "shard1 at 40");
    warnAt(q0, 50, "shard0 at 50");

    sim::ParallelScheduler sched(100);
    sched.addShard(q0, nullptr);
    sched.addShard(q1, nullptr);
    sched.setPairLookahead(0, 1, sim::maxTick);
    sched.setPairLookahead(1, 0, sim::maxTick);
    testing::internal::CaptureStderr();
    sched.run(1000);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: shard0 at 10\n"
              "warn: shard1 at 20\n"
              "warn: shard0 at 30\n"
              "warn: shard1 at 30, first\n"
              "warn: shard1 at 30, second\n"
              "warn: shard1 at 40\n"
              "warn: shard0 at 50\n");
}

// --------------------------------------------------------------------------
// Pooled delivery allocator.
// --------------------------------------------------------------------------

/** Payload with an integrity stamp so a clobbered slot is detected. */
struct PoolPayload
{
    std::uint64_t tag;
    std::uint64_t check;
    explicit PoolPayload(std::uint64_t t) : tag(t), check(~t) {}
};

/** Random acquire/release interleaving against one pool; returns false
 *  on any duplicate slot, clobbered payload, or live-count mismatch. */
bool
hammerPool(std::uint64_t seed, int steps)
{
    net::ObjectPool<PoolPayload> pool;
    std::vector<PoolPayload *> live;
    std::set<PoolPayload *> liveSet;
    std::uint64_t lcg = seed;
    std::uint64_t next_tag = 1;
    auto rng = [&] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    for (int step = 0; step < steps; ++step) {
        if (live.empty() || rng() % 2 == 0) {
            PoolPayload *p = pool.acquire(next_tag++);
            if (!liveSet.insert(p).second)
                return false; // handed out a slot that is still live
            live.push_back(p);
        } else {
            std::size_t victim = rng() % live.size();
            PoolPayload *p = live[victim];
            if (p->check != ~p->tag)
                return false; // payload was clobbered while live
            pool.release(p);
            liveSet.erase(p);
            live[victim] = live.back();
            live.pop_back();
        }
        if (pool.live() != live.size())
            return false;
    }
    for (PoolPayload *p : live) {
        if (p->check != ~p->tag)
            return false;
        pool.release(p);
    }
    return pool.live() == 0;
}

TEST(ObjectPool, RandomInterleavingsPreserveIntegrity)
{
    // S4 property test (run under ASan in CI): no slot is handed out
    // twice while live, payloads survive arbitrary alloc/free orders,
    // and the live count tracks exactly.
    EXPECT_TRUE(hammerPool(0x9E3779B97F4A7C15ull, 20'000));
}

TEST(ObjectPool, DestructorReclaimsLiveObjects)
{
    // Tearing a pool down with objects still live (in-flight frames at
    // medium destruction) must run their destructors exactly once.
    static int destroyed;
    destroyed = 0;
    struct Counted
    {
        ~Counted() { ++destroyed; }
    };
    {
        net::ObjectPool<Counted> pool;
        pool.acquire();
        Counted *freed = pool.acquire();
        pool.acquire();
        pool.release(freed);
        EXPECT_EQ(destroyed, 1);
    }
    EXPECT_EQ(destroyed, 3); // the two still-live objects swept, once each
}

TEST(ObjectPool, IndependentPoolsOnSeparateThreads)
{
    // The single-owner contract (run under TSan in CI): two shards with
    // their own pools never share slots or metadata, so concurrent use
    // of independent pools is race-free by construction.
    bool ok1 = false, ok2 = false;
    std::thread t1([&] { ok1 = hammerPool(1, 10'000); });
    std::thread t2([&] { ok2 = hammerPool(2, 10'000); });
    t1.join();
    t2.join();
    EXPECT_TRUE(ok1);
    EXPECT_TRUE(ok2);
}

// --------------------------------------------------------------------------
// Event-queue ordering machinery.
// --------------------------------------------------------------------------

TEST(EventQueueCrossShard, OriginTickOrdersSameTickEvents)
{
    sim::EventQueue queue;
    std::vector<int> order;

    // Local event scheduled "now" (origin 0) at tick 100.
    test::FunctionEvent local([&] { order.push_back(1); }, "local");
    queue.schedule(&local, 100);

    // A relayed event carrying an *earlier* origin must run first even
    // though it was inserted later; one carrying the same origin ties
    // after the local event (later sequence number).
    test::FunctionEvent early([&] { order.push_back(0); }, "early");
    queue.scheduleCrossShard(&early, 100, 0);
    test::FunctionEvent tied([&] { order.push_back(2); }, "tied");
    queue.scheduleCrossShard(&tied, 100, 0);

    // With a *later* origin than a subsequently scheduled local event,
    // the relayed event runs after it. (Origin ticks dominate sequence.)
    test::FunctionEvent late([&] { order.push_back(4); }, "late");
    queue.scheduleCrossShard(&late, 100, 50);

    queue.runUntil(100);
    // local(origin 0, seq 0), early(origin 0, seq 1), tied(origin 0,
    // seq 2), late(origin 50).
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 4}));
}

TEST(EventQueueCrossShard, RejectsOriginAfterEventTick)
{
    sim::EventQueue queue;
    test::FunctionEvent ev([] {}, "ev");
    EXPECT_THROW(queue.scheduleCrossShard(&ev, 10, 20), sim::PanicError);
}

TEST(EventQueueCrossShard, DescheduleRescheduleAcrossEpochKeepsFifo)
{
    // A component descheduling an event in one epoch and rescheduling it
    // in a later one (MAC timers do this) must land *behind* same-tick
    // events already queued: the fresh (origin, seq) key is larger.
    sim::EventQueue queue;
    std::vector<char> order;

    test::FunctionEvent a([&] { order.push_back('a'); }, "a");
    test::FunctionEvent b([&] { order.push_back('b'); }, "b");
    test::FunctionEvent tick([&] {}, "tick");

    queue.schedule(&a, 1'000'000);
    queue.schedule(&b, 1'000'000);

    // Cross an epoch boundary (352 us lookahead => epoch ~352,000 ticks):
    // advance time, then pull 'a' out and put it back at the same tick.
    queue.schedule(&tick, 400'000);
    queue.runUntil(500'000);
    queue.deschedule(&a);
    queue.schedule(&a, 1'000'000);

    queue.runUntil(2'000'000);
    EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));

    // reschedule() must behave exactly like deschedule()+schedule().
    order.clear();
    test::FunctionEvent c([&] { order.push_back('c'); }, "c");
    test::FunctionEvent d([&] { order.push_back('d'); }, "d");
    queue.schedule(&c, 3'000'000);
    queue.schedule(&d, 3'000'000);
    queue.runUntil(2'500'000);
    queue.reschedule(&c, 3'000'000);
    queue.runUntil(3'000'000);
    EXPECT_EQ(order, (std::vector<char>{'d', 'c'}));
}

// --------------------------------------------------------------------------
// Flight mailbox and relay.
// --------------------------------------------------------------------------

TEST(FlightMailbox, FifoAndCapacity)
{
    net::FlightMailbox box;
    for (std::uint64_t i = 0; i < net::FlightMailbox::capacity; ++i) {
        net::FlightRecord rec;
        rec.start = i;
        rec.srcTxSeq = i;
        ASSERT_TRUE(box.push(rec));
    }
    EXPECT_FALSE(box.push(net::FlightRecord{})); // full

    std::uint64_t expect = 0;
    box.drain([&](const net::FlightRecord &rec) {
        EXPECT_EQ(rec.srcTxSeq, expect);
        ++expect;
    });
    EXPECT_EQ(expect, net::FlightMailbox::capacity);
    EXPECT_TRUE(box.push(net::FlightRecord{})); // space again
}

TEST(FrameRelay, AllocatesNoMailboxForItself)
{
    // A shard never relays to itself: a K=1 network, and every
    // standalone medium, carries no ~80 KB mailbox.
    EXPECT_EQ(net::FrameRelay(1).numMailboxes(), 0u);
    EXPECT_EQ(net::FrameRelay(3).numMailboxes(), 6u);
}

TEST(FrameRelay, LookaheadIsMinimalFrameAirtime)
{
    net::FrameRelay relay(2);
    // Smallest frame: 11 bytes of header+FCS at 250 kbit/s = 352 us.
    EXPECT_EQ(relay.lookahead(), sim::secondsToTicks(11 * 8.0 / 250'000.0));
    EXPECT_EQ(relay.lookahead(), 352'000u);
}

} // namespace
