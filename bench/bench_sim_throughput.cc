/**
 * @file
 * Host-side performance of the simulators (google-benchmark): how fast a
 * simulated second runs for the event-driven node, for the saturated node,
 * and for the Mica2 baseline (which executes every CPU instruction), plus
 * the simulation-kernel fast path itself:
 *
 *  - BM_EventQueuePopulated: the kernel's event queue under a realistic
 *    schedule/reschedule/deschedule mix at several resident depths, with
 *    ticks drawn from every nanosecond or only from a 10 us edge grid;
 *  - BM_EventQueueSetBaseline: the same op mix against a reference
 *    std::set red-black-tree queue (the pre-heap implementation), so the
 *    speedup is tracked release over release;
 *  - BM_NetworkScale: N complete sensor nodes (1/8/32/64) sharing one
 *    broadcast Channel, all sampling and transmitting.
 *
 * Special modes (no google-benchmark), on the shared bench harness
 * (bench_util.hh):
 *  --json[=PATH]  write the BENCH_simkernel.json snapshot: queue vs set
 *                 throughput per depth and tick grid, the network_scale
 *                 rows, a sharded-kernel thread sweep and a determinism
 *                 row;
 *  --check[=PATH] perf-regression gate: re-run every committed row;
 *                 counters and flags must match exactly, throughput must
 *                 reach a quarter of the committed value;
 *  --smoke        each scale for 0.05 simulated seconds against the
 *                 sequential run, then a 64-node rerun; asserts traffic
 *                 and identical counters, not speed (CI under ASan). It
 *                 prints no timing, so an oversubscribed thread count is
 *                 correctness coverage only;
 *  --threads=K    shard the --smoke networks across K worker threads
 *                 (CI under TSan).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline/mica2_platform.hh"
#include "baseline/minios.hh"
#include "bench_util.hh"
#include "core/apps.hh"
#include "core/network.hh"
#include "core/sensor_node.hh"
#include "net/channel.hh"
#include "scenario/spec.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::core;

namespace {

// --------------------------------------------------------------------------
// Kernel microbenchmark: a populated queue under a steady-state op mix.
// --------------------------------------------------------------------------

/** Deterministic 64-bit LCG so the op mix is identical across queues. */
struct Lcg
{
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    }
};

/**
 * Reference implementation: the std::set<Event*> red-black tree the
 * kernel used before the indexed heap, kept here as the comparison
 * baseline for BENCH_simkernel.json.
 */
class SetQueue
{
  public:
    struct Ev
    {
        sim::Tick when = 0;
        std::uint64_t seq = 0;
        bool scheduled = false;
    };

    void
    schedule(Ev *e, sim::Tick when)
    {
        e->when = when;
        e->seq = nextSeq++;
        e->scheduled = true;
        events.insert(e);
    }

    void
    deschedule(Ev *e)
    {
        events.erase(e);
        e->scheduled = false;
    }

    void
    reschedule(Ev *e, sim::Tick when)
    {
        if (e->scheduled)
            deschedule(e);
        schedule(e, when);
    }

    Ev *
    runOne()
    {
        auto it = events.begin();
        Ev *e = *it;
        events.erase(it);
        cur = e->when;
        e->scheduled = false;
        return e;
    }

    sim::Tick cur = 0;

  private:
    struct Compare
    {
        bool
        operator()(const Ev *a, const Ev *b) const
        {
            if (a->when != b->when)
                return a->when < b->when;
            return a->seq < b->seq;
        }
    };

    std::set<Ev *, Compare> events;
    std::uint64_t nextSeq = 0;
};

constexpr sim::Tick opHorizon = 100'000;

/**
 * The edge grid of the clocked op mix: the 100 kHz system clock's
 * period, on which the EP and the uC reschedule themselves. Over the
 * 100 us horizon that is ten edges, so a queue of depth N holds about
 * N / 10 events per tick; the uniform mix (edge 1) almost never shares
 * a tick.
 */
constexpr sim::Tick clockEdge = 10'000;

/** A tick up to opHorizon after @p now, on the next multiple of @p edge. */
sim::Tick
drawTick(Lcg &lcg, sim::Tick now, sim::Tick edge)
{
    const sim::Tick t = now + 1 + lcg.next() % opHorizon;
    return (t + edge - 1) / edge * edge;
}

/**
 * One steady-state kernel iteration against the real EventQueue: pop the
 * head and reschedule it forward (the clocked-component pattern), with
 * every fourth iteration instead moving a random resident event — the
 * timer-retarget/MAC-backoff pattern.
 */
struct QueueHarness
{
    /** A pool event: running it records its index. */
    struct PoolEvent : sim::Event
    {
        PoolEvent(QueueHarness &harness, std::size_t index)
            : harness(harness), index(index)
        {}
        void process() override { harness.lastRan = index; }

        QueueHarness &harness;
        std::size_t index;
    };

    sim::EventQueue queue;
    std::vector<std::unique_ptr<PoolEvent>> pool;
    std::size_t lastRan = 0;
    sim::Tick edge;
    Lcg lcg;

    QueueHarness(std::size_t depth, sim::Tick edge) : edge(edge)
    {
        for (std::size_t i = 0; i < depth; ++i) {
            pool.push_back(std::make_unique<PoolEvent>(*this, i));
            queue.schedule(pool.back().get(), drawTick(lcg, 0, edge));
        }
    }

    void
    step(std::uint64_t iter)
    {
        if (iter % 4 == 3) {
            auto &victim = *pool[lcg.next() % pool.size()];
            if (victim.scheduled()) {
                queue.reschedule(&victim,
                                 drawTick(lcg, queue.curTick(), edge));
                return;
            }
        }
        queue.runOne();
        queue.schedule(pool[lastRan].get(),
                       drawTick(lcg, queue.curTick(), edge));
    }
};

/** The identical op mix against the reference std::set queue. */
struct SetHarness
{
    SetQueue queue;
    std::vector<SetQueue::Ev> pool;
    sim::Tick edge;
    Lcg lcg;

    SetHarness(std::size_t depth, sim::Tick edge) : pool(depth), edge(edge)
    {
        for (auto &e : pool)
            queue.schedule(&e, drawTick(lcg, 0, edge));
    }

    void
    step(std::uint64_t iter)
    {
        if (iter % 4 == 3) {
            auto &victim = pool[lcg.next() % pool.size()];
            if (victim.scheduled) {
                queue.reschedule(&victim, drawTick(lcg, queue.cur, edge));
                return;
            }
        }
        SetQueue::Ev *ran = queue.runOne();
        queue.schedule(ran, drawTick(lcg, queue.cur, edge));
    }
};

void
BM_EventQueuePopulated(benchmark::State &state)
{
    QueueHarness harness(static_cast<std::size_t>(state.range(0)),
                         static_cast<sim::Tick>(state.range(1)));
    std::uint64_t iter = 0;
    for (auto _ : state)
        harness.step(iter++);
    state.SetItemsProcessed(static_cast<std::int64_t>(iter));
}
BENCHMARK(BM_EventQueuePopulated)
    ->ArgsProduct({{64, 256, 1024, 4096}, {1, clockEdge}});

void
BM_EventQueueSetBaseline(benchmark::State &state)
{
    SetHarness harness(static_cast<std::size_t>(state.range(0)),
                       static_cast<sim::Tick>(state.range(1)));
    std::uint64_t iter = 0;
    for (auto _ : state)
        harness.step(iter++);
    state.SetItemsProcessed(static_cast<std::int64_t>(iter));
}
BENCHMARK(BM_EventQueueSetBaseline)
    ->ArgsProduct({{64, 256, 1024, 4096}, {1, clockEdge}});

// --------------------------------------------------------------------------
// N-node broadcast-network scaling.
// --------------------------------------------------------------------------

using Counters = Network::Counters;

/**
 * Simulate @p num_nodes complete sensor nodes on one broadcast channel
 * for @p seconds, sharded over @p threads (1 = the sequential kernel).
 * Every node runs app v1 (sample -> transmit) with a slightly staggered
 * period so the network is not in artificial lockstep. Counters are
 * identical for every thread count (core::Network's contract).
 */
Counters
runNetwork(unsigned num_nodes, double seconds, unsigned threads = 1)
{
    scenario::NetworkSpec spec;
    spec.threads = threads;
    spec.channelSeed = 42;
    // ~40 Hz sampling: 64 nodes x 40 fps x 384 us airtime ~ 98% of
    // channel capacity, so the largest scale runs near saturation
    // (heavy but not total collisions) instead of collapsing.
    for (unsigned i = 0; i < num_nodes; ++i) {
        NodeConfig nc;
        nc.address = static_cast<std::uint16_t>(1 + i);
        nc.seed = 1000 + i;
        nc.sensorSignal = [](sim::Tick) { return 200; };
        apps::AppParams params;
        params.samplePeriodCycles = 2500 + 37 * i;
        spec.addNode().withConfig(nc).withApp("app1").withParams(params);
    }

    Network network(spec);
    network.runForSeconds(seconds);
    return network.counters();
}

/**
 * Simulate @p num_nodes nodes on a 40 m-pitch planar grid under the
 * spatial radio model, sharded over @p threads. Node i connects to its
 * grid neighbors (~61 m reach at these loss parameters) but not across
 * the network, so this is the workload where locality partitioning and
 * per-shard-pair lookahead actually pay off — the broadcast channel
 * above keeps every shard pair coupled by construction.
 */
Counters
runSpatialNetwork(unsigned num_nodes, double seconds, unsigned threads = 1)
{
    const unsigned side = static_cast<unsigned>(
        std::ceil(std::sqrt(static_cast<double>(num_nodes))));
    net::SpatialConfig radio;
    radio.pathLossExponent = 2.8;
    radio.sensitivityDbm = -90.0;

    scenario::NetworkSpec spec;
    spec.withThreads(threads).withSpatial(radio);
    spec.channelSeed = 42;
    for (unsigned i = 0; i < num_nodes; ++i) {
        NodeConfig nc;
        nc.address = static_cast<std::uint16_t>(1 + i);
        nc.seed = 1000 + i;
        nc.sensorSignal = [](sim::Tick) { return 200; };
        apps::AppParams params;
        params.samplePeriodCycles = 2500 + 37 * (i % 64);
        spec.addNode()
            .withConfig(nc)
            .withApp("app1")
            .withParams(params)
            .at(40.0 * (i % side), 40.0 * (i / side));
    }

    Network network(spec);
    network.runForSeconds(seconds);
    return network.counters();
}

void
BM_NetworkScale(benchmark::State &state)
{
    auto num_nodes = static_cast<unsigned>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        Counters result = runNetwork(num_nodes, 0.2);
        events += result.eventsProcessed;
        benchmark::DoNotOptimize(result.framesSent);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_NetworkScale)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// Node/baseline simulated-second benchmarks (unchanged workloads).
// --------------------------------------------------------------------------

void
BM_NodeSimulatedSecond(benchmark::State &state)
{
    double duty = static_cast<double>(state.range(0)) / 1000.0;
    auto period = static_cast<std::uint32_t>(
        std::max(125.0, 100'000.0 / (800.0 * duty)));
    for (auto _ : state) {
        sim::Simulation simulation;
        NodeConfig cfg;
        cfg.sensorSignal = [](sim::Tick) { return 200; };
        SensorNode node(simulation, "node", cfg);
        apps::AppParams params;
        params.samplePeriodCycles = period;
        apps::install(node, apps::buildApp2(params));
        simulation.runForSeconds(1.0);
        benchmark::DoNotOptimize(node.radio().framesSent());
    }
}
BENCHMARK(BM_NodeSimulatedSecond)
    ->Arg(1000)  // duty 1.0 (saturated)
    ->Arg(100)   // duty 0.1
    ->Arg(1)     // duty 0.001
    ->Unit(benchmark::kMillisecond);

void
BM_Mica2SimulatedSecond(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation simulation;
        baseline::Mica2Platform::Config cfg;
        cfg.sensorSignal = [](sim::Tick) { return 200; };
        baseline::Mica2Platform mica(simulation, "mica2", cfg);
        baseline::Mica2App app = baseline::buildMica2App(
            baseline::Mica2AppKind::SendNoFilter, {});
        mica.loadProgram(app.image);
        mica.start(app.entry);
        simulation.runForSeconds(1.0);
        benchmark::DoNotOptimize(mica.framesSent());
    }
}
BENCHMARK(BM_Mica2SimulatedSecond)->Unit(benchmark::kMillisecond);

void
BM_Assembler(benchmark::State &state)
{
    for (auto _ : state) {
        apps::NodeApp app = apps::buildApp4({});
        benchmark::DoNotOptimize(app.mcu.sizeBytes());
    }
}
BENCHMARK(BM_Assembler);

// --------------------------------------------------------------------------
// JSON snapshot + smoke modes.
// --------------------------------------------------------------------------

/** Ops/s of the op mix at @p depth on @p edge over @p iterations. */
template <typename Harness>
double
measureOpsPerSec(std::size_t depth, sim::Tick edge, std::uint64_t iterations)
{
    Harness harness(depth, edge);
    // Warm the queue into steady state before timing.
    for (std::uint64_t i = 0; i < iterations / 10; ++i)
        harness.step(i);
    auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        harness.step(i);
    double elapsed = bench::secondsSince(start);
    return static_cast<double>(iterations) / elapsed;
}

constexpr std::uint64_t queueIterations = 2'000'000;

/** Queue vs set-baseline throughput of the op mix at @p depth, with
 *  ticks on multiples of @p edge. */
bench::Row
queueRow(std::size_t depth, sim::Tick edge)
{
    const double queue =
        measureOpsPerSec<QueueHarness>(depth, edge, queueIterations);
    const double set =
        measureOpsPerSec<SetHarness>(depth, edge, queueIterations);
    bench::Row row;
    row.input.text("table", "event_queue")
        .count("depth", depth)
        .count("edge_ticks", edge);
    row.rate.number("queue_mops", queue / 1e6);
    // The reference queue's throughput is not the simulator's.
    row.info.number("set_baseline_mops", set / 1e6)
        .number("speedup", queue / set);
    return row;
}

/** The counters every network row records exactly. */
void
exactCounts(bench::Fields &exact, const Counters &c)
{
    exact.count("events", c.eventsProcessed)
        .count("frames_sent", c.framesSent)
        .count("frames_delivered", c.framesDelivered)
        .count("collisions", c.collisions);
}

/** One sequential broadcast network, timed. */
bench::Row
scaleRow(unsigned nodes, double seconds)
{
    auto start = std::chrono::steady_clock::now();
    const Counters c = runNetwork(nodes, seconds);
    const double elapsed = bench::secondsSince(start);
    bench::Row row;
    row.input.text("table", "network_scale")
        .count("nodes", nodes)
        .number("simulated_seconds", seconds);
    exactCounts(row.exact, c);
    row.rate.number("events_per_host_second",
                    static_cast<double>(c.eventsProcessed) / elapsed);
    row.info.number("host_seconds", elapsed);
    return row;
}

/**
 * The sharded kernel at @p threads against the sequential run: the
 * broadcast channel couples every shard pair (the sync-overhead bound),
 * the spatial grids are what locality partitioning speeds up. With more
 * threads than host cores the speedup measures scheduling noise, so it
 * is info, never gated.
 */
bench::Row
parallelRow(bool broadcast, unsigned nodes, unsigned threads, double seconds)
{
    double elapsed[2] = {};
    Counters runs[2];
    for (unsigned i = 0; i < 2; ++i) {
        const unsigned k = i == 0 ? 1 : threads;
        auto start = std::chrono::steady_clock::now();
        runs[i] = broadcast ? runNetwork(nodes, seconds, k)
                            : runSpatialNetwork(nodes, seconds, k);
        elapsed[i] = bench::secondsSince(start);
    }
    const unsigned cores = std::thread::hardware_concurrency();
    bench::Row row;
    row.input.text("table", "parallel_scale")
        .text("scenario", broadcast ? "broadcast" : "spatial")
        .count("nodes", nodes)
        .count("threads", threads)
        .number("simulated_seconds", seconds);
    const Counters &c = runs[1];
    exactCounts(row.exact, c);
    row.exact.flag("stats_identical", c == runs[0])
        .flag("traffic", c.framesSent > 0 &&
                             (nodes == 1 || c.framesDelivered > 0 ||
                              c.collisions > 0));
    row.info.number("host_seconds", elapsed[1])
        .number("speedup_vs_sequential", elapsed[0] / elapsed[1])
        .flag("oversubscribed", cores != 0 && threads > cores);
    return row;
}

/** Two seeded runs on @p threads shards must agree on every counter. */
bench::Row
determinismRow(unsigned nodes, double seconds, unsigned threads)
{
    const Counters a = runNetwork(nodes, seconds, threads);
    bench::Row row;
    row.input.text("table", "determinism")
        .count("nodes", nodes)
        .count("threads", threads)
        .number("simulated_seconds", seconds);
    row.exact.flag("deterministic",
                   a == runNetwork(nodes, seconds, threads));
    exactCounts(row.exact, a);
    return row;
}

/** The snapshot rows, which --json writes and --check re-runs, or the
 *  --smoke rows on @p threads shards. */
std::vector<bench::Row>
measureRows(bool smoke, unsigned threads)
{
    std::vector<bench::Row> rows;
    auto add = [&rows](bench::Row row) {
        std::printf("%s %s %s\n", row.input.json().c_str(),
                    row.exact.json().c_str(), row.rate.json().c_str());
        rows.push_back(std::move(row));
    };
    if (smoke) {
        for (unsigned nodes : {1u, 8u, 32u, 64u})
            add(parallelRow(true, nodes, std::min(threads, nodes), 0.05));
        add(determinismRow(64, 0.05, threads));
        return rows;
    }
    for (std::size_t depth : {64, 256, 1024, 4096})
        add(queueRow(depth, 1));
    // About 26 events per edge, the regime of the 1,024-node grid
    // workload (18 per tick).
    add(queueRow(256, clockEdge));
    for (unsigned nodes : {1u, 8u, 32u, 64u})
        add(scaleRow(nodes, 0.5));
    for (unsigned threads : {1u, 2u, 4u})
        add(parallelRow(true, 64, threads, 0.5));
    for (unsigned threads : {1u, 2u, 4u})
        add(parallelRow(false, 256, threads, 0.2));
    for (unsigned threads : {1u, 2u, 4u})
        add(parallelRow(false, 1024, threads, 0.05));
    add(determinismRow(64, 0.5, 1));
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = 1;
    const bench::Options options = bench::parseOptions(
        argc, argv, "BENCH_simkernel.json", true,
        " [--threads=K] [--benchmark_*...]",
        [&threads](std::string_view arg) {
            // google-benchmark parses its own flags below.
            if (arg.starts_with("--benchmark_"))
                return true;
            if (!arg.starts_with("--threads="))
                return false;
            const std::string_view k = arg.substr(10);
            const auto [end, ec] =
                std::from_chars(k.data(), k.data() + k.size(), threads);
            return ec == std::errc() && end == k.data() + k.size() &&
                   threads > 0;
        });
    if (options.smoke || !options.json.empty() || !options.check.empty()) {
        return bench::run(options, "bench_sim_throughput",
                          [threads](bool smoke, bool) {
                              return measureRows(smoke, threads);
                          });
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
