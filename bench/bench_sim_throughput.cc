/**
 * @file
 * Host-side performance of the simulators (google-benchmark): how fast a
 * simulated second runs for the event-driven node, for the saturated node,
 * and for the Mica2 baseline (which executes every CPU instruction), plus
 * the simulation-kernel fast path itself:
 *
 *  - BM_EventQueuePopulated: the indexed d-ary heap under a realistic
 *    schedule/reschedule/deschedule mix at several resident depths;
 *  - BM_EventQueueSetBaseline: the same op mix against a reference
 *    std::set red-black-tree queue (the pre-heap implementation), so the
 *    speedup is tracked release over release;
 *  - BM_NetworkScale: N complete sensor nodes (1/8/32/64) sharing one
 *    broadcast Channel, all sampling and transmitting.
 *
 * Special modes (no google-benchmark):
 *  --json[=PATH]  run the kernel benchmarks and write a machine-readable
 *                 BENCH_simkernel.json snapshot (default ./BENCH_simkernel.json),
 *                 including host metadata, a sharded-kernel thread sweep
 *                 (broadcast and spatial scenarios, every row flagged
 *                 `oversubscribed` when threads exceed host cores), and a
 *                 64-node two-run determinism check;
 *  --check[=PATH] perf-regression smoke: re-measure the network_scale
 *                 rows and fail if throughput fell below a quarter of the
 *                 committed snapshot's (tolerance band for differing CI
 *                 hosts); prints the host core count;
 *  --smoke        one short N-node run at each scale + the determinism
 *                 check; asserts completion, not speed (CI under ASan).
 *                 Oversubscribed thread counts run correctness-only and
 *                 are labelled as such — no timing is recorded for them.
 *  --threads=K    shard the --smoke networks across K worker threads and
 *                 additionally assert the stats match the sequential run
 *                 (CI under TSan).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/mica2_platform.hh"
#include "baseline/minios.hh"
#include "core/apps.hh"
#include "core/network.hh"
#include "core/sensor_node.hh"
#include "net/channel.hh"
#include "scenario/spec.hh"
#include "sim/simulation.hh"

#ifndef ULP_BUILD_TYPE
#define ULP_BUILD_TYPE "unspecified"
#endif

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
 * One steady-state kernel iteration against the real EventQueue: pop the
 * head and reschedule it forward (the clocked-component pattern), with
 * every fourth iteration instead moving a random resident event — the
 * timer-retarget/MAC-backoff pattern.
 */
struct HeapHarness
{
    sim::EventQueue queue;
    std::vector<std::unique_ptr<sim::EventFunctionWrapper>> pool;
    std::size_t lastRan = 0;
    Lcg lcg;

    explicit HeapHarness(std::size_t depth)
    {
        for (std::size_t i = 0; i < depth; ++i) {
            pool.push_back(std::make_unique<sim::EventFunctionWrapper>(
                [this, i] { lastRan = i; }, sim::EventName("ev")));
            queue.schedule(pool.back().get(), 1 + lcg.next() % opHorizon);
        }
    }

    void
    step(std::uint64_t iter)
    {
        if (iter % 4 == 3) {
            auto &victim = *pool[lcg.next() % pool.size()];
            if (victim.scheduled()) {
                queue.reschedule(&victim,
                                 queue.curTick() + 1 + lcg.next() % opHorizon);
                return;
            }
        }
        queue.runOne();
        queue.schedule(pool[lastRan].get(),
                       queue.curTick() + 1 + lcg.next() % opHorizon);
    }
};

/** The identical op mix against the reference std::set queue. */
struct SetHarness
{
    SetQueue queue;
    std::vector<SetQueue::Ev> pool;
    Lcg lcg;

    explicit SetHarness(std::size_t depth) : pool(depth)
    {
        for (auto &e : pool)
            queue.schedule(&e, 1 + lcg.next() % opHorizon);
    }

    void
    step(std::uint64_t iter)
    {
        if (iter % 4 == 3) {
            auto &victim = pool[lcg.next() % pool.size()];
            if (victim.scheduled) {
                queue.reschedule(&victim,
                                 queue.cur + 1 + lcg.next() % opHorizon);
                return;
            }
        }
        SetQueue::Ev *ran = queue.runOne();
        queue.schedule(ran, queue.cur + 1 + lcg.next() % opHorizon);
    }
};

void
BM_EventQueuePopulated(benchmark::State &state)
{
    HeapHarness harness(static_cast<std::size_t>(state.range(0)));
    std::uint64_t iter = 0;
    for (auto _ : state)
        harness.step(iter++);
    state.SetItemsProcessed(static_cast<std::int64_t>(iter));
}
BENCHMARK(BM_EventQueuePopulated)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void
BM_EventQueueSetBaseline(benchmark::State &state)
{
    SetHarness harness(static_cast<std::size_t>(state.range(0)));
    std::uint64_t iter = 0;
    for (auto _ : state)
        harness.step(iter++);
    state.SetItemsProcessed(static_cast<std::int64_t>(iter));
}
BENCHMARK(BM_EventQueueSetBaseline)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// --------------------------------------------------------------------------
// N-node broadcast-network scaling.
// --------------------------------------------------------------------------

struct NetworkResult
{
    std::uint64_t eventsProcessed = 0;
    std::uint64_t framesSent = 0;
    std::uint64_t framesDelivered = 0;
    std::uint64_t collisions = 0;
    std::uint64_t epIsrs = 0;
    sim::Tick endTick = 0;

    bool
    operator==(const NetworkResult &o) const
    {
        return eventsProcessed == o.eventsProcessed &&
               framesSent == o.framesSent &&
               framesDelivered == o.framesDelivered &&
               collisions == o.collisions && epIsrs == o.epIsrs &&
               endTick == o.endTick;
    }
};

NetworkResult
collectResult(Network &network)
{
    const Network::Counters c = network.counters();
    NetworkResult result;
    result.eventsProcessed = c.eventsProcessed;
    result.framesSent = c.framesSent;
    result.framesDelivered = c.framesDelivered;
    result.collisions = c.collisions;
    result.epIsrs = c.epIsrs;
    result.endTick = c.endTick;
    return result;
}

/**
 * Simulate @p num_nodes complete sensor nodes on one broadcast channel
 * for @p seconds, sharded over @p threads (1 = the sequential kernel).
 * Every node runs app v1 (sample -> transmit) with a slightly staggered
 * period so the network is not in artificial lockstep. Counters are
 * identical for every thread count (core::Network's contract).
 */
NetworkResult
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
        spec.addNode().withConfig(nc).withPrebuiltApp(
            apps::buildApp1(params));
    }

    Network network(spec);
    network.runForSeconds(seconds);
    return collectResult(network);
}

/**
 * Simulate @p num_nodes nodes on a 40 m-pitch planar grid under the
 * spatial radio model, sharded over @p threads. Node i connects to its
 * grid neighbors (~61 m reach at these loss parameters) but not across
 * the network, so this is the workload where locality partitioning and
 * per-shard-pair lookahead actually pay off — the broadcast channel
 * above keeps every shard pair coupled by construction.
 */
NetworkResult
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
    return collectResult(network);
}

void
BM_NetworkScale(benchmark::State &state)
{
    auto num_nodes = static_cast<unsigned>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        NetworkResult result = runNetwork(num_nodes, 0.2);
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

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Mops/s of the heap op mix at @p depth over @p iterations. */
template <typename Harness>
double
measureOpsPerSec(std::size_t depth, std::uint64_t iterations)
{
    Harness harness(depth);
    // Warm the queue into steady state before timing.
    for (std::uint64_t i = 0; i < iterations / 10; ++i)
        harness.step(i);
    auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        harness.step(i);
    double elapsed = secondsSince(start);
    return static_cast<double>(iterations) / elapsed;
}

const char *
compilerId()
{
#if defined(__clang__)
    return "clang " __VERSION__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

int
writeSnapshot(const std::string &path)
{
    constexpr std::size_t depths[] = {64, 256, 1024, 4096};
    constexpr std::uint64_t iterations = 2'000'000;
    constexpr double network_seconds = 0.5;

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }

    // Host metadata: throughput numbers are meaningless without knowing
    // what produced them (a 1-core CI box cannot show parallel speedup).
    const unsigned cores = std::thread::hardware_concurrency();
    std::fprintf(out, "{\n  \"schema\": \"ulpsn-simkernel-bench/3\",\n");
    std::fprintf(out,
                 "  \"host\": {\"hardware_concurrency\": %u, "
                 "\"build_type\": \"%s\", \"compiler\": \"%s\"},\n",
                 cores, ULP_BUILD_TYPE, compilerId());
    std::fprintf(out, "  \"event_queue\": [\n");
    bool first = true;
    for (std::size_t depth : depths) {
        double heap = measureOpsPerSec<HeapHarness>(depth, iterations);
        double set = measureOpsPerSec<SetHarness>(depth, iterations);
        std::printf("depth %5zu: heap %8.2f Mops/s  set %8.2f Mops/s  "
                    "speedup %.2fx\n",
                    depth, heap / 1e6, set / 1e6, heap / set);
        std::fprintf(out,
                     "%s    {\"depth\": %zu, \"heap_mops\": %.3f, "
                     "\"set_baseline_mops\": %.3f, \"speedup\": %.3f}",
                     first ? "" : ",\n", depth, heap / 1e6, set / 1e6,
                     heap / set);
        first = false;
    }
    std::fprintf(out, "\n  ],\n  \"network_scale\": [\n");

    first = true;
    for (unsigned nodes : {1u, 8u, 32u, 64u}) {
        auto start = std::chrono::steady_clock::now();
        NetworkResult result = runNetwork(nodes, network_seconds);
        double elapsed = secondsSince(start);
        double events_per_sec =
            static_cast<double>(result.eventsProcessed) / elapsed;
        std::printf("nodes %3u: %9llu events in %6.3f s host "
                    "(%7.2f Mev/s), %llu frames sent, %llu delivered, "
                    "%llu collisions\n",
                    nodes,
                    static_cast<unsigned long long>(result.eventsProcessed),
                    elapsed, events_per_sec / 1e6,
                    static_cast<unsigned long long>(result.framesSent),
                    static_cast<unsigned long long>(result.framesDelivered),
                    static_cast<unsigned long long>(result.collisions));
        std::fprintf(
            out,
            "%s    {\"nodes\": %u, \"simulated_seconds\": %.2f, "
            "\"events\": %llu, \"host_seconds\": %.4f, "
            "\"events_per_host_second\": %.0f, \"frames_sent\": %llu, "
            "\"frames_delivered\": %llu, \"collisions\": %llu}",
            first ? "" : ",\n", nodes, network_seconds,
            static_cast<unsigned long long>(result.eventsProcessed), elapsed,
            events_per_sec,
            static_cast<unsigned long long>(result.framesSent),
            static_cast<unsigned long long>(result.framesDelivered),
            static_cast<unsigned long long>(result.collisions));
        first = false;
    }

    std::fprintf(out, "\n  ],\n  \"parallel_scale\": [\n");

    // Sharded-kernel scaling. The broadcast channel couples every shard
    // pair by construction (one shared medium), so it bounds the sync
    // overhead; the spatial grids are what locality partitioning and
    // per-shard-pair lookahead actually speed up. Every thread count
    // must reproduce the sequential counters exactly. Rows where the
    // thread count exceeds the host's cores are flagged oversubscribed:
    // their speedup column measures scheduling noise, not the kernel.
    struct ParallelCase
    {
        const char *scenario;
        unsigned nodes;
        double seconds;
    };
    constexpr ParallelCase cases[] = {
        {"broadcast", 64, 0.5},
        {"spatial", 256, 0.2},
        {"spatial", 1024, 0.05},
    };
    bool parallel_match = true;
    first = true;
    for (const ParallelCase &pc : cases) {
        const bool broadcast = std::strcmp(pc.scenario, "broadcast") == 0;
        NetworkResult seq;
        double seq_elapsed = 0.0;
        for (unsigned threads : {1u, 2u, 4u}) {
            auto start = std::chrono::steady_clock::now();
            NetworkResult result =
                broadcast ? runNetwork(pc.nodes, pc.seconds, threads)
                          : runSpatialNetwork(pc.nodes, pc.seconds, threads);
            double elapsed = secondsSince(start);
            if (threads == 1) {
                seq = result;
                seq_elapsed = elapsed;
            }
            bool match = result == seq;
            parallel_match = parallel_match && match;
            bool oversub = cores != 0 && threads > cores;
            double speedup = seq_elapsed / elapsed;
            std::printf("%-9s %4u nodes, %u threads: %6.3f s host "
                        "(speedup %.2fx%s, stats %s)\n",
                        pc.scenario, pc.nodes, threads, elapsed, speedup,
                        oversub ? ", OVERSUBSCRIBED" : "",
                        match ? "identical" : "DIVERGED");
            std::fprintf(out,
                         "%s    {\"scenario\": \"%s\", \"threads\": %u, "
                         "\"nodes\": %u, \"simulated_seconds\": %.2f, "
                         "\"host_seconds\": %.4f, "
                         "\"speedup_vs_sequential\": %.3f, "
                         "\"oversubscribed\": %s, \"stats_identical\": %s}",
                         first ? "" : ",\n", pc.scenario, threads, pc.nodes,
                         pc.seconds, elapsed, speedup,
                         oversub ? "true" : "false",
                         match ? "true" : "false");
            first = false;
        }
    }

    // Determinism: two seeded 64-node runs must agree on every stat.
    NetworkResult a = runNetwork(64, network_seconds);
    NetworkResult b = runNetwork(64, network_seconds);
    bool deterministic = a == b;
    std::printf("64-node determinism check: %s\n",
                deterministic ? "PASS" : "FAIL");
    std::fprintf(out,
                 "\n  ],\n  \"determinism_64_nodes\": {\"deterministic\": "
                 "%s, \"events\": %llu, \"frames_sent\": %llu, "
                 "\"frames_delivered\": %llu, \"collisions\": %llu}\n}\n",
                 deterministic ? "true" : "false",
                 static_cast<unsigned long long>(a.eventsProcessed),
                 static_cast<unsigned long long>(a.framesSent),
                 static_cast<unsigned long long>(a.framesDelivered),
                 static_cast<unsigned long long>(a.collisions));
    std::fclose(out);
    std::printf("snapshot written to %s\n", path.c_str());
    return (deterministic && parallel_match) ? 0 : 1;
}

/**
 * Perf-regression smoke (CI): re-measure the network_scale rows and
 * compare each against the committed snapshot at @p path. The band is
 * deliberately loose — fail only below ref/4 — because the CI host
 * differs from the host that wrote the snapshot; the goal is catching
 * order-of-magnitude kernel regressions, not 10% drift. Run it on a
 * Release build only: a sanitizer or Debug build is legitimately far
 * slower than any committed Release number.
 */
int
runCheck(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "check: cannot read %s\n", path.c_str());
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    const std::size_t begin = text.find("\"network_scale\"");
    const std::size_t end = text.find("\"parallel_scale\"");
    if (begin == std::string::npos || end == std::string::npos ||
        end <= begin) {
        std::fprintf(stderr, "check: %s has no network_scale section\n",
                     path.c_str());
        return 1;
    }

    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("check: host has %u core(s), %s build; reference %s\n",
                cores, ULP_BUILD_TYPE, path.c_str());

    int failures = 0;
    unsigned rows = 0;
    std::size_t pos = begin;
    while (true) {
        const std::size_t n = text.find("\"nodes\": ", pos);
        if (n == std::string::npos || n >= end)
            break;
        const unsigned nodes = static_cast<unsigned>(
            std::strtoul(text.c_str() + n + 9, nullptr, 10));
        const std::size_t s = text.find("\"simulated_seconds\": ", n);
        const double sim_seconds =
            (s != std::string::npos && s < end)
                ? std::strtod(text.c_str() + s + 21, nullptr)
                : 0.5;
        const std::size_t e = text.find("\"events_per_host_second\": ", n);
        if (e == std::string::npos || e >= end)
            break;
        const double ref = std::strtod(text.c_str() + e + 26, nullptr);
        pos = e + 26;
        ++rows;

        // Same simulated duration as the committed row, best of two
        // runs: the first run eats the cold caches.
        double measured = 0.0;
        for (int attempt = 0; attempt < 2; ++attempt) {
            auto start = std::chrono::steady_clock::now();
            NetworkResult result = runNetwork(nodes, sim_seconds);
            double elapsed = secondsSince(start);
            measured = std::max(
                measured,
                static_cast<double>(result.eventsProcessed) / elapsed);
        }
        bool ok = ref <= 0.0 || measured >= ref / 4.0;
        std::printf("check: %4u nodes: %8.2f Mev/s vs committed %8.2f "
                    "Mev/s -> %s\n",
                    nodes, measured / 1e6, ref / 1e6,
                    ok ? "ok" : "REGRESSION");
        if (!ok)
            ++failures;
    }
    if (rows == 0) {
        std::fprintf(stderr, "check: no network_scale rows parsed from %s\n",
                     path.c_str());
        return 1;
    }
    if (failures) {
        std::fprintf(stderr, "check: %d of %u rows below the ref/4 band\n",
                     failures, rows);
        return 1;
    }
    std::printf("check OK: all %u network_scale rows within band\n", rows);
    return 0;
}

int
runSmoke(unsigned threads)
{
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores != 0 && threads > cores) {
        // Oversubscribed: still worth running (the TSan correctness
        // oracle is the point of --threads), but never time it.
        std::printf("smoke: %u threads on %u host core(s) -- "
                    "oversubscribed; correctness-only, no timings\n",
                    threads, cores);
    }
    for (unsigned nodes : {1u, 8u, 32u, 64u}) {
        const unsigned t = std::min(threads, nodes);
        NetworkResult result = runNetwork(nodes, 0.05, t);
        if (result.eventsProcessed == 0 || result.framesSent == 0 ||
            (nodes > 1 &&
             result.framesDelivered + result.collisions == 0)) {
            std::fprintf(stderr, "smoke: %u-node run looks dead\n", nodes);
            return 1;
        }
        std::printf("smoke %2u nodes (%u threads): %llu events, "
                    "%llu frames\n",
                    nodes, t,
                    static_cast<unsigned long long>(result.eventsProcessed),
                    static_cast<unsigned long long>(result.framesSent));
    }
    NetworkResult a = runNetwork(64, 0.05, threads);
    NetworkResult b = runNetwork(64, 0.05, threads);
    if (!(a == b)) {
        std::fprintf(stderr, "smoke: 64-node run is not deterministic\n");
        return 1;
    }
    if (threads > 1) {
        NetworkResult seq = runNetwork(64, 0.05, 1);
        if (!(a == seq)) {
            std::fprintf(stderr,
                         "smoke: %u-thread stats diverge from sequential\n",
                         threads);
            return 1;
        }
    }
    std::printf("smoke OK (64-node rerun bit-identical)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    unsigned threads = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
        } else if (std::strncmp(argv[i], "--json", 6) == 0) {
            std::string path = "BENCH_simkernel.json";
            if (argv[i][6] == '=')
                path = argv[i] + 7;
            return writeSnapshot(path);
        } else if (std::strncmp(argv[i], "--check", 7) == 0) {
            std::string path = "BENCH_simkernel.json";
            if (argv[i][7] == '=')
                path = argv[i] + 8;
            return runCheck(path);
        }
    }
    if (smoke)
        return runSmoke(threads == 0 ? 1 : threads);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
