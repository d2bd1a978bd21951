/**
 * @file
 * ulpbench — one repetition of one benchmark workload, timed phase by
 * phase. It makes the public calls `ulpsim run` makes, in the same order
 * (tools/ulpsim.cc:runScenario): read and parse the scenario, lower it,
 * open the telemetry log, build the network, attach the energy samplers
 * and the sleep controller, run, finish the log, read the counters, dump
 * the statistics, and destroy everything. It prints one JSON line.
 *
 *   ulpbench <workload.ini> [--threads=K] [--seconds=S] [--seed=N]
 *            [--trace-out=DIR | --no-telemetry] [--layers=SPANS_PATH]
 *
 *   --trace-out=DIR         where a [trace] section streams its records
 *   --no-telemetry          drop the [trace] section (the untraced oracle)
 *   --layers=SPANS_PATH     the traced repetition: count heap allocations,
 *                           time a separate spatial-model build, report
 *                           per-layer counters under "layers", and write
 *                           the phase spans to SPANS_PATH as Chrome
 *                           trace-event JSON
 *
 * The statistics dump is hashed (FNV-1a 64) as it streams, so a run's
 * behaviour is fingerprinted without holding the text. benchmark/run.py
 * drives this binary; see benchmark/README.md.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/network.hh"
#include "net/spatial.hh"
#include "obs/event_log.hh"
#include "scenario/lower.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"
#include "sleep/controller.hh"

using namespace ulp;

// ---------------------------------------------------------------------------
// Heap accounting. Counting is switched on only for the traced repetition
// (before any thread starts, never off again), so timed repetitions pay
// one predictable branch per allocation. The standard library's array
// and nothrow forms forward to these.
// ---------------------------------------------------------------------------

namespace {

bool countHeap = false;
std::atomic<std::uint64_t> heapAllocs{0};
std::atomic<std::uint64_t> heapBytes{0};
std::atomic<std::int64_t> heapLive{0};

struct HeapMark
{
    std::uint64_t allocs = heapAllocs.load(std::memory_order_relaxed);
    std::uint64_t bytes = heapBytes.load(std::memory_order_relaxed);
    std::int64_t live = heapLive.load(std::memory_order_relaxed);
};

} // namespace

// Not inlined: GCC would otherwise pair the inlined malloc with the
// delete-expressions and warn of a mismatch that does not exist.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    if (countHeap) {
        heapAllocs.fetch_add(1, std::memory_order_relaxed);
        heapBytes.fetch_add(n, std::memory_order_relaxed);
        heapLive.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    }
    return p;
}

void
operator delete(void *p) noexcept
{
    if (countHeap && p) {
        heapLive.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    }
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace {

// ---------------------------------------------------------------------------
// Spans: one root ("workload") and its phase children, kept in memory.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point origin = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    double seconds() const { return end - start; }
};

struct Spans
{
    std::vector<Span> list;

    void add(const char *name, double start) { list.push_back({name, start, now()}); }

    /** Summed duration of every span named @p name. */
    double
    total(const std::string &name) const
    {
        double s = 0.0;
        for (const Span &sp : list)
            if (sp.name == name)
                s += sp.seconds();
        return s;
    }
};

/** FNV-1a 64 over everything written through it, plus a byte count. */
class Fnv1aBuf : public std::streambuf
{
  public:
    Fnv1aBuf() { setp(buf, buf + sizeof buf); }

    std::uint64_t digest() { drain(); return hash; }
    std::uint64_t bytes() { drain(); return count; }

  protected:
    int_type
    overflow(int_type c) override
    {
        drain();
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(c);
            pbump(1);
        }
        return traits_type::not_eof(c);
    }

    int sync() override { drain(); return 0; }

  private:
    void
    drain()
    {
        for (const char *p = pbase(); p != pptr(); ++p) {
            hash ^= static_cast<unsigned char>(*p);
            hash *= 1099511628211ull;
        }
        count += static_cast<std::uint64_t>(pptr() - pbase());
        setp(buf, buf + sizeof buf);
    }

    char buf[1 << 16];
    std::uint64_t hash = 14695981039346656037ull;
    std::uint64_t count = 0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("cannot open '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * ulpbench wires neither fault campaigns nor node churn (runScenario's
 * FaultInjector and ResilienceManager paths), so a workload declaring
 * them would be measured without them. Refuse it at its header line.
 */
void
rejectUnwiredSections(const std::string &text, const std::string &path)
{
    std::istringstream in(text);
    std::string line;
    for (unsigned number = 1; std::getline(in, line); ++number) {
        const std::size_t cut = line.find_first_of("#;");
        if (cut != std::string::npos)
            line.erase(cut);
        const std::size_t b = line.find_first_not_of(" \t\r");
        const std::size_t e = line.find_last_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        const std::string header = line.substr(b, e - b + 1);
        if (header == "[fault]" || header == "[lifecycle]") {
            sim::fatal("%s:%u: %s is not supported by ulpbench (it wires "
                       "no fault injector or resilience manager)",
                       path.c_str(), number, header.c_str());
        }
    }
}

double
rssMb()
{
    long pages = 0, resident = 0;
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec))
            total += entry.file_size(ec);
    }
    return total;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Write @p spans as Chrome trace-event JSON (Perfetto opens it). */
void
writeChromeTrace(const std::string &path, const Spans &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        sim::fatal("cannot write '%s'", path.c_str());
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.list.size(); ++i) {
        const Span &sp = spans.list[i];
        std::fprintf(f,
                     "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f}%s\n",
                     jsonString(sp.name).c_str(), sp.start * 1e6,
                     sp.seconds() * 1e6,
                     i + 1 < spans.list.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0)
        sim::fatal("cannot write '%s'", path.c_str());
}

struct Args
{
    std::string path;
    std::optional<unsigned> threads;
    std::optional<double> seconds;
    std::optional<std::uint64_t> seed;
    std::string traceOut;
    bool noTelemetry = false;
    /** The traced repetition's span file; empty for an untraced one. */
    std::string layersPath;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: ulpbench <workload.ini> [--threads=K] "
                 "[--seconds=S] [--seed=N]\n"
                 "                [--trace-out=DIR | --no-telemetry] "
                 "[--layers=SPANS_PATH]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *key) -> const char * {
            const std::size_t n = std::strlen(key);
            if (arg.compare(0, n, key) == 0 && arg.size() > n &&
                arg[n] == '=')
                return arg.c_str() + n + 1;
            return nullptr;
        };
        char *end = nullptr;
        if (const char *v = value("--threads")) {
            a.threads = static_cast<unsigned>(std::strtoul(v, &end, 10));
        } else if (const char *v = value("--seconds")) {
            a.seconds = std::strtod(v, &end);
        } else if (const char *v = value("--seed")) {
            a.seed = std::strtoull(v, &end, 10);
        } else if (const char *v = value("--trace-out")) {
            a.traceOut = v;
        } else if (const char *v = value("--layers")) {
            a.layersPath = v;
        } else if (arg == "--no-telemetry") {
            a.noTelemetry = true;
        } else if (!arg.empty() && arg[0] != '-' && a.path.empty()) {
            a.path = arg;
        } else {
            std::fprintf(stderr, "ulpbench: unknown argument '%s'\n",
                         arg.c_str());
            usage();
        }
        if (end && *end != '\0') {
            std::fprintf(stderr, "ulpbench: bad number in '%s'\n",
                         arg.c_str());
            usage();
        }
    }
    if (a.path.empty())
        usage();
    if (a.threads && *a.threads == 0) {
        std::fprintf(stderr, "ulpbench: --threads must be positive\n");
        usage();
    }
    if (a.seconds && !(*a.seconds > 0.0)) {
        std::fprintf(stderr, "ulpbench: --seconds must be positive\n");
        usage();
    }
    return a;
}

int
runWorkload(const Args &args)
{
    Spans spans;
    const bool layers = !args.layersPath.empty();

    // The traced repetition times one more spatial-model build, outside
    // the workload span, from its own parse and lower.
    double spatialModelSeconds = 0.0;
    if (layers) {
        const scenario::Lowered probe = scenario::lower(
            scenario::parseScenario(readFile(args.path), args.path));
        if (probe.spec.spatial) {
            const double t = now();
            net::SpatialModel model(*probe.spec.spatial,
                                    probe.spec.positions());
            spatialModelSeconds = now() - t;
        }
    }

    const double t0 = now();
    double t = t0;
    const std::string text = readFile(args.path);
    spans.add("scenario.read", t);
    rejectUnwiredSections(text, args.path);

    t = now();
    std::optional<scenario::Scenario> sc(
        scenario::parseScenario(text, args.path));
    spans.add("scenario.parse", t);
    if (args.threads)
        sc->threads = *args.threads;
    if (args.seconds)
        sc->seconds = *args.seconds;
    if (args.seed)
        sc->seed = *args.seed;
    if (args.noTelemetry)
        sc->trace.reset();
    else if (sc->trace && !args.traceOut.empty())
        sc->trace->out = args.traceOut;
    const unsigned K = sc->threads;

    t = now();
    std::optional<scenario::Lowered> low(scenario::lower(*sc));
    spans.add("scenario.lower", t);
    const unsigned N = static_cast<unsigned>(low->spec.nodes.size());

    t = now();
    std::unique_ptr<obs::EventLog> log;
    if (low->trace && !low->trace->out.empty()) {
        obs::EventLogConfig ecfg;
        ecfg.dir = low->trace->out;
        ecfg.energySamplePeriod =
            sim::secondsToTicks(low->trace->energyPeriod);
        std::string bad;
        if (!obs::parseChannelList(low->trace->channels, &ecfg.channelMask,
                                   &bad)) {
            sim::fatal("bad trace channel '%s'", bad.c_str());
        }
        log = std::make_unique<obs::EventLog>(ecfg, K);
        low->spec.telemetrySink = [&log](unsigned s) {
            return &log->sink(s);
        };
    }
    spans.add("obs.attach", t);

    t = now();
    const HeapMark beforeBuild;
    auto network = std::make_unique<core::Network>(low->spec);
    const HeapMark afterBuild;
    spans.add("core.build", t);
    const double rssAfterBuild = layers ? rssMb() : 0.0;
    std::uint64_t queueDepth = 0;
    for (unsigned s = 0; s < K && layers; ++s)
        queueDepth += network->shardSimulation(s).eventq().size();

    if (log) {
        t = now();
        for (unsigned s = 0; s < K; ++s)
            log->attachSampler(s, network->shardSimulation(s));
        spans.add("obs.attach", t);
    }

    t = now();
    auto sleepCtl = std::make_unique<sleep::SleepController>(*network);
    spans.add("sleep.attach", t);

    if (low->broadcastLoss > 0.0) {
        if (!network->broadcastChannel()) {
            sim::fatal("[radio] loss needs the sequential broadcast "
                       "channel: threads = 1 and model = broadcast");
        }
        for (unsigned d = 0; net::Channel *ch = network->broadcastChannel(d);
             ++d) {
            ch->setLossProbability(low->broadcastLoss);
        }
    }
    const double setupSeconds = now() - t0;

    t = now();
    const HeapMark beforeRun;
    network->runForSeconds(low->seconds);
    const HeapMark afterRun;
    spans.add("sim.run", t);
    const double runSeconds = now() - t;

    std::uint64_t records = 0, dropped = 0;
    if (log) {
        t = now();
        log->finish();
        spans.add("obs.finish", t);
        records = log->totalRecorded();
        dropped = log->totalDropped();
    }

    t = now();
    const core::Network::Counters c = network->counters();
    std::uint64_t sinkPackets = 0;
    if (low->sink)
        sinkPackets = network->node(*low->sink).msgProc().localDeliveries();
    spans.add("core.counters", t);

    // Per-layer sums over nodes (traced repetition only).
    struct DeviceSums
    {
        std::uint64_t epInstructions = 0, irqPosted = 0, forwarded = 0,
                      backoffSlots = 0, framesMissed = 0,
                      beaconsReceived = 0, macSleeps = 0,
                      thresholdFiltered = 0;
        double energy = 0.0;
    } dev;
    std::vector<std::uint64_t> shardEvents;
    if (layers) {
        t = now();
        for (unsigned i = 0; i < N; ++i) {
            core::SensorNode &n = network->node(i);
            dev.epInstructions += n.ep().instructionsExecuted();
            dev.irqPosted += n.irqBus().posted();
            dev.forwarded += n.msgProc().forwarded();
            dev.backoffSlots += n.radio().backoffSlots();
            dev.framesMissed += n.radio().framesMissed();
            dev.beaconsReceived += n.radio().beaconsReceived();
            dev.macSleeps += n.radio().macSleeps();
            dev.thresholdFiltered += n.fabric().thresholdFiltered();
            // The campaign runner's energy definition (campaign/runner.cc).
            dev.energy += n.totalAverageWatts() * low->seconds;
        }
        for (unsigned s = 0; s < K; ++s)
            shardEvents.push_back(
                network->shardSimulation(s).eventq().numProcessed());
        spans.add("bench.collect", t);
    }

    t = now();
    Fnv1aBuf fnv;
    {
        std::ostream os(&fnv);
        network->dumpStats(os);
        os.flush();
    }
    const std::uint64_t digest = fnv.digest();
    const std::uint64_t statsBytes = fnv.bytes();
    spans.add("core.dump_stats", t);

    t = now();
    sleepCtl.reset();
    network.reset();
    log.reset();
    low.reset();
    sc.reset();
    spans.add("core.teardown", t);
    const double totalSeconds = now() - t0;
    spans.list.insert(spans.list.begin(),
                      Span{"workload", t0, t0 + totalSeconds});

    if (layers)
        writeChromeTrace(args.layersPath, spans);

    const std::uint64_t traceBytes =
        args.traceOut.empty() || args.noTelemetry ? 0 : dirBytes(args.traceOut);

    // One JSON line. Times in seconds, sizes in MB.
    std::ostringstream js;
    js.precision(9);
    js << "{\"nodes\":" << N << ",\"threads\":" << K
       << ",\"setup_s\":" << setupSeconds << ",\"run_s\":" << runSeconds
       << ",\"total_s\":" << totalSeconds
       << ",\"peak_rss_mb\":" << peakRssMb() << ",\"spans\":[";
    for (std::size_t i = 0; i < spans.list.size(); ++i) {
        const Span &sp = spans.list[i];
        js << (i ? "," : "") << "{\"name\":" << jsonString(sp.name)
           << ",\"start_s\":" << sp.start - t0
           << ",\"dur_s\":" << sp.seconds() << "}";
    }
    js << "],\"counts\":{\"events\":" << c.eventsProcessed
       << ",\"frames_sent\":" << c.framesSent
       << ",\"frames_delivered\":" << c.framesDelivered
       << ",\"collisions\":" << c.collisions << ",\"ep_isrs\":" << c.epIsrs
       << ",\"mcu_wakeups\":" << c.mcuWakeups
       << ",\"fabric_linked\":" << c.fabricLinked
       << ",\"fabric_drops\":" << c.fabricDrops
       << ",\"sink_packets\":" << sinkPackets
       << ",\"stats_bytes\":" << statsBytes
       << ",\"obs_records\":" << records << ",\"obs_dropped\":" << dropped
       << ",\"stats_digest\":\"" << std::hex << digest << std::dec << "\"}";

    if (layers) {
        const double n = N;
        const double events = static_cast<double>(c.eventsProcessed);
        std::uint64_t busiest = 0, allShards = 0;
        for (std::uint64_t e : shardEvents) {
            busiest = std::max(busiest, e);
            allShards += e;
        }
        auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
        js << ",\"layers\":{"
           << "\"scenario.parse_s\":" << spans.total("scenario.parse")
           << ",\"scenario.lower_s\":" << spans.total("scenario.lower")
           << ",\"net.spatial_model_s\":" << spatialModelSeconds
           << ",\"net.frames_sent\":" << c.framesSent
           << ",\"net.frames_delivered\":" << c.framesDelivered
           << ",\"net.collisions\":" << c.collisions
           << ",\"net.deliveries_per_s\":"
           << per(static_cast<double>(c.framesDelivered), runSeconds)
           << ",\"core.build_s\":" << spans.total("core.build")
           << ",\"core.build_allocs_per_node\":"
           << per(static_cast<double>(afterBuild.allocs - beforeBuild.allocs), n)
           << ",\"core.build_alloc_bytes_per_node\":"
           << per(static_cast<double>(afterBuild.bytes - beforeBuild.bytes), n)
           << ",\"core.live_heap_bytes_per_node\":"
           << per(static_cast<double>(afterBuild.live - beforeBuild.live), n)
           << ",\"core.report_s\":"
           << spans.total("core.counters") + spans.total("core.dump_stats")
           << ",\"core.stats_bytes_per_node\":"
           << per(static_cast<double>(statsBytes), n)
           << ",\"core.teardown_s\":" << spans.total("core.teardown")
           << ",\"core.ep_isrs\":" << c.epIsrs
           << ",\"core.ep_instructions\":" << dev.epInstructions
           << ",\"core.irq_posted\":" << dev.irqPosted
           << ",\"core.msgproc_forwarded\":" << dev.forwarded
           << ",\"core.radio_backoff_slots\":" << dev.backoffSlots
           << ",\"core.radio_frames_missed\":" << dev.framesMissed
           << ",\"core.radio_beacons_received\":" << dev.beaconsReceived
           << ",\"core.radio_mac_sleeps\":" << dev.macSleeps
           << ",\"core.mcu_wakeups\":" << c.mcuWakeups
           << ",\"fabric.linked\":" << c.fabricLinked
           << ",\"fabric.threshold_filtered\":" << dev.thresholdFiltered
           << ",\"fabric.drops\":" << c.fabricDrops
           << ",\"sim.events\":" << c.eventsProcessed
           << ",\"sim.events_per_s\":" << per(events, runSeconds)
           << ",\"sim.queue_depth_after_build\":" << queueDepth
           << ",\"sim.run_allocs_per_event\":"
           << per(static_cast<double>(afterRun.allocs - beforeRun.allocs), events)
           << ",\"sim.busiest_shard_share\":"
           << per(static_cast<double>(busiest), static_cast<double>(allShards))
           << ",\"obs.attach_s\":" << spans.total("obs.attach")
           << ",\"obs.records\":" << records
           << ",\"obs.records_per_s\":"
           << per(static_cast<double>(records), runSeconds)
           << ",\"obs.dropped\":" << dropped
           << ",\"obs.finish_s\":" << spans.total("obs.finish")
           << ",\"obs.trace_bytes\":" << traceBytes
           << ",\"sleep.attach_s\":" << spans.total("sleep.attach")
           << ",\"host.rss_after_build_mb\":" << rssAfterBuild
           << ",\"model.sink_packets\":" << sinkPackets
           << ",\"model.energy_j\":" << dev.energy
           << ",\"model.energy_per_bit_nj\":"
           // Application payloads are one byte per packet at the sink.
           << per(dev.energy * 1e9, static_cast<double>(sinkPackets) * 8.0)
           << "}";
    }
    js << "}\n";
    std::fputs(js.str().c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    countHeap = !args.layersPath.empty();
    // Modeled-contention warnings (e.g. "command while busy ignored") run
    // to megabytes on the larger workloads; the benches silence them too.
    sim::setQuiet(true);
    try {
        return runWorkload(args);
    } catch (const sim::SimError &e) {
        std::fprintf(stderr, "ulpbench: %s\n", e.what());
        return 1;
    }
}
