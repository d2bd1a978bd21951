/**
 * @file
 * Structured binary event tracing (the storage half of the telemetry
 * subsystem; the recording interface is sim/telemetry.hh).
 *
 * An EventLog owns one ShardLog per simulation shard. Each ShardLog is a
 * sim::TelemetrySink backed by a lock-free single-producer single-consumer
 * ring of fixed-size 24-byte records: the producer is the shard's worker
 * thread (allocation-free record()), the consumer is the EventLog's
 * flusher thread, which streams records to one binary file per shard
 * (`shard-N.ulpt`). When a ring overflows — the flusher cannot keep up —
 * records are dropped and counted rather than blocking the simulation:
 * the paper's own "if the system begins to be overloaded, events will
 * simply be dropped" policy applied to the observer.
 *
 * Component names are registered at construction time and written, with
 * drop counters and channel configuration, to a plain-text `meta.ulpt`
 * when the log is finished. tools/ulptrace (via obs::trace_reader) merges
 * the per-shard files into one canonical stream that is byte-identical
 * for a fixed seed regardless of the shard count — the trace itself is a
 * determinism oracle alongside the statistics check.
 *
 * The Energy channel is driven by a per-shard periodic sampler event
 * (lowest priority, so it observes each tick's final state) that reads
 * every registered cumulative-energy probe, turning the EnergyTrackers
 * into a power-vs-time timeline in the spirit of the paper's Figure 6.
 * The sampler is slope-compressed: cumulative energy is piecewise
 * linear (leakage accrues even at idle), so a probe whose per-period
 * delta repeats emits nothing, and the linear run is closed with one
 * boundary record when the slope next changes. Skipped records are
 * recoverable exactly by interpolation, so every derived power window
 * is unchanged — and the sampler was the dominant cost of tracing (see
 * bench_obs_overhead). The period is EventLogConfig's
 * energySamplePeriod ([trace] energy-period / --trace-energy-period).
 */

#ifndef ULP_OBS_EVENT_LOG_HH
#define ULP_OBS_EVENT_LOG_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/simulation.hh"
#include "sim/telemetry.hh"
#include "sim/types.hh"

namespace ulp::obs {

/** One trace record as stored on disk (host-endian, packed by layout). */
struct Record
{
    std::uint64_t tick = 0;
    std::uint32_t component = 0;
    std::uint8_t channel = 0;
    std::uint8_t a = 0;
    std::uint16_t b = 0;
    std::uint64_t payload = 0;
};

static_assert(sizeof(Record) == 24, "Record must be densely packed");

/** Magic line starting every per-shard binary file. */
inline constexpr char shardFileMagic[8] = {'U', 'L', 'P', 'T',
                                           'R', 'C', '0', '1'};

/** Fixed header preceding the records of a shard file. */
struct ShardFileHeader
{
    char magic[8];
    std::uint32_t shard = 0;
    std::uint32_t reserved = 0;
    std::uint64_t ticksPerSecond = 0;
};

static_assert(sizeof(ShardFileHeader) == 24);

struct EventLogConfig
{
    /** Output directory; created if missing. */
    std::string dir;

    /** Bitmask of enabled sim::TelemetryChannel values. */
    std::uint32_t channelMask = sim::allTelemetryChannels;

    /** Ring capacity in records per shard; rounded up to a power of 2. */
    std::size_t ringCapacity = std::size_t{1} << 16;

    /** Energy channel sampling period. */
    sim::Tick energySamplePeriod = sim::secondsToTicks(0.001);

    /**
     * Stream records to disk from a background flusher thread during the
     * run (default). When off, records accumulate in the rings and are
     * written only by finish() — deterministic drop behaviour for tests,
     * bounded capture for "keep the last N events" style use.
     */
    bool streaming = true;
};

/** Parse a comma list of channel names ("power,irq" or "all") into a
 *  mask; returns false and names the offender in @p error on failure. */
bool parseChannelList(const std::string &list, std::uint32_t *mask,
                      std::string *error);

/** "power,bus,ep,irq,mac,probe,energy" — for usage text. */
std::string allChannelNames();

/**
 * One shard's sink: SPSC ring + component table. Created and owned by
 * EventLog; components hold only the sim::TelemetrySink view.
 */
class ShardLog : public sim::TelemetrySink
{
  public:
    ShardLog(std::uint32_t channel_mask, std::size_t capacity);

    // --- sim::TelemetrySink (producer side) -------------------------------
    std::uint32_t registerComponent(const std::string &name) override;
    void addEnergyProbe(std::uint32_t component,
                        std::function<double()> joules) override;
    void record(sim::Tick tick, std::uint32_t component,
                sim::TelemetryChannel channel, std::uint8_t a,
                std::uint16_t b, std::uint64_t payload) override;
    std::uint64_t auxiliaryEvents() const override { return samples; }

    // --- consumer side ----------------------------------------------------
    /** Pop every visible record into @p out; returns records written. */
    std::size_t drainTo(std::FILE *out);

    std::uint64_t dropped() const
    {
        return drops.load(std::memory_order_relaxed);
    }
    std::uint64_t recorded() const
    {
        return _tail.load(std::memory_order_relaxed);
    }

    const std::vector<std::string> &components() const { return names; }

  private:
    friend class EventLog;

    std::size_t capacity; ///< power of two
    std::vector<Record> slots;
    std::vector<std::string> names;

    struct EnergyProbe
    {
        std::uint32_t component;
        std::function<double()> joules;
        /** Last sampled value; -1 guarantees the first sample emits a
         *  baseline record. */
        double lastJoules = -1.0;
        /** Energy accrued over the previous sample period. A sample is
         *  skipped while the per-period delta repeats exactly: the
         *  timeline is linear there, so the skipped records are
         *  recoverable by interpolation and every derived power window
         *  is unchanged. -1 (impossible for cumulative energy) makes
         *  the second sample always emit too. */
        double lastDelta = -1.0;
        /** Samples were skipped since the last emitted record; when the
         *  slope changes, the linear run is first closed with a
         *  boundary record so the new slope is confined to one period. */
        bool skipped = false;
    };
    std::vector<EnergyProbe> energyProbes;

    /** Record every energy probe whose rate changed, then schedule the
     *  next sample one period on. */
    void sample();

    /** Sampler machinery, owned here, scheduled by EventLog. */
    sim::Simulation *simulation = nullptr;
    sim::Tick samplePeriod = 0;
    std::uint64_t samples = 0; ///< sampler firings
    sim::MemberEvent<&ShardLog::sample> samplerEvent{
        this, "obs.energySampler", sim::Event::maxPriority};

    alignas(64) std::atomic<std::size_t> _head{0};
    alignas(64) std::atomic<std::size_t> _tail{0};
    alignas(64) std::atomic<std::uint64_t> drops{0};
};

/**
 * The whole telemetry log of one run: K shard sinks, the background
 * flusher, and the on-disk layout. Lifecycle:
 *
 *   obs::EventLog log(cfg, K);
 *   simulation[s].setTelemetry(&log.sink(s));   // before building nodes
 *   ... build nodes ...
 *   log.attachSampler(s, simulation[s]);        // if Energy is enabled
 *   ... run ...
 *   log.finish();   // MUST precede destruction of the simulations
 */
class EventLog
{
  public:
    EventLog(const EventLogConfig &config, unsigned num_shards);
    ~EventLog();

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    unsigned numShards() const
    {
        return static_cast<unsigned>(shards.size());
    }

    sim::TelemetrySink &sink(unsigned shard) { return *shards[shard]; }

    /**
     * Schedule the periodic energy sampler on @p simulation's queue (a
     * no-op unless the Energy channel is enabled). Call after the
     * shard's components are built, before the run.
     */
    void attachSampler(unsigned shard, sim::Simulation &simulation);

    /**
     * Stop sampling and flushing, drain every ring, and write the shard
     * files' trailers plus meta.ulpt. Idempotent. Must be called while
     * the simulations are still alive (it deschedules sampler events).
     */
    void finish();

    std::uint64_t totalRecorded() const;
    std::uint64_t totalDropped() const;

    const std::string &dir() const { return config.dir; }

  private:
    void flusherMain();
    void drainAll();

    EventLogConfig config;
    std::vector<std::unique_ptr<ShardLog>> shards;
    std::vector<std::FILE *> files;
    std::thread flusher;
    std::atomic<bool> stopFlag{false};
    bool finished = false;
};

} // namespace ulp::obs

#endif // ULP_OBS_EVENT_LOG_HH
