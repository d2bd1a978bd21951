/**
 * @file
 * Telemetry overhead: how much does the obs::EventLog cost the 64-node
 * oracle workload, in three configurations —
 *
 *   off        telemetry not attached (sink pointer is null): the price
 *              of the `if (obs)` tests added at every hook site; the
 *              acceptance bound is < 2% vs the untraced kernel;
 *   buffered   all channels recording into the rings, no flusher thread
 *              (finish() writes everything at the end);
 *   streaming  all channels + the background flusher draining to disk
 *              during the run (the ulpsim --trace-out configuration);
 *   10ms energy  streaming with the energy sampler slowed from the 1 ms
 *              default to 10 ms (--trace-energy-period=0.01): the knob
 *              for when the sampler — even change-compressed — is still
 *              the dominant tracing cost.
 *
 * Each configuration is timed over several repetitions of the same
 * fixed-seed network; the median is reported. Run with no arguments.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "core/apps.hh"
#include "core/network.hh"
#include "core/sensor_node.hh"
#include "obs/event_log.hh"

using namespace ulp;

namespace {

scenario::NetworkSpec
oracleSpec(unsigned nodes)
{
    scenario::NetworkSpec spec;
    spec.threads = 1;
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

enum class Mode { Off, Buffered, Streaming };

double
runOnce(Mode mode, unsigned nodes, double seconds, double energyPeriod,
        std::uint64_t *records)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "bench_obs_overhead";
    std::filesystem::remove_all(dir);

    std::unique_ptr<obs::EventLog> log;
    scenario::NetworkSpec spec = oracleSpec(nodes);
    if (mode != Mode::Off) {
        obs::EventLogConfig ecfg;
        ecfg.dir = dir.string();
        ecfg.ringCapacity = std::size_t{1} << 20;
        ecfg.energySamplePeriod = sim::secondsToTicks(energyPeriod);
        ecfg.streaming = mode == Mode::Streaming;
        log = std::make_unique<obs::EventLog>(ecfg, 1);
        spec.telemetrySink = [&log](unsigned s) { return &log->sink(s); };
    }

    auto start = std::chrono::steady_clock::now();
    core::Network network(spec);
    if (log)
        log->attachSampler(0, network.shardSimulation(0));
    network.runForSeconds(seconds);
    if (log)
        log->finish();
    auto stop = std::chrono::steady_clock::now();

    if (log && records)
        *records = log->totalRecorded();
    return std::chrono::duration<double>(stop - start).count();
}

double
median(Mode mode, unsigned nodes, double seconds, double energyPeriod,
       unsigned reps, std::uint64_t *records)
{
    std::vector<double> times;
    for (unsigned r = 0; r < reps; ++r)
        times.push_back(
            runOnce(mode, nodes, seconds, energyPeriod, records));
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

} // namespace

int
main()
{
    const unsigned nodes = 64;
    const double seconds = 0.5;
    const unsigned reps = 5;

    bench::banner("Telemetry overhead: 64-node oracle workload, "
                  "0.5 simulated seconds");

    std::uint64_t records = 0;
    std::uint64_t slowRecords = 0;
    double off = median(Mode::Off, nodes, seconds, 0.001, reps, nullptr);
    double buffered =
        median(Mode::Buffered, nodes, seconds, 0.001, reps, &records);
    double streaming =
        median(Mode::Streaming, nodes, seconds, 0.001, reps, nullptr);
    double slow = median(Mode::Streaming, nodes, seconds, 0.01, reps,
                         &slowRecords);

    std::printf("%-42s %10s %10s\n", "configuration", "host s",
                "vs off");
    bench::rule();
    std::printf("%-42s %10.4f %9s\n",
                "telemetry off (null sink at every hook)", off, "-");
    std::printf("%-42s %10.4f %+9.1f%%\n",
                "all channels, buffered (no flusher)", buffered,
                100.0 * (buffered - off) / off);
    std::printf("%-42s %10.4f %+9.1f%%\n",
                "all channels, streaming to disk", streaming,
                100.0 * (streaming - off) / off);
    std::printf("%-42s %10.4f %+9.1f%%\n",
                "streaming, energy-period = 10 ms", slow,
                100.0 * (slow - off) / off);
    bench::rule();
    std::printf("records per traced run: %llu (%.1f per simulated ms); "
                "%llu at 10 ms energy sampling\n",
                static_cast<unsigned long long>(records),
                records / (seconds * 1e3),
                static_cast<unsigned long long>(slowRecords));
    return 0;
}
