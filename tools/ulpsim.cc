/**
 * @file
 * ulpsim — command-line driver for the sensor-node simulator.
 *
 * The primary interface is the declarative scenario file:
 *
 *   ulpsim run network.ini                 # execute a scenario
 *   ulpsim run network.ini --threads=4     # same result, 4 shards
 *   ulpsim print-scenario network.ini      # dump the resolved form
 *
 * A scenario describes the whole experiment — node count and placement,
 * per-node apps and overrides, the radio model, multi-hop routes toward
 * a sink, fault campaigns, trace output — see scenario/scenario.hh.
 * `ulpsim run` runs it through scenario::ScenarioRun (scenario/run.hh),
 * as campaign workers do, and prints the report.
 *
 * The flag-based node front end is gone (node runs are scenario files);
 * only the Mica2 baseline platform keeps flags (`--platform=mica2`).
 *
 * Examples:
 *   ulpsim run examples/multihop_grid.ini --threads=4 --stats
 *   ulpsim --platform=mica2 --app=app1 --seconds=2
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "baseline/mica2_platform.hh"
#include "baseline/minios.hh"
#include "campaign/report.hh"
#include "campaign/runner.hh"
#include "campaign/spec.hh"
#include "campaign/store.hh"
#include "core/sensor_node.hh"
#include "obs/event_log.hh"
#include "scenario/run.hh"
#include "scenario/scenario.hh"
#include "sim/ini.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace ulp;

namespace {

/** Flag set of the Mica2 front end. */
struct Options
{
    std::string platform = "node";
    std::string app = "app1";
    std::uint32_t period = 1000;
    unsigned threshold = 0;
    double seconds = 10.0;
    std::string signal = "const:128";
    double noise = 0.0;
    std::uint64_t seed = 1;
    bool stats = false;
    bool power = false;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "ulpsim: run the ultra-low-power sensor node simulator\n"
        "\n"
        "  ulpsim run <scenario.ini> [overrides]   execute a scenario file\n"
        "  ulpsim print-scenario <scenario.ini>    dump the resolved form\n"
        "  ulpsim campaign run <spec.ini>          fan a sweep/ensemble out "
        "over worker processes\n"
        "  ulpsim campaign resume <spec.ini>       continue an interrupted "
        "campaign\n"
        "  ulpsim campaign report <store.jsonl>    aggregate a results "
        "store\n"
        "  ulpsim --platform=mica2 [flags]         Mica2 baseline "
        "(flag-only)\n"
        "\n"
        "run overrides:\n"
        "  --threads=K --seconds=S --seed=N --stats --power\n"
        "  --trace-out=DIR --trace-channels=LIST\n"
        "  --trace-energy-period=S   energy sampler period in seconds\n"
        "\n"
        "campaign run/resume options:\n"
        "  --jobs=N        worker processes (default: hardware threads)\n"
        "  --store=PATH    results store (default <name>.results.jsonl)\n"
        "  --timeout=S     per-run wall-clock limit (default 300, 0 = off)\n"
        "  --list          print the expanded run list and exit\n"
        "campaign report options:\n"
        "  --baseline-out=PATH  write a baseline snapshot\n"
        "  --check=PATH         gate against a baseline (exit 1 on drift)\n"
        "  --tolerance=T        relative band for --check (default 0.1)\n"
        "\n"
        "mica2 flags:\n"
        "  --platform=mica2        select the Mica2 baseline platform\n"
        "  --app=app1|app2|app3|app4|blink|sense\n"
        "  --period=N              sampling period in system cycles "
        "(default 1000 = 100 Hz)\n"
        "  --threshold=N           filter threshold (app2+)\n"
        "  --seconds=S             simulated duration (default 10)\n"
        "  --signal=const:V | sine:AMP,PERIOD_S | ramp:PER_SECOND\n"
        "  --noise=STDDEV          gaussian sensor noise\n"
        "  --seed=N                deterministic seed\n"
        "  --power                 print the power breakdown\n"
        "  --stats                 dump the full statistics tree\n"
        "  --help\n"
        "\n"
        "trace channels for --trace-channels: %s or all\n"
        "\n"
        "The flag-based node front end is retired: node-platform runs are\n"
        "scenario files now (`ulpsim run <scenario.ini>`).\n",
        obs::allChannelNames().c_str());
    std::exit(code);
}

/** Diagnostics on flag values name the flag as an INI key would. */
const sim::ini::Cursor commandLine{"command line"};

/** @p value of @p flag as a non-negative finite number, or fatal. */
double
flagNumber(const char *flag, const char *value)
{
    const double v = sim::ini::parseDouble(commandLine, flag, value);
    if (v < 0.0)
        commandLine.fail(std::string("'") + flag +
                         "' must be non-negative");
    return v;
}

/** @p value of @p flag as an unsigned integer up to @p max, or fatal. */
std::uint64_t
flagUnsigned(const char *flag, const char *value,
             std::uint64_t max = std::numeric_limits<unsigned>::max())
{
    return sim::ini::parseUnsigned(commandLine, flag, value, max);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *key) -> const char * {
            std::size_t n = std::strlen(key);
            if (arg.compare(0, n, key) == 0 && arg[n] == '=')
                return arg.c_str() + n + 1;
            return nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (const char *v = value("--platform")) {
            opt.platform = v;
        } else if (const char *v = value("--app")) {
            opt.app = v;
        } else if (const char *v = value("--period")) {
            // One soft-timer count per 1000 cycles must fit 16 bits.
            opt.period = static_cast<std::uint32_t>(
                flagUnsigned("--period", v, 65535000));
        } else if (const char *v = value("--threshold")) {
            opt.threshold =
                static_cast<unsigned>(flagUnsigned("--threshold", v, 255));
        } else if (const char *v = value("--seconds")) {
            opt.seconds = flagNumber("--seconds", v);
        } else if (const char *v = value("--signal")) {
            opt.signal = v;
        } else if (const char *v = value("--noise")) {
            opt.noise = flagNumber("--noise", v);
        } else if (const char *v = value("--seed")) {
            opt.seed = flagUnsigned("--seed", v, UINT64_MAX);
        } else if (arg == "--power") {
            opt.power = true;
        } else if (arg == "--stats") {
            opt.stats = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n\n", arg.c_str());
            usage(2);
        }
    }
    return opt;
}

/**
 * Reject bad flag values before any simulation object is built: a typo
 * should earn the usage text, not a mid-build sim::fatal with half a
 * node tree constructed.
 */
void
validate(const Options &opt)
{
    std::vector<std::string> errors;
    auto complain = [&](std::string msg) { errors.push_back(std::move(msg)); };

    if (opt.platform != "node" && opt.platform != "mica2")
        complain("unknown platform '" + opt.platform + "'");
    static const char *apps[] = {"app1", "app2",  "app3",
                                 "app4", "blink", "sense"};
    if (std::find(std::begin(apps), std::end(apps), opt.app) ==
        std::end(apps)) {
        complain("unknown app '" + opt.app + "'");
    }
    std::string kind = opt.signal.substr(0, opt.signal.find(':'));
    if (kind != "const" && kind != "sine" && kind != "ramp")
        complain("unknown signal spec '" + opt.signal + "'");
    if (!(opt.seconds > 0.0))
        complain("--seconds must be positive");

    if (errors.empty())
        return;
    for (const std::string &e : errors)
        std::fprintf(stderr, "ulpsim: %s\n", e.c_str());
    std::fprintf(stderr, "\n");
    usage(2);
}

/**
 * `ulpsim run`'s report on a finished run: the headline counters, one
 * line per declared scenario feature, the single-node detail lines, and
 * the statistics tree with --stats.
 */
int
printReport(scenario::ScenarioRun &run, bool stats, bool power)
{
    const scenario::Lowered &low = run.low;
    core::Network &network = run.network;
    const unsigned N = network.numNodes();
    const core::Network::Counters c = network.counters();

    std::printf("scenario=%s nodes=%u threads=%u simulated=%.3fs\n",
                low.name.c_str(), N, network.threads(), low.seconds);
    std::printf("events processed:  %llu\n",
                static_cast<unsigned long long>(c.eventsProcessed));
    std::printf("frames sent:       %llu\n",
                static_cast<unsigned long long>(c.framesSent));
    std::printf("frames delivered:  %llu (collisions %llu)\n",
                static_cast<unsigned long long>(c.framesDelivered),
                static_cast<unsigned long long>(c.collisions));
    std::printf("EP ISRs:           %llu\n",
                static_cast<unsigned long long>(c.epIsrs));
    std::printf("uC wakeups:        %llu\n",
                static_cast<unsigned long long>(c.mcuWakeups));
    const bool anyLinks =
        std::any_of(low.spec.nodes.begin(), low.spec.nodes.end(),
                    [](const scenario::NodeSpec &n) {
                        return !n.links.empty();
                    });
    if (anyLinks) {
        std::printf("fabric linked:     %llu (busy drops %llu)\n",
                    static_cast<unsigned long long>(c.fabricLinked),
                    static_cast<unsigned long long>(c.fabricDrops));
    }
    if (low.sink) {
        const scenario::RunTotals t = run.totals();
        std::printf("packets at sink:   %llu (origins %zu, max depth %u)\n",
                    static_cast<unsigned long long>(t.sinkPackets),
                    t.origins, low.maxDepth());
    }
    const sleep::SleepController &sleepCtl = *run.sleepCtl;
    if (sleepCtl.managedNodes()) {
        std::printf("sleep:             %u nodes managed (light sleeps "
                    "%llu, deep sleeps %llu, frame wakes %llu)\n",
                    sleepCtl.managedNodes(),
                    static_cast<unsigned long long>(sleepCtl.lightSleeps()),
                    static_cast<unsigned long long>(sleepCtl.deepSleeps()),
                    static_cast<unsigned long long>(sleepCtl.frameWakes()));
    }
    if (run.resilience)
        scenario::printResilienceReport(std::cout, *run.resilience);
    if (const fault::FaultInjector *injector = run.injector.get()) {
        std::printf("faults injected:   channel %llu, bit flips %llu, "
                    "device %llu, droops %llu, lifecycle %llu\n",
                    static_cast<unsigned long long>(
                        injector->injectedChannelFaults()),
                    static_cast<unsigned long long>(
                        injector->injectedBitFlips()),
                    static_cast<unsigned long long>(
                        injector->injectedDeviceFaults()),
                    static_cast<unsigned long long>(
                        injector->injectedDroops()),
                    static_cast<unsigned long long>(
                        injector->injectedLifecycleEvents()));
    }
    if (const obs::EventLog *log = run.log.get()) {
        std::printf("trace records:     %llu (%llu dropped) -> %s\n",
                    static_cast<unsigned long long>(log->totalRecorded()),
                    static_cast<unsigned long long>(log->totalDropped()),
                    log->dir().c_str());
    }

    if (N == 1) {
        // Single-node extras: the detail lines the node-level front end
        // has always reported.
        core::SensorNode &node = network.node(0);
        std::printf("samples taken:     %llu\n",
                    static_cast<unsigned long long>(node.sensor().samples()));
        std::printf("filter decisions:  %llu (passes %llu)\n",
                    static_cast<unsigned long long>(
                        node.filter().decisions()),
                    static_cast<unsigned long long>(node.filter().passes()));
        std::printf("events dropped:    %llu\n",
                    static_cast<unsigned long long>(node.irqBus().dropped()));
        if (power) {
            std::printf("\nPower breakdown:\n");
            for (const core::ComponentPower &row : node.powerReport()) {
                std::printf("  %-18s %12.4f uW  (utilization %.5f)\n",
                            row.component.c_str(), row.averageWatts * 1e6,
                            row.utilization);
            }
            std::printf("  %-18s %12.4f uW\n", "TOTAL",
                        node.totalAverageWatts() * 1e6);
        }
    } else if (power) {
        std::fprintf(stderr,
                     "ulpsim: --power prints a per-node breakdown and "
                     "needs a single-node run\n");
    }
    if (stats) {
        std::printf("\n");
        run.dumpStats(std::cout);
    }
    return 0;
}

/** A `run` override flag and the scenario key it sets. */
struct OverrideFlag
{
    const char *flag;
    const char *key;
};

constexpr OverrideFlag overrideFlags[] = {
    {"--threads", "scenario.threads"},
    {"--seconds", "scenario.seconds"},
    {"--seed", "scenario.seed"},
    {"--trace-out", "trace.out"},
    {"--trace-channels", "trace.channels"},
    {"--trace-energy-period", "trace.energy-period"},
};

/**
 * `ulpsim run <file.ini>`: scenario file plus per-invocation knobs. Each
 * override sets its scenario key through the same parser and checks as
 * the file and the campaign overrides.
 */
int
runCommand(int argc, char **argv)
{
    std::vector<std::string> positional;
    std::vector<std::pair<const OverrideFlag *, std::string>> overrides;
    bool stats = false, power = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const OverrideFlag *o =
            std::find_if(std::begin(overrideFlags), std::end(overrideFlags),
                         [&](const OverrideFlag &f) {
                             return arg.substr(0, eq) == f.flag;
                         });
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--power") {
            power = true;
        } else if (eq != std::string::npos && o != std::end(overrideFlags)) {
            overrides.emplace_back(o, arg.substr(eq + 1));
        } else if (!arg.empty() && arg[0] != '-') {
            positional.push_back(arg);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n\n", arg.c_str());
            usage(2);
        }
    }
    if (positional.size() != 1) {
        std::fprintf(stderr, "usage: ulpsim run <scenario.ini> "
                             "[overrides]\n\n");
        usage(2);
    }

    scenario::Scenario sc = scenario::parseScenarioFile(positional[0]);
    for (const auto &[o, value] : overrides)
        scenario::applyScenarioKey(sc, o->key, value, o->flag);
    scenario::validateScenario(sc, "command line");
    scenario::ScenarioRun run(sc);
    run.run();
    return printReport(run, stats, power);
}

/** The path workers are exec'd from: this very binary. */
std::string
selfExecutable(const char *argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/** `ulpsim campaign run|resume|report ...`. */
int
campaignCommand(int argc, char **argv)
{
    auto cmdUsage = [] {
        std::fprintf(
            stderr,
            "usage: ulpsim campaign run|resume <spec.ini> "
            "[--jobs=N --store=PATH --timeout=S --list]\n"
            "       ulpsim campaign report <store.jsonl> "
            "[--baseline-out=PATH --check=PATH --tolerance=T]\n");
        return 2;
    };
    if (argc < 4)
        return cmdUsage();
    const std::string verb = argv[2];

    std::vector<std::string> positional;
    std::string storePath, baselineOut, checkPath;
    unsigned jobsFlag = 0;
    double timeout = 300.0, tolerance = 0.1;
    bool list = false;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *key) -> const char * {
            std::size_t n = std::strlen(key);
            if (arg.compare(0, n, key) == 0 && arg[n] == '=')
                return arg.c_str() + n + 1;
            return nullptr;
        };
        if (const char *v = value("--jobs"))
            jobsFlag = static_cast<unsigned>(flagUnsigned("--jobs", v));
        else if (const char *v = value("--store"))
            storePath = v;
        else if (const char *v = value("--timeout"))
            timeout = flagNumber("--timeout", v);
        else if (const char *v = value("--baseline-out"))
            baselineOut = v;
        else if (const char *v = value("--check"))
            checkPath = v;
        else if (const char *v = value("--tolerance"))
            tolerance = flagNumber("--tolerance", v);
        else if (arg == "--list")
            list = true;
        else if (!arg.empty() && arg[0] != '-')
            positional.push_back(arg);
        else {
            std::fprintf(stderr, "unknown campaign option '%s'\n",
                         arg.c_str());
            return cmdUsage();
        }
    }
    if (positional.size() != 1)
        return cmdUsage();

    if (verb == "report") {
        campaign::ResultsStore::Header header;
        const std::vector<campaign::RunRecord> records =
            campaign::ResultsStore::load(positional[0], &header);
        const std::vector<campaign::GroupSummary> groups =
            campaign::summarize(records);
        campaign::printReport(header, records, groups);
        if (!baselineOut.empty()) {
            campaign::writeBaseline(baselineOut, header, groups);
            std::printf("\nbaseline written: %s\n", baselineOut.c_str());
        }
        if (!checkPath.empty()) {
            unsigned violations =
                campaign::checkBaseline(checkPath, groups, tolerance);
            if (violations) {
                std::fprintf(stderr,
                             "campaign check: %u violation(s) against "
                             "%s\n",
                             violations, checkPath.c_str());
                return 1;
            }
            std::printf("\ncampaign check: OK (%zu groups within "
                        "%.1f%% of %s)\n",
                        groups.size(), tolerance * 100.0,
                        checkPath.c_str());
        }
        return 0;
    }

    const bool resume = verb == "resume";
    if (verb != "run" && !resume)
        return cmdUsage();

    campaign::CampaignSpec spec =
        campaign::parseCampaignFile(positional[0]);
    // The base scenario resolves relative to the spec file's directory.
    std::filesystem::path scenarioPath = spec.scenario;
    if (!scenarioPath.is_absolute()) {
        std::filesystem::path dir =
            std::filesystem::path(positional[0]).parent_path();
        if (!dir.empty())
            scenarioPath = dir / scenarioPath;
    }
    scenario::Scenario base =
        scenario::parseScenarioFile(scenarioPath.string());
    const std::string canonical = scenario::printScenario(base);
    const std::vector<campaign::RunSpec> runs =
        campaign::expandRuns(spec, base);
    const std::uint64_t digest = campaign::campaignDigest(canonical, runs);

    if (list) {
        for (const campaign::RunSpec &run : runs) {
            std::string label = run.label();
            std::printf("%6llu  %s\n",
                        static_cast<unsigned long long>(run.id),
                        label.empty() ? "(base scenario)" : label.c_str());
        }
        return 0;
    }

    if (storePath.empty())
        storePath = spec.name + ".results.jsonl";
    campaign::ResultsStore store = campaign::ResultsStore::open(
        storePath,
        {spec.name, scenarioPath.string(),
         static_cast<std::uint64_t>(runs.size()), digest},
        resume);
    if (store.tornTail()) {
        std::fprintf(stderr,
                     "ulpsim: campaign: truncated a torn final record "
                     "left by an interrupted coordinator\n");
    }

    campaign::RunnerConfig rcfg;
    rcfg.workerExe = selfExecutable(argv[0]);
    rcfg.jobs = jobsFlag;
    rcfg.timeoutSeconds = timeout;
    const campaign::CampaignResult outcome =
        campaign::runCampaign(canonical, runs, store, rcfg);

    std::printf("campaign %s: %zu runs -> %llu ok, %llu failed, "
                "%llu skipped (already stored), %llu retried\n"
                "store: %s\n",
                spec.name.c_str(), runs.size(),
                static_cast<unsigned long long>(outcome.ok),
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.skipped),
                static_cast<unsigned long long>(outcome.retried),
                storePath.c_str());
    return outcome.failed ? 1 : 0;
}

int
runMica2(const Options &opt)
{
    sim::Simulation simulation;
    baseline::Mica2Platform::Config cfg;
    cfg.seed = opt.seed;
    cfg.sensorSignal = scenario::makeSignal(opt.signal);
    cfg.sensorNoiseStddev = opt.noise;
    baseline::Mica2Platform mica(simulation, "mica2", cfg);

    baseline::Mica2AppKind kind;
    if (opt.app == "app1")
        kind = baseline::Mica2AppKind::SendNoFilter;
    else if (opt.app == "app2")
        kind = baseline::Mica2AppKind::SendFilter;
    else if (opt.app == "app3")
        kind = baseline::Mica2AppKind::Multihop;
    else if (opt.app == "app4")
        kind = baseline::Mica2AppKind::Reconfigurable;
    else if (opt.app == "blink")
        kind = baseline::Mica2AppKind::Blink;
    else if (opt.app == "sense")
        kind = baseline::Mica2AppKind::Sense;
    else
        sim::fatal("unknown app '%s'", opt.app.c_str());

    baseline::MiniOsParams params;
    params.threshold = static_cast<std::uint8_t>(opt.threshold);
    // Map the node-cycle period onto the hardware-tick * soft-count pair
    // (one hw tick = 1152 * 64 CPU cycles ~ 10 ms).
    double period_seconds = opt.period / 100e3;
    params.softTimerCount = static_cast<std::uint16_t>(
        std::max(1.0, period_seconds / 0.01));

    baseline::Mica2App app = baseline::buildMica2App(kind, params);
    mica.loadProgram(app.image);
    mica.start(app.entry);
    simulation.runForSeconds(opt.seconds);

    std::printf("platform=mica2 app=%s simulated=%.3fs\n", app.name.c_str(),
                opt.seconds);
    std::printf("frames sent:       %llu\n",
                static_cast<unsigned long long>(mica.framesSent()));
    std::printf("cpu instructions:  %llu (%llu cycles)\n",
                static_cast<unsigned long long>(mica.cpu().instructions()),
                static_cast<unsigned long long>(mica.cpu().cycles()));
    std::printf("cpu utilization:   %.5f\n", mica.cpuUtilization());
    if (opt.power) {
        std::printf("\ncpu average power:   %10.1f uW (Table 1 model)\n",
                    mica.cpuAveragePowerWatts() * 1e6);
        std::printf("radio average power: %10.1f uW\n",
                    mica.radioAveragePowerWatts() * 1e6);
    }
    if (opt.stats) {
        std::printf("\n");
        mica.dumpStats(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc > 1 && std::strcmp(argv[1], "campaign-worker") == 0)
            return campaign::workerMain(argc, argv);
        if (argc > 1 && std::strcmp(argv[1], "campaign") == 0)
            return campaignCommand(argc, argv);
        if (argc > 1 && std::strcmp(argv[1], "run") == 0)
            return runCommand(argc, argv);
        if (argc > 1 && std::strcmp(argv[1], "print-scenario") == 0) {
            if (argc != 3) {
                std::fprintf(stderr,
                             "usage: ulpsim print-scenario <scenario.ini>\n");
                return 2;
            }
            std::fputs(
                scenario::printScenario(scenario::parseScenarioFile(argv[2]))
                    .c_str(),
                stdout);
            return 0;
        }

        Options opt = parse(argc, argv);
        validate(opt);
        if (opt.platform == "node") {
            std::fprintf(stderr,
                         "ulpsim: the flag-based node front end has been "
                         "removed; write a scenario file and `ulpsim run "
                         "<scenario.ini>` instead (`ulpsim print-scenario` "
                         "dumps the canonical form, and the [events] "
                         "section declares fabric links)\n");
            return 2;
        }
        return runMica2(opt);
    } catch (const sim::SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
