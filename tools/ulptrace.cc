/**
 * @file
 * ulptrace — analyzer for binary telemetry traces written by
 * `ulpsim --trace-out=DIR`.
 *
 * Merges the per-shard record files into canonical (tick, component)
 * order — byte-identical for a fixed seed regardless of --threads — and
 * exports to standard viewers:
 *
 *   ulptrace summary DIR             per-channel/per-component digest
 *   ulptrace vcd DIR [-o out.vcd]    GTKWave waveform
 *   ulptrace chrome DIR [-o out.json] Perfetto / about://tracing JSON
 *   ulptrace power DIR [-o out.csv]  power-vs-time CSV (Energy channel)
 *   ulptrace dump DIR                canonical records as text
 *
 * `--check` runs the in-tree format validator on the vcd/chrome output
 * instead of only writing it (used by the CI trace-smoke step).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "core/interrupts.hh"
#include "core/probes.hh"
#include "obs/event_log.hh"
#include "obs/exporters.hh"
#include "obs/trace_reader.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/telemetry.hh"

using namespace ulp;

namespace {

[[noreturn]] void
usage(int code)
{
    std::printf(
        "ulptrace: analyze ulpsim --trace-out directories\n\n"
        "  ulptrace summary DIR            digest of the merged trace\n"
        "  ulptrace vcd DIR [-o FILE]      export a GTKWave waveform\n"
        "  ulptrace chrome DIR [-o FILE]   export Chrome trace_event JSON\n"
        "  ulptrace power DIR [-o FILE]    export a power-vs-time CSV\n"
        "  ulptrace dump DIR               print canonical records\n\n"
        "  -o FILE    write to FILE instead of stdout\n"
        "  --check    validate the generated vcd/chrome output in-tree\n");
    std::exit(code);
}

std::string
decodeIrq(std::uint8_t code)
{
    if (code < core::numIrqCodes)
        return core::irqName(static_cast<core::Irq>(code));
    return "irq" + std::to_string(code);
}

std::string
decodeProbe(std::uint8_t id)
{
    if (id < static_cast<unsigned>(core::Probe::NumProbes))
        return core::probeName(static_cast<core::Probe>(id));
    return "probe" + std::to_string(id);
}

void
writeOut(const std::string &text, const std::string &path)
{
    if (path.empty()) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        sim::fatal("ulptrace: cannot write '%s'", path.c_str());
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

std::string
dumpText(const obs::MergedLog &log)
{
    std::string out;
    char line[256];
    for (const obs::Record &r : log.records) {
        auto channel = static_cast<sim::TelemetryChannel>(r.channel);
        std::snprintf(line, sizeof(line),
                      "%12llu %-24s %-6s a=%u b=%u payload=%#llx\n",
                      static_cast<unsigned long long>(r.tick),
                      log.components[r.component].c_str(),
                      r.channel < sim::numTelemetryChannels
                          ? sim::telemetryChannelName(channel)
                          : "?",
                      r.a, r.b,
                      static_cast<unsigned long long>(r.payload));
        out += line;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string cmd, dir, outPath;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "-o") {
            if (++i >= argc) {
                std::fprintf(stderr, "ulptrace: -o needs a file\n\n");
                usage(2);
            }
            outPath = argv[i];
        } else if (cmd.empty()) {
            cmd = arg;
        } else if (dir.empty()) {
            dir = arg;
        } else {
            std::fprintf(stderr, "ulptrace: stray argument '%s'\n\n",
                         arg.c_str());
            usage(2);
        }
    }
    if (cmd.empty() || dir.empty()) {
        std::fprintf(stderr, "ulptrace: need a subcommand and a trace "
                             "directory\n\n");
        usage(2);
    }
    static const char *cmds[] = {"summary", "vcd", "chrome", "power",
                                 "dump"};
    bool known = false;
    for (const char *c : cmds)
        known |= cmd == c;
    if (!known) {
        std::fprintf(stderr, "ulptrace: unknown subcommand '%s'\n\n",
                     cmd.c_str());
        usage(2);
    }

    try {
        obs::MergedLog log = obs::readTraceDir(dir);
        if (cmd == "summary") {
            writeOut(obs::summarize(log), outPath);
        } else if (cmd == "dump") {
            writeOut(dumpText(log), outPath);
        } else if (cmd == "power") {
            writeOut(obs::exportPowerCsv(log), outPath);
        } else if (cmd == "vcd") {
            std::string vcd = obs::exportVcd(log);
            if (check) {
                std::string error;
                if (!obs::validateVcd(vcd, &error))
                    sim::fatal("ulptrace: generated VCD is invalid: %s",
                               error.c_str());
                std::fprintf(stderr, "ulptrace: VCD OK (%zu bytes)\n",
                             vcd.size());
            }
            writeOut(vcd, outPath);
        } else if (cmd == "chrome") {
            obs::ExportNames names;
            names.irq = decodeIrq;
            names.probe = decodeProbe;
            std::string json = obs::exportChrome(log, names);
            if (check) {
                const sim::json::Document parsed(
                    outPath.empty() ? "<stdout>" : outPath, json);
                std::fprintf(stderr, "ulptrace: JSON OK (%zu bytes)\n",
                             json.size());
            }
            writeOut(json, outPath);
        }
        return 0;
    } catch (const sim::SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
