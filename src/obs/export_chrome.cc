#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "obs/exporters.hh"
#include "sim/json.hh"
#include "sim/telemetry.hh"

namespace ulp::obs {

namespace {

using sim::TelemetryChannel;
using sim::json::escape;

/**
 * Human names for the small enums carried in record payloads. These
 * mirror power::PowerState and core::EventProcessor::State; obs stays
 * below those layers, so the names are duplicated here (test_obs pins
 * them against the real enums).
 */
constexpr const char *powerStateNames[] = {"gated", "idle", "active"};
constexpr const char *epStateNames[] = {"ready", "wait_bus", "lookup",
                                        "fetch", "execute"};

/** "node12.ep" -> 12; components outside a node go to pid 0. */
unsigned
pidOf(const std::string &component)
{
    if (component.rfind("node", 0) != 0)
        return 0;
    std::size_t i = 4;
    unsigned pid = 0;
    bool any = false;
    while (i < component.size() &&
           std::isdigit(static_cast<unsigned char>(component[i]))) {
        pid = pid * 10 + static_cast<unsigned>(component[i] - '0');
        ++i;
        any = true;
    }
    return any ? pid + 1 : 0;
}

double
us(std::uint64_t tick)
{
    return static_cast<double>(tick) / 1e3; // 1 tick = 1 ns
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

} // namespace

std::string
exportChrome(const MergedLog &log, const ExportNames &names)
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto event = [&](const std::string &body) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{" << body << "}";
    };

    // Metadata: one process per node, one thread per component.
    std::vector<unsigned> pid(log.components.size(), 0);
    std::map<unsigned, std::string> processes;
    for (std::uint32_t c = 0; c < log.components.size(); ++c) {
        const std::string &name = log.components[c];
        pid[c] = pidOf(name);
        std::string proc = pid[c] == 0
                               ? std::string("sim")
                               : name.substr(0, name.find('.'));
        processes.emplace(pid[c], proc);
        event("\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
              std::to_string(pid[c]) + ",\"tid\":" + std::to_string(c + 1) +
              ",\"args\":{\"name\":\"" + escape(name) + "\"}");
    }
    for (const auto &[p, proc] : processes) {
        event("\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
              std::to_string(p) + ",\"tid\":0,\"args\":{\"name\":\"" +
              escape(proc) + "\"}");
    }

    const std::uint64_t endTick =
        log.records.empty() ? 0 : log.records.back().tick;

    auto duration = [&](std::uint32_t comp, const char *cat,
                        const std::string &name, std::uint64_t start,
                        std::uint64_t end) {
        event("\"ph\":\"X\",\"cat\":\"" + std::string(cat) +
              "\",\"name\":\"" + escape(name) +
              "\",\"pid\":" + std::to_string(pid[comp]) +
              ",\"tid\":" + std::to_string(comp + 1) +
              ",\"ts\":" + fmtDouble(us(start)) +
              ",\"dur\":" + fmtDouble(us(end - start)));
    };
    auto instant = [&](std::uint32_t comp, const char *cat,
                       const std::string &name, std::uint64_t tick) {
        event("\"ph\":\"i\",\"s\":\"t\",\"cat\":\"" + std::string(cat) +
              "\",\"name\":\"" + escape(name) +
              "\",\"pid\":" + std::to_string(pid[comp]) +
              ",\"tid\":" + std::to_string(comp + 1) +
              ",\"ts\":" + fmtDouble(us(tick)));
    };

    // Open stints, per component: (state, since).
    struct Stint
    {
        std::uint8_t state = 0;
        std::uint64_t since = 0;
        bool open = false;
    };
    std::vector<Stint> power(log.components.size());
    std::vector<Stint> ep(log.components.size());
    std::vector<Stint> bus(log.components.size());
    std::vector<Stint> sleep(log.components.size());
    static const char *sleepStateNames[] = {"awake", "light sleep",
                                            "deep sleep", "mac sleep"};
    std::vector<double> lastEnergy(log.components.size(), 0.0);
    std::vector<std::uint64_t> lastEnergyTick(log.components.size(), 0);
    std::vector<bool> haveEnergy(log.components.size(), false);

    auto stateName = [](const char *const *table, std::size_t n,
                        std::uint8_t v) {
        return v < n ? std::string(table[v])
                     : "state" + std::to_string(v);
    };

    for (const Record &r : log.records) {
        const std::uint32_t c = r.component;
        switch (static_cast<TelemetryChannel>(r.channel)) {
          case TelemetryChannel::Power: {
            Stint &s = power[c];
            // Idle is the baseline; only active/gated stints get boxes.
            if (s.open && s.state != 1)
                duration(c, "power",
                         stateName(powerStateNames, 3, s.state), s.since,
                         r.tick);
            s = {r.a, r.tick, true};
            break;
          }
          case TelemetryChannel::EpFsm: {
            Stint &s = ep[c];
            if (s.open && s.state != 0)
                duration(c, "ep", stateName(epStateNames, 5, s.state),
                         s.since, r.tick);
            s = {r.a, r.tick, true};
            break;
          }
          case TelemetryChannel::Bus: {
            Stint &s = bus[c];
            if (r.a && !s.open) {
                s = {1, r.tick, true};
            } else if (!r.a && s.open) {
                duration(c, "bus", "mcu holds bus", s.since, r.tick);
                s.open = false;
            }
            break;
          }
          case TelemetryChannel::Irq: {
            static const char *kinds[] = {"post", "deliver", "drop"};
            std::string irq = names.irq ? names.irq(r.a)
                                        : "irq" + std::to_string(r.a);
            instant(c, "irq",
                    irq + " " + (r.b < 3 ? kinds[r.b] : "?"), r.tick);
            break;
          }
          case TelemetryChannel::Mac:
          case TelemetryChannel::Probe: {
            const char *cat =
                r.channel == static_cast<std::uint8_t>(TelemetryChannel::Mac)
                    ? "mac"
                    : "probe";
            std::string probe = names.probe
                                    ? names.probe(r.a)
                                    : "probe" + std::to_string(r.a);
            instant(c, cat, probe, r.tick);
            break;
          }
          case TelemetryChannel::Fabric: {
            static const char *kinds[] = {"linked", "busy drop",
                                          "filtered"};
            std::string irq = names.irq ? names.irq(r.a)
                                        : "irq" + std::to_string(r.a);
            instant(c, "fabric",
                    irq + " " + (r.b < 3 ? kinds[r.b] : "?"), r.tick);
            break;
          }
          case TelemetryChannel::SleepState: {
            // Awake (0) is the baseline; only sleep stints get boxes.
            Stint &s = sleep[c];
            if (s.open && s.state != 0)
                duration(c, "sleep",
                         stateName(sleepStateNames, 4, s.state), s.since,
                         r.tick);
            s = {r.a, r.tick, true};
            break;
          }
          case TelemetryChannel::Energy: {
            double joules = std::bit_cast<double>(r.payload);
            if (haveEnergy[c] && r.tick > lastEnergyTick[c]) {
                double watts = (joules - lastEnergy[c]) /
                               ((r.tick - lastEnergyTick[c]) * 1e-9);
                event("\"ph\":\"C\",\"cat\":\"energy\",\"name\":\"" +
                      escape(log.components[c] + " power") +
                      "\",\"pid\":" + std::to_string(pid[c]) +
                      ",\"ts\":" + fmtDouble(us(r.tick)) +
                      ",\"args\":{\"uW\":" + fmtDouble(watts * 1e6) + "}");
            }
            lastEnergy[c] = joules;
            lastEnergyTick[c] = r.tick;
            haveEnergy[c] = true;
            break;
          }
          default:
            break;
        }
    }
    // Close whatever is still open at the end of the trace.
    for (std::uint32_t c = 0; c < log.components.size(); ++c) {
        if (power[c].open && power[c].state != 1 &&
            endTick > power[c].since) {
            duration(c, "power",
                     stateName(powerStateNames, 3, power[c].state),
                     power[c].since, endTick);
        }
        if (ep[c].open && ep[c].state != 0 && endTick > ep[c].since)
            duration(c, "ep", stateName(epStateNames, 5, ep[c].state),
                     ep[c].since, endTick);
        if (bus[c].open && endTick > bus[c].since)
            duration(c, "bus", "mcu holds bus", bus[c].since, endTick);
        if (sleep[c].open && sleep[c].state != 0 &&
            endTick > sleep[c].since) {
            duration(c, "sleep",
                     stateName(sleepStateNames, 4, sleep[c].state),
                     sleep[c].since, endTick);
        }
    }

    os << "\n]}\n";
    return os.str();
}

// --- power timeline + summary ---------------------------------------------

std::string
exportPowerCsv(const MergedLog &log)
{
    std::ostringstream os;
    os << "tick,seconds,component,cumulative_joules,interval_watts\n";
    std::vector<double> last(log.components.size(), 0.0);
    std::vector<std::uint64_t> lastTick(log.components.size(), 0);
    std::vector<bool> have(log.components.size(), false);
    std::uint64_t tick = 0;
    bool anyTick = false;
    double totalWatts = 0.0;
    auto flushTotal = [&] {
        if (anyTick) {
            os << tick << "," << fmtDouble(tick * 1e-9) << ",TOTAL,,"
               << fmtDouble(totalWatts) << "\n";
        }
        totalWatts = 0.0;
    };
    for (const Record &r : log.records) {
        if (r.channel != static_cast<std::uint8_t>(TelemetryChannel::Energy))
            continue;
        if (!anyTick || r.tick != tick) {
            flushTotal();
            tick = r.tick;
            anyTick = true;
        }
        const std::uint32_t c = r.component;
        double joules = std::bit_cast<double>(r.payload);
        double watts = 0.0;
        if (have[c] && r.tick > lastTick[c])
            watts = (joules - last[c]) / ((r.tick - lastTick[c]) * 1e-9);
        char joulesBuf[40];
        std::snprintf(joulesBuf, sizeof(joulesBuf), "%.9e", joules);
        os << r.tick << "," << fmtDouble(r.tick * 1e-9) << ","
           << log.components[c] << "," << joulesBuf << ","
           << fmtDouble(watts) << "\n";
        totalWatts += watts;
        last[c] = joules;
        lastTick[c] = r.tick;
        have[c] = true;
    }
    flushTotal();
    return os.str();
}

std::string
summarize(const MergedLog &log)
{
    std::ostringstream os;
    os << "trace: " << log.shards << " shard(s), "
       << log.components.size() << " component(s), "
       << log.records.size() << " record(s)\n";
    if (!log.records.empty()) {
        os << "span: tick " << log.records.front().tick << " .. "
           << log.records.back().tick << " ("
           << fmtDouble((log.records.back().tick -
                         log.records.front().tick) *
                        1e-9)
           << " s)\n";
    }
    std::uint64_t dropped = 0;
    for (unsigned s = 0; s < log.droppedPerShard.size(); ++s) {
        dropped += log.droppedPerShard[s];
        os << "shard " << s << " dropped: " << log.droppedPerShard[s]
           << "\n";
    }
    if (dropped > 0)
        os << "WARNING: " << dropped
           << " record(s) dropped (ring overflow)\n";

    std::uint64_t perChannel[sim::numTelemetryChannels] = {};
    std::map<std::uint32_t, std::uint64_t> perComponent;
    for (const Record &r : log.records) {
        if (r.channel < sim::numTelemetryChannels)
            ++perChannel[r.channel];
        ++perComponent[r.component];
    }
    os << "records by channel:\n";
    for (unsigned c = 0; c < sim::numTelemetryChannels; ++c) {
        if (perChannel[c] == 0)
            continue;
        os << "  " << telemetryChannelName(
                          static_cast<sim::TelemetryChannel>(c))
           << ": " << perChannel[c] << "\n";
    }
    std::vector<std::pair<std::uint64_t, std::uint32_t>> busiest;
    for (const auto &[comp, count] : perComponent)
        busiest.emplace_back(count, comp);
    std::sort(busiest.rbegin(), busiest.rend());
    os << "busiest components:\n";
    for (std::size_t i = 0; i < busiest.size() && i < 8; ++i) {
        os << "  " << log.components[busiest[i].second] << ": "
           << busiest[i].first << "\n";
    }
    return os.str();
}

} // namespace ulp::obs
