#include "campaign/report.hh"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "sim/ini.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace ulp::campaign {

namespace {

/** Group key: the override list minus the ensemble seed axis. */
std::string
groupKey(const RunRecord &record)
{
    std::string key;
    for (const std::string &o : record.overrides) {
        if (o.rfind("scenario.seed=", 0) == 0)
            continue;
        if (!key.empty())
            key += " ";
        key += o;
    }
    return key.empty() ? "(all)" : key;
}

/** Nearest-rank percentile of a sorted sample. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

bool
withinTolerance(double a, double b, double tolerance)
{
    return std::fabs(a - b) <= tolerance * std::fabs(b) + 1e-12;
}

} // namespace

std::vector<GroupSummary>
loadBaseline(const std::string &path)
{
    const sim::json::Document doc(path, sim::readFile(path, "baseline"));
    std::vector<GroupSummary> out;
    for (const sim::json::Value &g : doc.root()["groups"].array()) {
        GroupSummary b;
        b.group = g["group"].string();
        b.n = g["n"].unsignedInt();
        b.deliveryP50 = g["delivery_ratio_p50"].number();
        b.energyPerBitP50 = g["energy_per_bit_j_p50"].number();
        b.lifetimeP50 = g["lifetime_s_p50"].number();
        out.push_back(std::move(b));
    }
    if (out.empty())
        sim::fatal("baseline '%s' holds no groups", path.c_str());
    return out;
}

std::vector<GroupSummary>
summarize(const std::vector<RunRecord> &records)
{
    // Per group, the samples of each summaryStats member.
    using Samples = std::array<std::vector<double>, std::size(summaryStats)>;
    std::map<std::string, Samples> byGroup;
    for (const RunRecord &record : records) {
        if (!record.ok())
            continue;
        Samples &s = byGroup[groupKey(record)];
        const sim::json::Document stats(
            "run " + std::to_string(record.id) + " stats",
            record.stats.empty() ? "{}" : record.stats);
        for (std::size_t k = 0; k < s.size(); ++k) {
            if (const sim::json::Value *v = stats.root().find(summaryStats[k]))
                s[k].push_back(v->number());
        }
    }

    std::vector<GroupSummary> out;
    for (auto &[group, s] : byGroup) {
        for (std::vector<double> &samples : s)
            std::sort(samples.begin(), samples.end());
        const auto &[delivery, energyPerBit, lifetime] = s;
        GroupSummary g;
        g.group = group;
        g.n = delivery.size();
        g.deliveryP50 = percentile(delivery, 0.50);
        g.deliveryP95 = percentile(delivery, 0.95);
        g.deliveryP99 = percentile(delivery, 0.99);
        g.energyPerBitP50 = percentile(energyPerBit, 0.50);
        g.lifetimeP50 = percentile(lifetime, 0.50);
        out.push_back(std::move(g));
    }
    return out;
}

void
printReport(const ResultsStore::Header &header,
            const std::vector<RunRecord> &records,
            const std::vector<GroupSummary> &groups)
{
    std::size_t ok = 0, failed = 0;
    for (const RunRecord &record : records)
        (record.ok() ? ok : failed) += 1;

    std::printf("campaign %s  scenario %s  records %zu ok",
                header.campaign.c_str(), header.scenario.c_str(), ok);
    if (failed)
        std::printf(", %zu failed", failed);
    std::printf(" of %" PRIu64 " runs\n\n", header.runs);

    std::size_t width = std::strlen("group");
    for (const GroupSummary &g : groups)
        width = std::max(width, g.group.size());

    std::printf("%-*s  %4s  %-24s  %-14s  %s\n",
                static_cast<int>(width), "group", "n",
                "delivery p50/p95/p99", "energy/bit p50", "lifetime p50");
    for (const GroupSummary &g : groups) {
        std::printf("%-*s  %4zu  %.4f / %.4f / %.4f  %14.6g  %10.3f s\n",
                    static_cast<int>(width), g.group.c_str(), g.n,
                    g.deliveryP50, g.deliveryP95, g.deliveryP99,
                    g.energyPerBitP50, g.lifetimeP50);
    }
}

void
writeBaseline(const std::string &path,
              const ResultsStore::Header &header,
              const std::vector<GroupSummary> &groups)
{
    std::FILE *out = std::fopen(path.c_str(), "wb");
    if (!out)
        sim::fatal("cannot write baseline '%s'", path.c_str());
    std::fprintf(out, "{\"campaign\":\"%s\",\"groups\":[\n",
                 sim::json::escape(header.campaign).c_str());
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const GroupSummary &g = groups[i];
        std::fprintf(out,
                     "  {\"group\":\"%s\",\"n\":%zu,"
                     "\"delivery_ratio_p50\":%.6f,"
                     "\"energy_per_bit_j_p50\":%.9g,"
                     "\"lifetime_s_p50\":%.6f}%s\n",
                     sim::json::escape(g.group).c_str(), g.n, g.deliveryP50,
                     g.energyPerBitP50, g.lifetimeP50,
                     i + 1 < groups.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
}

unsigned
checkBaseline(const std::string &path,
              const std::vector<GroupSummary> &groups, double tolerance)
{
    const std::vector<GroupSummary> baseline = loadBaseline(path);
    unsigned violations = 0;
    auto violate = [&violations](const std::string &msg) {
        std::fprintf(stderr, "campaign check: %s\n", msg.c_str());
        ++violations;
    };

    for (const GroupSummary &b : baseline) {
        const GroupSummary *current = nullptr;
        for (const GroupSummary &g : groups) {
            if (g.group == b.group) {
                current = &g;
                break;
            }
        }
        if (!current) {
            violate("group '" + b.group +
                    "' is in the baseline but not in the store");
            continue;
        }
        struct
        {
            const char *name;
            double a, b;
        } metrics[] = {
            {"delivery_ratio_p50", current->deliveryP50, b.deliveryP50},
            {"energy_per_bit_j_p50", current->energyPerBitP50,
             b.energyPerBitP50},
            {"lifetime_s_p50", current->lifetimeP50, b.lifetimeP50},
        };
        for (const auto &m : metrics) {
            if (!withinTolerance(m.a, m.b, tolerance)) {
                char buf[256];
                std::snprintf(buf, sizeof buf,
                              "group '%s': %s %.6g is outside %.1f%% of "
                              "baseline %.6g",
                              b.group.c_str(), m.name, m.a,
                              tolerance * 100.0, m.b);
                violate(buf);
            }
        }
    }
    for (const GroupSummary &g : groups) {
        bool known = false;
        for (const GroupSummary &b : baseline)
            known |= b.group == g.group;
        if (!known) {
            violate("group '" + g.group +
                    "' is in the store but not in the baseline");
        }
    }
    return violations;
}

} // namespace ulp::campaign
