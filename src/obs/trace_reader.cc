#include "obs/trace_reader.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "sim/ini.hh"
#include "sim/logging.hh"

namespace ulp::obs {

namespace {

/** At most one shard per node, and a network holds at most 65,534. */
constexpr std::uint64_t maxShards = 65'534;

struct ShardMeta
{
    std::uint64_t dropped = 0;
    std::vector<std::string> components; ///< index == shard-local id
};

struct Meta
{
    unsigned shards = 0;
    std::uint64_t ticksPerSecond = 0;
    std::uint32_t channelMask = 0;
    std::uint64_t samplePeriod = 0;
    std::vector<ShardMeta> perShard;
};

Meta
readMeta(const std::string &path)
{
    sim::ini::Cursor at{path};
    std::istringstream in(sim::readFile(path, "trace meta file"));
    std::string line;
    at.line = 1;
    if (!std::getline(in, line) || line.rfind("ulptrace-meta ", 0) != 0)
        at.fail("not a trace meta file");

    Meta meta;
    while (std::getline(in, line)) {
        ++at.line;
        std::istringstream is(line);
        std::vector<std::string> f;
        for (std::string field; is >> field;)
            f.push_back(field);
        if (f.empty())
            continue;
        const std::string &key = f[0];
        // A known key takes exactly n fields after it.
        const auto fields = [&](std::size_t n) {
            if (f.size() != n + 1) {
                at.fail("'" + key + "' takes " + std::to_string(n) +
                        " field(s), got " + std::to_string(f.size() - 1));
            }
        };
        const auto number = [&](std::size_t i, std::uint64_t max) {
            return sim::ini::parseUnsigned(at, key, f[i], max);
        };
        const auto shard = [&]() -> ShardMeta & {
            const std::uint64_t s = number(1, maxShards);
            if (s >= meta.perShard.size())
                at.fail("'" + key + "' line for undeclared shard " + f[1]);
            return meta.perShard[s];
        };
        if (key == "shards") {
            fields(1);
            if (meta.shards != 0)
                at.fail("'shards' declared twice");
            meta.shards = static_cast<unsigned>(number(1, maxShards));
            if (meta.shards == 0)
                at.fail("'shards' must be at least 1");
            meta.perShard.resize(meta.shards);
        } else if (key == "ticks_per_second") {
            fields(1);
            meta.ticksPerSecond = number(1, UINT64_MAX);
        } else if (key == "channel_mask") {
            fields(1);
            meta.channelMask =
                static_cast<std::uint32_t>(number(1, UINT32_MAX));
        } else if (key == "sample_period") {
            fields(1);
            meta.samplePeriod = number(1, UINT64_MAX);
        } else if (key == "dropped") {
            fields(2);
            shard().dropped = number(2, UINT64_MAX);
        } else if (key == "component") {
            fields(3);
            auto &names = shard().components;
            if (number(2, UINT64_MAX) != names.size()) {
                at.fail("component id " + f[2] +
                        " out of sequence, expected " +
                        std::to_string(names.size()));
            }
            names.push_back(f[3]);
        }
        // Unknown keys are skipped: newer writers stay readable.
    }
    if (meta.shards == 0) {
        at.line = 0;
        at.fail("declares no shards");
    }
    return meta;
}

/** The records of shard @p shard, each naming a component that
 *  @p meta_path registers for it. */
std::vector<Record>
readShardFile(const std::string &dir, const std::string &meta_path,
              const Meta &meta, unsigned shard)
{
    std::string path = dir + "/shard-" + std::to_string(shard) + ".ulpt";
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        sim::fatal("ulptrace: cannot open '%s', shard %u of the %u that "
                   "'%s' declares", path.c_str(), shard, meta.shards,
                   meta_path.c_str());
    }

    ShardFileHeader header{};
    if (!in.read(reinterpret_cast<char *>(&header), sizeof(header)) ||
        std::memcmp(header.magic, shardFileMagic, sizeof(header.magic)) !=
            0) {
        sim::fatal("ulptrace: '%s' is not a shard trace file", path.c_str());
    }
    if (header.shard != shard)
        sim::fatal("ulptrace: '%s' claims to be shard %u", path.c_str(),
                   header.shard);

    const std::size_t components = meta.perShard[shard].components.size();
    std::vector<Record> records;
    Record r;
    while (in.read(reinterpret_cast<char *>(&r), sizeof(r))) {
        if (r.component >= components) {
            sim::fatal("ulptrace: '%s' record %zu names component %u, "
                       "which '%s' does not register", path.c_str(),
                       records.size(), r.component, meta_path.c_str());
        }
        records.push_back(r);
    }
    if (in.gcount() != 0)
        sim::fatal("ulptrace: '%s' ends mid-record", path.c_str());
    return records;
}

} // namespace

MergedLog
readTraceDir(const std::string &dir)
{
    const std::string meta_path = dir + "/meta.ulpt";
    Meta meta = readMeta(meta_path);

    MergedLog merged;
    merged.ticksPerSecond = meta.ticksPerSecond;
    merged.channelMask = meta.channelMask;
    merged.samplePeriod = meta.samplePeriod;
    merged.shards = meta.shards;
    for (const ShardMeta &sm : meta.perShard)
        merged.droppedPerShard.push_back(sm.dropped);

    // Canonical component table: all names, sorted. Names are unique
    // across shards (hierarchical SimObject names).
    std::map<std::string, std::uint32_t> canonical;
    for (const ShardMeta &sm : meta.perShard) {
        for (const std::string &name : sm.components)
            canonical.emplace(name, 0);
    }
    for (auto &[name, id] : canonical) {
        id = static_cast<std::uint32_t>(merged.components.size());
        merged.components.push_back(name);
    }

    // Concatenate (shard order), re-map ids, stable-sort.
    for (unsigned s = 0; s < meta.shards; ++s) {
        const auto &names = meta.perShard[s].components;
        for (Record r : readShardFile(dir, meta_path, meta, s)) {
            r.component = canonical.at(names[r.component]);
            merged.records.push_back(r);
        }
    }
    std::stable_sort(merged.records.begin(), merged.records.end(),
                     [](const Record &x, const Record &y) {
                         if (x.tick != y.tick)
                             return x.tick < y.tick;
                         return x.component < y.component;
                     });
    return merged;
}

std::string
serializeMerged(const MergedLog &log)
{
    std::string out;
    out += "ULPTRACE-MERGED 1\n";
    out += "ticks_per_second " + std::to_string(log.ticksPerSecond) + "\n";
    char mask[16];
    std::snprintf(mask, sizeof(mask), "%#x", log.channelMask);
    out += std::string("channel_mask ") + mask + "\n";
    out += "sample_period " + std::to_string(log.samplePeriod) + "\n";
    out += "components " + std::to_string(log.components.size()) + "\n";
    for (const std::string &name : log.components)
        out += name + "\n";
    out += "records " + std::to_string(log.records.size()) + "\n";
    out.append(reinterpret_cast<const char *>(log.records.data()),
               log.records.size() * sizeof(Record));
    return out;
}

} // namespace ulp::obs
