#include "campaign/spec.hh"

#include "sim/ini.hh"

namespace ulp::campaign {

namespace {

using sim::ini::Cursor;
using sim::ini::parseUnsigned;

/** Expanded-run-list safety cap: a sweep past this is surely a typo. */
constexpr std::uint64_t maxRuns = 1'000'000;

/**
 * Expand one axis value list: comma-separated items, where an item of
 * the form `A..B` becomes the inclusive unsigned range.
 */
std::vector<std::string>
parseAxisValues(const Cursor &at, const std::string &key,
                const std::string &value)
{
    std::vector<std::string> out;
    for (const std::string &item : sim::ini::split(value)) {
        if (item.empty())
            at.fail("axis '" + key + "' has an empty value entry");
        auto dots = item.find("..");
        // A range needs digits on both sides; anything else (e.g. a
        // signal spec or a float) is a literal value.
        if (dots != std::string::npos && dots > 0 &&
            dots + 2 < item.size()) {
            std::string lo = sim::ini::trim(item.substr(0, dots));
            std::string hi = sim::ini::trim(item.substr(dots + 2));
            if (lo.find_first_not_of("0123456789") == std::string::npos &&
                hi.find_first_not_of("0123456789") == std::string::npos) {
                std::uint64_t a = parseUnsigned(at, key, lo, UINT64_MAX);
                std::uint64_t b = parseUnsigned(at, key, hi, UINT64_MAX);
                if (b < a) {
                    at.fail("axis '" + key + "' range " + item +
                            " runs backwards");
                }
                if (b - a + 1 > maxRuns) {
                    at.fail("axis '" + key + "' range " + item +
                            " expands past " + std::to_string(maxRuns) +
                            " values");
                }
                for (std::uint64_t v = a; v <= b; ++v)
                    out.push_back(std::to_string(v));
                continue;
            }
        }
        out.push_back(item);
    }
    if (out.empty())
        at.fail("axis '" + key + "' has no values");
    return out;
}

} // namespace

std::string
RunSpec::label() const
{
    std::string out;
    for (const Override &o : overrides) {
        if (!out.empty())
            out += " ";
        out += o.first + "=" + o.second;
    }
    return out;
}

CampaignSpec
parseCampaign(const std::string &text, const std::string &filename)
{
    CampaignSpec spec;
    Cursor at{filename};
    std::string section;
    bool sawCampaign = false;
    sim::ini::read(
        text, at,
        [&](const std::string &name) {
            if (name == "campaign") {
                if (sawCampaign)
                    at.fail("duplicate [campaign] section");
                sawCampaign = true;
            } else if (name == "run") {
                spec.runs.emplace_back();
            } else if (name != "axis") {
                at.fail("unknown section '[" + name +
                        "]' (campaign files take [campaign], [axis] and "
                        "[run])");
            }
            section = name;
        },
        [&](const std::string &key, const std::string &value) {
            if (section == "axis") {
                for (const CampaignSpec::Axis &axis : spec.axes) {
                    if (axis.key == key)
                        at.fail("duplicate axis '" + key + "'");
                }
                spec.axes.push_back({key, parseAxisValues(at, key, value)});
            } else if (section == "run") {
                spec.runs.back().emplace_back(key, value);
            } else if (key == "name") {
                spec.name = value;
            } else if (key == "scenario") {
                spec.scenario = value;
            } else if (key == "repeat") {
                spec.repeat = static_cast<unsigned>(
                    parseUnsigned(at, key, value, maxRuns));
                if (spec.repeat == 0)
                    at.fail("'repeat' must be at least 1");
            } else if (key == "seed-base") {
                spec.seedBase = parseUnsigned(at, key, value, UINT64_MAX);
                spec.seedBaseSet = true;
            } else {
                at.fail("unknown key '" + key + "' in [campaign]");
            }
        });

    at.line = 0;
    if (!sawCampaign)
        at.fail("a campaign file needs a [campaign] section");
    if (spec.scenario.empty())
        at.fail("[campaign] needs a 'scenario' file");
    for (const auto &run : spec.runs) {
        if (run.empty())
            at.fail("a [run] section has no overrides");
    }
    return spec;
}

CampaignSpec
parseCampaignFile(const std::string &path)
{
    return parseCampaign(sim::readFile(path, "campaign file"), path);
}

std::vector<RunSpec>
expandRuns(const CampaignSpec &spec, const scenario::Scenario &base)
{
    Cursor at{spec.name};

    // The ensemble is an implicit innermost seed axis; sweeping the seed
    // explicitly *and* repeating would silently drop the axis values.
    if (spec.repeat > 1) {
        for (const CampaignSpec::Axis &axis : spec.axes) {
            if (axis.key == "scenario.seed") {
                at.fail("repeat > 1 and a scenario.seed axis cannot be "
                        "combined (the ensemble seed would override the "
                        "axis)");
            }
        }
    }

    std::uint64_t total = spec.repeat;
    for (const CampaignSpec::Axis &axis : spec.axes) {
        total *= axis.values.size();
        if (total > maxRuns) {
            at.fail("campaign expands past " + std::to_string(maxRuns) +
                    " runs");
        }
    }
    if (total + spec.runs.size() > maxRuns)
        at.fail("campaign expands past " + std::to_string(maxRuns) +
                " runs");

    const std::uint64_t seedBase =
        spec.seedBaseSet ? spec.seedBase : base.seed;
    const bool emitSeed = spec.repeat > 1 || spec.seedBaseSet;

    std::vector<RunSpec> runs;
    runs.reserve(static_cast<std::size_t>(total) + spec.runs.size());

    // Odometer over the axes, last axis fastest, seeds innermost.
    std::vector<std::size_t> index(spec.axes.size(), 0);
    bool done = false;
    while (!done) {
        for (unsigned r = 0; r < spec.repeat; ++r) {
            RunSpec run;
            run.id = runs.size();
            for (std::size_t a = 0; a < spec.axes.size(); ++a) {
                run.overrides.emplace_back(spec.axes[a].key,
                                           spec.axes[a].values[index[a]]);
            }
            if (emitSeed) {
                run.overrides.emplace_back("scenario.seed",
                                           std::to_string(seedBase + r));
            }
            runs.push_back(std::move(run));
        }
        done = true;
        for (std::size_t a = spec.axes.size(); a-- > 0;) {
            if (++index[a] < spec.axes[a].values.size()) {
                done = false;
                break;
            }
            index[a] = 0;
        }
        if (spec.axes.empty())
            break;
    }

    for (const std::vector<Override> &overrides : spec.runs) {
        RunSpec run;
        run.id = runs.size();
        run.overrides = overrides;
        runs.push_back(std::move(run));
    }
    return runs;
}

scenario::Scenario
resolveRun(const scenario::Scenario &base, const RunSpec &run,
           const std::string &context)
{
    scenario::Scenario sc = base;
    for (const Override &o : run.overrides)
        scenario::applyScenarioKey(sc, o.first, o.second, context);
    scenario::validateScenario(sc, context);
    return sc;
}

std::uint64_t
campaignDigest(const std::string &canonicalScenario,
               const std::vector<RunSpec> &runs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff; // field separator
        h *= 0x100000001b3ULL;
    };
    mix(canonicalScenario);
    for (const RunSpec &run : runs) {
        mix(std::to_string(run.id));
        for (const Override &o : run.overrides) {
            mix(o.first);
            mix(o.second);
        }
    }
    return h;
}

} // namespace ulp::campaign
