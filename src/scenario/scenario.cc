#include "scenario/scenario.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sim/ini.hh"

namespace ulp::scenario {

namespace {

using sim::ini::Cursor;
using sim::ini::parseDouble;
using sim::ini::parseUnsigned;
using sim::ini::trim;

/** Shortest decimal form that parses back to exactly @p v. */
std::string
formatDouble(double v)
{
    char buf[64];
    for (int precision : {15, 17}) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

// ---------------------------------------------------------------------------
// The key list.
// ---------------------------------------------------------------------------

/** How an enumerator is spelled in a scenario file. */
template <class E>
struct Spelling
{
    E value;
    const char *name;
};

constexpr Spelling<Placement> placements[] = {
    {Placement::Grid, "grid"},
    {Placement::Uniform, "uniform"},
    {Placement::Explicit, "explicit"},
};
constexpr Spelling<RadioModel> radioModels[] = {
    {RadioModel::Broadcast, "broadcast"},
    {RadioModel::Spatial, "spatial"},
};
constexpr Spelling<ulp::sleep::MacMode> macModes[] = {
    {ulp::sleep::MacMode::Csma, "csma"},
    {ulp::sleep::MacMode::Beacon, "beacon"},
};
constexpr Spelling<RouteMode> routeModes[] = {
    {RouteMode::Auto, "auto"},
    {RouteMode::Explicit, "explicit"},
    {RouteMode::None, "none"},
};
constexpr Spelling<ulp::sleep::Policy> sleepPolicies[] = {
    {ulp::sleep::Policy::None, "none"},
    {ulp::sleep::Policy::Light, "light"},
    {ulp::sleep::Policy::Deep, "deep"},
};
constexpr Spelling<RepairPolicy> repairPolicies[] = {
    {RepairPolicy::None, "none"},
    {RepairPolicy::Periodic, "periodic"},
    {RepairPolicy::Triggered, "triggered"},
};
constexpr Spelling<RouteMetric> routeMetrics[] = {
    {RouteMetric::Hops, "hops"},
    {RouteMetric::Energy, "energy"},
};

/** The values a real-valued key accepts. */
enum class Range
{
    Any,
    Positive,
    NonNegative,
    Probability, ///< [0, 1]
};

/**
 * Every section and its keys, in printed order: the one list the parse
 * and the print side both walk. @p v is a Parse or a Print; S is
 * Scenario when parsing and const Scenario when printing. Integer keys
 * give their maximum and, when not 0, their minimum.
 */
template <class V, class S>
void
sections(V &v, S &sc)
{
    v.section("scenario", sc, [](auto &k, auto &s) {
        k.text("name", s.name);
        k.real("seconds", s.seconds, Range::Positive);
        k.number("seed", s.seed, UINT64_MAX);
        k.number("threads", s.threads, 1024, 1);
    });
    v.section("nodes", sc.nodes, [](auto &k, auto &n) {
        k.number("count", n.count, 65'534, 1);
        k.text("app", n.app);
        k.number("period", n.period, UINT32_MAX);
        k.number("period-stagger", n.periodStagger, 65'535);
        k.number("threshold", n.threshold, 255);
        k.number("mac-retries", n.macRetries, 7);
        k.number("watchdog", n.watchdog, UINT32_MAX);
        k.number("dest", n.dest, 65'534);
        k.text("signal", n.signal);
        k.real("noise", n.noise);
        k.choice("placement", n.placement, placements);
        k.number("grid-cols", n.gridCols, 65'534);
        k.real("spacing", n.spacing, Range::Positive);
        k.real("area", n.area, Range::NonNegative);
    });
    v.section("radio", sc.radio, [](auto &k, auto &r) {
        k.choice("model", r.model, radioModels);
        k.real("bit-rate", r.bitRate, Range::Positive);
        k.real("loss", r.loss, Range::Probability);
        k.real("path-loss-exponent", r.spatial.pathLossExponent,
               Range::Positive);
        k.real("reference-loss-db", r.spatial.referenceLossDb);
        k.real("tx-power-dbm", r.spatial.txPowerDbm);
        k.real("sensitivity-dbm", r.spatial.sensitivityDbm);
        k.real("fade-margin-db", r.spatial.fadeMarginDb, Range::NonNegative);
        k.real("interference-margin-db", r.spatial.interferenceMarginDb,
               Range::NonNegative);
    });
    v.section("mac", sc.mac, [](auto &k, auto &m) {
        k.choice("mode", m.mode, macModes);
        k.number("beacon-order", m.beaconOrder, 14);
        k.number("sf-order", m.sfOrder, 14);
        k.number("guard", m.guard, 255);
        k.real("drift-ppm", m.driftPpm, Range::NonNegative);
        k.number("coordinator", m.coordinator, 65'533);
    });
    v.section("routes", sc.routes, [](auto &k, auto &r) {
        k.number("sink", r.sink, 65'533);
        k.choice("mode", r.mode, routeModes);
        k.real("min-prob", r.minProb, Range::Probability);
    });
    v.section("events", sc.events,
              [](auto &k, auto &e) { k.link("link", e.links); });
    v.section("sleep", sc.sleep, [](auto &k, auto &s) {
        k.choice("policy", s.policy, sleepPolicies);
        k.real("period", s.period, Range::Positive);
        k.real("on", s.on, Range::Positive);
    });
    v.section("lifecycle", sc.lifecycle, [](auto &k, auto &l) {
        k.schedule("fail", l.fail);
        k.schedule("revive", l.revive);
        k.choice("repair", l.repair, repairPolicies);
        k.real("repair-period", l.repairPeriod, Range::Positive);
        k.choice("metric", l.metric, routeMetrics);
        k.real("energy-weight", l.energyWeight, Range::NonNegative);
        k.real("battery", l.battery, Range::NonNegative);
        k.real("battery-initial", l.batteryInitial);
        k.real("harvest", l.harvest, Range::NonNegative);
        k.real("battery-interval", l.batteryInterval, Range::Positive);
        k.real("revive-level", l.reviveLevel, Range::Probability);
    });
    v.nodes(sc.overrides, [](auto &k, auto &o) {
        k.text("app", o.app);
        k.number("period", o.period, UINT32_MAX);
        k.number("threshold", o.threshold, 255);
        k.number("mac-retries", o.macRetries, 7);
        k.number("watchdog", o.watchdog, UINT32_MAX);
        k.text("signal", o.signal);
        k.real("noise", o.noise);
        k.real("x", o.x);
        k.real("y", o.y);
        k.number("address", o.address, 65'534);
        k.number("seed", o.seed, UINT64_MAX);
        k.number("dest", o.dest, 65'534);
        k.number("next-hop", o.nextHop, 65'533);
        k.number("domain", o.domain, 255);
        k.choice("sleep-policy", o.sleepPolicy, sleepPolicies);
        k.real("sleep-period", o.sleepPeriod, Range::Positive);
        k.real("sleep-on", o.sleepOn, Range::Positive);
        k.linkList("links", o.links);
    });
    v.section("fault", sc.fault, [](auto &k, auto &f) {
        k.text("campaign", f.campaign);
        k.number("node", f.node, 65'533);
    });
    v.section("trace", sc.trace, [](auto &k, auto &t) {
        k.text("out", t.out);
        k.text("channels", t.channels);
        k.real("energy-period", t.energyPeriod, Range::Positive);
    });
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

/** The value type of a plain or an optional field. */
template <class T>
struct Plain
{
    using type = T;
};
template <class T>
struct Plain<std::optional<T>>
{
    using type = T;
};

/** A section as a reference: an optional section is created. */
template <class T>
T &
open(T &section)
{
    return section;
}
template <class T>
T &
open(std::optional<T> &section)
{
    if (!section)
        section.emplace();
    return *section;
}

/**
 * Source line of every fail/revive entry, by key. Range checks (node
 * index, event time) need the whole file — [nodes] count or [scenario]
 * seconds may come later — so they run after parsing and point back at
 * these lines.
 */
using EntryLines = std::map<std::string, std::vector<unsigned>>;

/**
 * The parse side of the key list: opens one section (creating an
 * optional one) and sets at most one of its keys, checking that key's
 * bound, range or spelling.
 */
struct Parse
{
    const Cursor &at;
    const std::string &sectionName; ///< "node N" for a [node N] block
    std::optional<unsigned> node;   ///< the [node N] block to open
    std::string key{};              ///< empty: open the section only
    std::string value{};
    EntryLines *lines = nullptr;    ///< where fail/revive lines go, if kept
    bool opened = false;
    bool found = false;

    template <class S, class Keys>
    void
    section(const char *name, S &s, Keys keys)
    {
        if (!node && sectionName == name) {
            opened = true;
            keys(*this, open(s));
        }
    }

    template <class Keys>
    void
    nodes(std::map<unsigned, NodeOverride> &overrides, Keys keys)
    {
        if (node) {
            opened = true;
            keys(*this, overrides[*node]);
        }
    }

    template <class T>
    void
    text(const char *name, T &field)
    {
        if (is(name))
            field = value;
    }

    template <class T>
    void
    number(const char *name, T &field, std::uint64_t max,
           std::uint64_t min = 0)
    {
        if (!is(name))
            return;
        const std::uint64_t v = parseUnsigned(at, key, value, max);
        if (v < min)
            at.fail("'" + key + "' must be at least " + std::to_string(min));
        field = static_cast<typename Plain<T>::type>(v);
    }

    template <class T>
    void
    real(const char *name, T &field, Range range = Range::Any)
    {
        if (!is(name))
            return;
        const double v = parseDouble(at, key, value);
        if (range == Range::Positive && !(v > 0.0))
            at.fail("'" + key + "' must be positive");
        if (range == Range::NonNegative && v < 0.0)
            at.fail("'" + key + "' must be non-negative");
        if (range == Range::Probability && (v < 0.0 || v > 1.0))
            at.fail("'" + key + "' must be in [0, 1], got '" + value + "'");
        field = v;
    }

    template <class T, class E, std::size_t N>
    void
    choice(const char *name, T &field, const Spelling<E> (&table)[N])
    {
        if (!is(name))
            return;
        std::string names;
        for (std::size_t i = 0; i < N; ++i) {
            if (value == table[i].name) {
                field = table[i].value;
                return;
            }
            names += (i == 0 ? "" : i + 1 < N ? ", " : " or ");
            names += table[i].name;
        }
        at.fail("'" + key + "' must be " + names + ", got '" + value + "'");
    }

    /** A repeated key: each line appends one `source -> sink` link. */
    void
    link(const char *name, std::vector<fabric::Link> &links)
    {
        if (is(name))
            addLink(links, value);
    }

    /** A comma list of links that replaces the whole set; "none" is the
     *  empty set. */
    void
    linkList(const char *name,
             std::optional<std::vector<fabric::Link>> &links)
    {
        if (!is(name))
            return;
        links.emplace();
        if (value == "none")
            return;
        for (const std::string &item : sim::ini::split(value))
            addLink(*links, entry(item));
    }

    /** A comma list of node@seconds entries; repeated keys append. */
    void
    schedule(const char *name, std::vector<LifecycleEvent> &events)
    {
        if (!is(name))
            return;
        for (const std::string &item : sim::ini::split(value)) {
            const auto sep = entry(item).find('@');
            if (sep == std::string::npos) {
                at.fail("'" + key + "' entries are node@seconds, got '" +
                        item + "'");
            }
            LifecycleEvent ev;
            ev.node = static_cast<unsigned>(
                parseUnsigned(at, key, trim(item.substr(0, sep)), 65'534));
            ev.atSeconds = parseDouble(at, key, trim(item.substr(sep + 1)));
            if (ev.atSeconds < 0.0)
                at.fail("'" + key + "' time must be non-negative");
            events.push_back(ev);
            if (lines)
                (*lines)[key].push_back(at.line);
        }
    }

  private:
    bool
    is(const char *name)
    {
        if (key != name)
            return false;
        found = true;
        return true;
    }

    /** @p item of a comma list, which must not be empty. */
    const std::string &
    entry(const std::string &item) const
    {
        if (item.empty())
            at.fail("'" + key + "' has an empty entry");
        return item;
    }

    /**
     * Append the `source -> sink` link @p text to @p links. The fabric
     * routes by interrupt request line, so two links on the same line
     * (e.g. adc.done and adc.threshold) can never both be armed — reject
     * at the declaring line rather than at network construction.
     */
    void
    addLink(std::vector<fabric::Link> &links, const std::string &text) const
    {
        const auto arrow = text.find("->");
        if (arrow == std::string::npos) {
            at.fail("'" + key + "' entries are 'source -> sink', got '" +
                    text + "'");
        }
        const std::string src = trim(text.substr(0, arrow));
        const std::string dst = trim(text.substr(arrow + 2));
        const auto source = fabric::parseSource(src);
        if (!source)
            at.fail("'" + key + "': unknown event source '" + src + "'");
        const auto sink = fabric::parseSink(dst);
        if (!sink)
            at.fail("'" + key + "': unknown event sink '" + dst + "'");
        for (const fabric::Link &p : links) {
            if (fabric::sourceIrq(p.source) == fabric::sourceIrq(*source)) {
                at.fail("'" + key + "': '" +
                        std::string(fabric::sourceName(*source)) +
                        "' routes the same request line as the earlier '" +
                        fabric::sourceName(p.source) + "' link");
            }
        }
        links.push_back({*source, *sink});
    }
};

/**
 * Open @p p's section of @p sc and set its key, if it has one; an
 * unknown key is fatal. Returns false when no section has that name.
 */
bool
apply(Scenario &sc, Parse &&p)
{
    sections(p, sc);
    if (p.opened && !p.key.empty() && !p.found)
        p.at.fail("unknown key '" + p.key + "' in [" + p.sectionName + "]");
    return p.opened;
}

// ---------------------------------------------------------------------------
// Printing.
// ---------------------------------------------------------------------------

/** Whether a field holds a value: an optional when set, a string when not
 *  empty, anything else always. */
template <class T>
bool
held(const T &)
{
    return true;
}
template <class T>
bool
held(const std::optional<T> &field)
{
    return field.has_value();
}
bool
held(const std::string &field)
{
    return !field.empty();
}

template <class T>
const T &
unwrap(const T &field)
{
    return field;
}
template <class T>
const T &
unwrap(const std::optional<T> &field)
{
    return *field;
}

/** The items of @p list, each through @p format, joined by ", ". */
template <class List, class Format>
std::string
join(const List &list, Format format)
{
    std::string out;
    for (const auto &item : list)
        out += (out.empty() ? "" : ", ") + format(item);
    return out;
}

/** The print side of the key list: writes every section present and
 *  every key that holds a value. */
struct Print
{
    std::ostringstream os;
    const char *gap = ""; ///< before a header: a blank line after the first

    template <class S, class Keys>
    void
    section(const char *name, const S &s, Keys keys)
    {
        if (!held(s))
            return;
        os << gap << "[" << name << "]\n";
        gap = "\n";
        keys(*this, unwrap(s));
    }

    template <class Keys>
    void
    nodes(const std::map<unsigned, NodeOverride> &overrides, Keys keys)
    {
        for (const auto &[index, o] : overrides) {
            os << "\n[node " << index << "]\n";
            keys(*this, o);
        }
    }

    template <class T>
    void
    text(const char *name, const T &field)
    {
        put(name, field, [](const std::string &s) { return s; });
    }

    template <class T>
    void
    number(const char *name, const T &field, std::uint64_t,
           std::uint64_t = 0)
    {
        put(name, field, [](auto v) { return std::to_string(v); });
    }

    template <class T>
    void
    real(const char *name, const T &field, Range = Range::Any)
    {
        put(name, field, formatDouble);
    }

    template <class T, class E, std::size_t N>
    void
    choice(const char *name, const T &field, const Spelling<E> (&table)[N])
    {
        put(name, field, [&table](E e) {
            for (const Spelling<E> &s : table) {
                if (s.value == e)
                    return s.name;
            }
            return "?";
        });
    }

    void
    link(const char *name, const std::vector<fabric::Link> &links)
    {
        for (const fabric::Link &l : links)
            put(name, l, fabric::linkName);
    }

    void
    linkList(const char *name,
             const std::optional<std::vector<fabric::Link>> &links)
    {
        put(name, links, [](const std::vector<fabric::Link> &list) {
            return list.empty() ? "none" : join(list, fabric::linkName);
        });
    }

    void
    schedule(const char *name, const std::vector<LifecycleEvent> &events)
    {
        if (events.empty())
            return;
        put(name, events, [](const std::vector<LifecycleEvent> &list) {
            return join(list, [](const LifecycleEvent &e) {
                return std::to_string(e.node) + "@" +
                       formatDouble(e.atSeconds);
            });
        });
    }

  private:
    template <class T, class Format>
    void
    put(const char *name, const T &field, Format format)
    {
        if (held(field))
            os << name << " = " << format(unwrap(field)) << "\n";
    }
};

// ---------------------------------------------------------------------------
// Cross-key validation.
// ---------------------------------------------------------------------------

/**
 * Whole-scenario constraints no single key can check. @p lines carries
 * the source line of each fail/revive entry when coming from
 * parseScenario (so diagnostics point at the offending entry); it is
 * null when re-validating after programmatic overrides.
 */
void
validateParsed(Cursor &at, const Scenario &sc, EntryLines *lines)
{
    if (sc.lifecycle) {
        auto checkEvents = [&](const std::string &key,
                               const std::vector<LifecycleEvent> &events) {
            for (std::size_t i = 0; i < events.size(); ++i) {
                at.line = lines ? (*lines)[key][i] : 0;
                if (events[i].node >= sc.nodes.count) {
                    at.fail("'" + key + "' node " +
                            std::to_string(events[i].node) +
                            " is out of range (count = " +
                            std::to_string(sc.nodes.count) + ")");
                }
                if (events[i].atSeconds >= sc.seconds) {
                    at.fail("'" + key + "' time " +
                            formatDouble(events[i].atSeconds) +
                            " is at or past the end of the run (seconds = " +
                            formatDouble(sc.seconds) + ")");
                }
            }
        };
        checkEvents("fail", sc.lifecycle->fail);
        checkEvents("revive", sc.lifecycle->revive);
    }
    at.line = 0;
    for (const auto &[index, o] : sc.overrides) {
        if (index >= sc.nodes.count) {
            at.fail("[node " + std::to_string(index) +
                    "] is out of range (count = " +
                    std::to_string(sc.nodes.count) + ")");
        }
        (void)o;
    }
    // Fabric links: the msgproc.tx sink forwards the event's datum as
    // the message payload, so it needs a datum-carrying source.
    {
        auto checkLinks = [&](const std::string &where,
                              const std::vector<fabric::Link> &links) {
            for (const fabric::Link &l : links) {
                if (l.sink == fabric::Sink::MsgProcTx &&
                    !fabric::sourceCarriesDatum(l.source)) {
                    at.fail(where + " link '" + fabric::linkName(l) +
                            "': msgproc.tx needs a datum-carrying source "
                            "(adc.done, adc.threshold, filter.pass or "
                            "filter.fail)");
                }
            }
        };
        if (sc.events)
            checkLinks("[events]", sc.events->links);
        for (const auto &[index, o] : sc.overrides) {
            if (o.links)
                checkLinks("[node " + std::to_string(index) + "]", *o.links);
        }
    }
    if (sc.mac && sc.mac->mode == ulp::sleep::MacMode::Beacon) {
        const Scenario::Mac &m = *sc.mac;
        if (m.sfOrder > m.beaconOrder) {
            at.fail("[mac] sf-order (" + std::to_string(m.sfOrder) +
                    ") must not exceed beacon-order (" +
                    std::to_string(m.beaconOrder) + ")");
        }
        if (!m.coordinator && !sc.routes.sink) {
            at.fail("[mac] mode = beacon needs a coordinator "
                    "(set [mac] coordinator or [routes] sink)");
        }
        if (m.coordinator && *m.coordinator >= sc.nodes.count)
            at.fail("[mac] coordinator is out of range");
    }
    // Sleep schedules: every node's *effective* on-window must fit
    // inside its effective period, whichever of the [sleep] defaults
    // and [node N] overrides each value comes from.
    {
        const Scenario::Sleep defaults =
            sc.sleep ? *sc.sleep : Scenario::Sleep{};
        for (unsigned i = 0; i < sc.nodes.count; ++i) {
            auto it = sc.overrides.find(i);
            const NodeOverride *o =
                it == sc.overrides.end() ? nullptr : &it->second;
            const ulp::sleep::Policy policy =
                o && o->sleepPolicy ? *o->sleepPolicy : defaults.policy;
            if (policy == ulp::sleep::Policy::None)
                continue;
            const double period =
                o && o->sleepPeriod ? *o->sleepPeriod : defaults.period;
            const double on = o && o->sleepOn ? *o->sleepOn : defaults.on;
            if (on >= period) {
                at.fail("node " + std::to_string(i) +
                        ": sleep on-window (" + formatDouble(on) +
                        "s) must be shorter than the period (" +
                        formatDouble(period) + "s)");
            }
        }
    }
    if (sc.fault && sc.fault->campaign.empty())
        at.fail("[fault] needs a 'campaign' file");
    if (sc.fault && sc.fault->node >= sc.nodes.count)
        at.fail("[fault] node is out of range");
    if (sc.routes.sink && *sc.routes.sink >= sc.nodes.count)
        at.fail("[routes] sink is out of range");
    if (sc.threads > sc.nodes.count)
        at.fail("more threads (" + std::to_string(sc.threads) +
                ") than nodes (" + std::to_string(sc.nodes.count) + ")");
    if (sc.nodes.placement == Placement::Explicit) {
        for (unsigned i = 0; i < sc.nodes.count; ++i) {
            auto it = sc.overrides.find(i);
            if (it == sc.overrides.end() || !it->second.x || !it->second.y) {
                at.fail("placement = explicit but [node " +
                        std::to_string(i) + "] has no x/y");
            }
        }
    }
}

} // namespace

Scenario
parseScenario(const std::string &text, const std::string &filename)
{
    Scenario sc;
    Cursor at{filename};
    std::string section;
    std::optional<unsigned> node;
    EntryLines lines;
    sim::ini::read(
        text, at,
        [&](const std::string &name) {
            section = name;
            node.reset();
            if (name.rfind("node ", 0) == 0) {
                section = "node N";
                node = static_cast<unsigned>(
                    parseUnsigned(at, "node", trim(name.substr(5)), 65'534));
                // A second [node N] header would silently merge into
                // (and partly overwrite) the first — reject it instead.
                if (sc.overrides.count(*node)) {
                    at.fail("duplicate [node " + std::to_string(*node) +
                            "] section");
                }
            }
            if (!apply(sc, {at, section, node}))
                at.fail("unknown section '[" + name + "]'");
        },
        [&](const std::string &key, const std::string &value) {
            apply(sc, {at, section, node, key, value, &lines});
        });
    validateParsed(at, sc, &lines);
    return sc;
}

Scenario
parseScenarioFile(const std::string &path)
{
    return parseScenario(sim::readFile(path, "scenario file"), path);
}

std::string
printScenario(const Scenario &sc)
{
    Print print;
    sections(print, sc);
    return print.os.str();
}

void
applyScenarioKey(Scenario &sc, const std::string &dottedKey,
                 const std::string &value, const std::string &context)
{
    Cursor at{context};
    auto dot = dottedKey.find('.');
    if (dot == std::string::npos || dot == 0 ||
        dot + 1 == dottedKey.size()) {
        at.fail("override key '" + dottedKey +
                "' must be section.key (e.g. nodes.period) or node.N.key");
    }
    std::string section = dottedKey.substr(0, dot);
    std::string key = dottedKey.substr(dot + 1);
    if (value.empty())
        at.fail("'" + dottedKey + "' has an empty value");

    std::optional<unsigned> node;
    if (section == "node") {
        auto dot2 = key.find('.');
        if (dot2 == std::string::npos || dot2 == 0 ||
            dot2 + 1 == key.size()) {
            at.fail("per-node override key '" + dottedKey +
                    "' must be node.N.key (e.g. node.3.period)");
        }
        node = static_cast<unsigned>(
            parseUnsigned(at, "node", key.substr(0, dot2), 65'534));
        section = "node N";
        key.erase(0, dot2 + 1);
    }
    if (!apply(sc, {at, section, node, key, value})) {
        at.fail("unknown section '" + section + "' in override key '" +
                dottedKey + "'");
    }
}

void
validateScenario(const Scenario &sc, const std::string &context)
{
    Cursor at{context};
    validateParsed(at, sc, nullptr);
}

} // namespace ulp::scenario
