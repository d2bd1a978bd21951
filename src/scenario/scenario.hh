/**
 * @file
 * The declarative scenario format: the INI dialect of sim/ini.hh
 * describing a whole network experiment as data — node count and
 * placement, per-node application and parameter overrides, the radio
 * model, static multi-hop routing toward a sink, plus optional
 * fault-campaign and trace-output sections. `ulpsim run file.ini`
 * executes one; `ulpsim print-scenario file.ini` dumps it fully
 * resolved. scenario.cc lists each section's keys once, and the parser,
 * the dotted-key overrides and the printer all walk that one list.
 *
 * Syntax:
 *   - sections in brackets: [scenario], [nodes], [radio], [mac]
 *     (CSMA-CA vs beacon-enabled 802.15.4), [routes], [events]
 *     (event-fabric links: `link = adc.threshold -> msgproc.tx`),
 *     [sleep] (duty-cycled sleep policies), [lifecycle] (node churn and
 *     route repair), [node N] (per-node overrides; duplicate headers are
 *     an error), [fault], [trace]
 *   - `key = value` assignments; '#' and ';' start comments
 *   - integers are decimal, or hexadecimal after `0x`
 *   - unknown sections and unknown keys are errors, not warnings
 *   - every diagnostic carries "file:line:"
 *
 * Example:
 *   [scenario]
 *   seconds = 30
 *   seed = 42
 *
 *   [nodes]
 *   count = 16
 *   app = app3
 *   placement = grid          ; 4x4, 40 m pitch
 *   spacing = 40
 *
 *   [radio]
 *   model = spatial
 *   path-loss-exponent = 2.8
 *
 *   [routes]
 *   sink = 0                  ; BFS tree toward node 0
 *
 *   [node 0]
 *   app = sink
 *
 * The parsed Scenario is a plain value type with defaults applied;
 * printScenario() emits the canonical fully-resolved form, and
 * parse(print(s)) == s (the round-trip identity the tests assert).
 */

#ifndef ULP_SCENARIO_SCENARIO_HH
#define ULP_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fabric/links.hh"
#include "net/spatial.hh"
#include "sleep/policy.hh"

namespace ulp::scenario {

/** Node placement strategies. */
enum class Placement
{
    Grid,     ///< row-major grid, `spacing` meters apart
    Uniform,  ///< seeded uniform draw over an `area` x `area` square
    Explicit, ///< every node carries an explicit [node N] x/y override
};

/** Radio propagation models. */
enum class RadioModel
{
    Broadcast, ///< flat domain(s), no geometry
    Spatial,   ///< log-distance path loss over node positions
};

/** One scheduled lifecycle event: the node fails or revives at a time. */
struct LifecycleEvent
{
    unsigned node = 0;
    double atSeconds = 0.0;

    bool operator==(const LifecycleEvent &) const = default;
};

/** Route-repair policies ([lifecycle] repair). */
enum class RepairPolicy
{
    None,      ///< never recompute; routes stay as lowered
    Periodic,  ///< recompute every repair-period seconds
    Triggered, ///< recompute only when the alive set changed
};

/** Route metrics for repair ([lifecycle] metric). */
enum class RouteMetric
{
    Hops,   ///< fewest hops (the same BFS the lowerer runs)
    Energy, ///< hop cost 1 + energy-weight * (1 - relay reserve)
};

/** Route derivation modes. */
enum class RouteMode
{
    Auto,     ///< BFS tree toward the sink over reliable links
    Explicit, ///< per-node `next-hop` overrides form the tree
    None,     ///< no routes: legacy flood-forward behavior
};

/** Per-node override block ([node N]); unset keys inherit [nodes]. */
struct NodeOverride
{
    std::optional<std::string> app;
    std::optional<std::uint32_t> period;
    std::optional<unsigned> threshold;
    std::optional<unsigned> macRetries;
    std::optional<std::uint32_t> watchdog;
    std::optional<std::string> signal;
    std::optional<double> noise;
    std::optional<double> x;
    std::optional<double> y;
    std::optional<unsigned> address;
    std::optional<std::uint64_t> seed;
    std::optional<unsigned> dest;
    std::optional<unsigned> nextHop;
    std::optional<unsigned> domain;
    std::optional<ulp::sleep::Policy> sleepPolicy;
    std::optional<double> sleepPeriod; ///< seconds
    std::optional<double> sleepOn;     ///< seconds
    /** Replaces the [events] base set wholesale; empty = no links
     *  (`links = none`). */
    std::optional<std::vector<fabric::Link>> links;

    bool operator==(const NodeOverride &) const = default;
};

struct Scenario
{
    // --- [scenario] -------------------------------------------------------
    std::string name = "scenario";
    double seconds = 1.0;
    std::uint64_t seed = 1;
    unsigned threads = 1;

    // --- [nodes] ----------------------------------------------------------
    struct Nodes
    {
        unsigned count = 1;
        std::string app = "app1";
        std::uint32_t period = 1000;       ///< sampling period, cycles
        unsigned periodStagger = 37;       ///< per-node period skew, cycles
        unsigned threshold = 0;
        unsigned macRetries = 0;
        std::uint32_t watchdog = 0;        ///< watchdog timeout, cycles
        unsigned dest = 0;                 ///< data destination address
        std::string signal = "const:128";
        double noise = 0.0;
        Placement placement = Placement::Grid;
        unsigned gridCols = 0;             ///< 0 = square (ceil sqrt)
        double spacing = 40.0;             ///< grid pitch, meters
        double area = 0.0;                 ///< uniform square side; 0 = auto

        bool operator==(const Nodes &) const = default;
    } nodes;

    // --- [radio] ----------------------------------------------------------
    struct Radio
    {
        RadioModel model = RadioModel::Broadcast;
        double bitRate = 250'000.0;
        double loss = 0.0;                 ///< broadcast loss probability
        net::SpatialConfig spatial;        ///< spatial-model parameters

        bool operator==(const Radio &) const = default;
    } radio;

    // --- [mac] ------------------------------------------------------------
    struct Mac
    {
        ulp::sleep::MacMode mode = ulp::sleep::MacMode::Csma;
        unsigned beaconOrder = 6;          ///< BI = base * 2^BO
        unsigned sfOrder = 3;              ///< CAP = base * 2^SO
        unsigned guard = 0;                ///< wake guard, symbols; 0 = default
        double driftPpm = 0.0;             ///< device clock drift, ppm
        /** Beacon coordinator node index; defaults to [routes] sink. */
        std::optional<unsigned> coordinator;

        bool operator==(const Mac &) const = default;
    };
    std::optional<Mac> mac;

    // --- [routes] ---------------------------------------------------------
    struct Routes
    {
        std::optional<unsigned> sink;      ///< node index of the sink
        RouteMode mode = RouteMode::Auto;
        double minProb = 1.0;              ///< auto: min link delivery prob

        bool operator==(const Routes &) const = default;
    } routes;

    // --- [events] ---------------------------------------------------------
    struct Events
    {
        /** Fabric links, in declaration order (repeated `link =` keys). */
        std::vector<fabric::Link> links;

        bool operator==(const Events &) const = default;
    };
    std::optional<Events> events;

    // --- [sleep] ----------------------------------------------------------
    struct Sleep
    {
        /** Network-wide default policy. The sink and the beacon
         *  coordinator are exempt unless a [node N] override opts them
         *  back in. */
        ulp::sleep::Policy policy = ulp::sleep::Policy::None;
        double period = 1.0;               ///< schedule period, seconds
        double on = 0.1;                   ///< awake window, seconds

        bool operator==(const Sleep &) const = default;
    };
    std::optional<Sleep> sleep;

    // --- [lifecycle] ------------------------------------------------------
    struct Lifecycle
    {
        /** Scheduled full supply losses / restorations, `node@seconds`
         *  comma lists; repeated keys append. */
        std::vector<LifecycleEvent> fail;
        std::vector<LifecycleEvent> revive;
        RepairPolicy repair = RepairPolicy::None;
        double repairPeriod = 0.5;       ///< control-point period, seconds
        RouteMetric metric = RouteMetric::Hops;
        double energyWeight = 4.0;       ///< energy metric's reserve weight
        double battery = 0.0;            ///< store capacity, joules; 0 = none
        double batteryInitial = -1.0;    ///< initial charge; negative = full
        double harvest = 0.0;            ///< harvest power, watts
        double batteryInterval = 0.01;   ///< supply poll period, seconds
        double reviveLevel = 0.0;        ///< recover threshold, fraction

        bool operator==(const Lifecycle &) const = default;
    };
    std::optional<Lifecycle> lifecycle;

    // --- [node N] ---------------------------------------------------------
    std::map<unsigned, NodeOverride> overrides;

    // --- [fault] ----------------------------------------------------------
    struct Fault
    {
        std::string campaign;              ///< fault-plan file path
        unsigned node = 0;                 ///< node whose shard hosts it

        bool operator==(const Fault &) const = default;
    };
    std::optional<Fault> fault;

    // --- [trace] ----------------------------------------------------------
    struct Trace
    {
        std::string out;                   ///< telemetry output directory
        std::string channels = "all";
        double energyPeriod = 0.001;       ///< energy sampler period, seconds

        bool operator==(const Trace &) const = default;
    };
    std::optional<Trace> trace;

    bool operator==(const Scenario &) const = default;
};

/**
 * Parse scenario text. @p filename only labels diagnostics, which are
 * raised as sim::fatal("file:line: message").
 */
Scenario parseScenario(const std::string &text, const std::string &filename);

/** Parse a scenario file from disk (fatal when unreadable). */
Scenario parseScenarioFile(const std::string &path);

/**
 * Print the canonical fully-resolved form: every section, every key,
 * defaults included. parseScenario(printScenario(s)) == s.
 */
std::string printScenario(const Scenario &scenario);

/**
 * Apply one dotted-key override to a parsed scenario: "section.key"
 * ("nodes.period", "scenario.seed", "lifecycle.repair", ...) or
 * "node.N.key" for a per-node override block. The value goes through
 * exactly the same parsing and per-key validation as a scenario file
 * line; sweep axes and campaign run lists are built on this. List-valued
 * lifecycle keys (fail / revive) append, as repeated file keys do.
 * Diagnostics are raised as sim::fatal("<context>: message").
 *
 * Cross-key constraints (node indices in range, threads <= nodes, ...)
 * are NOT re-checked here — call validateScenario() once after the last
 * override of a batch.
 */
void applyScenarioKey(Scenario &scenario, const std::string &dottedKey,
                      const std::string &value, const std::string &context);

/**
 * Re-run the whole-file cross-key validation parseScenario performs
 * (fatal on violation, labeled with @p context). Needed after
 * applyScenarioKey batches, which can break invariants no single key
 * sees — e.g. shrinking [nodes] count below an existing [node N] block.
 */
void validateScenario(const Scenario &scenario, const std::string &context);

} // namespace ulp::scenario

#endif // ULP_SCENARIO_SCENARIO_HH
