#include "scenario/lower.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <numbers>

#include "sim/logging.hh"

namespace ulp::scenario {

namespace {

/** A node's override block, or a shared empty one. */
const NodeOverride &
overrideFor(const Scenario &sc, unsigned i)
{
    static const NodeOverride none;
    auto it = sc.overrides.find(i);
    return it == sc.overrides.end() ? none : it->second;
}

std::vector<net::Position>
place(const Scenario &sc)
{
    const Scenario::Nodes &n = sc.nodes;
    std::vector<net::Position> pos(n.count);

    switch (n.placement) {
      case Placement::Grid: {
        unsigned cols = n.gridCols;
        if (cols == 0) {
            cols = static_cast<unsigned>(
                std::ceil(std::sqrt(static_cast<double>(n.count))));
        }
        for (unsigned i = 0; i < n.count; ++i) {
            pos[i] = {static_cast<double>(i % cols) * n.spacing,
                      static_cast<double>(i / cols) * n.spacing};
        }
        break;
      }
      case Placement::Uniform: {
        double side = n.area;
        if (side <= 0.0) {
            side = n.spacing *
                   std::ceil(std::sqrt(static_cast<double>(n.count)));
        }
        // Counter-hash draws: deterministic across platforms and
        // independent of draw order, unlike std:: distributions.
        for (unsigned i = 0; i < n.count; ++i) {
            std::uint64_t h = net::splitmix64(sc.seed ^ 0x9e3779b97f4a7c15ULL);
            h = net::splitmix64(h ^ (static_cast<std::uint64_t>(i) << 1));
            pos[i].x = net::hashToUnitReal(h) * side;
            pos[i].y = net::hashToUnitReal(net::splitmix64(h)) * side;
        }
        break;
      }
      case Placement::Explicit:
        // The parser guarantees every node has an x/y override.
        break;
    }

    for (unsigned i = 0; i < n.count; ++i) {
        const NodeOverride &o = overrideFor(sc, i);
        if (o.x)
            pos[i].x = *o.x;
        if (o.y)
            pos[i].y = *o.y;
    }
    return pos;
}

/**
 * Parent of each node in the route tree toward the sink, or UINT_MAX
 * when a node has no parent (the sink itself, or mode = none).
 */
std::vector<unsigned>
routeParents(const Scenario &sc, const std::vector<net::Position> &pos,
             std::vector<unsigned> &depth)
{
    constexpr unsigned none = std::numeric_limits<unsigned>::max();
    const unsigned N = sc.nodes.count;
    std::vector<unsigned> parent(N, none);
    depth.assign(N, 0);

    if (!sc.routes.sink || sc.routes.mode == RouteMode::None)
        return parent;
    const unsigned sink = *sc.routes.sink;

    if (sc.routes.mode == RouteMode::Explicit) {
        for (unsigned i = 0; i < N; ++i) {
            if (i == sink)
                continue;
            const NodeOverride &o = overrideFor(sc, i);
            if (!o.nextHop) {
                sim::fatal("scenario '%s': routes mode = explicit but "
                           "[node %u] has no next-hop",
                           sc.name.c_str(), i);
            }
            if (*o.nextHop >= N || *o.nextHop == i) {
                sim::fatal("scenario '%s': [node %u] next-hop %u is not "
                           "another node",
                           sc.name.c_str(), i, *o.nextHop);
            }
            parent[i] = *o.nextHop;
        }
        // Depths double as the cycle check: following parents from any
        // node must reach the sink within N steps.
        for (unsigned i = 0; i < N; ++i) {
            unsigned hops = 0, at = i;
            while (at != sink) {
                at = parent[at];
                if (++hops > N) {
                    sim::fatal("scenario '%s': explicit next-hop routes "
                               "form a cycle through node %u",
                               sc.name.c_str(), i);
                }
            }
            depth[i] = hops;
        }
        return parent;
    }

    // Auto: BFS from the sink. Under the spatial model a link is usable
    // when its delivery probability is at least min-prob; under the
    // broadcast model every same-domain node hears the sink directly.
    std::vector<std::vector<unsigned>> links(N);
    if (sc.radio.model == RadioModel::Spatial) {
        net::SpatialConfig cfg = sc.radio.spatial;
        cfg.linkSeed = sc.seed;
        net::SpatialModel model(cfg, pos);
        for (unsigned i = 0; i < N; ++i) {
            for (unsigned j : model.neighbors(i)) {
                if (model.deliveryProb(i, j) >= sc.routes.minProb)
                    links[i].push_back(j);
            }
        }
    } else {
        auto domain = [&](unsigned i) {
            const NodeOverride &o = overrideFor(sc, i);
            return o.domain ? *o.domain : 0u;
        };
        for (unsigned i = 0; i < N; ++i)
            for (unsigned j = 0; j < N; ++j)
                if (i != j && domain(i) == domain(j))
                    links[i].push_back(j);
    }

    std::vector<unsigned> level(N, none);
    level[sink] = 0;
    std::deque<unsigned> frontier{sink};
    while (!frontier.empty()) {
        unsigned at = frontier.front();
        frontier.pop_front();
        for (unsigned next : links[at]) {
            if (level[next] == none) {
                level[next] = level[at] + 1;
                frontier.push_back(next);
            }
        }
    }

    auto dist = [&](unsigned a, unsigned b) {
        double dx = pos[a].x - pos[b].x, dy = pos[a].y - pos[b].y;
        return dx * dx + dy * dy;
    };
    for (unsigned i = 0; i < N; ++i) {
        if (i == sink)
            continue;
        if (level[i] == none) {
            sim::fatal("scenario '%s': node %u cannot reach sink %u over "
                       "links with delivery probability >= %g "
                       "(shrink spacing, lower min-prob, or raise "
                       "tx-power-dbm)",
                       sc.name.c_str(), i, sink, sc.routes.minProb);
        }
        // Parent: the uplevel neighbor closest to us, index-tie-broken,
        // so the tree is deterministic for a given placement.
        unsigned best = none;
        for (unsigned j : links[i]) {
            if (level[j] + 1 != level[i])
                continue;
            if (best == none || dist(i, j) < dist(i, best) ||
                (dist(i, j) == dist(i, best) && j < best)) {
                best = j;
            }
        }
        parent[i] = best;
        depth[i] = level[i];
    }
    return parent;
}

} // namespace

std::function<std::uint8_t(sim::Tick)>
makeSignal(const std::string &spec)
{
    auto colon = spec.find(':');
    std::string kind = spec.substr(0, colon);
    std::string args =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    if (kind == "const") {
        std::uint8_t v = static_cast<std::uint8_t>(std::atoi(args.c_str()));
        return [v](sim::Tick) { return v; };
    }
    if (kind == "sine") {
        double amp = 60, period = 5;
        std::sscanf(args.c_str(), "%lf,%lf", &amp, &period);
        return [amp, period](sim::Tick now) -> std::uint8_t {
            double t = sim::ticksToSeconds(now);
            double v =
                128 + amp * std::sin(2 * std::numbers::pi * t / period);
            return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
        };
    }
    if (kind == "ramp") {
        double rate = std::atof(args.c_str());
        return [rate](sim::Tick now) -> std::uint8_t {
            return static_cast<std::uint8_t>(
                static_cast<unsigned>(sim::ticksToSeconds(now) * rate) %
                256);
        };
    }
    sim::fatal("unknown signal spec '%s' (const:V, sine:AMP,PERIOD_S, "
               "ramp:PER_SECOND)",
               spec.c_str());
}

Lowered
lower(const Scenario &sc)
{
    constexpr unsigned none = std::numeric_limits<unsigned>::max();
    const unsigned N = sc.nodes.count;

    Lowered out;
    out.name = sc.name;
    out.seconds = sc.seconds;
    out.broadcastLoss = sc.radio.loss;
    out.trace = sc.trace;
    out.sink = sc.routes.sink;

    const std::vector<net::Position> pos = place(sc);
    const std::vector<unsigned> parent = routeParents(sc, pos, out.depth);
    out.parents = parent;
    const bool routed = sc.routes.sink && sc.routes.mode != RouteMode::None;

    // Addresses first: parents' addresses feed dest/route lowering.
    out.addresses.resize(N);
    for (unsigned i = 0; i < N; ++i) {
        const NodeOverride &o = overrideFor(sc, i);
        out.addresses[i] =
            static_cast<std::uint16_t>(o.address ? *o.address : 1 + i);
    }

    NetworkSpec &spec = out.spec;
    spec.threads = sc.threads;
    spec.channelSeed = sc.seed;
    spec.bitRate = sc.radio.bitRate;
    if (sc.radio.model == RadioModel::Spatial) {
        net::SpatialConfig cfg = sc.radio.spatial;
        cfg.linkSeed = sc.seed;
        spec.spatial = cfg;
    }

    // MAC selection: the beacon coordinator defaults to the routing
    // sink (the node everything converges on anyway).
    std::optional<unsigned> coordinator;
    if (sc.mac && sc.mac->mode == sleep::MacMode::Beacon) {
        spec.mac.mode = sleep::MacMode::Beacon;
        spec.mac.beaconOrder = sc.mac->beaconOrder;
        spec.mac.sfOrder = sc.mac->sfOrder;
        spec.mac.guardSymbols = sc.mac->guard;
        spec.mac.driftPpm = sc.mac->driftPpm;
        coordinator = sc.mac->coordinator ? sc.mac->coordinator
                                          : sc.routes.sink;
        if (!coordinator) {
            sim::fatal("scenario '%s': [mac] mode = beacon needs a "
                       "coordinator (set [mac] coordinator or [routes] "
                       "sink)",
                       sc.name.c_str());
        }
    }
    const Scenario::Sleep sleepDefaults =
        sc.sleep ? *sc.sleep : Scenario::Sleep{};

    spec.nodes.reserve(N);
    for (unsigned i = 0; i < N; ++i) {
        const NodeOverride &o = overrideFor(sc, i);
        NodeSpec &ns = spec.addNode();

        core::NodeConfig nc;
        nc.address = out.addresses[i];
        nc.seed = o.seed ? *o.seed : sc.seed + i;
        nc.sensorSignal = makeSignal(o.signal ? *o.signal : sc.nodes.signal);
        nc.sensorNoiseStddev = o.noise ? *o.noise : sc.nodes.noise;
        // Battery model (applied uniformly, the sink included — a
        // mains-powered sink is modeled with battery = 0 or a capacity
        // large enough never to empty over the run).
        if (sc.lifecycle && sc.lifecycle->battery > 0.0) {
            nc.battery.capacityJoules = sc.lifecycle->battery;
            nc.battery.initialJoules = sc.lifecycle->batteryInitial;
            nc.battery.harvestWatts = sc.lifecycle->harvest;
            nc.battery.pollSeconds = sc.lifecycle->batteryInterval;
            nc.battery.reviveLevel = sc.lifecycle->reviveLevel;
        }
        ns.withConfig(nc);

        core::apps::AppParams params;
        // A per-node period override pins the exact value; the default
        // staggers the shared period so the network does not sample in
        // artificial lockstep (the legacy ulpsim convention).
        params.samplePeriodCycles =
            o.period ? *o.period
                     : sc.nodes.period + sc.nodes.periodStagger * i;
        params.threshold = static_cast<std::uint8_t>(
            o.threshold ? *o.threshold : sc.nodes.threshold);
        params.macRetries = static_cast<std::uint8_t>(
            o.macRetries ? *o.macRetries : sc.nodes.macRetries);
        params.watchdogCycles = o.watchdog ? *o.watchdog : sc.nodes.watchdog;

        // Destination: explicit override wins, then the route parent,
        // then the scenario-wide default.
        unsigned dest = o.dest ? *o.dest : sc.nodes.dest;
        if (!o.dest && routed && parent[i] != none)
            dest = out.addresses[parent[i]];
        params.dest = static_cast<std::uint16_t>(dest);
        ns.withParams(params);

        // The sink defaults to the listen-only base-station app.
        std::string app = sc.nodes.app;
        if (routed && i == *sc.routes.sink)
            app = "sink";
        if (o.app)
            app = *o.app;
        ns.withApp(app);

        ns.at(pos[i].x, pos[i].y);
        if (o.domain)
            ns.inDomain(*o.domain);

        if (coordinator && i == *coordinator)
            ns.macCoordinator = true;
        // Fabric links: a per-node override replaces the [events] base
        // set wholesale (links = none disarms the fabric entirely).
        if (o.links)
            ns.links = *o.links;
        else if (sc.events)
            ns.links = sc.events->links;
        // Sleep policy: an explicit per-node override always wins; the
        // [sleep] default skips the sink and the beacon coordinator,
        // which must stay awake to serve the rest of the network.
        const bool exempt = (sc.routes.sink && i == *sc.routes.sink) ||
                            (coordinator && i == *coordinator);
        ns.sleep.policy = o.sleepPolicy
                              ? *o.sleepPolicy
                              : (exempt ? sleep::Policy::None
                                        : sleepDefaults.policy);
        ns.sleep.schedule.periodSeconds =
            o.sleepPeriod ? *o.sleepPeriod : sleepDefaults.period;
        ns.sleep.schedule.onSeconds =
            o.sleepOn ? *o.sleepOn : sleepDefaults.on;
        // One wildcard CAM route per relay: any origin -> our parent.
        // Frames addressed to us that are not ours re-serialize toward
        // the sink; the sink itself has no routes and delivers locally.
        if (routed && parent[i] != none)
            ns.withRoute(core::MessageProcessor::routeWildcard,
                         out.addresses[parent[i]]);
    }

    return out;
}

} // namespace ulp::scenario
