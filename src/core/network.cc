#include "core/network.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/partition.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/telemetry.hh"

namespace ulp::core {

namespace {

/**
 * Sums the statistics of every shard's medium by position. The first
 * medium fixes the names; the shards' media keep the same domains in the
 * same order, so a later one that lists other statistics panics.
 */
class ShardSum : public sim::stats::Visitor
{
  public:
    void
    add(const net::Channel &medium)
    {
        next = 0;
        medium.visitStats(*this);
        if (next != sums.size())
            sim::panic("Network: the shards' media keep other statistics");
        fixed = true;
    }

    /** Visit the sums under the first medium's names. */
    void
    visitSums(sim::stats::Visitor &v) const
    {
        for (const Sum &sum : sums) {
            v.group(sum.prefix);
            v.scalar(sum.total, sum.name, sum.desc);
        }
    }

    void group(std::string_view p) override { prefix = p; }

    void
    scalar(const sim::stats::Scalar &stat, std::string_view name,
           std::string_view desc) override
    {
        if (!fixed)
            sums.push_back({prefix, name, desc, {}});
        if (next == sums.size() || sums[next].prefix != prefix ||
            sums[next].name != name)
            sim::panic("Network: the shards' media keep other statistics");
        sums[next++].total += stat.value();
    }

  private:
    struct Sum
    {
        /** The first medium's text, which outlives the sum. */
        std::string_view prefix, name, desc;
        sim::stats::Scalar total;
    };

    std::vector<Sum> sums;
    std::size_t next = 0;
    bool fixed = false;      ///< the first medium has been added
    std::string_view prefix; ///< of the statistics being visited
};

} // namespace

Network::Network(const scenario::NetworkSpec &spec)
{
    build(spec);
}

void
Network::build(const scenario::NetworkSpec &spec)
{
    builtSpec = spec;
    const unsigned N = static_cast<unsigned>(spec.nodes.size());
    const unsigned K = spec.threads;
    if (N == 0)
        sim::fatal("Network: need at least one node");
    if (K == 0)
        sim::fatal("Network: need at least one thread");
    if (K > N)
        sim::fatal("Network: more threads (%u) than nodes (%u)", K, N);

    if (spec.spatial) {
        model = std::make_unique<net::SpatialModel>(*spec.spatial,
                                                    spec.positions());
    }
    relay = std::make_unique<net::FrameRelay>(K, spec.bitRate);

    // Assemble each distinct application once; every node installs the
    // shared image with its own parameter bytes (installApp).
    for (const scenario::NodeSpec &ns : spec.nodes) {
        apps::AppShape shape = apps::appShape(ns.app, ns.params);
        if (!images.count(shape)) {
            apps::AppImage image = apps::assembleImage(
                shape, apps::paramValues(ns.app, ns.params));
            images.emplace(std::move(shape), std::move(image));
        }
    }

    // Spatial scenarios with K > 1 partition by locality (recursive
    // coordinate bisection), so each shard owns a compact tile and
    // cross-shard radio traffic is confined to tile borders. Everything
    // else keeps the contiguous block partition.
    nodeByIndex.resize(N, nullptr);
    if (spec.spatial && K > 1) {
        shardOfNode = localityPartition(spec.positions(), K);
    } else {
        shardOfNode.assign(N, 0);
        for (unsigned s = 0; s < K; ++s) {
            for (unsigned i = s * N / K; i < (s + 1) * N / K; ++i)
                shardOfNode[i] = s;
        }
    }
    std::vector<std::vector<unsigned>> members(K);
    for (unsigned i = 0; i < N; ++i)
        members[shardOfNode[i]].push_back(i);

    shards.resize(K);
    kernel.resize(K);
    for (unsigned s = 0; s < K; ++s) {
        Shard &shard = shards[s];
        shard.simulation = std::make_unique<sim::Simulation>();
        if (spec.telemetrySink)
            shard.simulation->setTelemetry(spec.telemetrySink(s));

        if (model) {
            shard.channel = std::make_unique<net::Channel>(
                *shard.simulation, "channel", *relay, s, *model);
        } else {
            std::vector<unsigned> domain_of(N);
            for (unsigned i = 0; i < N; ++i)
                domain_of[i] = spec.nodes[i].domain;
            shard.channel = std::make_unique<net::Channel>(
                *shard.simulation, "channel", *relay, s,
                std::move(domain_of), spec.channelSeed);
        }

        // Nodes are constructed in ascending global index within their
        // shard and keep their global names, so their statistics print
        // as the sequential kernel's do.
        shard.nodes.reserve(members[s].size());
        for (unsigned i : members[s]) {
            const scenario::NodeSpec &ns = spec.nodes[i];
            shard.nodes.push_back(std::make_unique<SensorNode>(
                *shard.simulation, "node" + std::to_string(i), ns.config,
                shard.channel.get()));
            SensorNode *node = shard.nodes.back().get();
            nodeByIndex[i] = node;
            shard.channel->bind(&node->radio(), i);
            installApp(i);
            for (const MessageProcessor::Route &r : ns.routes)
                node->msgProc().preloadRoute(r.origin, r.nextHop);
            node->setReviveHook([this, i] { reviveNodeNow(i); });
            applyNodePlatformConfig(i);
        }
    }

    // Adaptive lookahead: shard pairs whose tiles can never interact
    // (bounding boxes further apart than the interference reach) are
    // severed outright — they neither wait on one another nor exchange
    // records. In the zero-propagation-delay radio model every coupled
    // pair keeps the global (min airtime) lookahead.
    if (model && K > 1) {
        struct Box
        {
            double min_x, max_x, min_y, max_y;
        };
        std::vector<Box> box(K);
        for (unsigned s = 0; s < K; ++s) {
            Box b{1e300, -1e300, 1e300, -1e300};
            for (unsigned i : members[s]) {
                const net::Position &p = model->position(i);
                b.min_x = std::min(b.min_x, p.x);
                b.max_x = std::max(b.max_x, p.x);
                b.min_y = std::min(b.min_y, p.y);
                b.max_y = std::max(b.max_y, p.y);
            }
            box[s] = b;
        }
        const double reach = model->interferenceRangeMeters();
        for (unsigned a = 0; a < K; ++a) {
            for (unsigned b = a + 1; b < K; ++b) {
                bool decoupled;
                if (reach <= 0.0) {
                    // Even co-located nodes are below the interference
                    // floor: nothing ever crosses any shard boundary.
                    decoupled = true;
                } else {
                    const double dx = std::max(
                        {0.0, box[a].min_x - box[b].max_x,
                         box[b].min_x - box[a].max_x});
                    const double dy = std::max(
                        {0.0, box[a].min_y - box[b].max_y,
                         box[b].min_y - box[a].max_y});
                    // Inflate the reach a hair so floating-point rounding
                    // in the closed-form inverse can never sever a pair
                    // the exact predicate still accepts.
                    decoupled = std::hypot(dx, dy) >
                                reach * (1.0 + 1e-9) + 1e-9;
                }
                if (decoupled) {
                    relay->setPairLookahead(a, b, sim::maxTick);
                    relay->setPairLookahead(b, a, sim::maxTick);
                }
            }
        }
    }
}

Network::~Network() = default;

net::Channel *
Network::broadcastChannel(unsigned domain)
{
    if (model || shards.size() != 1 ||
        domain >= shards[0].channel->numDomains())
        return nullptr;
    return shards[0].channel.get();
}

void
Network::runForSeconds(double seconds)
{
    runUntilTick(ran + sim::secondsToTicks(seconds));
}

void
Network::runUntilTick(sim::Tick end)
{
    if (end < ran)
        sim::fatal("Network: runUntilTick(%llu) is in the past (ran %llu)",
                   (unsigned long long)end, (unsigned long long)ran);
    sim::ParallelScheduler scheduler(relay->lookahead());
    for (Shard &shard : shards)
        scheduler.addShard(shard.simulation->eventq(), shard.channel.get());
    // Mirror the relay's pair topology into the scheduler: severed pairs
    // free-run past one another, the rest keep the default.
    for (unsigned a = 0; a < relay->numShards(); ++a) {
        for (unsigned b = 0; b < relay->numShards(); ++b) {
            if (a == b)
                continue;
            const sim::Tick look = relay->pairLookahead(a, b);
            if (look != relay->lookahead())
                scheduler.setPairLookahead(a, b, look);
        }
    }
    scheduler.run(end);
    for (std::size_t i = 0; i < shards.size(); ++i)
        kernel[i] += scheduler.counters(i);
    ran = end;
}

void
Network::powerOffNodeNow(unsigned node)
{
    nodeByIndex[node]->supplyDown();
}

void
Network::reviveNodeNow(unsigned node)
{
    SensorNode *n = nodeByIndex[node];
    if (n->alive())
        return;
    // A revived node must come back on the shard that built it: its
    // events and transmit counters live in that shard's Simulation, and
    // the partition (hence the sync topology) was derived from it. A
    // mid-run reshard would silently corrupt all three, so treat any
    // disagreement as fatal.
    const unsigned s = shardOfNode[node];
    if (&n->simulation() != shards[s].simulation.get())
        sim::panic("Network: node %u revived on a foreign shard", node);
    n->supplyUp();
    applyNodePlatformConfig(node);
    // Reinstall the factory image (SRAM did not survive) and boot. The
    // route CAM is intentionally left empty: repair re-teaches it.
    installApp(node);
}

void
Network::wakeNodeFromDeepSleep(unsigned node)
{
    SensorNode *n = nodeByIndex[node];
    if (!n->inDeepSleep())
        return;
    const unsigned s = shardOfNode[node];
    if (&n->simulation() != shards[s].simulation.get())
        sim::panic("Network: node %u woken on a foreign shard", node);
    n->deepSleepWake();
    applyNodePlatformConfig(node);
    installApp(node);
    // A scheduled wake knows its topology: restore the spec's preload
    // (deep sleep wiped the CAM along with the rest of the SRAM domain).
    for (const MessageProcessor::Route &r : builtSpec.nodes[node].routes)
        n->msgProc().preloadRoute(r.origin, r.nextHop);
}

void
Network::installApp(unsigned node)
{
    const scenario::NodeSpec &ns = builtSpec.nodes[node];
    SensorNode &n = *nodeByIndex[node];
    // Values first: their range checks run for every node.
    const apps::ParamValues values = apps::paramValues(ns.app, ns.params);
    apps::install(n, images.at(apps::appShape(ns.app, ns.params)), values);
}

void
Network::applyNodePlatformConfig(unsigned node)
{
    const scenario::NodeSpec &ns = builtSpec.nodes[node];
    // Event-fabric links first: they are retention state (wiped with the
    // CAMs on supply loss), so every build/revive/wake path re-arms them.
    if (!ns.links.empty()) {
        nodeByIndex[node]->fabric().configure(ns.links,
                                              ns.params.threshold);
    }
    if (builtSpec.mac.mode != sleep::MacMode::Beacon)
        return;
    RadioDevice &radio = nodeByIndex[node]->radio();
    const std::uint16_t addr = ns.config.address;
    radio.busWrite(map::radioBeaconOrder,
                   static_cast<std::uint8_t>(builtSpec.mac.beaconOrder));
    radio.busWrite(map::radioSfOrder,
                   static_cast<std::uint8_t>(builtSpec.mac.sfOrder));
    radio.busWrite(map::radioAddrHi, static_cast<std::uint8_t>(addr >> 8));
    radio.busWrite(map::radioAddrLo, static_cast<std::uint8_t>(addr));
    radio.busWrite(map::radioGuard,
                   static_cast<std::uint8_t>(
                       std::min(builtSpec.mac.guardSymbols, 255u)));
    radio.setBeaconDriftPpm(builtSpec.mac.driftPpm);
    // Mode last: a coordinator starts its beacon grid on the mode write,
    // so every other register must already hold its value.
    radio.busWrite(map::radioMacMode,
                   ns.macCoordinator ? RadioDevice::macModeBeaconCoord
                                     : RadioDevice::macModeBeaconDevice);
}

void
Network::scheduleNodePowerOff(unsigned node, sim::Tick when)
{
    scheduleLifecycle(node, when, false);
}

void
Network::scheduleNodeRevive(unsigned node, sim::Tick when)
{
    scheduleLifecycle(node, when, true);
}

void
Network::scheduleLifecycle(unsigned node, sim::Tick when, bool revive)
{
    lifecycle.push_back(std::make_unique<LifecycleEntry>(this, node, revive));
    shards[shardOfNode[node]].simulation->eventq().schedule(
        &lifecycle.back()->event, when);
}

Network::Counters
Network::counters() const
{
    Counters c;
    for (const Shard &shard : shards) {
        c.eventsProcessed += shard.simulation->eventq().numProcessed() -
                             shard.channel->auxiliaryEvents();
        if (const sim::TelemetrySink *sink = shard.simulation->telemetry())
            c.eventsProcessed -= sink->auxiliaryEvents();
        c.framesDelivered += shard.channel->framesDelivered();
        c.collisions += shard.channel->collisions();
        for (const auto &node : shard.nodes) {
            c.framesSent += node->radio().framesSent();
            c.epIsrs += node->ep().isrsExecuted();
            c.mcuWakeups += node->micro().wakeups();
            c.fabricLinked += node->fabric().linkedDelivered();
            c.fabricDrops += node->fabric().sinkBusyDrops();
        }
    }
    c.endTick = shards[0].simulation->curTick();
    return c;
}

void
Network::dumpStats(std::ostream &os)
{
    ShardSum channels;
    for (const Shard &shard : shards)
        channels.add(*shard.channel);
    sim::stats::Printer printer(os);
    channels.visitSums(printer);
    for (const SensorNode *node : nodeByIndex)
        node->visitStats(printer);
}

} // namespace ulp::core
