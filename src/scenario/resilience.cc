#include "scenario/resilience.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>

#include "net/frame.hh"
#include "sim/logging.hh"

namespace ulp::scenario {

namespace {

constexpr unsigned noneIdx = std::numeric_limits<unsigned>::max();

/** The authorised reconfigurer address (the apps.cc µC handler ACL). */
constexpr std::uint16_t reconfigSrc = 0x0042;

/** Reconfiguration command kind 2: repoint the wildcard uplink. */
constexpr std::uint8_t cmdKindRoute = 2;

std::string
formatTick(sim::Tick tick)
{
    if (tick == 0)
        return "never";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f s", sim::ticksToSeconds(tick));
    return buf;
}

} // namespace

ResilienceManager::ResilienceManager(core::Network &network,
                                     const Scenario &scenario,
                                     const Lowered &low)
    : net(network), sc(scenario), lowered(low)
{
    const unsigned N = net.numNodes();
    const Scenario::Lifecycle lc =
        sc.lifecycle.value_or(Scenario::Lifecycle{});

    if (lc.repair != RepairPolicy::None) {
        if (!lowered.sink) {
            sim::fatal("scenario '%s': route repair needs a routed "
                       "scenario ([routes] sink)", sc.name.c_str());
        }
        if (sc.nodes.app != "app4") {
            sim::fatal("scenario '%s': route repair rides the µC "
                       "reconfiguration path — set [nodes] app = app4",
                       sc.name.c_str());
        }
    }

    // Pre-schedule the declared churn on each node's own shard queue.
    for (const LifecycleEvent &ev : lc.fail)
        net.scheduleNodePowerOff(ev.node, sim::secondsToTicks(ev.atSeconds));
    for (const LifecycleEvent &ev : lc.revive)
        net.scheduleNodeRevive(ev.node, sim::secondsToTicks(ev.atSeconds));

    // The lowered spec preloaded one wildcard route per relay; that is
    // what each CAM currently knows.
    taught.assign(N, std::nullopt);
    for (unsigned i = 0; i < N; ++i) {
        if (i < lowered.parents.size() && lowered.parents[i] != noneIdx)
            taught[i] = lowered.addresses[lowered.parents[i]];
    }
    lastDownCount.assign(N, 0);
    lastUpCount.assign(N, 0);
    lastDeepCount.assign(N, 0);
}

std::vector<std::vector<unsigned>>
ResilienceManager::aliveLinks(const std::vector<bool> &alive) const
{
    const unsigned N = net.numNodes();
    std::vector<std::vector<unsigned>> links(N);
    if (const net::SpatialModel *model = net.spatialModel()) {
        for (unsigned i = 0; i < N; ++i) {
            if (!alive[i])
                continue;
            for (unsigned j : model->neighbors(i)) {
                if (alive[j] &&
                    model->deliveryProb(i, j) >= sc.routes.minProb) {
                    links[i].push_back(j);
                }
            }
        }
    } else {
        auto domain = [&](unsigned i) {
            return lowered.spec.nodes[i].domain;
        };
        for (unsigned i = 0; i < N; ++i) {
            if (!alive[i])
                continue;
            for (unsigned j = 0; j < N; ++j) {
                if (i != j && alive[j] && domain(i) == domain(j))
                    links[i].push_back(j);
            }
        }
    }
    return links;
}

std::vector<unsigned>
ResilienceManager::computeParents(const std::vector<bool> &alive) const
{
    const unsigned N = net.numNodes();
    std::vector<unsigned> parent(N, noneIdx);
    if (!lowered.sink || !alive[*lowered.sink])
        return parent;
    const unsigned sink = *lowered.sink;
    const std::vector<std::vector<unsigned>> links = aliveLinks(alive);
    const Scenario::Lifecycle lc =
        sc.lifecycle.value_or(Scenario::Lifecycle{});
    const std::vector<net::Position> pos = lowered.spec.positions();

    auto dist2 = [&](unsigned a, unsigned b) {
        double dx = pos[a].x - pos[b].x, dy = pos[a].y - pos[b].y;
        return dx * dx + dy * dy;
    };

    if (lc.metric == RouteMetric::Hops) {
        // The lowerer's BFS, restricted to the alive set: parent is the
        // closest uplevel neighbor, index-tie-broken, so with everyone
        // alive this reproduces the preloaded tree exactly (no spurious
        // route updates on the first periodic round).
        std::vector<unsigned> level(N, noneIdx);
        level[sink] = 0;
        std::deque<unsigned> frontier{sink};
        while (!frontier.empty()) {
            unsigned at = frontier.front();
            frontier.pop_front();
            for (unsigned next : links[at]) {
                if (level[next] == noneIdx) {
                    level[next] = level[at] + 1;
                    frontier.push_back(next);
                }
            }
        }
        for (unsigned i = 0; i < N; ++i) {
            if (i == sink || !alive[i] || level[i] == noneIdx)
                continue;
            unsigned best = noneIdx;
            for (unsigned j : links[i]) {
                if (level[j] + 1 != level[i])
                    continue;
                if (best == noneIdx || dist2(i, j) < dist2(i, best) ||
                    (dist2(i, j) == dist2(i, best) && j < best)) {
                    best = j;
                }
            }
            parent[i] = best;
        }
        return parent;
    }

    // Energy-aware metric: Dijkstra from the sink where relaying through
    // node u costs 1 + energy-weight * (1 - u's reserve fraction); the
    // final hop into the sink costs a flat 1 (the sink's own reserve is
    // not spent relaying). All inputs are thread-count-invariant at a
    // control point, and ties resolve toward the lower node index, so
    // the tree is deterministic.
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<double> cost(N, inf);
    std::vector<bool> done(N, false);
    cost[sink] = 0.0;
    for (;;) {
        unsigned u = noneIdx;
        for (unsigned i = 0; i < N; ++i) {
            if (!done[i] && cost[i] < inf &&
                (u == noneIdx || cost[i] < cost[u])) {
                u = i;
            }
        }
        if (u == noneIdx)
            break;
        done[u] = true;
        const double hop =
            u == sink
                ? 1.0
                : 1.0 + lc.energyWeight *
                            (1.0 - net.node(u).reserveFraction());
        for (unsigned v : links[u]) {
            if (done[v] || v == sink)
                continue;
            const double cand = cost[u] + hop;
            if (cand < cost[v] ||
                (cand == cost[v] && parent[v] != noneIdx &&
                 u < parent[v])) {
                cost[v] = cand;
                parent[v] = u;
            }
        }
    }
    return parent;
}

std::uint64_t
ResilienceManager::repairRound(ResilienceReport &report)
{
    const unsigned N = net.numNodes();
    std::vector<bool> alive(N);
    for (unsigned i = 0; i < N; ++i)
        alive[i] = net.node(i).alive();
    const std::vector<unsigned> parent = computeParents(alive);

    std::uint64_t delivered = 0;
    for (unsigned i = 0; i < N; ++i) {
        if (!alive[i] || (lowered.sink && i == *lowered.sink))
            continue;
        if (parent[i] == noneIdx)
            continue; // currently unreachable: nothing useful to teach
        const std::uint16_t desired = lowered.addresses[parent[i]];
        if (taught[i] && *taught[i] == desired)
            continue;

        net::Frame cmd;
        cmd.type = net::Frame::Type::Command;
        cmd.seq = cmdSeq++;
        cmd.src = reconfigSrc;
        cmd.dest = lowered.addresses[i];
        cmd.destPan = lowered.spec.nodes[i].config.pan;
        cmd.payload = {cmdKindRoute,
                       static_cast<std::uint8_t>(desired >> 8),
                       static_cast<std::uint8_t>(desired & 0xFF)};

        // injectFrame drops silently when the RX FIFO holds an unread
        // frame; the RX counter tells the two outcomes apart, and a
        // dropped update is simply re-taught at a later round.
        core::RadioDevice &radio = net.node(i).radio();
        const std::uint64_t before = radio.framesReceived();
        radio.injectFrame(cmd);
        if (radio.framesReceived() != before) {
            taught[i] = desired;
            ++delivered;
        } else {
            ++report.repairDropped;
        }
    }

    ++report.repairRounds;
    report.repairUpdates += delivered;
    report.lastRepairTick = net.ranUntil();
    return delivered;
}

ResilienceReport
ResilienceManager::run()
{
    const unsigned N = net.numNodes();
    const Scenario::Lifecycle lc =
        sc.lifecycle.value_or(Scenario::Lifecycle{});
    const sim::Tick endTick = sim::secondsToTicks(lowered.seconds);
    const sim::Tick period = sim::secondsToTicks(lc.repairPeriod);

    ResilienceReport report;
    std::uint64_t prevPrepared = 0, prevDeliveries = 0;
    std::uint64_t pendingUpdates = 0;

    const sim::Tick startTick = net.ranUntil();
    sim::Tick cur = startTick;
    while (cur < endTick) {
        cur = std::min(cur + period, endTick);
        net.runUntilTick(cur);

        // --- control point: every shard sits at tick `cur` ----------------
        std::vector<bool> alive(N);
        unsigned aliveNodes = 0;
        bool churned = false;
        for (unsigned i = 0; i < N; ++i) {
            core::SensorNode &node = net.node(i);
            // `alive` gates link usability: a deep sleeper cannot relay
            // right now. But it is scheduled, not dead — it still counts
            // as an alive node for the death/degradation metrics.
            alive[i] = node.alive();
            aliveNodes += (alive[i] || node.inDeepSleep()) ? 1 : 0;
            const std::uint64_t down =
                node.probes().count(core::Probe::NodeDown);
            const std::uint64_t up = node.probes().count(core::Probe::NodeUp);
            const std::uint64_t deep =
                node.probes().count(core::Probe::DeepSleepEnter);
            if (down != lastDownCount[i] || deep != lastDeepCount[i]) {
                // Full supply loss (or a deep-sleep cycle) wiped the
                // route CAM — whatever we taught it is gone, even if
                // the node is already back up.
                taught[i].reset();
                churned = true;
            }
            if (up != lastUpCount[i])
                churned = true;
            lastDownCount[i] = down;
            lastUpCount[i] = up;
            lastDeepCount[i] = deep;
        }

        ResilienceSample sample;
        sample.tick = cur;
        sample.aliveNodes = aliveNodes;
        sample.repairUpdates = pendingUpdates;
        pendingUpdates = 0;

        // Reachability over usable links (topology, not taught routes):
        // how much of the alive network could still reach the sink.
        if (lowered.sink && alive[*lowered.sink]) {
            const std::vector<std::vector<unsigned>> links =
                aliveLinks(alive);
            std::vector<bool> seen(N, false);
            seen[*lowered.sink] = true;
            std::deque<unsigned> frontier{*lowered.sink};
            unsigned reached = 1;
            while (!frontier.empty()) {
                unsigned at = frontier.front();
                frontier.pop_front();
                for (unsigned next : links[at]) {
                    if (!seen[next]) {
                        seen[next] = true;
                        ++reached;
                        frontier.push_back(next);
                    }
                }
            }
            sample.reachableNodes = reached;
        }

        for (unsigned i = 0; i < N; ++i)
            sample.framesPrepared += net.node(i).msgProc().framesPrepared();
        if (lowered.sink) {
            sample.sinkDeliveries =
                net.node(*lowered.sink).msgProc().localDeliveries();
        }
        const std::uint64_t dPrepared = sample.framesPrepared - prevPrepared;
        const std::uint64_t dDelivered =
            sample.sinkDeliveries - prevDeliveries;
        sample.windowDeliveryRatio =
            dPrepared == 0 ? 1.0
                           : static_cast<double>(dDelivered) /
                                 static_cast<double>(dPrepared);
        prevPrepared = sample.framesPrepared;
        prevDeliveries = sample.sinkDeliveries;

        if (report.firstDeathTick == 0 && aliveNodes < N)
            report.firstDeathTick = cur;
        if (report.firstPartitionTick == 0 &&
            sample.reachableNodes < aliveNodes) {
            report.firstPartitionTick = cur;
        }
        if (dDelivered > 0)
            report.lastDeliveryTick = cur;
        report.samples.push_back(sample);

        // --- repair policy -------------------------------------------------
        if (cur < endTick &&
            (lc.repair == RepairPolicy::Periodic ||
             (lc.repair == RepairPolicy::Triggered && churned))) {
            pendingUpdates = repairRound(report);
        }
    }

    // Aggregate ratios: post-repair (after the last repair round) and
    // steady-state (the last quarter of the run). Summing window deltas
    // is more robust than averaging per-window ratios.
    auto aggregate = [&](auto include) {
        std::uint64_t prepared = 0, delivered = 0;
        std::uint64_t lastPrepared = 0, lastDelivered = 0;
        for (const ResilienceSample &s : report.samples) {
            if (include(s)) {
                prepared += s.framesPrepared - lastPrepared;
                delivered += s.sinkDeliveries - lastDelivered;
            }
            lastPrepared = s.framesPrepared;
            lastDelivered = s.sinkDeliveries;
        }
        return std::pair<std::uint64_t, std::uint64_t>{prepared, delivered};
    };

    // A window that originated nothing scores 0 in the headline ratios
    // (unlike the per-window samples, where idle = vacuously fine): a
    // network that died delivers nothing, and "1.000" would read as a
    // perfect recovery.
    auto ratio = [](std::uint64_t prepared, std::uint64_t delivered) {
        return prepared == 0 ? 0.0
                             : static_cast<double>(delivered) /
                                   static_cast<double>(prepared);
    };

    auto [postPrep, postDeliv] = aggregate([&](const ResilienceSample &s) {
        return s.tick > report.lastRepairTick;
    });
    report.postRepairDeliveries = postDeliv;
    report.postRepairDeliveryRatio = ratio(postPrep, postDeliv);

    const sim::Tick steadyFrom = endTick - (endTick - startTick) / 4;
    auto [steadyPrep, steadyDeliv] =
        aggregate([&](const ResilienceSample &s) {
            return s.tick > steadyFrom;
        });
    report.steadyDeliveryRatio = ratio(steadyPrep, steadyDeliv);

    return report;
}

void
printResilienceReport(std::ostream &os, const ResilienceReport &report)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "resilience: first death %s, first partition %s, last "
                  "delivery %s\n",
                  formatTick(report.firstDeathTick).c_str(),
                  formatTick(report.firstPartitionTick).c_str(),
                  formatTick(report.lastDeliveryTick).c_str());
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "resilience: repair rounds %llu, route updates %llu "
                  "delivered, %llu dropped\n",
                  static_cast<unsigned long long>(report.repairRounds),
                  static_cast<unsigned long long>(report.repairUpdates),
                  static_cast<unsigned long long>(report.repairDropped));
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "resilience: post-repair delivery ratio %.3f "
                  "(%llu frames after last repair)\n",
                  report.postRepairDeliveryRatio,
                  static_cast<unsigned long long>(
                      report.postRepairDeliveries));
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "resilience: steady-state delivery ratio %.3f\n",
                  report.steadyDeliveryRatio);
    os << buf;
}

} // namespace ulp::scenario
