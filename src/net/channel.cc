#include "net/channel.hh"

#include <algorithm>
#include <tuple>

#include "sim/logging.hh"

namespace ulp::net {

namespace {

/** Stream salts: loss and Gilbert-Elliott draws never share a stream
 *  with each other or with SpatialModel::linkDelivers. */
constexpr std::uint64_t lossSalt = 0x6c6f7373ull;
constexpr std::uint64_t geSalt = 0x67652d63ull;

unsigned
countDomains(const std::vector<unsigned> &domain_of)
{
    unsigned n = 1;
    for (unsigned d : domain_of)
        n = std::max(n, d + 1);
    return n;
}

} // namespace

Channel::DomainStats::DomainStats(sim::stats::Group *parent, std::string name)
    : sim::stats::Group(parent, std::move(name)),
      framesSent(this, "framesSent", "frames put on the air"),
      framesDelivered(this, "framesDelivered",
                      "frame deliveries to receivers (intact)"),
      framesLost(this, "framesLost",
                 "per-receiver deliveries dropped by the loss model"),
      framesCorrupted(this, "framesCorrupted",
                      "per-receiver deliveries corrupted by collision"),
      collisions(this, "collisions", "transmissions that overlapped another"),
      geBadFrames(this, "geBadFrames",
                  "frames delivered while the Gilbert-Elliott chain "
                  "was in the Bad state")
{}

Channel::Channel(sim::Simulation &simulation, const std::string &name,
                 double bit_rate, std::uint64_t seed)
    : Channel(simulation, name, std::make_unique<FrameRelay>(1, bit_rate),
              nullptr, 0, nullptr, {}, seed)
{}

Channel::Channel(sim::Simulation &simulation, const std::string &name,
                 FrameRelay &relay, unsigned shard, const SpatialModel &model)
    : Channel(simulation, name, nullptr, &relay, shard, &model, {},
              model.config().linkSeed)
{}

Channel::Channel(sim::Simulation &simulation, const std::string &name,
                 FrameRelay &relay, unsigned shard,
                 std::vector<unsigned> domain_of, std::uint64_t seed)
    : Channel(simulation, name, nullptr, &relay, shard, nullptr,
              std::move(domain_of), seed)
{}

Channel::Channel(sim::Simulation &simulation, const std::string &name,
                 std::unique_ptr<FrameRelay> own_relay,
                 FrameRelay *shared_relay, unsigned shard,
                 const SpatialModel *model, std::vector<unsigned> domain_of,
                 std::uint64_t seed)
    : sim::SimObject(simulation, name), ownRelay(std::move(own_relay)),
      relay(shared_relay ? *shared_relay : *ownRelay), shard(shard),
      model(model), nodeDomain(std::move(domain_of)), seed(seed),
      maxAirTicks(sim::secondsToTicks(
          static_cast<double>(Frame::maxFrameBytes) * 8.0 /
          relay.bitRate())),
      staged(relay.numShards())
{
    if (shard >= relay.numShards())
        sim::panic("%s: shard %u out of range", this->name().c_str(), shard);

    // A standalone medium grows its node table as transceivers attach.
    const std::size_t nodes =
        model ? model->numNodes() : nodeDomain.size();
    byNode.assign(nodes, nullptr);
    txSeq.assign(nodes, 0);
    geBad.assign(nodes, 0);

    // The medium itself is an unnamed stats group; its per-domain groups
    // print as top-level "<name>.*" (one domain) or "<name>D.*".
    setGroupName("");
    const unsigned domains = model ? 1 : countDomains(nodeDomain);
    for (unsigned d = 0; d < domains; ++d) {
        domainStats.push_back(std::make_unique<DomainStats>(
            this, domains == 1 ? name : name + std::to_string(d)));
    }
}

Channel::~Channel() = default;

void
Channel::attach(Transceiver *transceiver)
{
    auto it = nodeOf.find(transceiver);
    if ((it != nodeOf.end() && byNode[it->second] == transceiver) ||
        std::find(unbound.begin(), unbound.end(), transceiver) !=
            unbound.end()) {
        sim::panic("%s: transceiver attached twice", name().c_str());
    }
    if (it != nodeOf.end()) {
        byNode[it->second] = transceiver;
    } else if (ownRelay) {
        const auto node = static_cast<unsigned>(byNode.size());
        byNode.push_back(transceiver);
        txSeq.push_back(0);
        geBad.push_back(0);
        nodeOf.emplace(transceiver, node);
    } else {
        unbound.push_back(transceiver);
    }
}

void
Channel::bind(Transceiver *transceiver, unsigned node)
{
    auto it = std::find(unbound.begin(), unbound.end(), transceiver);
    if (it == unbound.end())
        sim::panic("%s: binding a transceiver that is not attached",
                   name().c_str());
    if (node >= byNode.size())
        sim::panic("%s: node index %u outside the topology", name().c_str(),
                   node);
    if (byNode[node])
        sim::panic("%s: node %u bound twice", name().c_str(), node);
    unbound.erase(it);
    byNode[node] = transceiver;
    nodeOf.emplace(transceiver, node);
}

void
Channel::detach(Transceiver *transceiver)
{
    auto it = nodeOf.find(transceiver);
    if (it != nodeOf.end()) {
        if (byNode[it->second] == transceiver)
            byNode[it->second] = nullptr;
        return;
    }
    std::erase(unbound, transceiver);
}

void
Channel::setGilbertElliott(const GilbertElliott &model)
{
    if (model.pGoodToBad < 0.0 || model.pGoodToBad > 1.0 ||
        model.pBadToGood < 0.0 || model.pBadToGood > 1.0 ||
        model.lossGood < 0.0 || model.lossGood > 1.0 ||
        model.lossBad < 0.0 || model.lossBad > 1.0) {
        sim::fatal("Gilbert-Elliott parameters must be probabilities");
    }
    ge = model;
    geEnabled = true;
    std::fill(geBad.begin(), geBad.end(), 0);
}

sim::Tick
Channel::frameAirTicks(const Frame &frame) const
{
    double seconds =
        static_cast<double>(frame.sizeBytes()) * 8.0 / relay.bitRate();
    return sim::secondsToTicks(seconds);
}

bool
Channel::busy() const
{
    return std::any_of(deliveries.begin(), deliveries.end(),
                       [](const Delivery *d) { return d->local; });
}

std::uint64_t
Channel::total(sim::stats::Scalar DomainStats::*stat) const
{
    double n = 0;
    for (const auto &st : domainStats)
        n += ((*st).*stat).value();
    return static_cast<std::uint64_t>(n);
}

bool
Channel::interferes(unsigned a, unsigned b) const
{
    if (model)
        return model->interferes(a, b);
    return a != b && domainOf(a) == domainOf(b);
}

template <typename Fn>
void
Channel::forEachReceiver(unsigned src, Fn &&fn) const
{
    if (model) {
        for (unsigned r : model->neighbors(src))
            fn(r);
        return;
    }
    // Snapshot the bound: a receiver callback may attach a transceiver
    // to a standalone medium, which must not hear the frame in flight.
    const unsigned n = static_cast<unsigned>(byNode.size());
    const unsigned d = domainOf(src);
    for (unsigned r = 0; r < n; ++r) {
        if (r != src && domainOf(r) == d)
            fn(r);
    }
}

void
Channel::scheduleDelivery(Delivery *delivery, bool cross_shard)
{
    if (cross_shard) {
        // Relayed deliveries slot into the queue exactly where the
        // single-queue kernel would have put them: scheduled "from" the
        // remote transmit tick.
        eventq().scheduleCrossShard(delivery, delivery->rec.end,
                                    delivery->rec.start);
    } else {
        eventq().schedule(delivery, delivery->rec.end);
    }
    // A delivery only needs a pre-resolution sync when some peer's
    // transmissions can actually reach this shard; at K=1 (or for a
    // spatially isolated shard) the pending set stays empty.
    if (!relay.inboundPeers(shard).empty())
        pendingSyncs.insert(delivery->rec.end);
    deliveries.push_back(delivery);
}

void
Channel::senseFrameStart(const FlightRecord &record)
{
    // Start-symbol detect reaches exactly the interference range; the
    // transmitter itself never carrier-senses its own frame.
    auto sense = [&](unsigned node) {
        if (Transceiver *t = byNode[node])
            t->frameStarted(record.end);
    };
    if (model) {
        for (unsigned node : model->interferers(record.srcNode))
            sense(node);
    } else {
        forEachReceiver(record.srcNode, sense);
    }
}

void
Channel::drawLoss(FlightRecord &rec)
{
    if (!geEnabled) {
        rec.loss = lossProbability;
        return;
    }
    // One Markov step per frame of this transmitter: dwell times are
    // geometric, so loss arrives in bursts whose mean length is
    // 1 / pBadToGood frames.
    std::uint8_t &bad = geBad[rec.srcNode];
    const double u = counterDraw(seed ^ geSalt, rec.srcNode, rec.srcTxSeq);
    bad = bad ? u >= ge.pBadToGood : u < ge.pGoodToBad;
    rec.geBad = bad;
    rec.loss = bad ? ge.lossBad : ge.lossGood;
}

sim::Tick
Channel::transmit(Transceiver *sender, const Frame &frame)
{
    auto it = nodeOf.find(sender);
    if (it == nodeOf.end())
        sim::panic("%s: transmit from an unbound transceiver",
                   name().c_str());
    const unsigned src = it->second;

    const sim::Tick start = curTick();
    FlightRecord record;
    record.start = start;
    record.end = start + frameAirTicks(frame);
    record.srcNode = src;
    record.srcTxSeq = txSeq[src]++;
    record.frame = frame;
    drawLoss(record);

    // Buffer for the coupled peers; the scheduler flushes the outbox
    // before every safe-tick publication, so the records are always
    // visible before any peer may rely on them.
    if (!relay.outboundPeers(shard).empty())
        outbox.push_back(record);

    window.push_back(
        {record.start, record.end, record.srcNode, record.srcTxSeq});

    Delivery *delivery =
        deliveryPool.acquire(*this, std::move(record), /*local=*/true);
    scheduleDelivery(delivery, /*cross_shard=*/false);

    ++domainStats[domainOf(src)]->framesSent;
    senseFrameStart(delivery->rec);
    return delivery->rec.end;
}

void
Channel::publishOutbound()
{
    if (outbox.empty())
        return;
    for (unsigned to : relay.outboundPeers(shard)) {
        for (const FlightRecord &record : outbox) {
            if (!relay.mailbox(shard, to).push(record)) {
                sim::panic("%s: mailbox to shard %u overflowed "
                           "(raise FlightMailbox::capacity)",
                           name().c_str(), to);
            }
        }
    }
    outbox.clear();
}

sim::Tick
Channel::nextSyncTick() const
{
    return pendingSyncs.empty() ? sim::maxTick : *pendingSyncs.begin();
}

void
Channel::syncDone(sim::Tick tick)
{
    // One sync covers every delivery at that tick.
    pendingSyncs.erase(tick);
}

void
Channel::applyRecord(const FlightRecord &record)
{
    window.push_back(
        {record.start, record.end, record.srcNode, record.srcTxSeq});

    Delivery *delivery = deliveryPool.acquire(*this, record, /*local=*/false);
    scheduleDelivery(delivery, /*cross_shard=*/true);

    // Carrier sense for remote transmissions, applied at the sync point
    // (see the file comment for the cross-K approximation).
    senseFrameStart(record);
}

void
Channel::applyInbound(sim::Tick up_to)
{
    for (unsigned from : relay.inboundPeers(shard)) {
        relay.mailbox(from, shard).drain(
            [&](const FlightRecord &rec) { staged[from].push_back(rec); });
    }

    // Canonical total order (start, srcNode, srcTxSeq) via a k-way front
    // merge; each source's records arrive in nondecreasing start order.
    for (;;) {
        std::deque<FlightRecord> *best = nullptr;
        for (auto &queue : staged) {
            if (queue.empty() || queue.front().start >= up_to)
                continue;
            if (!best ||
                std::tie(queue.front().start, queue.front().srcNode,
                         queue.front().srcTxSeq) <
                    std::tie(best->front().start, best->front().srcNode,
                             best->front().srcTxSeq)) {
                best = &queue;
            }
        }
        if (!best)
            break;
        applyRecord(best->front());
        best->pop_front();
    }
}

bool
Channel::collidesAtStart(const FlightRecord &rec) const
{
    // Charged at transmit time when another flight the transmitter can
    // hear is already on the air. Same-start groups are broken by the
    // canonical (srcNode, srcTxSeq) order — order-independent either way.
    for (const Flight &g : window) {
        if (g.sameAs(rec) || !interferes(g.srcNode, rec.srcNode))
            continue;
        if (g.start < rec.start && g.end > rec.start)
            return true;
        if (g.start == rec.start &&
            std::tie(g.srcNode, g.srcTxSeq) <
                std::tie(rec.srcNode, rec.srcTxSeq)) {
            return true;
        }
    }
    return false;
}

bool
Channel::corruptedAt(const FlightRecord &rec, unsigned r) const
{
    for (const Flight &g : window) {
        if (g.sameAs(rec) || !(g.start < rec.end && rec.start < g.end))
            continue;
        if (g.srcNode == r || interferes(g.srcNode, r))
            return true;
    }
    return false;
}

void
Channel::finalize(sim::Tick end)
{
    // Pull in every peer record with start <= end (all published by now);
    // their deliveries land after `end` and would fire in a later run
    // segment.
    applyInbound(end + 1);

    // Settle the collision stat for local flights still on the air at the
    // horizon (their delivery event lies beyond the run). The interval
    // window is complete for every start <= end, so the verdict is final.
    for (Delivery *delivery : deliveries) {
        if (!delivery->local || delivery->counted)
            continue;
        delivery->counted = true;
        if (collidesAtStart(delivery->rec))
            ++domainStats[domainOf(delivery->rec.srcNode)]->collisions;
    }
}

void
Channel::deliver(Delivery &delivery)
{
    // Retire the Delivery first: receiver callbacks may transmit (an ACK,
    // a forwarded frame), and must see the medium without it. The pooled
    // slot itself stays live until the end of this function.
    auto it = std::find(deliveries.begin(), deliveries.end(), &delivery);
    if (it != deliveries.end())
        deliveries.erase(it);

    const FlightRecord &rec = delivery.rec;
    DomainStats &st = *domainStats[domainOf(rec.srcNode)];

    if (delivery.local) {
        if (rec.geBad)
            ++st.geBadFrames;
        if (!delivery.counted && collidesAtStart(rec))
            ++st.collisions;
    } else {
        ++auxEvents;
    }

    // In a broadcast domain every receiver hears every transmitter, so
    // the corruption verdict is the same at each: resolve it once.
    const bool domainCorrupted = !model && corruptedAt(rec, rec.srcNode);

    // Deliver to every receiver in reach that lives on this shard, in
    // ascending node order. byNode is re-read per receiver: an earlier
    // receiver's reaction may have detached this one.
    forEachReceiver(rec.srcNode, [&](unsigned r) {
        Transceiver *t = byNode[r];
        if (!t)
            return;
        const bool corrupted = model ? corruptedAt(rec, r) : domainCorrupted;
        if (!corrupted) {
            const std::uint64_t link =
                static_cast<std::uint64_t>(rec.srcNode) << 32 | r;
            if ((model && !model->linkDelivers(rec.srcNode, r,
                                               rec.srcTxSeq)) ||
                (rec.loss > 0.0 &&
                 counterDraw(seed ^ lossSalt, link, rec.srcTxSeq) <
                     rec.loss)) {
                ++st.framesLost;
                return;
            }
        }
        if (corrupted)
            ++st.framesCorrupted;
        else
            ++st.framesDelivered;
        t->frameArrived(rec.frame, corrupted);
    });

    // Retire window intervals too old to overlap any pending or future
    // flight: everything still undelivered ends at or after curTick(),
    // hence starts after curTick() - maxAirTicks.
    const sim::Tick now = curTick();
    if (now > maxAirTicks) {
        const sim::Tick horizon = now - maxAirTicks;
        std::erase_if(window,
                      [&](const Flight &f) { return f.end <= horizon; });
    }

    deliveryPool.release(&delivery);
}

} // namespace ulp::net
