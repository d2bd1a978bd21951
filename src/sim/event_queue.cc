#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace ulp::sim {

namespace {

/**
 * Tick-heap arity. Four keeps the tree shallow while the child scan
 * still fits in one 64-byte line of 16-byte entries.
 */
constexpr std::size_t arity = 4;

/** The tick index's first size; a power of two. */
constexpr std::size_t minIndexSlots = 16;

/** A new bucket's block: 2^3 slots; a fuller tick doubles its block. */
constexpr unsigned firstBlockOrder = 3;

} // namespace

Event::~Event()
{
    // Flag first: should the deschedule below panic, the diagnostics must
    // not virtual-dispatch into the already-destroyed derived object.
    _destructing = true;
    if (_scheduled && _queue)
        _queue->deschedule(this);
}

EventQueue::~EventQueue()
{
    // Orphan any events still pending so their destructors do not try to
    // deschedule themselves from a dead queue.
    for (const Bucket &bucket : buckets) {
        for (std::size_t i = bucket.head; i < bucket.size; ++i) {
            if (Event *event = arena[bucket.base + i])
                orphan(event);
        }
    }
}

void
EventQueue::orphan(Event *event)
{
    event->_scheduled = false;
    event->_queue = nullptr;
}

// --- tick index --------------------------------------------------------------

EventQueue::TickIndex::TickIndex()
    : slots(minIndexSlots), shift(64 - std::countr_zero(minIndexSlots))
{}

std::size_t
EventQueue::TickIndex::home(Tick tick) const
{
    // Fibonacci hashing: ticks on one clock's edges are multiples of its
    // period, and the multiply spreads them over the high bits.
    return static_cast<std::size_t>((tick * 0x9E3779B97F4A7C15ull) >> shift);
}

std::size_t
EventQueue::TickIndex::locate(Tick tick) const
{
    std::size_t i = home(tick);
    while (slots[i].bucket != noBucket && slots[i].tick != tick)
        i = next(i);
    return i;
}

EventQueue::BucketId
EventQueue::TickIndex::find(Tick tick) const
{
    return slots[locate(tick)].bucket;
}

EventQueue::BucketId
EventQueue::TickIndex::emplace(Tick tick, BucketId bucket)
{
    std::size_t i = locate(tick);
    if (slots[i].bucket != noBucket)
        return slots[i].bucket;
    if (2 * (count + 1) > slots.size()) {
        std::vector<TickEntry> old(2 * slots.size());
        old.swap(slots);
        --shift;
        for (const TickEntry &entry : old) {
            if (entry.bucket != noBucket)
                slots[locate(entry.tick)] = entry;
        }
        i = locate(tick);
    }
    slots[i] = {tick, bucket};
    ++count;
    return bucket;
}

void
EventQueue::TickIndex::erase(Tick tick)
{
    std::size_t hole = locate(tick);
    if (slots[hole].bucket == noBucket)
        panic("event queue: tick %llu has no bucket",
              static_cast<unsigned long long>(tick));
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole when its home slot lies at or before the hole.
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = next(hole); slots[i].bucket != noBucket;
         i = next(i)) {
        if (((i - home(slots[i].tick)) & mask) >= ((i - hole) & mask)) {
            slots[hole] = slots[i];
            hole = i;
        }
    }
    slots[hole].bucket = noBucket;
    --count;
}

// --- tick heap ---------------------------------------------------------------

void
EventQueue::place(std::size_t idx, TickEntry entry)
{
    ticks[idx] = entry;
    buckets[entry.bucket].heapSlot = idx;
}

void
EventQueue::siftUp(std::size_t idx)
{
    const TickEntry entry = ticks[idx];
    while (idx > 0) {
        const std::size_t parent = (idx - 1) / arity;
        if (ticks[parent].tick < entry.tick)
            break;
        place(idx, ticks[parent]);
        idx = parent;
    }
    place(idx, entry);
}

void
EventQueue::siftDown(std::size_t idx)
{
    const TickEntry entry = ticks[idx];
    const std::size_t n = ticks.size();
    for (;;) {
        const std::size_t first = idx * arity + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + arity, n);
        std::size_t best = first;
        for (std::size_t child = first + 1; child < last; ++child) {
            if (ticks[child].tick < ticks[best].tick)
                best = child;
        }
        if (entry.tick < ticks[best].tick)
            break;
        place(idx, ticks[best]);
        idx = best;
    }
    place(idx, entry);
}

// --- buckets -----------------------------------------------------------------

EventQueue::BucketId
EventQueue::findBucket(Tick when) const
{
    return lastBucket.tick == when && lastBucket.bucket != noBucket
               ? lastBucket.bucket
               : index.find(when);
}

std::size_t
EventQueue::allocBlock(unsigned order)
{
    if (order >= freeBlocks.size())
        freeBlocks.resize(order + 1);
    std::vector<std::size_t> &free = freeBlocks[order];
    if (!free.empty()) {
        const std::size_t base = free.back();
        free.pop_back();
        return base;
    }
    const std::size_t base = arena.size();
    arena.resize(base + (std::size_t{1} << order));
    return base;
}

void
EventQueue::insert(Event *event, Tick when, Tick origin_tick)
{
    event->_when = when;
    event->_originTick = origin_tick;
    event->_seq = nextSeq++;
    event->_scheduled = true;
    event->_queue = this;
    ++_size;

    BucketId id = lastBucket.tick == when ? lastBucket.bucket : noBucket;
    if (id == noBucket) {
        // The bucket a new tick gets: the last one freed, or a new one.
        const BucketId fresh =
            freeBuckets.empty() ? buckets.size() : freeBuckets.back();
        id = index.emplace(when, fresh);
        if (id == fresh) {
            // The tick's first pending event: the only case that touches
            // the heap.
            if (freeBuckets.empty()) {
                buckets.emplace_back();
                buckets.back().base = allocBlock(firstBlockOrder);
                buckets.back().order = firstBlockOrder;
            } else {
                freeBuckets.pop_back();
            }
            buckets[id].tick = when;
            ticks.push_back({when, id});
            siftUp(ticks.size() - 1);
        }
        lastBucket = {when, id};
    }

    Bucket &bucket = buckets[id];
    if (bucket.size == std::size_t{1} << bucket.order) {
        if (bucket.holes > bucket.size - bucket.head - bucket.holes) {
            // Mostly holes: closing them pays for the moves.
            compact(bucket);
        } else {
            // Move to a block twice the size. Slot numbers stay.
            const std::size_t base = allocBlock(bucket.order + 1);
            std::copy_n(arena.begin() + bucket.base, bucket.size,
                        arena.begin() + base);
            freeBlocks[bucket.order].push_back(bucket.base);
            bucket.base = base;
            ++bucket.order;
        }
    }
    if (bucket.head == bucket.size ||
        !before(event, arena[bucket.base + bucket.size - 1])) {
        event->_slot = bucket.size;
        arena[bucket.base + bucket.size++] = event;
        return;
    }
    // A lower priority value, or a relayed event's earlier origin, than
    // the last pending event of the tick.
    if (bucket.holes)
        compact(bucket);
    const auto pending = arena.begin() + bucket.base + bucket.head;
    const auto end = arena.begin() + bucket.base + bucket.size;
    const auto pos = std::upper_bound(pending, end, event, before);
    if (pos == pending && bucket.head > 0) {
        // It runs next: take the slot of the event that ran last.
        event->_slot = --bucket.head;
        arena[bucket.base + bucket.head] = event;
        return;
    }
    std::copy_backward(pos, end, end + 1);
    *pos = event;
    ++bucket.size;
    for (std::size_t i = pos - pending + bucket.head; i < bucket.size; ++i)
        arena[bucket.base + i]->_slot = i;
}

void
EventQueue::unlink(Event *event, const char *caller)
{
    const BucketId id = findBucket(event->_when);
    const std::size_t slot = event->_slot;
    if (id == noBucket || slot < buckets[id].head ||
        slot >= buckets[id].size ||
        arena[buckets[id].base + slot] != event) {
        panic("%s: event '%s' has a corrupt queue slot", caller,
              event->debugName().c_str());
    }
    // Leave a hole: no later event moves or is renumbered.
    Bucket &bucket = buckets[id];
    arena[bucket.base + slot] = nullptr;
    ++bucket.holes;
    trim(bucket);
    --_size;
    if (bucket.head == bucket.size)
        release(id);
}

void
EventQueue::trim(Bucket &bucket)
{
    while (bucket.head < bucket.size && !arena[bucket.base + bucket.head]) {
        ++bucket.head;
        --bucket.holes;
    }
    while (bucket.head < bucket.size &&
           !arena[bucket.base + bucket.size - 1]) {
        --bucket.size;
        --bucket.holes;
    }
}

void
EventQueue::compact(Bucket &bucket)
{
    std::size_t to = bucket.head;
    for (std::size_t from = bucket.head; from < bucket.size; ++from) {
        if (Event *event = arena[bucket.base + from]) {
            event->_slot = to;
            arena[bucket.base + to++] = event;
        }
    }
    bucket.size = to;
    bucket.holes = 0;
}

void
EventQueue::release(BucketId id)
{
    Bucket &bucket = buckets[id];
    if (bucket.order != firstBlockOrder) {
        // Give a grown block back; a free bucket keeps a first-size one.
        freeBlocks[bucket.order].push_back(bucket.base);
        bucket.base = allocBlock(firstBlockOrder);
        bucket.order = firstBlockOrder;
    }
    bucket.head = 0;
    bucket.size = 0;
    index.erase(bucket.tick);
    if (lastBucket.bucket == id)
        lastBucket.bucket = noBucket;
    freeBuckets.push_back(id);

    // Drop the tick from the heap: the last entry fills its place.
    const std::size_t idx = bucket.heapSlot;
    const TickEntry last = ticks.back();
    ticks.pop_back();
    if (idx < ticks.size()) {
        place(idx, last);
        siftUp(idx);
        if (buckets[last.bucket].heapSlot == idx)
            siftDown(idx);
    }
}

// --- public operations -------------------------------------------------------

void
EventQueue::schedule(Event *event, Tick when)
{
    if (event->_scheduled) {
        panic("schedule: event '%s' is already scheduled at %llu",
              event->debugName().c_str(),
              static_cast<unsigned long long>(event->_when));
    }
    if (when < _curTick) {
        panic("schedule: event '%s' into the past (%llu < %llu)",
              event->debugName().c_str(),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_curTick));
    }
    insert(event, when, _curTick);
}

void
EventQueue::scheduleCrossShard(Event *event, Tick when, Tick origin_tick)
{
    if (event->_scheduled) {
        panic("scheduleCrossShard: event '%s' is already scheduled",
              event->debugName().c_str());
    }
    if (when < _curTick) {
        panic("scheduleCrossShard: event '%s' into the past (%llu < %llu)",
              event->debugName().c_str(),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_curTick));
    }
    if (origin_tick > when) {
        panic("scheduleCrossShard: origin tick %llu after the event tick "
              "%llu",
              static_cast<unsigned long long>(origin_tick),
              static_cast<unsigned long long>(when));
    }
    insert(event, when, origin_tick);
}

void
EventQueue::deschedule(Event *event)
{
    if (!event->_scheduled || event->_queue != this) {
        panic("deschedule: event '%s' is not scheduled on this queue",
              event->debugName().c_str());
    }
    unlink(event, "deschedule");
    orphan(event);
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    if (!event->_scheduled) {
        schedule(event, when);
        return;
    }
    if (event->_queue != this) {
        panic("reschedule: event '%s' is scheduled on another queue",
              event->debugName().c_str());
    }
    if (when < _curTick) {
        panic("reschedule: event '%s' into the past (%llu < %llu)",
              event->debugName().c_str(),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_curTick));
    }
    // Fresh sequence key: identical ordering to deschedule()+schedule().
    unlink(event, "reschedule");
    insert(event, when, _curTick);
}

bool
EventQueue::runOne()
{
    if (ticks.empty())
        return false;
    const BucketId id = ticks.front().bucket;
    Bucket &bucket = buckets[id];
    Event *event = arena[bucket.base + bucket.head++];
    trim(bucket);
    --_size;
    if (bucket.head == bucket.size)
        release(id);
    _curTick = event->_when;
    orphan(event);
    ++_numProcessed;
    event->process();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t processed = 0;
    while (!ticks.empty() && ticks.front().tick <= limit) {
        runOne();
        ++processed;
    }
    // Advance time to the limit so subsequent scheduling is relative to it.
    if (_curTick < limit)
        _curTick = limit;
    return processed;
}

} // namespace ulp::sim
