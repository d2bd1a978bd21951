/**
 * @file
 * Discrete-event simulation queue.
 *
 * Events are ordered by (when, priority, insertion sequence). Components
 * schedule events on a shared EventQueue; the queue's service loop advances
 * simulated time to each event's tick and processes it. Clocked components
 * only keep events in the queue while they have work to do, so an idle
 * sensor node consumes no host cycles between events — mirroring the
 * event-driven idle behaviour of the architecture being modelled.
 *
 * The ordering contract is a strict total order:
 *
 *   1. earlier tick first;
 *   2. at the same tick, lower priority value first;
 *   3. at the same (tick, priority), FIFO by scheduling sequence —
 *      reschedule() (even to the same tick) counts as a fresh scheduling
 *      and moves the event behind existing same-key events.
 *
 * The scheduling sequence is the pair (origin tick, counter): the
 * simulated time at which the scheduling happened, then a per-queue
 * counter. For a single queue this is exactly a plain-counter FIFO
 * (simulated time never decreases across schedule calls, so the pair is
 * lexicographically monotone in call order). The split exists for the
 * parallel kernel: an event relayed from another shard can be inserted
 * with scheduleCrossShard() carrying the origin tick at which the remote
 * shard scheduled it, which slots it among same-(tick, priority) local
 * events exactly where the single-queue kernel would have placed it.
 *
 * Every device of the modelled node steps on one shared system clock, so
 * in a network many events fall on the same tick. The queue therefore
 * keeps one bucket per distinct pending tick and a 4-ary min-heap over
 * those ticks, not over events. A bucket holds its tick's events in a
 * block of slots, sorted by (priority, origin tick, sequence), with a
 * head index past the ones already run. Popping an event advances the
 * head, and scheduling into a tick that already has events appends to
 * its bucket (or, for a lower priority value or a relayed event's
 * earlier origin, inserts into it); neither touches the heap, which
 * changes only when a tick gains its first pending event or loses its
 * last. A schedule finds its tick's bucket through a one-entry cache of
 * the last bucket it used, else through an open-addressed tick -> bucket
 * index. An Event records only its slot in its bucket; deschedule()
 * finds the bucket through the event's tick and leaves a hole in the
 * slot, so no other event moves. Buckets and their blocks are recycled,
 * so a steady-state run allocates nothing per event or per tick.
 *
 * This makes every run of a seeded simulation bit-identical regardless of
 * the queue's internal layout.
 */

#ifndef ULP_SIM_EVENT_QUEUE_HH
#define ULP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ulp::sim {

class EventQueue;

/**
 * An occurrence scheduled at a simulated tick. Subclasses implement
 * process(); model code binds a member function with MemberEvent.
 */
class Event
{
  public:
    /** Lower value = processed earlier among same-tick events. */
    using Priority = std::int8_t;

    static constexpr Priority defaultPriority = 0;
    /** Interrupt delivery precedes CPU ticks scheduled at the same tick. */
    static constexpr Priority interruptPriority = -10;
    /** Stats/termination events run after everything else at a tick. */
    static constexpr Priority maxPriority = 100;

    explicit Event(Priority priority = defaultPriority)
        : _priority(priority)
    {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the event queue when simulated time reaches when(). */
    virtual void process() = 0;

    /** Human-readable description for tracing. */
    virtual std::string description() const { return "generic event"; }

    /**
     * Diagnostic name that never virtual-dispatches into a derived object
     * that is already destroyed: the destructor path flags the event, and
     * any queue panic raised from it falls back to a fixed name.
     */
    std::string
    debugName() const
    {
        return _destructing ? std::string("<event in destruction>")
                            : description();
    }

    bool scheduled() const { return _scheduled; }
    Tick when() const { return _when; }
    Priority priority() const { return _priority; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    Tick _originTick = 0;
    std::uint64_t _seq = 0;
    /** Index in its tick's bucket while scheduled. */
    std::size_t _slot = 0;
    Priority _priority;
    bool _scheduled = false;
    bool _destructing = false;
    EventQueue *_queue = nullptr;
};

/**
 * The one kind of event the model schedules: it calls member function
 * @p Fn of the object that owns it, as in
 * `sim::MemberEvent<&RadioDevice::airEnd> airEndEvent{this, "airEnd"}`.
 * The function is part of the type, so the event holds only its object
 * and a static name suffix, and process() is one direct call with no
 * heap block and no type erasure. An object that is not a SimObject (a
 * record inside one) forwards name() to the object it belongs to.
 */
template <auto Fn>
class MemberEvent;

template <typename T, void (T::*Fn)()>
class MemberEvent<Fn> : public Event
{
  public:
    MemberEvent(T *object, StaticText suffix,
                Priority priority = defaultPriority)
        : Event(priority), object(object), suffix(suffix)
    {}

    void process() override { (object->*Fn)(); }

    /**
     * The owner's name and the suffix ("node3.radio" and "airEnd" read
     * "node3.radio.airEnd"), composed only when a diagnostic asks; the
     * suffix alone when the owner has no name().
     */
    std::string
    description() const override
    {
        if constexpr (requires { object->name(); })
            return object->name() + "." + suffix.c_str();
        else
            return suffix.c_str();
    }

  private:
    T *object;
    StaticText suffix;
};

/**
 * The global event queue for one simulation. Not thread-safe; one queue
 * per simulated system (all nodes of a network share a queue).
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p event at absolute tick @p when.
     * It is a bug (panic) to schedule into the past or to schedule an
     * already-scheduled event; use reschedule() for the latter.
     */
    void schedule(Event *event, Tick when);

    /**
     * Schedule @p event at @p when, ordering it among same-(tick,
     * priority) events as if it had been scheduled while simulated time
     * was @p origin_tick (which may lie in the past). Used by the
     * cross-shard relay to place frame deliveries from other shards in
     * the same total order the single-queue kernel produces; ties against
     * local events scheduled exactly at @p origin_tick break after them.
     */
    void scheduleCrossShard(Event *event, Tick when, Tick origin_tick);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *event);

    /**
     * Move an already-scheduled (or unscheduled) event to @p when. The
     * event receives a fresh scheduling sequence number, exactly as a
     * deschedule()+schedule() pair would, so same-tick FIFO ordering is
     * unchanged from that idiom.
     */
    void reschedule(Event *event, Tick when);

    /** True when no events are pending. */
    bool empty() const { return _size == 0; }

    /** Number of pending events. */
    std::size_t size() const { return _size; }

    /** Tick of the next pending event; maxTick when empty. O(1). */
    Tick
    nextTick() const
    {
        return ticks.empty() ? maxTick : ticks.front().tick;
    }

    /**
     * Process events until the queue is empty or simulated time would
     * exceed @p limit. Events scheduled exactly at @p limit are processed.
     * @return the number of events processed.
     */
    std::uint64_t runUntil(Tick limit);

    /** Process a single event if one is pending. @return true if one ran. */
    bool runOne();

    /** Total events processed since construction. */
    std::uint64_t numProcessed() const { return _numProcessed; }

  private:
    using BucketId = std::size_t;
    static constexpr BucketId noBucket = ~BucketId{0};

    /**
     * The pending events of one tick: a block of 2^order slots in the
     * arena. Slots [head, size) hold them in (priority, origin tick,
     * sequence) order, with a null hole for each event descheduled from
     * between two others; while the bucket is pending, the slots at head
     * and size - 1 hold events. The slots before head have run.
     */
    struct Bucket
    {
        Tick tick = 0;
        std::size_t base = 0; ///< first arena slot of the block
        std::size_t head = 0;
        std::size_t size = 0;
        std::size_t holes = 0;
        std::size_t heapSlot = 0; ///< position in the tick heap
        unsigned order = 0;
    };

    /** A tick and its bucket: a tick-heap entry or an index slot. */
    struct TickEntry
    {
        Tick tick = 0;
        BucketId bucket = noBucket;
    };

    /**
     * Open-addressed tick -> bucket map with linear probing and
     * backward-shift deletion: one flat array, no allocation per tick.
     */
    class TickIndex
    {
      public:
        TickIndex();
        /** The bucket of @p tick, or noBucket. */
        BucketId find(Tick tick) const;
        /** The bucket of @p tick; if it has none, map it to @p bucket
         *  and return that. */
        BucketId emplace(Tick tick, BucketId bucket);
        /** Unmap @p tick, which must be present. */
        void erase(Tick tick);

      private:
        std::size_t home(Tick tick) const;
        /** The slot holding @p tick, or the empty slot ending its probe
         *  run. */
        std::size_t locate(Tick tick) const;
        std::size_t next(std::size_t slot) const
        {
            return (slot + 1) & (slots.size() - 1);
        }

        std::vector<TickEntry> slots; ///< size a power of two, at most
                                      ///< half full; empty: noBucket
        unsigned shift;               ///< 64 - log2(slots.size())
        std::size_t count = 0;
    };

    /** Within one tick: lower priority value, then earlier origin tick,
     *  then earlier sequence first. */
    static bool
    before(const Event *a, const Event *b)
    {
        if (a->_priority != b->_priority)
            return a->_priority < b->_priority;
        if (a->_originTick != b->_originTick)
            return a->_originTick < b->_originTick;
        return a->_seq < b->_seq;
    }

    /** The bucket of pending tick @p when, or noBucket. */
    BucketId findBucket(Tick when) const;
    /** A free block of 2^@p order arena slots; its first slot. */
    std::size_t allocBlock(unsigned order);
    /** Stamp @p event's sequence and put it in its tick's bucket. */
    void insert(Event *event, Tick when, Tick origin_tick);
    /** Take scheduled @p event out of its bucket. */
    void unlink(Event *event, const char *caller);
    /** Drop the holes at either end of @p bucket. */
    void trim(Bucket &bucket);
    /** Close every hole of @p bucket, moving later events down. */
    void compact(Bucket &bucket);
    /** Recycle the emptied bucket @p id and drop its tick. */
    void release(BucketId id);
    /** Detach @p event's queue bookkeeping. */
    static void orphan(Event *event);

    void siftUp(std::size_t idx);
    void siftDown(std::size_t idx);
    void place(std::size_t idx, TickEntry entry);

    std::vector<Bucket> buckets;
    std::vector<BucketId> freeBuckets;
    /** Every bucket's block of event slots. Blocks are recycled by size,
     *  so the arena holds what the pending ticks need at their peak; a
     *  vector per bucket would keep the largest tick it ever held. */
    std::vector<Event *> arena;
    /** The free blocks of each order: their first slots. */
    std::vector<std::vector<std::size_t>> freeBlocks;
    /** 4-ary min-heap of the pending ticks; a tick has one entry. */
    std::vector<TickEntry> ticks;
    TickIndex index;
    /** The bucket the last schedule used, and its tick; noBucket once
     *  that bucket is released. */
    TickEntry lastBucket;
    std::size_t _size = 0;
    Tick _curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t _numProcessed = 0;
};

} // namespace ulp::sim

#endif // ULP_SIM_EVENT_QUEUE_HH
