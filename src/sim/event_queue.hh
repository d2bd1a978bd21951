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
 * The queue is an indexed d-ary min-heap over intrusive events: each Event
 * carries its own heap slot, so schedule/deschedule/reschedule are pointer
 * swaps in one contiguous vector with no per-event allocation, nextTick()
 * is O(1), and reschedule() — the dominant operation for clocked
 * components — re-sifts the event in place. The ordering contract is a
 * strict total order:
 *
 *   1. earlier tick first;
 *   2. at the same tick, lower priority value first;
 *   3. at the same (tick, priority), FIFO by scheduling sequence —
 *      reschedule() (even to the same tick) counts as a fresh scheduling
 *      and moves the event behind existing same-key events.
 *
 * The scheduling sequence is the pair (origin tick, counter): the
 * simulated time at which the scheduling happened, then a per-queue
 * counter. For a single queue this is exactly the old plain-counter FIFO
 * (simulated time never decreases across schedule calls, so the pair is
 * lexicographically monotone in call order). The split exists for the
 * parallel kernel: an event relayed from another shard can be inserted
 * with scheduleCrossShard() carrying the origin tick at which the remote
 * shard scheduled it, which slots it among same-(tick, priority) local
 * events exactly where the single-queue kernel would have placed it.
 *
 * This makes every run of a seeded simulation bit-identical regardless of
 * the heap's internal layout.
 */

#ifndef ULP_SIM_EVENT_QUEUE_HH
#define ULP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ulp::sim {

class EventQueue;

/**
 * An occurrence scheduled at a simulated tick. Subclasses implement
 * process(); use MemberEventWrapper for the common bound-member case or
 * EventFunctionWrapper for arbitrary callables.
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

    static constexpr std::size_t badHeapIndex = ~std::size_t{0};

    Tick _when = 0;
    Tick _originTick = 0;
    std::uint64_t _seq = 0;
    std::size_t _heapIndex = badHeapIndex;
    Priority _priority;
    bool _scheduled = false;
    bool _destructing = false;
    EventQueue *_queue = nullptr;
};

/**
 * An event's diagnostic name, composed only when a diagnostic asks for it:
 * the name of the object that owns the event and a static suffix
 * ("node3.radio" and "txDone" read "node3.radio.txDone"), or a static
 * name alone. It holds two pointers and no string of its own; the owner's
 * name must outlive the event, as a SimObject's name outlives the events
 * among its members.
 */
class EventName
{
  public:
    consteval EventName(const char *name) : _what(name) {}
    EventName(const std::string &owner, StaticText what)
        : _owner(&owner), _what(what.c_str())
    {}
    EventName(std::string &&, StaticText) = delete;

    std::string
    str() const
    {
        return _owner ? *_owner + "." + _what : std::string(_what);
    }

  private:
    const std::string *_owner = nullptr;
    const char *_what;
};

/** An Event that invokes a bound callable (std::function; allocates). */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback, EventName name,
                         Priority priority = defaultPriority)
        : Event(priority), callback(std::move(callback)), _name(name)
    {}

    void process() override { callback(); }
    std::string description() const override { return _name.str(); }

  private:
    std::function<void()> callback;
    EventName _name;
};

/**
 * An Event bound to a member function of @p T without std::function:
 * no heap allocation, no type erasure — one indirect call through a
 * member pointer. The wrapper for the per-cycle events of clocked
 * components (CPU tick, EP advance, timer fire, radio MAC phases).
 */
template <typename T>
class MemberEventWrapper : public Event
{
  public:
    using MemberFn = void (T::*)();

    MemberEventWrapper(T *object, MemberFn fn, EventName name,
                       Priority priority = defaultPriority)
        : Event(priority), object(object), fn(fn), _name(name)
    {}

    void process() override { (object->*fn)(); }
    std::string description() const override { return _name.str(); }

  private:
    T *object;
    MemberFn fn;
    EventName _name;
};

/**
 * The global event queue for one simulation. Not thread-safe; one queue
 * per simulated system (all nodes of a network share a queue).
 */
class EventQueue
{
  public:
    EventQueue() { heap.reserve(initialCapacity); }
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
     * Move an already-scheduled (or unscheduled) event to @p when,
     * re-sifting it in place. The event receives a fresh scheduling
     * sequence number, exactly as a deschedule()+schedule() pair would,
     * so same-tick FIFO ordering is unchanged from that idiom.
     */
    void reschedule(Event *event, Tick when);

    /**
     * Pre-size the heap's pointer vector for @p n pending events, so a
     * large network's warm-up does not grow it through repeated
     * reallocation. Never shrinks.
     */
    void reserve(std::size_t n) { heap.reserve(n); }

    /** True when no events are pending. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

    /** Tick of the next pending event; maxTick when empty. O(1). */
    Tick
    nextTick() const
    {
        return heap.empty() ? maxTick : heap.front()->_when;
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
    /**
     * Heap arity. Four keeps the tree shallow (fewer cache lines touched
     * per sift than a binary heap) while the child scan still fits in one
     * 64-byte line of Event pointers.
     */
    static constexpr std::size_t arity = 4;
    static constexpr std::size_t initialCapacity = 64;

    static bool
    less(const Event *a, const Event *b)
    {
        if (a->_when != b->_when)
            return a->_when < b->_when;
        if (a->_priority != b->_priority)
            return a->_priority < b->_priority;
        if (a->_originTick != b->_originTick)
            return a->_originTick < b->_originTick;
        return a->_seq < b->_seq;
    }

    void siftUp(std::size_t idx);
    void siftDown(std::size_t idx);
    /** Unlink the event at heap slot @p idx and restore the heap. */
    void removeAt(std::size_t idx);
    /** Detach @p event's queue bookkeeping (after heap removal). */
    void orphan(Event *event);

    std::vector<Event *> heap;
    Tick _curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t _numProcessed = 0;
};

} // namespace ulp::sim

#endif // ULP_SIM_EVENT_QUEUE_HH
