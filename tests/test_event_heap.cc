/**
 * @file
 * Property tests for the event queue: randomized schedule, deschedule,
 * reschedule, cross-shard and run sequences are replayed against a
 * reference std::multiset model of the (when, priority, origin tick, seq)
 * ordering contract, with ticks spread thin (about one event a tick) or
 * dense (a handful of ticks, several events each) and with events that
 * act on the queue from inside process(); plus directed edge cases for
 * same-tick priority/FIFO order and the reschedule-gets-a-fresh-sequence
 * rule.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

using namespace ulp::sim;

namespace {

/** An event that logs its id when processed, then runs an optional hook. */
class RecordingEvent : public Event
{
  public:
    using Hook = std::function<void(RecordingEvent &)>;

    RecordingEvent(int id, std::vector<int> &log,
                   Priority priority = defaultPriority,
                   const Hook *hook = nullptr)
        : Event(priority), id(id), log(log), hook(hook)
    {}

    void
    process() override
    {
        log.push_back(id);
        if (hook)
            (*hook)(*this);
    }
    std::string description() const override
    {
        return "rec" + std::to_string(id);
    }

    const int id;

  private:
    std::vector<int> &log;
    const Hook *hook;
};

/** Reference model key: the documented total order, with the event id. */
using ModelKey = std::tuple<Tick, int, Tick, std::uint64_t, int>;

/**
 * Mirror of the queue's bookkeeping: the model assigns sequence numbers
 * in the same call order the queue does (every schedule, every
 * cross-shard schedule and every reschedule of a scheduled event
 * consumes one).
 */
struct ReferenceModel
{
    std::multiset<ModelKey> entries;
    std::uint64_t nextSeq = 0;
    // id -> current key, for erase-on-deschedule.
    std::vector<ModelKey> keyOf;
    std::vector<bool> scheduled;

    explicit ReferenceModel(std::size_t pool)
        : keyOf(pool), scheduled(pool, false)
    {}

    void
    schedule(int id, Tick when, int priority, Tick origin)
    {
        ModelKey key{when, priority, origin, nextSeq++, id};
        entries.insert(key);
        keyOf[id] = key;
        scheduled[id] = true;
    }

    void
    deschedule(int id)
    {
        entries.erase(keyOf[id]);
        scheduled[id] = false;
    }

    void
    reschedule(int id, Tick when, int priority, Tick origin)
    {
        if (scheduled[id])
            deschedule(id);
        schedule(id, when, priority, origin);
    }

    Tick
    nextTick() const
    {
        return entries.empty() ? maxTick : std::get<0>(*entries.begin());
    }

    int
    pop()
    {
        auto it = entries.begin();
        int id = std::get<4>(*it);
        scheduled[id] = false;
        entries.erase(it);
        return id;
    }
};

/**
 * Where the random ops put events: the queue's time plus up to
 * @c horizon ticks, rounded up to a multiple of @c grid.
 */
struct TickSpread
{
    const char *name;
    Tick horizon;
    Tick grid;
};

// CTest names each case after its printed parameter.
void
PrintTo(const TickSpread &spread, std::ostream *os)
{
    *os << spread.name;
}

class EventHeapProperty : public ::testing::TestWithParam<TickSpread>
{};

} // namespace

TEST_P(EventHeapProperty, MatchesMultisetModelOverRandomOps)
{
    constexpr int poolSize = 96;
    constexpr int iterations = 20'000;
    constexpr Event::Priority priorities[] = {
        Event::interruptPriority, -1, 0, 0, 0, 1, Event::maxPriority};
    const TickSpread spread = GetParam();

    EventQueue queue;
    ReferenceModel model(poolSize);
    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> pool;
    std::mt19937 rng(0xC0FFEE);
    std::string mismatch;
    bool acting = true;

    auto pick = [&]() -> RecordingEvent & {
        return *pool[rng() % poolSize];
    };
    auto future = [&]() -> Tick {
        const Tick t = queue.curTick() + rng() % spread.horizon;
        return (t + spread.grid - 1) / spread.grid * spread.grid;
    };

    // Every processed event checks that it is the model's head, then may
    // act on the queue from inside process(), as devices do.
    const RecordingEvent::Hook inside = [&](RecordingEvent &running) {
        if (model.entries.empty() ||
            std::get<4>(*model.entries.begin()) != running.id ||
            model.nextTick() != queue.curTick()) {
            mismatch = "ran rec" + std::to_string(running.id) + " at " +
                       std::to_string(queue.curTick());
            return;
        }
        model.pop();
        if (!acting)
            return;
        const Tick now = queue.curTick();
        switch (rng() % 6) {
        case 0: { // the running event reschedules itself
            const Tick when = future();
            queue.reschedule(&running, when);
            model.reschedule(running.id, when, running.priority(), now);
            break;
        }
        case 1: { // a peer at this tick that runs before the rest of it
            RecordingEvent &peer = pick();
            if (!peer.scheduled() && peer.priority() < running.priority()) {
                queue.schedule(&peer, now);
                model.schedule(peer.id, now, peer.priority(), now);
            }
            break;
        }
        case 2: { // a pending peer of this tick is cancelled
            std::vector<RecordingEvent *> peers;
            for (const auto &e : pool) {
                if (e->scheduled() && e->when() == now)
                    peers.push_back(e.get());
            }
            if (!peers.empty()) {
                RecordingEvent &peer = *peers[rng() % peers.size()];
                queue.deschedule(&peer);
                model.deschedule(peer.id);
            }
            break;
        }
        default:
            break;
        }
    };

    for (int i = 0; i < poolSize; ++i) {
        pool.push_back(std::make_unique<RecordingEvent>(
            i, log, priorities[i % std::size(priorities)], &inside));
    }

    for (int iter = 0; iter < iterations; ++iter) {
        unsigned op = rng() % 11;
        if (op < 4) {
            RecordingEvent &e = pick();
            Tick when = future();
            if (e.scheduled()) {
                queue.reschedule(&e, when);
                model.reschedule(e.id, when, e.priority(), queue.curTick());
            } else {
                queue.schedule(&e, when);
                model.schedule(e.id, when, e.priority(), queue.curTick());
            }
        } else if (op < 6) {
            RecordingEvent &e = pick();
            Tick when = future();
            queue.reschedule(&e, when);
            model.reschedule(e.id, when, e.priority(), queue.curTick());
        } else if (op == 6) {
            RecordingEvent &e = pick();
            if (e.scheduled()) {
                queue.deschedule(&e);
                model.deschedule(e.id);
            }
        } else if (op == 7) {
            // A relayed event, scheduled on another shard at a past tick.
            RecordingEvent &e = pick();
            if (!e.scheduled()) {
                Tick when = future();
                Tick origin = rng() % (queue.curTick() + 1);
                queue.scheduleCrossShard(&e, when, origin);
                model.schedule(e.id, when, e.priority(), origin);
            }
        } else if (op < 10) {
            ASSERT_EQ(queue.runOne(), !model.entries.empty());
        } else {
            Tick limit = queue.curTick() + rng() % 400;
            queue.runUntil(limit);
            // Everything due by the limit ran.
            ASSERT_GT(model.nextTick(), limit) << "iteration " << iter;
        }

        ASSERT_EQ(mismatch, "") << "iteration " << iter;
        ASSERT_EQ(queue.size(), model.entries.size());
        ASSERT_EQ(queue.nextTick(), model.nextTick());
    }

    // Drain: the tail must also come out in model order.
    acting = false;
    while (!model.entries.empty()) {
        ASSERT_TRUE(queue.runOne());
        ASSERT_EQ(mismatch, "");
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.runOne());
}

INSTANTIATE_TEST_SUITE_P(TickSpread, EventHeapProperty,
                         ::testing::Values(TickSpread{"Sparse", 1'000, 1},
                                           TickSpread{"Dense", 40, 10}));

TEST(EventHeap, SameTickSamePriorityIsFifoAtScale)
{
    EventQueue queue;
    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> events;
    for (int i = 0; i < 64; ++i) {
        events.push_back(std::make_unique<RecordingEvent>(i, log));
        queue.schedule(events.back().get(), 100);
    }
    queue.runUntil(100);
    ASSERT_EQ(log.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(log[i], i);
}

TEST(EventHeap, RescheduleToSameTickMovesBehindFifoPeers)
{
    // The contract pins reschedule() to deschedule()+schedule() semantics:
    // a fresh sequence number, so the event drops behind same-key peers.
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent a(0, log), b(1, log);
    queue.schedule(&a, 100);
    queue.schedule(&b, 100);
    queue.reschedule(&a, 100);
    queue.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{1, 0}));
}

TEST(EventHeap, PriorityStillBeatsSequenceAfterReschedule)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent normal(0, log);
    RecordingEvent urgent(1, log, Event::interruptPriority);
    queue.schedule(&normal, 100);
    queue.schedule(&urgent, 200);
    queue.reschedule(&urgent, 100); // later seq, but lower priority value
    queue.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{1, 0}));
}

TEST(EventHeap, ReschedulePastPanics)
{
    EventQueue queue;
    std::vector<int> log;
    RecordingEvent e(0, log);
    queue.schedule(&e, 500);
    queue.runUntil(100);
    EXPECT_THROW(queue.reschedule(&e, 50), PanicError);
}

TEST(EventHeap, DescheduleFromWrongQueuePanics)
{
    EventQueue q1, q2;
    std::vector<int> log;
    RecordingEvent e(0, log);
    q1.schedule(&e, 10);
    EXPECT_THROW(q2.deschedule(&e), PanicError);
    q1.deschedule(&e); // still intact on its own queue
    EXPECT_FALSE(e.scheduled());
}

TEST(EventHeap, DescheduledHolesKeepFifoOrder)
{
    // Deschedule most events of a crowded tick from between their peers,
    // then keep scheduling into it: the space they leave is reclaimed
    // without disturbing the FIFO order of the rest.
    EventQueue queue;
    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> events;
    for (int i = 0; i < 128; ++i)
        events.push_back(std::make_unique<RecordingEvent>(i, log));
    std::vector<int> expected;
    for (int i = 0; i < 64; ++i)
        queue.schedule(events[i].get(), 100);
    for (int i = 0; i < 64; ++i) {
        if (i % 4 == 0 || i == 63)
            expected.push_back(i);
        else
            queue.deschedule(events[i].get());
    }
    for (int i = 64; i < 128; ++i) {
        queue.schedule(events[i].get(), 100);
        expected.push_back(i);
    }
    EXPECT_EQ(queue.size(), expected.size());
    queue.runUntil(100);
    EXPECT_EQ(log, expected);
    EXPECT_TRUE(queue.empty());
}

TEST(EventHeap, InterleavedGrowShrinkKeepsOrder)
{
    // Empty ticks from the middle of the tick heap while the queue grows
    // and shrinks through several capacity doublings.
    EventQueue queue;
    std::vector<int> log;
    std::vector<std::unique_ptr<RecordingEvent>> events;
    for (int i = 0; i < 512; ++i) {
        events.push_back(std::make_unique<RecordingEvent>(i, log));
        queue.schedule(events.back().get(), 1 + (i * 7919) % 4096);
    }
    // Deschedule every third event from the middle of the heap.
    for (int i = 0; i < 512; i += 3)
        queue.deschedule(events[i].get());
    queue.runUntil(8192);

    ASSERT_FALSE(log.empty());
    Tick last = 0;
    std::set<int> seen;
    for (int id : log) {
        EXPECT_NE(id % 3, 0);
        EXPECT_TRUE(seen.insert(id).second);
        Tick when = 1 + (id * 7919) % 4096;
        EXPECT_GE(when, last);
        last = when;
    }
    EXPECT_EQ(log.size(), 512u - 171u);
    EXPECT_TRUE(queue.empty());
}
