/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * lifecycle, clock domains, the statistics package, logging, and
 * deterministic randomness.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "function_event.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

using namespace ulp::sim;
using ulp::test::FunctionEvent;

// --------------------------------------------------------------------------
// EventQueue
// --------------------------------------------------------------------------

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    FunctionEvent a([&] { order.push_back(1); }, "a");
    FunctionEvent b([&] { order.push_back(2); }, "b");
    FunctionEvent c([&] { order.push_back(3); }, "c");

    queue.schedule(&c, 300);
    queue.schedule(&a, 100);
    queue.schedule(&b, 200);

    queue.runUntil(1000);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.curTick(), 1000u);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue queue;
    std::vector<int> order;
    FunctionEvent first([&] { order.push_back(1); }, "first");
    FunctionEvent second([&] { order.push_back(2); }, "second");
    FunctionEvent urgent([&] { order.push_back(0); }, "urgent",
                                Event::interruptPriority);

    queue.schedule(&first, 50);
    queue.schedule(&second, 50);
    queue.schedule(&urgent, 50);

    queue.runUntil(50);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue queue;
    bool ran = false;
    FunctionEvent event([&] { ran = true; }, "e");
    queue.schedule(&event, 10);
    EXPECT_TRUE(event.scheduled());
    queue.deschedule(&event);
    EXPECT_FALSE(event.scheduled());
    queue.runUntil(100);
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue queue;
    int runs = 0;
    FunctionEvent event([&] { ++runs; }, "e");
    queue.schedule(&event, 10);
    queue.reschedule(&event, 500);
    queue.runUntil(100);
    EXPECT_EQ(runs, 0);
    queue.runUntil(500);
    EXPECT_EQ(runs, 1);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue queue;
    FunctionEvent event([] {}, "e");
    queue.runUntil(100);
    EXPECT_THROW(queue.schedule(&event, 50), PanicError);
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue queue;
    FunctionEvent event([] {}, "e");
    queue.schedule(&event, 10);
    EXPECT_THROW(queue.schedule(&event, 20), PanicError);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue queue;
    int chain = 0;
    FunctionEvent second([&] { chain = 2; }, "second");
    FunctionEvent first(
        [&] {
            chain = 1;
            queue.schedule(&second, queue.curTick() + 5);
        },
        "first");
    queue.schedule(&first, 10);
    queue.runUntil(14);
    EXPECT_EQ(chain, 1);
    queue.runUntil(15);
    EXPECT_EQ(chain, 2);
}

TEST(EventQueue, DestructorDeschedules)
{
    EventQueue queue;
    {
        FunctionEvent event([] {}, "scoped");
        queue.schedule(&event, 10);
    }
    EXPECT_TRUE(queue.empty());
    queue.runUntil(100); // must not touch the dead event
}

namespace {

/** A device that owns a member event. */
struct Radio : SimObject
{
    using SimObject::SimObject;
    void txDone() {}
};

/** An event owner without a name(). */
struct Nameless
{
    void fire() {}
};

} // namespace

TEST(EventQueue, PanicNamesTheEventOnDemand)
{
    EventQueue queue;
    Simulation simulation;
    Radio owner(simulation, "node3.radio");
    MemberEvent<&Radio::txDone> event(&owner, "txDone");
    EXPECT_EQ(event.description(), "node3.radio.txDone");
    queue.schedule(&event, 10);
    try {
        queue.schedule(&event, 20);
        FAIL() << "expected a panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("'node3.radio.txDone'"),
                  std::string::npos)
            << e.what();
    }
    Nameless nameless;
    MemberEvent<&Nameless::fire> plain(&nameless, "plain");
    EXPECT_EQ(plain.description(), "plain");
    static_assert(!std::is_constructible_v<MemberEvent<&Radio::txDone>,
                                           Radio *, std::string>);
}

TEST(EventQueue, NextTickReportsHead)
{
    EventQueue queue;
    EXPECT_EQ(queue.nextTick(), maxTick);
    FunctionEvent event([] {}, "e");
    queue.schedule(&event, 42);
    EXPECT_EQ(queue.nextTick(), 42u);
}

// --------------------------------------------------------------------------
// ClockDomain
// --------------------------------------------------------------------------

TEST(ClockDomain, PaperClockIs10usPeriod)
{
    ClockDomain clock(100e3);
    EXPECT_EQ(clock.period(), 10'000u);
    EXPECT_EQ(clock.cyclesToTicks(127), 1'270'000u);
    EXPECT_EQ(clock.ticksToCycles(25'000), 2u);
}

TEST(ClockDomain, NextEdgeAligns)
{
    ClockDomain clock(100e3);
    EXPECT_EQ(clock.nextEdge(0), 0u);
    EXPECT_EQ(clock.nextEdge(1), 10'000u);
    EXPECT_EQ(clock.nextEdge(10'000), 10'000u);
    EXPECT_EQ(clock.nextEdge(10'001), 20'000u);
    EXPECT_EQ(clock.clockEdge(10'001, 3), 50'000u);
}

TEST(ClockDomain, RejectsBadFrequencies)
{
    EXPECT_THROW(ClockDomain(-5.0), FatalError);
    EXPECT_THROW(ClockDomain(0.0), FatalError);
    EXPECT_THROW(ClockDomain(3e9), FatalError); // beyond tick resolution
}

class ClockEdgeProperty : public ::testing::TestWithParam<double>
{};

TEST_P(ClockEdgeProperty, EdgesAreConsistent)
{
    ClockDomain clock(GetParam());
    for (Tick t : {Tick{0}, Tick{1}, Tick{999}, Tick{123456},
                   Tick{99999999}}) {
        Tick edge = clock.nextEdge(t);
        EXPECT_GE(edge, t);
        EXPECT_LT(edge - t, clock.period());
        EXPECT_EQ(edge % clock.period(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Frequencies, ClockEdgeProperty,
                         ::testing::Values(32.768e3, 100e3, 7.3728e6,
                                           1e6, 250e3));

// --------------------------------------------------------------------------
// Statistics
// --------------------------------------------------------------------------

// A statistic is only its value; its owner names it when visited.
static_assert(sizeof(stats::Scalar) == sizeof(double));
// A member event adds only its owner and a static suffix to the Event.
static_assert(sizeof(MemberEvent<&Radio::txDone>) == 72);

TEST(Stats, ScalarAccumulates)
{
    stats::Scalar counter;
    ++counter;
    counter += 4.0;
    EXPECT_DOUBLE_EQ(counter.value(), 5.0);
    counter = 0;
    EXPECT_DOUBLE_EQ(counter.value(), 0.0);
}

namespace {

/** A child object with one counter. */
class Part : public SimObject
{
  public:
    using SimObject::SimObject;

    void
    visitStats(stats::Visitor &v) const override
    {
        v.group(name());
        v.scalar(frames, "frames", "frames handled");
    }

    stats::Scalar frames;
};

/** An object with a counter of its own and a child. */
class Device : public SimObject
{
  public:
    Device(Simulation &simulation, const std::string &name)
        : SimObject(simulation, name), part(simulation, "part", this)
    {}

    void
    visitStats(stats::Visitor &v) const override
    {
        v.group(name());
        v.scalar(resets, "resets", "times reset");
        part.visitStats(v);
    }

    stats::Scalar resets;
    Part part;
};

} // namespace

TEST(Stats, PrintsAnObjectThenItsChild)
{
    Simulation simulation;
    Device device(simulation, "node3");
    device.resets += 2;
    device.part.frames = 1234567;
    std::ostringstream os;
    device.dumpStats(os);
    // An empty prefix prints the bare name.
    stats::Printer printer(os);
    printer.group("");
    device.resets = 0.5;
    printer.scalar(device.resets, "resets", "times reset");

    // The name padded to 44 columns, the value (printf's %.6g) to 16.
    EXPECT_EQ(os.str(), "node3.resets                                "
                        "                2  # times reset\n"
                        "node3.part.frames                           "
                        "      1.23457e+06  # frames handled\n"
                        "resets                                      "
                        "              0.5  # times reset\n");
}

TEST(Stats, FindStatByName)
{
    Simulation simulation;
    Device device(simulation, "node3");
    EXPECT_EQ(device.findStat("resets"), &device.resets);
    EXPECT_EQ(device.part.findStat("frames"), &device.part.frames);
    EXPECT_EQ(device.findStat("beta"), nullptr);
    // Only the object's own statistics match, not its children's.
    EXPECT_EQ(device.findStat("frames"), nullptr);
    EXPECT_EQ(device.part.findStat("resets"), nullptr);
}

TEST(Stats, NamesMatchByContentNotAddress)
{
    // Equal names at other addresses than the owner's literals: a
    // lookup that compared pointers would find nothing.
    static constexpr char framesA[] = "frames";
    static constexpr char framesB[] = "frames";
    ASSERT_NE(static_cast<const void *>(framesA),
              static_cast<const void *>(framesB));
    const std::string resets = "resets";
    Simulation simulation;
    Device device(simulation, "node3");
    EXPECT_EQ(device.findStat(resets), &device.resets);
    EXPECT_EQ(device.part.findStat(framesA), &device.part.frames);
    EXPECT_EQ(device.part.findStat(framesB), &device.part.frames);
    // A view that is not NUL-terminated matches by its length.
    EXPECT_EQ(device.findStat(std::string_view("resets2", 6)),
              &device.resets);
}

// --------------------------------------------------------------------------
// Logging / tracing / random
// --------------------------------------------------------------------------

TEST(Logging, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
    EXPECT_THROW(fatal("bad config %s", "x"), FatalError);
    try {
        fatal("value was %d", 7);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(Logging, CsprintfFormats)
{
    EXPECT_EQ(csprintf("%s-%04x", "ab", 0xBEEF), "ab-beef");
    EXPECT_EQ(csprintf("plain"), "plain");
}

TEST(Random, DeterministicPerSeed)
{
    Random a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.uniformInt(0, 1'000'000);
        EXPECT_EQ(va, b.uniformInt(0, 1'000'000));
    }
    bool any_diff = false;
    Random a2(42);
    for (int i = 0; i < 100; ++i)
        any_diff |= a2.uniformInt(0, 1'000'000) != c.uniformInt(0, 1'000'000);
    EXPECT_TRUE(any_diff);
}

namespace {

/**
 * Draw step @p i from @p rng and from @p ref, a std::mt19937_64 with the
 * same seed, through the same distribution, and expect equal values.
 */
void
expectSameDraw(Random &rng, std::mt19937_64 &ref, int i)
{
    switch (i % 4) {
      case 0: {
        const std::uint64_t hi = 1u << (i % 11);
        std::uniform_int_distribution<std::uint64_t> dist(0, hi);
        EXPECT_EQ(rng.uniformInt(0, hi), dist(ref)) << "step " << i;
        break;
      }
      case 1: {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        EXPECT_EQ(rng.uniformReal(), dist(ref)) << "step " << i;
        break;
      }
      case 2: {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        EXPECT_EQ(rng.chance(0.3), dist(ref) < 0.3) << "step " << i;
        break;
      }
      default: {
        std::normal_distribution<double> dist(2.0, 0.5);
        EXPECT_EQ(rng.normal(2.0, 0.5), dist(ref)) << "step " << i;
        break;
      }
    }
}

} // namespace

TEST(Random, MatchesSeededStdEngine)
{
    Random rng(42);
    std::mt19937_64 ref(42);
    for (int i = 0; i < 400; ++i)
        expectSameDraw(rng, ref, i);
}

TEST(Random, LateFirstDrawStartsFromTheSeed)
{
    Random late(7);
    Random other(7);
    for (int i = 0; i < 100; ++i)
        other.uniformReal();
    std::mt19937_64 ref(7);
    for (int i = 0; i < 100; ++i)
        expectSameDraw(late, ref, i);
}

TEST(Random, InterleavedInstancesKeepSeparateStreams)
{
    Random a(1), b(2);
    std::mt19937_64 refA(1), refB(2);
    for (int i = 0; i < 200; ++i) {
        expectSameDraw(a, refA, i);
        expectSameDraw(b, refB, i + 3);
        if (i % 3 == 0)
            expectSameDraw(b, refB, i + 1);
    }
}

TEST(Random, ChanceRespectsProbability)
{
    Random rng(7);
    int hits = 0;
    for (int i = 0; i < 10'000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits, 2'500, 200);
    EXPECT_FALSE(rng.chance(0.0));
}

TEST(Simulation, RunHelpers)
{
    Simulation simulation;
    int runs = 0;
    FunctionEvent event([&] { ++runs; }, "e");
    simulation.eventq().schedule(&event, secondsToTicks(0.5));
    simulation.runForSeconds(0.25);
    EXPECT_EQ(runs, 0);
    simulation.runForSeconds(0.25);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(simulation.curTick(), secondsToTicks(0.5));
}
