/**
 * @file
 * Fundamental simulation types and time constants.
 *
 * The simulator counts time in integer ticks; one tick is one nanosecond.
 * At the paper's 100 kHz system clock one cycle is 10,000 ticks, an
 * 802.15.4 byte time (32 us at 250 kbit/s) is 32,000 ticks, and the SRAM
 * bank wakeup (950 ns) is 950 ticks, so a nanosecond tick comfortably
 * resolves every latency in the system.
 */

#ifndef ULP_SIM_TYPES_HH
#define ULP_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace ulp::sim {

/** Simulation time in nanoseconds. */
using Tick = std::uint64_t;

/** A count of clock cycles in some clock domain. */
using Cycles = std::uint64_t;

/** Sentinel for "never" / unscheduled. */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Ticks per second (tick granularity is 1 ns). */
constexpr Tick ticksPerSecond = 1'000'000'000ULL;

/** Convert seconds (double) to ticks, rounding to nearest. */
constexpr Tick
secondsToTicks(double seconds)
{
    return static_cast<Tick>(seconds * static_cast<double>(ticksPerSecond)
                             + 0.5);
}

/** Convert ticks to seconds. */
constexpr double
ticksToSeconds(Tick ticks)
{
    return static_cast<double>(ticks) / static_cast<double>(ticksPerSecond);
}

/**
 * A pointer to text that lives for the whole program: a string literal
 * or a constexpr character array. The constructor is consteval, so a
 * run-time string (a temporary's c_str() included) does not convert and
 * cannot leave the holder dangling. Event names use it to share one
 * copy of their text across every node.
 */
class StaticText
{
  public:
    consteval StaticText(const char *text) : _text(text) {}

    const char *c_str() const { return _text; }

  private:
    const char *_text;
};

} // namespace ulp::sim

#endif // ULP_SIM_TYPES_HH
