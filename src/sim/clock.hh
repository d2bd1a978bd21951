/**
 * @file
 * Clock domains. The paper's system runs off a single globally distributed
 * 100 kHz clock; the baseline Mica2 runs its ATmega128-class CPU at
 * 7.37 MHz. A ClockDomain converts between cycles and ticks and aligns
 * arbitrary ticks to clock edges (edges fall at integer multiples of the
 * period, phase 0).
 */

#ifndef ULP_SIM_CLOCK_HH
#define ULP_SIM_CLOCK_HH

#include "sim/logging.hh"
#include "sim/types.hh"

namespace ulp::sim {

class ClockDomain
{
  public:
    /** @param frequency_hz clock frequency in hertz. */
    explicit ClockDomain(double frequency_hz)
        : _period(secondsToTicks(1.0 / frequency_hz))
    {
        if (frequency_hz <= 0.0)
            fatal("clock frequency must be positive (got %f)", frequency_hz);
        if (_period == 0)
            fatal("clock frequency %f Hz exceeds tick resolution",
                  frequency_hz);
    }

    /** Clock period in ticks. */
    Tick period() const { return _period; }

    /** Duration of @p cycles cycles in ticks. */
    Tick cyclesToTicks(Cycles cycles) const { return cycles * _period; }

    /** Whole cycles elapsed in @p ticks (truncating). */
    Cycles ticksToCycles(Tick ticks) const { return ticks / _period; }

    /** First clock edge at or after @p now. */
    Tick
    nextEdge(Tick now) const
    {
        Tick rem = now % _period;
        return rem == 0 ? now : now + (_period - rem);
    }

    /**
     * The edge @p cycles cycles after the first edge at or after @p now.
     * clockEdge(now, 0) == nextEdge(now).
     */
    Tick
    clockEdge(Tick now, Cycles cycles) const
    {
        return nextEdge(now) + cyclesToTicks(cycles);
    }

  private:
    Tick _period;
};

} // namespace ulp::sim

#endif // ULP_SIM_CLOCK_HH
