/**
 * @file
 * Top-level simulation context: owns the event queue. All SimObjects
 * belonging to one simulated system (which may contain many sensor
 * nodes) share one Simulation.
 */

#ifndef ULP_SIM_SIMULATION_HH
#define ULP_SIM_SIMULATION_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace ulp::sim {

class TelemetrySink;

class Simulation
{
  public:
    Simulation() = default;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    EventQueue &eventq() { return _eventq; }
    const EventQueue &eventq() const { return _eventq; }

    Tick curTick() const { return _eventq.curTick(); }

    /**
     * Telemetry sink for components built on this simulation, or null
     * (the default) when telemetry is disabled. Install before
     * constructing the components that should record — instrumentation
     * hooks latch the sink at construction time.
     */
    TelemetrySink *telemetry() const { return _telemetry; }
    void setTelemetry(TelemetrySink *sink) { _telemetry = sink; }

    /** Run until @p limit (inclusive); returns events processed. */
    std::uint64_t runUntil(Tick limit) { return _eventq.runUntil(limit); }

    /** Run for @p delta more ticks. */
    std::uint64_t
    runFor(Tick delta)
    {
        return _eventq.runUntil(curTick() + delta);
    }

    /** Run for @p seconds more simulated seconds. */
    std::uint64_t
    runForSeconds(double seconds)
    {
        return runFor(secondsToTicks(seconds));
    }

  private:
    EventQueue _eventq;
    TelemetrySink *_telemetry = nullptr;
};

} // namespace ulp::sim

#endif // ULP_SIM_SIMULATION_HH
