/**
 * @file
 * State-residency energy accounting.
 *
 * Each hardware component owns an EnergyTracker; whenever the component
 * changes power state the tracker closes the previous stint. Energy is the
 * integral of the per-state power over the per-state residency, matching
 * the paper's methodology of correlating component utilization with
 * circuit-level power estimates (§6.3).
 */

#ifndef ULP_POWER_ENERGY_TRACKER_HH
#define ULP_POWER_ENERGY_TRACKER_HH

#include <array>
#include <string>

#include "power/power_state.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace ulp::sim {
class TelemetrySink;
} // namespace ulp::sim

namespace ulp::power {

class EnergyTracker
{
  public:
    /**
     * @param owner component whose clock/name we follow
     * @param model per-state power draw
     * @param initial power state at construction
     */
    EnergyTracker(sim::SimObject &owner, const PowerModel &model,
                  PowerState initial = PowerState::Idle,
                  const std::string &name = "power");

    /** The telemetry energy probe holds this tracker's address. */
    EnergyTracker(const EnergyTracker &) = delete;
    EnergyTracker &operator=(const EnergyTracker &) = delete;

    /** Change state; closes the current stint at the owner's curTick(). */
    void setState(PowerState state);

    PowerState state() const { return _state; }

    const PowerModel &model() const { return _model; }

    /** Replace the power model (used by ablations); residency unaffected. */
    void setModel(const PowerModel &model) { _model = model; }

    /** Ticks spent in @p state, including the still-open stint. */
    sim::Tick residency(PowerState state) const;

    /** Total ticks observed since construction/reset. */
    sim::Tick observed() const;

    /** Integrated energy in joules, including the still-open stint. */
    double energyJoules() const;

    /** energyJoules() / observed time; 0 when no time has elapsed. */
    double averagePowerWatts() const;

    /** Fraction of observed time spent ACTIVE (the paper's "utilization"). */
    double utilization() const;

    /** Restart accounting from the owner's current tick. */
    void restart();

  private:
    sim::Tick now() const { return owner.curTick(); }

    sim::SimObject &owner;
    PowerModel _model;
    PowerState _state;
    sim::Tick stintStart;
    sim::Tick epoch;
    std::array<sim::Tick, numPowerStates> closedResidency{};

    /** Telemetry sink of the owning simulation; null when not tracing. */
    sim::TelemetrySink *obs = nullptr;
    std::uint32_t obsId = 0;
};

} // namespace ulp::power

#endif // ULP_POWER_ENERGY_TRACKER_HH
