/**
 * @file
 * Eleven-stage ring oscillator model (paper §5.1).
 *
 * The paper's HSPICE transient runs produced per-(node, Vdd, temperature)
 * triples of {oscillation period, active power, leakage power}; leakage
 * was measured by breaking the feedback. This model produces the same
 * triples analytically: stage delay from the average drive current into
 * the stage load, active power from CV^2f switching, leakage from the off
 * devices.
 */

#ifndef ULP_TECH_RING_OSCILLATOR_HH
#define ULP_TECH_RING_OSCILLATOR_HH

#include "tech/device_model.hh"
#include "tech/tech_node.hh"

namespace ulp::tech {

struct OscillatorPoint
{
    double vdd;             ///< supply (V)
    double tempC;           ///< temperature (C)
    double periodSeconds;   ///< oscillation period T
    double activeWatts;     ///< power while oscillating
    double leakageWatts;    ///< power with feedback disabled
};

class RingOscillator
{
  public:
    static constexpr int defaultStages = 11;

    /** Fanout+wire load multiple of the stage's own gate capacitance. */
    static constexpr double loadFactor = 4.0;

    explicit RingOscillator(const TechNode &node, int stages = defaultStages)
        : device(node), stages(stages)
    {}

    /** Characterise the oscillator at one operating point. */
    OscillatorPoint evaluate(double vdd, double temp_c) const;

    /** Stage load capacitance in farads. */
    double stageLoadFarads() const;

    const DeviceModel &deviceModel() const { return device; }

  private:
    DeviceModel device;
    int stages;
};

} // namespace ulp::tech

#endif // ULP_TECH_RING_OSCILLATOR_HH
