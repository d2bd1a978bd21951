/**
 * @file
 * The sensor + ADC slave block (paper §4.2.2). Two usage modes:
 *
 *  - sample-and-hold: reading the data register converts and returns the
 *    current sensor value immediately. This is what the paper's Figure 5
 *    timer ISR does (SWITCHON, READ, SWITCHOFF);
 *  - asynchronous acquisition: writing 1 to the control register starts a
 *    conversion that completes after the acquisition latency and posts an
 *    AdcDone interrupt.
 *
 * The physical phenomenon is a host-supplied signal function of simulated
 * time plus optional Gaussian noise; workloads.hh provides generators.
 */

#ifndef ULP_CORE_SENSOR_ADC_HH
#define ULP_CORE_SENSOR_ADC_HH

#include <functional>

#include "core/slave_device.hh"
#include "sim/random.hh"

namespace ulp::core {

class SensorAdc : public SlaveDevice
{
  public:
    using Signal = std::function<std::uint8_t(sim::Tick)>;

    static constexpr sim::Cycles defaultAcquireCycles = 2;

    SensorAdc(sim::Simulation &simulation, const std::string &name,
              sim::SimObject *parent, fabric::EventSource &event_port,
              ProbeRecorder &probes, const sim::ClockDomain &clock,
              Signal signal, double noise_stddev = 0.0,
              std::uint64_t seed = 0x5e05);

    void visitStats(sim::stats::Visitor &v) const override;

    std::uint8_t busRead(map::Addr offset) override;
    void busWrite(map::Addr offset, std::uint8_t value) override;

    std::uint64_t samples() const
    {
        return static_cast<std::uint64_t>(statSamples.value());
    }

  protected:
    void onPowerOff() override;

  private:
    std::uint8_t convert();
    void acquisitionDone();

    Signal signal;
    double noiseStddev;
    sim::Random random;
    std::uint8_t held = 0;
    bool busy = false;
    bool done = false;
    sim::MemberEvent<&SensorAdc::acquisitionDone> doneEvent{this, "acqDone"};

    sim::stats::Scalar statSamples;
    sim::stats::Scalar statAcquisitions;
};

} // namespace ulp::core

#endif // ULP_CORE_SENSOR_ADC_HH
