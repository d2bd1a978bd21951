/**
 * @file
 * The generic data filter slave: "a simple threshold filter with a
 * programmable threshold" (paper §4.2.2). Writing a datum starts a
 * comparison; after the compare latency (3 system cycles in the paper's
 * workload accounting) the result register is valid and, in interrupt
 * mode, a FilterPass or FilterFail event is signalled so the EP's ISR for
 * the passing case can continue the send path.
 */

#ifndef ULP_CORE_THRESHOLD_FILTER_HH
#define ULP_CORE_THRESHOLD_FILTER_HH

#include "core/slave_device.hh"

namespace ulp::core {

class ThresholdFilter : public SlaveDevice
{
  public:
    /** Control bit: post FilterPass/FilterFail interrupts on decisions. */
    static constexpr std::uint8_t ctrlIrqMode = 0x1;

    /** Paper anchor: the filter is active 3 of the 127 send-path cycles. */
    static constexpr sim::Cycles compareCycles = 3;

    ThresholdFilter(sim::Simulation &simulation, const std::string &name,
                    sim::SimObject *parent, fabric::EventSource &event_port,
                    ProbeRecorder &probes, const sim::ClockDomain &clock);

    void visitStats(sim::stats::Visitor &v) const override;

    std::uint8_t busRead(map::Addr offset) override;
    void busWrite(map::Addr offset, std::uint8_t value) override;

    std::uint8_t threshold() const { return thresh; }
    std::uint64_t decisions() const
    {
        return static_cast<std::uint64_t>(statDecisions.value());
    }
    std::uint64_t passes() const
    {
        return static_cast<std::uint64_t>(statPasses.value());
    }

  protected:
    void onPowerOff() override;

  private:
    void decide();

    std::uint8_t thresh = 0;
    std::uint8_t datum = 0;
    std::uint8_t result = 0;
    std::uint8_t ctrl = ctrlIrqMode;
    sim::MemberEvent<&ThresholdFilter::decide> decideEvent{this, "decide"};

    sim::stats::Scalar statDecisions;
    sim::stats::Scalar statPasses;
};

} // namespace ulp::core

#endif // ULP_CORE_THRESHOLD_FILTER_HH
