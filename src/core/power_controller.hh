/**
 * @file
 * The power control division of the system bus: one enable/ack handshake
 * pair per controlled component or memory segment (paper §4.3.1). The
 * handshake matters only when a component is turned on — it tells the
 * master when the component is usable; the architecture makes no
 * assumption about wakeup times, so SWITCHON stalls the event processor
 * until the acknowledgment arrives.
 */

#ifndef ULP_CORE_POWER_CONTROLLER_HH
#define ULP_CORE_POWER_CONTROLLER_HH

#include <array>

#include "core/components.hh"
#include "sim/sim_object.hh"

namespace ulp::core {

/** Implemented by every component hanging off a power enable line. */
class PowerControllable
{
  public:
    virtual ~PowerControllable() = default;

    /** Supply restored. Return the wakeup latency in ticks (ack delay). */
    virtual sim::Tick powerOn() = 0;

    /** Supply gated. State is lost where the hardware would lose it. */
    virtual void powerOff() = 0;

    /** True when currently powered. */
    virtual bool powered() const = 0;
};

class PowerController : public sim::SimObject
{
  public:
    PowerController(sim::Simulation &simulation, const std::string &name,
                    sim::SimObject *parent = nullptr);

    void visitStats(sim::stats::Visitor &v) const override;

    void registerComponent(ComponentId id, PowerControllable *component);

    /**
     * Raise the enable line for @p id.
     * @return the tick at which the component acks (is usable); the
     *         current tick when it was already on.
     */
    sim::Tick switchOn(ComponentId id);

    /** Drop the enable line for @p id. */
    void switchOff(ComponentId id);

    bool isOn(ComponentId id) const;

    /**
     * Ablation hook: when set, SWITCHOFF requests are ignored and every
     * component idles instead of gating — measuring what the paper's
     * fine-grain power management buys.
     */
    void setGatingDisabled(bool disabled) { gatingDisabled = disabled; }

    std::uint64_t switchOns() const
    {
        return static_cast<std::uint64_t>(statSwitchOns.value());
    }

  private:
    PowerControllable *component(ComponentId id, const char *what) const;

    std::array<PowerControllable *, numComponentIds> components{};
    bool gatingDisabled = false;

    sim::stats::Scalar statSwitchOns;
    sim::stats::Scalar statSwitchOffs;
    sim::stats::Scalar statRedundantOps;
};

} // namespace ulp::core

#endif // ULP_CORE_POWER_CONTROLLER_HH
