/**
 * @file
 * The node's general-purpose microcontroller (paper §4.3.2): the "last
 * resort" for computation. It is power-gated whenever idle; the event
 * processor's WAKEUP instruction powers it up at a vectored handler
 * address, it owns the data bus while awake (the EP waits), and executing
 * SLEEP powers it back down and releases the bus.
 *
 * The core is the shared U8 model configured for byte-serial bus fetch
 * (fetchCostPerByte = 1) at the 100 kHz system clock.
 */

#ifndef ULP_CORE_MICROCONTROLLER_HH
#define ULP_CORE_MICROCONTROLLER_HH

#include "core/bus.hh"
#include "core/event_processor.hh"
#include "core/memory_map.hh"
#include "core/power_controller.hh"
#include "core/probes.hh"
#include "mcu/mcu.hh"
#include "mcu/reset_reason.hh"
#include "power/energy_tracker.hh"

namespace ulp::core {

class Microcontroller : public sim::SimObject,
                        public PowerControllable,
                        public mcu::McuBus
{
  public:
    Microcontroller(sim::Simulation &simulation, const std::string &name,
                    sim::SimObject *parent, DataBus &bus,
                    EventProcessor &ep, ProbeRecorder &probes,
                    double clock_hz);

    void visitStats(sim::stats::Visitor &v) const override;

    // mcu::McuBus: every access is a system-bus transaction.
    std::uint8_t read(std::uint16_t addr) override
    {
        return bus.read(addr);
    }
    void write(std::uint16_t addr, std::uint8_t value) override
    {
        bus.write(addr, value);
    }

    // PowerControllable
    sim::Tick powerOn() override;
    void powerOff() override;
    bool powered() const override { return _powered; }

    /** EP WAKEUP path: power up and run the handler, holding the bus. */
    void wake(std::uint16_t handler);

    /** Run initialization code at boot (system reset), holding the bus. */
    void boot(std::uint16_t entry);

    /**
     * Watchdog path: stop a hung core dead, release the bus and
     * power-gate. State is lost exactly as on a normal sleep; the next
     * EP WAKEUP (e.g. from the Irq::Watchdog ISR) starts clean.
     */
    void forceReset();

    bool awake() const { return _powered && !core.sleeping(); }

    /**
     * Why the core was last (re)booted. forceReset() latches Watchdog
     * itself; the supply/sleep owners (SensorNode, Network, the sleep
     * controller) latch BrownOut / DeepSleepTimer before re-booting.
     */
    mcu::ResetReason resetReason() const { return lastResetReason; }

    void latchResetReason(mcu::ResetReason reason)
    {
        lastResetReason = reason;
    }

    const power::EnergyTracker &energyTracker() const { return tracker; }
    double averagePowerWatts() const
    {
        return tracker.averagePowerWatts();
    }
    double utilization() const { return tracker.utilization(); }

    std::uint64_t wakeups() const
    {
        return static_cast<std::uint64_t>(statWakeups.value());
    }

    std::uint64_t forcedResets() const
    {
        return static_cast<std::uint64_t>(statForcedResets.value());
    }

  private:
    void wentToSleep();

    DataBus &bus;
    EventProcessor &ep;
    ProbeRecorder &probes;
    bool _powered = false;
    mcu::ResetReason lastResetReason = mcu::ResetReason::PowerOn;

    mcu::Mcu core;
    power::EnergyTracker tracker;

    sim::stats::Scalar statWakeups;
    sim::stats::Scalar statForcedResets;
};

} // namespace ulp::core

#endif // ULP_CORE_MICROCONTROLLER_HH
