/**
 * @file
 * Common behaviour of the memory-mapped slave accelerators: an address
 * range on the data bus, a typed event port (routed by the fabric to a
 * linked sink or down to the interrupt bus), a power enable
 * handshake, and active/idle/gated energy accounting. Every slave is
 * "nearly invisible during the entire lifetime of the application" when
 * gated (paper §4.2.6).
 */

#ifndef ULP_CORE_SLAVE_DEVICE_HH
#define ULP_CORE_SLAVE_DEVICE_HH

#include "core/bus.hh"
#include "core/power_controller.hh"
#include "core/probes.hh"
#include "fabric/event_port.hh"
#include "power/energy_tracker.hh"
#include "sim/clock.hh"

namespace ulp::core {

class SlaveDevice : public sim::SimObject,
                    public BusSlave,
                    public PowerControllable
{
  public:
    /** Wakeup ack latency of every slave accelerator (sub-cycle, like
     *  the SRAM's 950 ns bank wake). */
    static constexpr sim::Tick wakeupTicks = 950;

    SlaveDevice(sim::Simulation &simulation, const std::string &name,
                sim::SimObject *parent, map::Window range,
                fabric::EventSource &event_port, ProbeRecorder &probes,
                const sim::ClockDomain &clock,
                const power::PowerModel &model, bool initially_powered);

    // BusSlave
    map::Window addrRange() const override { return range; }

    // PowerControllable
    sim::Tick powerOn() override;
    void powerOff() override;
    bool powered() const override { return _powered; }

    /** Average power including all of this device's trackers. */
    virtual double averagePowerWatts() const
    {
        return tracker.averagePowerWatts();
    }

    virtual double energyJoules() const { return tracker.energyJoules(); }

    /** Fraction of time spent switching. */
    virtual double utilization() const { return tracker.utilization(); }

    const power::EnergyTracker &energyTracker() const { return tracker; }

    // --- fault injection ---------------------------------------------------

    /**
     * Wedge the device: it stops responding on the bus (reads 0xFF --
     * every busy bit stuck set -- writes dropped) until the fault lapses.
     * @param duration ticks to stay wedged; 0 latches until clearWedge().
     */
    void injectWedge(sim::Tick duration = 0);

    void clearWedge();

    bool busWedged() const { return wedgedAt(curTick()); }

    /**
     * Slow the device's internal command processing by @p factor >= 1
     * (marginal supply / aging fault). Subclasses with timed commands
     * scale their costs by faultSlowdown().
     */
    void setFaultSlowdown(double factor);

    double faultSlowdown() const { return slowdownFactor; }

  protected:
    /** State lost on gating / restored work on power-up. */
    virtual void onPowerOn() {}
    virtual void onPowerOff() {}

    /**
     * The resting power state while powered and not Active. Idle for
     * ordinary slaves; the radio overrides this to Gated while its MAC
     * sleeps between 802.15.4 superframes, so the duty-cycled ledger is
     * right even when an active stint ends mid-sleep.
     */
    virtual power::PowerState restingState() const
    {
        return power::PowerState::Idle;
    }

    /** Emit a transition on the SleepState telemetry channel. */
    void
    recordSleepState(sim::SleepCode now, sim::SleepCode was)
    {
        probes.recordSleepState(now, was);
    }

    /** Raise a plain event on this device's request line. */
    void postIrq(Irq irq) { port.raise({irq, 0, false}); }

    /**
     * Raise an event that carries its datum (an ADC sample, a filter
     * input), so a fabric link can consume it without re-reading the
     * device over the data bus.
     */
    void raiseEvent(Irq irq, std::uint8_t datum)
    {
        port.raise({irq, datum, true});
    }

    void
    recordProbe(Probe probe)
    {
        probes.record(probe);
    }

    /**
     * Account the device as ACTIVE for @p cycles system cycles starting
     * now (extends any ongoing active stint).
     */
    void beActiveFor(sim::Cycles cycles);

    sim::Tick cyclesToTicks(sim::Cycles c) const
    {
        return clock.cyclesToTicks(c);
    }

    const sim::ClockDomain &clock;
    power::EnergyTracker tracker;

  private:
    void becomeIdle();

    map::Window range;
    fabric::EventSource &port;
    ProbeRecorder &probes;
    bool _powered;
    sim::Tick activeUntil = 0;
    sim::MemberEvent<&SlaveDevice::becomeIdle> idleEvent{this, "idle"};
    double slowdownFactor = 1.0;
};

} // namespace ulp::core

#endif // ULP_CORE_SLAVE_DEVICE_HH
