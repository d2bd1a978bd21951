/**
 * @file
 * The timer subsystem: four 16-bit countdown timers that can be chained
 * for longer intervals (paper §4.3.4). Each timer counts down from a
 * pre-configured value at the system clock and posts an alarm interrupt
 * at zero; it can be paused, disabled, and reconfigured, and with the
 * reload bit set it restarts automatically (periodic sampling). A chained
 * timer decrements once per completion of its predecessor, extending the
 * range to 32 bits per chained pair.
 *
 * Power: the Figure 6 workload keeps "one of the 4 timers always on while
 * the rest are idle"; a running timer draws a quarter of the block's
 * Table 5 active power on top of the block's idle draw.
 *
 * The block also hosts a memory-mapped watchdog (map::wdt*): a countdown
 * in units of 256 system cycles that, unless kicked, "barks" -- invoking
 * a platform reset hook (the sensor node points it at
 * Microcontroller::forceReset) and posting Irq::Watchdog so recovery
 * firmware can run. The countdown restarts after a bark so the node stays
 * protected across repeated hangs.
 */

#ifndef ULP_CORE_TIMER_UNIT_HH
#define ULP_CORE_TIMER_UNIT_HH

#include <array>
#include <functional>

#include "core/slave_device.hh"

namespace ulp::core {

class TimerUnit : public SlaveDevice
{
  public:
    static constexpr unsigned numTimers = 4;

    /** Control register bits. */
    static constexpr std::uint8_t ctrlEnable = 0x1;
    static constexpr std::uint8_t ctrlReload = 0x2;
    static constexpr std::uint8_t ctrlChain = 0x4;

    /** map::wdtCtrl bit. */
    static constexpr std::uint8_t wdtEnable = 0x1;
    /** Watchdog countdown granularity: one load count = 256 cycles. */
    static constexpr unsigned wdtUnitCycles = 256;

    TimerUnit(sim::Simulation &simulation, const std::string &name,
              sim::SimObject *parent, fabric::EventSource &event_port,
              ProbeRecorder &probes, const sim::ClockDomain &clock);

    void visitStats(sim::stats::Visitor &v) const override;

    std::uint8_t busRead(map::Addr offset) override;
    void busWrite(map::Addr offset, std::uint8_t value) override;

    double averagePowerWatts() const override;
    double energyJoules() const override;

    bool timerRunning(unsigned idx) const;
    std::uint16_t timerCount(unsigned idx) const;
    unsigned runningTimers() const;

    /** Called on a bark, before Irq::Watchdog is posted. */
    void setWatchdogResetHook(std::function<void()> hook)
    {
        wdtResetHook = std::move(hook);
    }

    /**
     * Light-sleep retention: stop the timer clocks without losing any
     * configuration. Running countdowns latch their remaining count and
     * deschedule; the watchdog pauses (it restarts its full period on
     * thaw, the usual "watchdog held in sleep" semantics). The block and
     * per-timer trackers drop to the gated draw — retention latches keep
     * state at leakage power. No-op when already frozen.
     */
    void freeze();

    /** Resume the clocks frozen by freeze(): running countdowns pick up
     *  from their latched counts. No-op when not frozen. */
    void thaw();

    bool frozen() const { return _frozen; }

    bool watchdogEnabled() const { return (wdtCtrlReg & wdtEnable) != 0; }
    std::uint64_t watchdogBarks() const
    {
        return static_cast<std::uint64_t>(statWatchdogBarks.value());
    }
    std::uint64_t watchdogKicks() const
    {
        return static_cast<std::uint64_t>(statWatchdogKicks.value());
    }

  protected:
    void onPowerOn() override;
    void onPowerOff() override;

  private:
    struct Timer
    {
        Timer(TimerUnit *unit, unsigned index);

        /** The unit's name, so the fire event reads "...timers.fire0". */
        const std::string &name() const { return unit->name(); }
        void fired() { unit->fire(index); }

        std::uint8_t ctrl = 0;
        std::uint16_t load = 0;
        std::uint16_t count = 0;
        /** COUNT low byte latched when the high byte is read, so a
         *  two-transaction 16-bit read cannot straddle a decrement. */
        std::uint8_t countLatchLo = 0;
        sim::Tick fireAt = sim::maxTick;
        TimerUnit *unit;
        unsigned index;
        sim::MemberEvent<&Timer::fired> fireEvent;
        /** This timer's share of the block's active draw. */
        power::EnergyTracker tracker;
    };

    void writeCtrl(unsigned idx, std::uint8_t value);
    void startCountdown(unsigned idx);
    void stopCountdown(unsigned idx);
    void fire(unsigned idx);
    void predecessorFired(unsigned idx);
    bool running(const Timer &timer) const;

    std::uint8_t wdtRead(map::Addr offset);
    void wdtWrite(map::Addr offset, std::uint8_t value);
    void wdtRestart();
    void wdtStop();
    void wdtBark();

    std::array<Timer, numTimers> timers;

    bool _frozen = false;

    std::uint8_t wdtCtrlReg = 0;
    std::uint16_t wdtLoad = 0;
    std::function<void()> wdtResetHook;
    sim::MemberEvent<&TimerUnit::wdtBark> wdtEvent{this, "wdtBark"};

    sim::stats::Scalar statAlarms;
    sim::stats::Scalar statReconfigs;
    sim::stats::Scalar statWatchdogBarks;
    sim::stats::Scalar statWatchdogKicks;
};

} // namespace ulp::core

#endif // ULP_CORE_TIMER_UNIT_HH
