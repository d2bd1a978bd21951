#include "core/timer_unit.hh"

#include "core/power_library.hh"
#include "sim/logging.hh"

namespace ulp::core {

namespace {

constexpr sim::StaticText fireNames[TimerUnit::numTimers] = {
    "fire0", "fire1", "fire2", "fire3"};

/** The block tracker accounts the idle/gated baseline; running timers
 *  add their share of the active draw through their own trackers. */
constexpr power::PowerModel blockModel{table5::timerBlock.idleWatts,
                                       table5::timerBlock.idleWatts,
                                       table5::timerBlock.gatedWatts};
constexpr power::PowerModel timerModel{
    (table5::timerBlock.activeWatts - table5::timerBlock.idleWatts) /
        TimerUnit::numTimers,
    0.0, 0.0};

} // namespace

TimerUnit::Timer::Timer(TimerUnit *unit, unsigned index)
    : unit(unit), index(index), fireEvent(this, fireNames[index]),
      tracker(*unit, timerModel, power::PowerState::Idle,
              "timer" + std::to_string(index))
{
}

TimerUnit::TimerUnit(sim::Simulation &simulation, const std::string &name,
                     sim::SimObject *parent, fabric::EventSource &event_port,
                     ProbeRecorder &probes, const sim::ClockDomain &clock)
    : SlaveDevice(simulation, name, parent,
                  {map::timerBase, map::timerSize}, event_port, probes, clock,
                  blockModel, true),
      timers{{{this, 0}, {this, 1}, {this, 2}, {this, 3}}}
{
}

void
TimerUnit::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statAlarms, "alarms", "alarm interrupts posted");
    v.scalar(statReconfigs, "reconfigs", "load/control register writes");
    v.scalar(statWatchdogBarks, "watchdogBarks",
             "watchdog expiries that forced a reset");
    v.scalar(statWatchdogKicks, "watchdogKicks",
             "watchdog kicks that restarted the countdown");
}

bool
TimerUnit::running(const Timer &timer) const
{
    return (timer.ctrl & ctrlEnable) != 0;
}

bool
TimerUnit::timerRunning(unsigned idx) const
{
    return running(timers.at(idx));
}

unsigned
TimerUnit::runningTimers() const
{
    unsigned n = 0;
    for (const Timer &timer : timers)
        n += running(timer) ? 1 : 0;
    return n;
}

std::uint16_t
TimerUnit::timerCount(unsigned idx) const
{
    const Timer &timer = timers.at(idx);
    if (timer.fireEvent.scheduled()) {
        sim::Tick remaining = timer.fireAt - curTick();
        return static_cast<std::uint16_t>(clock.ticksToCycles(remaining));
    }
    return timer.count;
}

std::uint8_t
TimerUnit::busRead(map::Addr offset)
{
    if (offset >= map::wdtCtrl)
        return wdtRead(offset);
    unsigned idx = offset / map::timerStride;
    map::Addr reg = offset % map::timerStride;
    if (idx >= numTimers)
        return 0xFF;
    Timer &timer = timers[idx];
    switch (reg) {
      case map::timerCtrl:
        return timer.ctrl;
      case map::timerLoadHi:
        return static_cast<std::uint8_t>(timer.load >> 8);
      case map::timerLoadLo:
        return static_cast<std::uint8_t>(timer.load & 0xFF);
      case map::timerCountHi: {
        // Standard MCU timer-latch semantics: the two byte-wide bus
        // transactions of a 16-bit COUNT read can straddle a decrement,
        // so sample the counter once and latch the low byte here.
        std::uint16_t count = timerCount(idx);
        timer.countLatchLo = static_cast<std::uint8_t>(count & 0xFF);
        return static_cast<std::uint8_t>(count >> 8);
      }
      case map::timerCountLo:
        return timer.countLatchLo;
      default:
        return 0xFF;
    }
}

void
TimerUnit::busWrite(map::Addr offset, std::uint8_t value)
{
    if (offset >= map::wdtCtrl) {
        wdtWrite(offset, value);
        return;
    }
    unsigned idx = offset / map::timerStride;
    map::Addr reg = offset % map::timerStride;
    if (idx >= numTimers)
        return;
    Timer &timer = timers[idx];
    switch (reg) {
      case map::timerCtrl:
        writeCtrl(idx, value);
        break;
      case map::timerLoadHi:
        timer.load = static_cast<std::uint16_t>(
            (timer.load & 0x00FF) | (value << 8));
        ++statReconfigs;
        recordProbe(Probe::TimerReconfigured);
        break;
      case map::timerLoadLo:
        timer.load = static_cast<std::uint16_t>(
            (timer.load & 0xFF00) | value);
        ++statReconfigs;
        recordProbe(Probe::TimerReconfigured);
        break;
      default:
        break;
    }
}

void
TimerUnit::writeCtrl(unsigned idx, std::uint8_t value)
{
    Timer &timer = timers[idx];
    bool was_running = running(timer);
    timer.ctrl = value & (ctrlEnable | ctrlReload | ctrlChain);
    bool now_running = running(timer);
    ++statReconfigs;

    if (!was_running && now_running) {
        timer.count = timer.load;
        // A free-running timer toggles its counter every cycle (active
        // power); a chained timer only decrements when its predecessor
        // completes, so it is quiescent almost always.
        timer.tracker.setState((timer.ctrl & ctrlChain)
                                   ? power::PowerState::Idle
                                   : power::PowerState::Active);
        if (!(timer.ctrl & ctrlChain))
            startCountdown(idx);
    } else if (was_running && !now_running) {
        // Pause: remember the remaining count.
        timer.count = timerCount(idx);
        stopCountdown(idx);
        timer.tracker.setState(power::PowerState::Idle);
    }
}

void
TimerUnit::startCountdown(unsigned idx)
{
    Timer &timer = timers[idx];
    if (timer.count == 0)
        timer.count = 1; // zero-load timers fire after one cycle
    timer.fireAt = curTick() + clock.cyclesToTicks(timer.count);
    eventq().reschedule(&timer.fireEvent, timer.fireAt);
}

void
TimerUnit::stopCountdown(unsigned idx)
{
    Timer &timer = timers[idx];
    if (timer.fireEvent.scheduled())
        eventq().deschedule(&timer.fireEvent);
}

void
TimerUnit::fire(unsigned idx)
{
    Timer &timer = timers[idx];
    ++statAlarms;
    postIrq(static_cast<Irq>(static_cast<unsigned>(Irq::Timer0) + idx));
    recordProbe(Probe::TimerAlarm);

    if (idx + 1 < numTimers)
        predecessorFired(idx + 1);

    if (timer.ctrl & ctrlReload) {
        timer.count = timer.load;
        if (!(timer.ctrl & ctrlChain))
            startCountdown(idx);
    } else {
        timer.ctrl &= static_cast<std::uint8_t>(~ctrlEnable);
        timer.tracker.setState(power::PowerState::Idle);
    }
}

void
TimerUnit::predecessorFired(unsigned idx)
{
    Timer &timer = timers[idx];
    if (!running(timer) || !(timer.ctrl & ctrlChain))
        return;
    if (--timer.count == 0)
        fire(idx);
}

void
TimerUnit::freeze()
{
    if (_frozen || !powered())
        return;
    _frozen = true;
    for (unsigned i = 0; i < numTimers; ++i) {
        Timer &timer = timers[i];
        if (timer.fireEvent.scheduled()) {
            timer.count = timerCount(i);
            stopCountdown(i);
        }
        timer.tracker.setState(power::PowerState::Gated);
    }
    wdtStop();
    tracker.setState(power::PowerState::Gated);
}

void
TimerUnit::thaw()
{
    if (!_frozen)
        return;
    _frozen = false;
    tracker.setState(power::PowerState::Idle);
    for (unsigned i = 0; i < numTimers; ++i) {
        Timer &timer = timers[i];
        if (!running(timer)) {
            timer.tracker.setState(power::PowerState::Idle);
            continue;
        }
        timer.tracker.setState((timer.ctrl & ctrlChain)
                                   ? power::PowerState::Idle
                                   : power::PowerState::Active);
        if (!(timer.ctrl & ctrlChain))
            startCountdown(i);
    }
    if (watchdogEnabled())
        wdtRestart();
}

// --- watchdog --------------------------------------------------------------

std::uint8_t
TimerUnit::wdtRead(map::Addr offset)
{
    switch (offset) {
      case map::wdtCtrl:
        return wdtCtrlReg;
      case map::wdtLoadHi:
        return static_cast<std::uint8_t>(wdtLoad >> 8);
      case map::wdtLoadLo:
        return static_cast<std::uint8_t>(wdtLoad & 0xFF);
      default:
        return 0xFF;
    }
}

void
TimerUnit::wdtWrite(map::Addr offset, std::uint8_t value)
{
    switch (offset) {
      case map::wdtCtrl: {
        bool was_enabled = watchdogEnabled();
        wdtCtrlReg = value & wdtEnable;
        ++statReconfigs;
        if (!was_enabled && watchdogEnabled())
            wdtRestart();
        else if (was_enabled && !watchdogEnabled())
            wdtStop();
        break;
      }
      case map::wdtLoadHi:
        wdtLoad = static_cast<std::uint16_t>(
            (wdtLoad & 0x00FF) | (value << 8));
        ++statReconfigs;
        break;
      case map::wdtLoadLo:
        wdtLoad = static_cast<std::uint16_t>((wdtLoad & 0xFF00) | value);
        ++statReconfigs;
        break;
      case map::wdtKick:
        if (watchdogEnabled()) {
            ++statWatchdogKicks;
            wdtRestart();
        }
        break;
      default:
        break;
    }
}

void
TimerUnit::wdtRestart()
{
    sim::Cycles cycles = static_cast<sim::Cycles>(
        std::max<unsigned>(wdtLoad, 1) * wdtUnitCycles);
    eventq().reschedule(&wdtEvent, curTick() + clock.cyclesToTicks(cycles));
}

void
TimerUnit::wdtStop()
{
    if (wdtEvent.scheduled())
        eventq().deschedule(&wdtEvent);
}

void
TimerUnit::wdtBark()
{
    ++statWatchdogBarks;
    recordProbe(Probe::WatchdogBark);
    // Reset the hung master first so it releases the bus, then post the
    // interrupt that lets recovery firmware run.
    if (wdtResetHook)
        wdtResetHook();
    postIrq(Irq::Watchdog);
    wdtRestart();
}

void
TimerUnit::onPowerOn()
{
    for (Timer &timer : timers)
        timer.tracker.setState(power::PowerState::Idle);
}

void
TimerUnit::onPowerOff()
{
    _frozen = false; // supply loss trumps any retention freeze
    for (unsigned i = 0; i < numTimers; ++i) {
        stopCountdown(i);
        timers[i].ctrl = 0;
        timers[i].load = 0;
        timers[i].count = 0;
        timers[i].tracker.setState(power::PowerState::Gated);
    }
    wdtStop();
    wdtCtrlReg = 0;
    wdtLoad = 0;
}

double
TimerUnit::averagePowerWatts() const
{
    double watts = tracker.averagePowerWatts();
    for (const Timer &timer : timers)
        watts += timer.tracker.averagePowerWatts();
    return watts;
}

double
TimerUnit::energyJoules() const
{
    double joules = tracker.energyJoules();
    for (const Timer &timer : timers)
        joules += timer.tracker.energyJoules();
    return joules;
}

} // namespace ulp::core
