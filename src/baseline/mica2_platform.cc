#include "baseline/mica2_platform.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace ulp::baseline {

Mica2Platform::Mica2Platform(sim::Simulation &simulation,
                             const std::string &name, const Config &config,
                             net::Channel *chan)
    : sim::SimObject(simulation, name),
      cfg(config), channel(chan),
      ramBytes(map::ramSize, 0),
      core(simulation, "cpu", *this,
           mcu::Mcu::Config{config.clockHz, /*fetchCostPerByte=*/0,
                            map::vectorBase},
           this),
      random(config.seed),
      cpuTracker(*this,
                 power::PowerModel{cpuActiveWatts, cpuPowerSaveWatts,
                                   cpuPowerDownAmps * mica2SupplyVolts},
                 power::PowerState::Active, "cpuPower"),
      radioTracker(*this,
                   power::PowerModel{radioTx0dBmAmps * mica2SupplyVolts,
                                     radioRxAmps * mica2SupplyVolts,
                                     0.0},
                   power::PowerState::Gated, "radioPower")
{
    if (channel)
        channel->attach(this);

    // The CPU idles in power-save when sleeping, active otherwise.
    core.onSleep([this] {
        cpuTracker.setState(power::PowerState::Idle);
    });
    core.setMarkCallback([this](std::uint8_t id, std::uint64_t cycles) {
        marks[id].push_back(cycles);
    });
}

void
Mica2Platform::visitStats(sim::stats::Visitor &v) const
{
    v.group(name());
    v.scalar(statTx, "framesSent", "frames transmitted");
    v.scalar(statRx, "framesReceived", "frames received");
    v.scalar(statTimerFires, "timerFires", "hardware timer interrupts");
    v.scalar(statMissed, "framesMissed", "frames arriving with RX off");
    core.visitStats(v);
}

Mica2Platform::~Mica2Platform()
{
    if (channel)
        channel->detach(this);
}

std::uint8_t
Mica2Platform::ram(std::uint16_t addr) const
{
    return ramBytes[addr];
}

std::uint8_t
Mica2Platform::read(std::uint16_t addr)
{
    using namespace map;
    if (addr < ramSize)
        return ramBytes[addr];
    switch (addr) {
      case timerCtrl:
        return timerCtrlReg;
      case timerLoadHi:
        return static_cast<std::uint8_t>(timerLoad >> 8);
      case timerLoadLo:
        return static_cast<std::uint8_t>(timerLoad & 0xFF);
      case adcStatus:
        return adcDoneFlag ? 1 : 0;
      case adcData:
        adcDoneFlag = false;
        return adcValue;
      case led:
        return ledReg;
      case radioStatus:
        return static_cast<std::uint8_t>((txBusy ? 1 : 0) |
                                         (rxReady ? 4 : 0));
      case radioRxLen:
        return rxLen;
      default:
        if (addr >= radioTxBuf && addr < radioTxBuf + 32)
            return txBuf[addr - radioTxBuf];
        if (addr >= radioRxBuf && addr < radioRxBuf + 32) {
            if (addr - radioRxBuf + 1 == rxLen)
                rxReady = false; // draining the last byte frees the FIFO
            return rxBuf[addr - radioRxBuf];
        }
        return 0xFF;
    }
}

void
Mica2Platform::write(std::uint16_t addr, std::uint8_t value)
{
    using namespace map;
    if (addr < ramSize) {
        ramBytes[addr] = value;
        return;
    }
    switch (addr) {
      case timerCtrl: {
        bool was_on = timerCtrlReg & 1;
        timerCtrlReg = value & 3;
        bool now_on = timerCtrlReg & 1;
        if (!was_on && now_on) {
            sim::Tick period = core.clock().cyclesToTicks(
                static_cast<sim::Cycles>(timerLoad) * map::timerPrescale);
            eventq().reschedule(&timerEvent, curTick() + period);
        } else if (was_on && !now_on) {
            if (timerEvent.scheduled())
                eventq().deschedule(&timerEvent);
        }
        return;
      }
      case timerLoadHi:
        timerLoad = static_cast<std::uint16_t>((timerLoad & 0x00FF) |
                                               (value << 8));
        return;
      case timerLoadLo:
        timerLoad =
            static_cast<std::uint16_t>((timerLoad & 0xFF00) | value);
        return;
      case adcCtrl:
        if ((value & 1) && !adcBusy) {
            adcBusy = true;
            adcDoneFlag = false;
            eventq().reschedule(
                &adcEvent,
                curTick() +
                    core.clock().cyclesToTicks(cfg.adcLatencyCycles));
        }
        return;
      case led:
        ledReg = value;
        return;
      case radioCmd:
        if (value == 1 && !txBusy) {
            auto frame = net::Frame::deserialize(
                std::span<const std::uint8_t>(txBuf.data(), txLen));
            txBusy = true;
            sim::Tick air = sim::secondsToTicks(
                static_cast<double>(txLen) * 8.0 /
                net::Channel::defaultBitRate);
            if (frame) {
                lastTx = *frame;
                if (channel) {
                    sim::Tick end = channel->transmit(this, *frame);
                    air = end - curTick();
                }
            }
            eventq().reschedule(&txDoneEvent, curTick() + air);
        } else if (value == 2) {
            rxEnabled = true;
            radioTracker.setState(power::PowerState::Idle); // RX listen
        } else if (value == 3) {
            rxEnabled = false;
            radioTracker.setState(power::PowerState::Gated);
        } else if (value == 4) {
            rxReady = false; // flush the RX FIFO
        }
        return;
      case radioTxLen:
        txLen = std::min<std::uint8_t>(value, 32);
        return;
      default:
        if (addr >= radioTxBuf && addr < radioTxBuf + 32)
            txBuf[addr - radioTxBuf] = value;
        return;
    }
}

void
Mica2Platform::timerFire()
{
    ++statTimerFires;
    core.raiseIrq(map::irqTimer);
    cpuTracker.setState(power::PowerState::Active);
    if (timerCtrlReg & 2) {
        sim::Tick period = core.clock().cyclesToTicks(
            static_cast<sim::Cycles>(timerLoad) * map::timerPrescale);
        eventq().reschedule(&timerEvent, curTick() + period);
    } else {
        timerCtrlReg &= 2;
    }
}

void
Mica2Platform::adcDone()
{
    adcBusy = false;
    adcDoneFlag = true;
    double v =
        cfg.sensorSignal ? static_cast<double>(cfg.sensorSignal(curTick()))
                         : 0.0;
    if (cfg.sensorNoiseStddev > 0.0)
        v += random.normal(0.0, cfg.sensorNoiseStddev);
    adcValue =
        static_cast<std::uint8_t>(std::lround(std::clamp(v, 0.0, 255.0)));
    core.raiseIrq(map::irqAdc);
    cpuTracker.setState(power::PowerState::Active);
}

void
Mica2Platform::txDone()
{
    txBusy = false;
    ++statTx;
    radioTracker.setState(rxEnabled ? power::PowerState::Idle
                                    : power::PowerState::Gated);
}

void
Mica2Platform::frameArrived(const net::Frame &frame, bool corrupted)
{
    if (!rxEnabled) {
        ++statMissed;
        return;
    }
    if (corrupted)
        return; // hardware CRC rejects it silently
    injectFrame(frame);
}

void
Mica2Platform::injectFrame(const net::Frame &frame)
{
    if (!rxEnabled || rxReady) {
        ++statMissed;
        return;
    }
    std::vector<std::uint8_t> wire = frame.serialize();
    if (wire.size() > rxBuf.size()) {
        ++statMissed;
        return;
    }
    std::copy(wire.begin(), wire.end(), rxBuf.begin());
    rxLen = static_cast<std::uint8_t>(wire.size());
    rxReady = true;
    ++statRx;
    core.raiseIrq(map::irqRadioRx);
    cpuTracker.setState(power::PowerState::Active);
}

void
Mica2Platform::loadProgram(const mcu::Image &image)
{
    for (const mcu::ImageChunk &chunk : image.chunks) {
        if (chunk.base + chunk.bytes.size() > ramBytes.size()) {
            sim::fatal("Mica2 image chunk (%zu bytes at %#x) exceeds RAM",
                       chunk.bytes.size(), chunk.base);
        }
        std::copy(chunk.bytes.begin(), chunk.bytes.end(),
                  ramBytes.begin() + chunk.base);
    }
}

void
Mica2Platform::start(std::uint16_t entry)
{
    core.reset(entry);
    core.setSp(map::stackTop);
    cpuTracker.setState(power::PowerState::Active);
    core.start();
}

const std::vector<std::uint64_t> &
Mica2Platform::markCycles(std::uint8_t id) const
{
    static const std::vector<std::uint64_t> empty;
    auto it = marks.find(id);
    return it == marks.end() ? empty : it->second;
}

std::uint64_t
Mica2Platform::cyclesBetweenMarks(std::uint8_t start, std::uint8_t end,
                                  std::size_t occurrence) const
{
    const auto &s = markCycles(start);
    const auto &e = markCycles(end);
    if (occurrence >= s.size() || occurrence >= e.size())
        sim::fatal("marks %u/%u have no occurrence %zu", start, end,
                   occurrence);
    return e[occurrence] - s[occurrence];
}

} // namespace ulp::baseline
