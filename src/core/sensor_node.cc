#include "core/sensor_node.hh"

#include "sim/logging.hh"

namespace ulp::core {

SensorNode::SensorNode(sim::Simulation &simulation, const std::string &name,
                       const NodeConfig &config, net::Medium *channel)
    : sim::SimObject(simulation, name),
      cfg(config), clockDomain(config.clockHz)
{
    probeRecorder =
        std::make_unique<ProbeRecorder>(simulation, "probes", this);
    bus = std::make_unique<DataBus>(simulation, "bus", this);
    interruptBus = std::make_unique<InterruptBus>(simulation, "irqBus",
                                                  this);
    // The fabric is every slave's event port: linked events it services
    // itself, the rest fall through to the interrupt bus -> EP path.
    eventFabric = std::make_unique<fabric::EventFabric>(
        simulation, "fabric", this, *interruptBus, *probeRecorder,
        clockDomain);
    powerController =
        std::make_unique<PowerController>(simulation, "powerCtrl", this);
    powerController->setGatingDisabled(cfg.gatingDisabled);

    // Main memory: align the per-access active window to one system cycle.
    memory::Sram::Config sram_cfg;
    sram_cfg.accessTicks = clockDomain.period();
    sram = std::make_unique<memory::Sram>(simulation, "sram", sram_cfg,
                                          this);
    mainMemory = std::make_unique<MainMemory>(*sram);
    bus->addSlave(mainMemory.get());
    // By value, not unique_ptr-per-bank: at 10k-100k nodes the per-node
    // object graph is the memory bill, and these are two-word objects.
    bankPower.reserve(std::min(sram->numBanks(), 8u));
    for (unsigned bank = 0; bank < sram->numBanks() && bank < 8; ++bank) {
        bankPower.emplace_back(*sram, bank);
        powerController->registerComponent(
            static_cast<ComponentId>(static_cast<unsigned>(
                ComponentId::MemBank0) + bank),
            &bankPower.back());
    }

    timerUnit = std::make_unique<TimerUnit>(
        simulation, "timers", this, *eventFabric, *probeRecorder,
        clockDomain);
    bus->addSlave(timerUnit.get());
    powerController->registerComponent(ComponentId::Timers,
                                       timerUnit.get());

    thresholdFilter = std::make_unique<ThresholdFilter>(
        simulation, "filter", this, *eventFabric, *probeRecorder,
        clockDomain);
    bus->addSlave(thresholdFilter.get());
    powerController->registerComponent(ComponentId::Filter,
                                       thresholdFilter.get());

    messageProcessor = std::make_unique<MessageProcessor>(
        simulation, "msgProc", this, *eventFabric, *probeRecorder,
        clockDomain);
    bus->addSlave(messageProcessor.get());
    powerController->registerComponent(ComponentId::MsgProc,
                                       messageProcessor.get());

    compressorDev = std::make_unique<Compressor>(
        simulation, "compressor", this, *eventFabric, *probeRecorder,
        clockDomain);
    bus->addSlave(compressorDev.get());
    powerController->registerComponent(ComponentId::Compressor,
                                       compressorDev.get());

    // Decorrelate the MAC backoff streams of nodes sharing one config
    // seed: two nodes drawing identical backoffs would collide forever.
    radioDevice = std::make_unique<RadioDevice>(
        simulation, "radio", this, *eventFabric, *probeRecorder,
        clockDomain, cfg.radioPower, channel,
        cfg.seed + 0x9e3779b97f4a7c15ull * (cfg.address + 1));
    bus->addSlave(radioDevice.get());
    powerController->registerComponent(ComponentId::Radio,
                                       radioDevice.get());

    sensorAdc = std::make_unique<SensorAdc>(
        simulation, "sensor", this, *eventFabric, *probeRecorder,
        clockDomain, cfg.sensorSignal, cfg.sensorNoiseStddev, cfg.seed);
    bus->addSlave(sensorAdc.get());
    powerController->registerComponent(ComponentId::Sensor,
                                       sensorAdc.get());

    eventProcessor = std::make_unique<EventProcessor>(
        simulation, "ep", this, *bus, *interruptBus, *powerController,
        *probeRecorder, clockDomain);

    microcontroller = std::make_unique<Microcontroller>(
        simulation, "uC", this, *bus, *eventProcessor, *probeRecorder,
        cfg.clockHz);
    powerController->registerComponent(ComponentId::Microcontroller,
                                       microcontroller.get());
    eventProcessor->setWakeMcu(
        [this](std::uint16_t handler) { microcontroller->wake(handler); });
    eventFabric->bind(*bus, *powerController);
    eventFabric->setWakeMcu(
        [this](std::uint16_t handler) { microcontroller->wake(handler); });
    timerUnit->setWatchdogResetHook(
        [this] { microcontroller->forceReset(); });

    // Pre-configure the message processor's identity so even EP-only
    // programs produce well-formed frames; uC init code may overwrite.
    messageProcessor->busWrite(map::msgSrcHi,
                               static_cast<std::uint8_t>(cfg.address >> 8));
    messageProcessor->busWrite(map::msgSrcLo,
                               static_cast<std::uint8_t>(cfg.address));
    messageProcessor->busWrite(map::msgPanHi,
                               static_cast<std::uint8_t>(cfg.pan >> 8));
    messageProcessor->busWrite(map::msgPanLo,
                               static_cast<std::uint8_t>(cfg.pan));

    if (cfg.battery.capacityJoules > 0.0) {
        const NodeConfig::Battery &bat = cfg.battery;
        const double initial =
            bat.initialJoules < 0.0 ? bat.capacityJoules : bat.initialJoules;
        const double dt = bat.pollSeconds;
        harvestSupply = std::make_unique<power::HarvestingSupply>(
            simulation, "supply",
            std::make_unique<power::ConstantSource>(bat.harvestWatts),
            power::EnergyStore(bat.capacityJoules, initial),
            [this, dt] {
                double now = totalEnergyJoules();
                double watts = (now - supplyLastEnergy) / dt;
                supplyLastEnergy = now;
                return watts;
            },
            sim::secondsToTicks(dt), this);
        harvestSupply->setRecoverLevel(bat.reviveLevel);
        harvestSupply->onBrownOut([this] { supplyDown(); });
        if (bat.reviveLevel > 0.0) {
            harvestSupply->onRecover([this] {
                if (reviveHook)
                    reviveHook();
                else
                    supplyUp();
            });
        }
        harvestSupply->start();
    }
}

void
SensorNode::visitStats(sim::stats::Visitor &v) const
{
    // Construction order; the node itself counts nothing.
    const sim::SimObject *parts[] = {
        bus.get(), interruptBus.get(), eventFabric.get(),
        powerController.get(), sram.get(), timerUnit.get(),
        thresholdFilter.get(), messageProcessor.get(), compressorDev.get(),
        radioDevice.get(), sensorAdc.get(), eventProcessor.get(),
        microcontroller.get()};
    for (const sim::SimObject *part : parts)
        part->visitStats(v);
    if (harvestSupply)
        harvestSupply->visitStats(v);
}

void
SensorNode::loadEpProgram(const EpProgram &program)
{
    if (program.base + program.code.size() > sram->sizeBytes()) {
        sim::fatal("EP program (%zu bytes at %#x) exceeds main memory",
                   program.code.size(), program.base);
    }
    sram->loadImage(program.base,
                    std::span<const std::uint8_t>(program.code));
    for (const auto &[irq, handler] : program.isrBindings)
        setEpIsr(irq, handler);
}

void
SensorNode::loadMcuProgram(const mcu::Image &image)
{
    for (const mcu::ImageChunk &chunk : image.chunks) {
        if (chunk.base + chunk.bytes.size() > sram->sizeBytes()) {
            sim::fatal("uC chunk (%zu bytes at %#x) exceeds main memory",
                       chunk.bytes.size(), chunk.base);
        }
        sram->loadImage(chunk.base,
                        std::span<const std::uint8_t>(chunk.bytes));
    }
}

void
SensorNode::setMcuVector(std::uint8_t index, std::uint16_t handler)
{
    if (index >= 8)
        sim::fatal("uC vector index %u out of range", index);
    map::Addr entry =
        static_cast<map::Addr>(map::mcuVectorBase + 2 * index);
    sram->poke(entry, static_cast<std::uint8_t>(handler >> 8));
    sram->poke(entry + 1, static_cast<std::uint8_t>(handler & 0xFF));
}

void
SensorNode::setEpIsr(Irq irq, std::uint16_t handler)
{
    map::Addr entry = static_cast<map::Addr>(
        map::isrTableBase + 2 * static_cast<unsigned>(irq));
    sram->poke(entry, static_cast<std::uint8_t>(handler >> 8));
    sram->poke(entry + 1, static_cast<std::uint8_t>(handler & 0xFF));
}

void
SensorNode::boot(std::uint16_t init_entry)
{
    microcontroller->boot(init_entry);
}

void
SensorNode::supplyDown()
{
    if (!_alive)
        return;
    probeRecorder->record(Probe::NodeDown);
    powerDownInternal();
}

void
SensorNode::powerDownInternal()
{
    _alive = false;
    _lightSleep = false; // supply loss trumps any retention sleep
    // Masters first: a hung/running uC releases the bus, the EP aborts
    // whatever it was doing, and every pending request line goes away.
    microcontroller->forceReset();
    eventProcessor->forceIdle();
    interruptBus->clearPending();
    timerUnit->powerOff();
    thresholdFilter->powerOff();
    messageProcessor->powerOff();
    compressorDev->powerOff();
    sensorAdc->powerOff();
    radioDevice->powerOff();
    radioDevice->detachFromMedium();
    for (auto &bank : bankPower)
        bank.powerOff();
    // Full supply loss clears even the retention latches that survive
    // ordinary gating: duplicate suppression, routes, and the event
    // fabric's link CAM are gone. The owner re-arms links on revive.
    messageProcessor->clearDuplicateCam();
    messageProcessor->clearRoutes();
    eventFabric->clearLinks();
}

void
SensorNode::supplyUp()
{
    if (_alive)
        return;
    powerUpInternal();
    probeRecorder->record(Probe::NodeUp);
}

void
SensorNode::powerUpInternal()
{
    _alive = true;
    _deepSleep = false;
    for (auto &bank : bankPower)
        bank.powerOn();
    // The brown-in supervisor releases reset milliseconds after the
    // rails settle — the 950 ns bank wakeup has long elapsed by the
    // time anything here can fetch.
    for (unsigned bank = 0; bank < sram->numBanks(); ++bank)
        sram->settleBank(bank);
    timerUnit->powerOn();
    thresholdFilter->powerOn();
    messageProcessor->powerOn();
    compressorDev->powerOn();
    sensorAdc->powerOn();
    radioDevice->powerOn();
    radioDevice->attachToMedium();
    // The msgProc identity registers live in the lost domain's latches on
    // real silicon; restore them as the constructor does. uC init may
    // overwrite.
    messageProcessor->busWrite(map::msgSrcHi,
                               static_cast<std::uint8_t>(cfg.address >> 8));
    messageProcessor->busWrite(map::msgSrcLo,
                               static_cast<std::uint8_t>(cfg.address));
    messageProcessor->busWrite(map::msgPanHi,
                               static_cast<std::uint8_t>(cfg.pan >> 8));
    messageProcessor->busWrite(map::msgPanLo,
                               static_cast<std::uint8_t>(cfg.pan));
}

void
SensorNode::lightSleepEnter()
{
    if (!_alive || _lightSleep || _deepSleep)
        return;
    _lightSleep = true;
    probeRecorder->record(Probe::LightSleepEnter);
    probeRecorder->recordSleepState(sim::SleepCode::LightSleep,
                                    sim::SleepCode::Awake);
    timerUnit->freeze();
    sensorAdc->powerOff();
    thresholdFilter->powerOff();
    compressorDev->powerOff();
}

void
SensorNode::lightSleepExit()
{
    if (!_lightSleep)
        return;
    _lightSleep = false;
    sensorAdc->powerOn();
    thresholdFilter->powerOn();
    compressorDev->powerOn();
    timerUnit->thaw();
    probeRecorder->record(Probe::LightSleepExit);
    probeRecorder->recordSleepState(sim::SleepCode::Awake,
                                    sim::SleepCode::LightSleep);
}

void
SensorNode::deepSleepEnter()
{
    if (!_alive || _deepSleep)
        return;
    probeRecorder->record(Probe::DeepSleepEnter);
    probeRecorder->recordSleepState(sim::SleepCode::DeepSleep,
                                    _lightSleep ? sim::SleepCode::LightSleep
                                                : sim::SleepCode::Awake);
    _deepSleep = true;
    powerDownInternal();
}

void
SensorNode::deepSleepWake()
{
    if (!_deepSleep)
        return;
    powerUpInternal();
    // Boot firmware reads this to tell a scheduled wake from a power-on
    // or watchdog reset (powerDownInternal's forceReset latched Watchdog).
    microcontroller->latchResetReason(mcu::ResetReason::DeepSleepTimer);
    probeRecorder->record(Probe::DeepSleepExit);
    probeRecorder->recordSleepState(sim::SleepCode::Awake,
                                    sim::SleepCode::DeepSleep);
}

double
SensorNode::totalEnergyJoules() const
{
    return eventProcessor->energyTracker().energyJoules() +
           eventFabric->energyJoules() +
           timerUnit->energyJoules() +
           messageProcessor->energyJoules() +
           thresholdFilter->energyJoules() +
           compressorDev->energyJoules() +
           sram->energyJoules() +
           microcontroller->energyTracker().energyJoules() +
           radioDevice->energyJoules() +
           sensorAdc->energyJoules();
}

double
SensorNode::reserveFraction() const
{
    if (!harvestSupply)
        return 1.0;
    const power::EnergyStore &store = harvestSupply->store();
    return store.capacity() > 0.0 ? store.level() / store.capacity() : 0.0;
}

std::vector<ComponentPower>
SensorNode::powerReport() const
{
    std::vector<ComponentPower> report;
    report.push_back({"Event Processor",
                      eventProcessor->averagePowerWatts(),
                      eventProcessor->utilization(),
                      eventProcessor->energyTracker().energyJoules()});
    report.push_back({"Event Fabric", eventFabric->averagePowerWatts(),
                      eventFabric->utilization(),
                      eventFabric->energyJoules()});
    report.push_back({"Timer", timerUnit->averagePowerWatts(),
                      static_cast<double>(timerUnit->runningTimers()) /
                          TimerUnit::numTimers,
                      timerUnit->energyJoules()});
    report.push_back({"Message Processor",
                      messageProcessor->averagePowerWatts(),
                      messageProcessor->utilization(),
                      messageProcessor->energyJoules()});
    report.push_back({"Threshold Filter",
                      thresholdFilter->averagePowerWatts(),
                      thresholdFilter->utilization(),
                      thresholdFilter->energyJoules()});
    report.push_back({"Compressor", compressorDev->averagePowerWatts(),
                      compressorDev->utilization(),
                      compressorDev->energyJoules()});
    report.push_back({"Memory", sram->averagePowerWatts(), 0.0,
                      sram->energyJoules()});
    report.push_back({"uController", microcontroller->averagePowerWatts(),
                      microcontroller->utilization(),
                      microcontroller->energyTracker().energyJoules()});
    report.push_back({"Radio", radioDevice->averagePowerWatts(),
                      radioDevice->utilization(),
                      radioDevice->energyJoules()});
    report.push_back({"Sensor", sensorAdc->averagePowerWatts(),
                      sensorAdc->utilization(), sensorAdc->energyJoules()});
    return report;
}

double
SensorNode::totalAverageWatts() const
{
    return eventProcessor->averagePowerWatts() +
           eventFabric->averagePowerWatts() +
           timerUnit->averagePowerWatts() +
           messageProcessor->averagePowerWatts() +
           thresholdFilter->averagePowerWatts() +
           compressorDev->averagePowerWatts() +
           sram->averagePowerWatts() +
           microcontroller->averagePowerWatts() +
           radioDevice->averagePowerWatts() +
           sensorAdc->averagePowerWatts();
}

} // namespace ulp::core
