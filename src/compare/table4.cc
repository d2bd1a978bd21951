#include "compare/table4.hh"

#include "baseline/mica2_platform.hh"
#include "baseline/minios.hh"
#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace ulp::compare {

using namespace ulp::core;

namespace {

constexpr std::uint8_t sensorValue = 200; // passes any test threshold

NodeConfig
nodeConfig()
{
    NodeConfig cfg;
    cfg.sensorSignal = [](sim::Tick) { return sensorValue; };
    return cfg;
}

/**
 * Run @p app on a fresh node for @p seconds and time the third @p from
 * -> @p to pair (steady state: every SWITCHON pays its wakeup handshake,
 * as in sustained operation).
 */
std::uint64_t
steadyStateCycles(const apps::NodeApp &app, double seconds, Probe from,
                  Probe to)
{
    ProbeLog log;
    sim::Simulation simulation;
    simulation.setTelemetry(&log);
    SensorNode node(simulation, "node", nodeConfig());
    apps::install(node, app);
    simulation.runForSeconds(seconds);

    const auto &a = log.ticks(node.probes().name(), from);
    const auto &b = log.ticks(node.probes().name(), to);
    if (a.size() < 3 || b.size() < 3) {
        sim::fatal("probe pair %u/%u has no third occurrence (%zu/%zu seen)",
                   static_cast<unsigned>(from), static_cast<unsigned>(to),
                   a.size(), b.size());
    }
    return node.cyclesBetween(a[2], b[2]);
}

/**
 * Let a node running the app that @p build makes from quiet parameters
 * (sampling effectively disabled) settle, inject @p frame, and time the
 * last @p from -> @p to pair.
 */
std::uint64_t
injectedFrameCycles(apps::NodeApp (*build)(const apps::AppParams &),
                    const net::Frame &frame, Probe from, Probe to)
{
    ProbeLog log;
    sim::Simulation simulation;
    simulation.setTelemetry(&log);
    SensorNode node(simulation, "node", nodeConfig());
    apps::AppParams params;
    params.samplePeriodCycles = 60'000;
    params.threshold = 0;
    apps::install(node, build(params));
    simulation.runForSeconds(0.01);

    node.radio().injectFrame(frame);
    simulation.runForSeconds(0.05);

    const auto &a = log.ticks(node.probes().name(), from);
    const auto &b = log.ticks(node.probes().name(), to);
    if (a.empty() || b.empty()) {
        sim::fatal("probe pair %u/%u never fired",
                   static_cast<unsigned>(from), static_cast<unsigned>(to));
    }
    return node.cyclesBetween(a.back(), b.back());
}

net::Frame
foreignDataFrame()
{
    net::Frame frame;
    frame.seq = 21;
    frame.src = 0x0042;
    frame.dest = 0x0003;
    frame.destPan = NodeConfig{}.pan;
    frame.payload = {55};
    return frame;
}

net::Frame
commandFrame(std::uint8_t target, std::uint16_t value)
{
    net::Frame cmd;
    cmd.type = net::Frame::Type::Command;
    cmd.seq = 33;
    cmd.src = 0x0042;
    cmd.dest = NodeConfig{}.address;
    cmd.destPan = NodeConfig{}.pan;
    cmd.payload = {target, static_cast<std::uint8_t>(value >> 8),
                   static_cast<std::uint8_t>(value & 0xFF)};
    return cmd;
}

} // namespace

std::uint64_t
oursSendPathCycles(bool with_filter)
{
    apps::AppParams params;
    params.samplePeriodCycles = 1000;
    params.threshold = 0; // everything passes: worst case, as in §6.3
    return steadyStateCycles(with_filter ? apps::buildApp2(params)
                                         : apps::buildApp1(params),
                             0.05, Probe::TimerAlarm, Probe::RadioTxCmd);
}

std::uint64_t
oursRegularMsgCycles()
{
    return injectedFrameCycles(apps::buildApp3, foreignDataFrame(),
                               Probe::RadioRxDone, Probe::RadioTxCmd);
}

std::uint64_t
oursIrregularMsgCycles()
{
    return injectedFrameCycles(apps::buildApp4, commandFrame(1, 150 << 8),
                               Probe::RadioRxDone, Probe::McuWoken);
}

std::uint64_t
oursTimerChangeCycles()
{
    // uC woken at the handler -> last timer load register rewritten.
    return injectedFrameCycles(apps::buildApp4, commandFrame(0, 2000),
                               Probe::McuWoken, Probe::TimerReconfigured);
}

std::uint64_t
oursThresholdChangeCycles()
{
    return injectedFrameCycles(apps::buildApp4, commandFrame(1, 99 << 8),
                               Probe::McuWoken, Probe::FilterReconfigured);
}

std::uint64_t
oursBlinkCycles()
{
    apps::AppParams params;
    params.samplePeriodCycles = 2000;
    return steadyStateCycles(apps::buildBlink(params), 0.2,
                             Probe::TimerAlarm, Probe::EpIsrEnd);
}

std::uint64_t
oursSenseCycles()
{
    apps::AppParams params;
    params.samplePeriodCycles = 2000;
    return steadyStateCycles(apps::buildSense(params), 0.2,
                             Probe::TimerAlarm, Probe::EpIsrEnd);
}

std::size_t
oursFootprintBytes()
{
    apps::NodeApp app = apps::buildApp4({});
    // EP ISR code + the bound lookup-table entries + uC code + vectors.
    std::size_t bytes = app.ep.code.size();
    bytes += 2 * app.ep.isrBindings.size();
    bytes += app.mcu.sizeBytes();
    bytes += 2 * app.vectors.size();
    return bytes;
}

// --- Mica2 -------------------------------------------------------------------

namespace {

using baseline::Mica2App;
using baseline::Mica2AppKind;
using baseline::Mica2Platform;
using baseline::MiniOsParams;
namespace mk = baseline::mark;

Mica2Platform::Config
micaConfig()
{
    Mica2Platform::Config cfg;
    cfg.sensorSignal = [](sim::Tick) { return sensorValue; };
    return cfg;
}

std::uint64_t
micaMarkDelta(Mica2AppKind kind, std::uint8_t from, std::uint8_t to,
              bool inject_data, bool inject_cmd,
              std::uint8_t cmd_target = 0)
{
    sim::Simulation simulation;
    Mica2Platform mica(simulation, "mica2", micaConfig());

    MiniOsParams params;
    if (inject_data || inject_cmd)
        params.softTimerCount = 60000; // keep sampling out of the way
    Mica2App app = baseline::buildMica2App(kind, params);
    mica.loadProgram(app.image);
    mica.start(app.entry);
    simulation.runForSeconds(0.05);

    if (inject_data) {
        net::Frame frame = foreignDataFrame();
        mica.injectFrame(frame);
    }
    if (inject_cmd) {
        net::Frame cmd = commandFrame(cmd_target, 2000);
        mica.injectFrame(cmd);
    }
    simulation.runForSeconds(0.4);

    const auto &a = mica.markCycles(from);
    const auto &b = mica.markCycles(to);
    if (a.empty() || b.empty())
        sim::fatal("mica2 marks %u/%u never fired", from, to);
    // The start mark can fire for events that never complete the segment
    // (the hardware timer ISR runs several times per sample), so pair the
    // last end mark with the latest start mark at or before it.
    std::uint64_t end = b.back();
    std::uint64_t start = 0;
    bool found = false;
    for (std::uint64_t tick : a) {
        if (tick <= end) {
            start = tick;
            found = true;
        }
    }
    if (!found)
        sim::fatal("mica2 mark %u has no start before mark %u", from, to);
    return end - start;
}

} // namespace

std::uint64_t
mica2SendPathCycles(bool with_filter)
{
    return micaMarkDelta(with_filter ? Mica2AppKind::SendFilter
                                     : Mica2AppKind::SendNoFilter,
                         mk::timerIsrEntry, mk::sendDone, false, false);
}

std::uint64_t
mica2RegularMsgCycles()
{
    return micaMarkDelta(Mica2AppKind::Multihop, mk::radioIsrEntry,
                         mk::forwardDone, true, false);
}

std::uint64_t
mica2IrregularMsgCycles()
{
    return micaMarkDelta(Mica2AppKind::Reconfigurable, mk::radioIsrEntry,
                         mk::irregularDecoded, false, true, 0);
}

std::uint64_t
mica2TimerChangeCycles()
{
    return micaMarkDelta(Mica2AppKind::Reconfigurable,
                         mk::timerChangeStart, mk::timerChangeEnd, false,
                         true, 0);
}

std::uint64_t
mica2ThresholdChangeCycles()
{
    return micaMarkDelta(Mica2AppKind::Reconfigurable,
                         mk::irregularDecoded, mk::threshChangeEnd, false,
                         true, 1);
}

std::uint64_t
mica2BlinkCycles()
{
    return micaMarkDelta(Mica2AppKind::Blink, mk::timerIsrEntry,
                         mk::blinkDone, false, false);
}

std::uint64_t
mica2SenseCycles()
{
    return micaMarkDelta(Mica2AppKind::Sense, mk::timerIsrEntry,
                         mk::senseDone, false, false);
}

std::size_t
mica2FootprintBytes()
{
    Mica2App app =
        baseline::buildMica2App(Mica2AppKind::Reconfigurable, {});
    return app.image.sizeBytes();
}

std::vector<Table4Row>
table4()
{
    return {
        {"Total send path w/out filter", mica2SendPathCycles(false),
         oursSendPathCycles(false), 1522, 102},
        {"Total send path w/ filter", mica2SendPathCycles(true),
         oursSendPathCycles(true), 1532, 127},
        {"Process regular message", mica2RegularMsgCycles(),
         oursRegularMsgCycles(), 429, 165},
        {"Process irregular message", mica2IrregularMsgCycles(),
         oursIrregularMsgCycles(), 234, 136},
        {"Timer change", mica2TimerChangeCycles(), oursTimerChangeCycles(),
         11, 114},
        {"Threshold change", mica2ThresholdChangeCycles(),
         oursThresholdChangeCycles(), 0, 0},
    };
}

} // namespace ulp::compare
