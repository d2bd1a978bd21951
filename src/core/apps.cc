#include "core/apps.hh"

#include "core/memory_map.hh"
#include "sim/logging.hh"

namespace ulp::core::apps {

namespace {

// ---------------------------------------------------------------------------
// Event processor ISR fragments. These mirror the paper's Figure 5 code;
// comments name the pipeline stage each ISR implements.
// ---------------------------------------------------------------------------

/** v1 send path: timer alarm -> sample -> message processor. */
const char *epTimerIsrNoFilter = R"(
; Timer interrupt: collect sensor data, stage it for packet preparation
timer_isr:
    SWITCHON SENSOR
    READ SENSOR_DATA            ; reg <- sample
    SWITCHOFF SENSOR
    SWITCHON MSGPROC
    WRITE MSG_PAYLOAD           ; payload[0] <- reg
    WRITEI MSG_PAYLOAD_LEN, 1
    WRITEI MSG_CTRL, 1          ; CMD_PREPARE
    TERMINATE
)";

/** v2 send path: the sample goes through the threshold filter first. */
const char *epTimerIsrFilter = R"(
; Timer interrupt: collect sensor data, pass it to the threshold filter
timer_isr:
    SWITCHON SENSOR
    READ SENSOR_DATA            ; reg <- sample
    SWITCHOFF SENSOR
    SWITCHON FILTER
    WRITE FILTER_DATA           ; starts the comparison (3 cycles)
    TERMINATE

; Sample met the threshold: stage it for packet preparation
filter_pass_isr:
    READ FILTER_RESULT          ; confirm the decision word
    READ FILTER_DATA            ; reg <- the filtered sample
    SWITCHON MSGPROC
    WRITE MSG_PAYLOAD
    WRITEI MSG_PAYLOAD_LEN, 1
    WRITEI MSG_CTRL, 1          ; CMD_PREPARE
    WRITEI FILTER_CTRL, 1       ; re-arm interrupt mode for the next sample
    SWITCHOFF FILTER
    TERMINATE

; Sample below threshold: nothing to send
filter_fail_isr:
    SWITCHOFF FILTER
    TERMINATE
)";

/** Message prepared: move the frame to the radio and transmit. */
const char *epTxReadyIsr = R"(
; Prepared message: move it into the radio TX FIFO and fire
txready_isr:
    SWITCHON RADIO
    WRITEI RADIO_TXLEN, 12
    TRANSFER MSG_OUTBUF, RADIO_TXFIFO, 12
    SWITCHOFF MSGPROC
    WRITEI RADIO_CTRL, 1        ; CMD_TX
    TERMINATE
)";

/** TX complete: gate the radio (send-only apps v1/v2). */
const char *epTxDoneGateRadio = R"(
txdone_isr:
    SWITCHOFF RADIO
    TERMINATE
)";

/** TX complete on a listening node: the radio must stay on. */
const char *epTxDoneKeepRadio = R"(
txdone_isr:
    TERMINATE
)";

/** v3 receive path: move the frame to the message processor. */
const char *epRxIsrs = R"(
; Radio received a frame: hand it to the message processor to classify
rxdone_isr:
    SWITCHON MSGPROC
    READ RADIO_RXLEN
    WRITE MSG_IN_LEN
    TRANSFER RADIO_RXFIFO, MSG_INBUF, 16
    WRITEI MSG_CTRL, 2          ; CMD_PROCESS_RX
    TERMINATE

; Regular message: forward it
forward_isr:
    WRITEI RADIO_TXLEN, 12
    TRANSFER MSG_OUTBUF, RADIO_TXFIFO, 12
    SWITCHOFF MSGPROC
    WRITEI RADIO_CTRL, 1        ; CMD_TX
    TERMINATE

; Duplicate or local delivery: just clean up
drop_isr:
    SWITCHOFF MSGPROC
    TERMINATE
)";

/** v4 irregular path: only the uC knows what to do. */
const char *epIrregularIsr = R"(
; Irregular message: wake the microcontroller at vector 0
irregular_isr:
    WAKEUP 0
)";

/** Watchdog bark: the uC hung and was force-reset; re-run init. */
const char *epWatchdogIsr = R"(
watchdog_isr:
    WAKEUP 7
)";

/**
 * Insert a watchdog kick at the top of the periodic timer ISR so the
 * countdown restarts as long as regular operation continues.
 */
std::string
withWatchdogKick(std::string isr_source)
{
    const std::string label = "timer_isr:";
    auto pos = isr_source.find(label);
    if (pos == std::string::npos)
        sim::fatal("timer ISR source has no timer_isr label");
    isr_source.insert(pos + label.size(),
                      "\n    WRITEI WDT_KICK, 1        ; feed the watchdog");
    return isr_source;
}

/** A fast chained tick needs only acknowledgement, no work. */
const char *epNullIsr = R"(
null_isr:
    TERMINATE
)";

std::string
epIsrBindingsV1(bool chained)
{
    std::string s;
    if (chained) {
        s += ".isr Timer0, null_isr\n"
             ".isr Timer1, timer_isr\n";
    } else {
        s += ".isr Timer0, timer_isr\n";
    }
    s += ".isr MsgTxReady, txready_isr\n"
         ".isr RadioTxDone, txdone_isr\n"
         ".isr RadioTxFail, txdone_isr\n";
    return s;
}

const char *epIsrBindingsWatchdog = ".isr Watchdog, watchdog_isr\n";

const char *epIsrBindingsFilter = R"(
.isr FilterPass, filter_pass_isr
.isr FilterFail, filter_fail_isr
)";

const char *epIsrBindingsRx = R"(
.isr RadioRxDone, rxdone_isr
.isr MsgRxForward, forward_isr
.isr MsgRxDrop, drop_isr
.isr MsgRxLocal, drop_isr
)";

const char *epIsrBindingsIrregular = R"(
.isr MsgRxIrregular, irregular_isr
)";

// ---------------------------------------------------------------------------
// Microcontroller code.
// ---------------------------------------------------------------------------

/**
 * Split the 32-bit sampling period into timer loads. Short periods use
 * timer 0 alone; longer ones run timer 0 as a fast periodic tick chained
 * into timer 1, which counts tick completions.
 */
struct TimerPlan
{
    bool chained;
    std::uint16_t load0;
    std::uint16_t load1;
};

TimerPlan
planTimers(std::uint32_t period_cycles)
{
    if (period_cycles == 0)
        period_cycles = 1;
    if (period_cycles <= 0xFFFF)
        return {false, static_cast<std::uint16_t>(period_cycles), 0};
    const std::uint64_t tick = 50'000;
    const std::uint64_t count = (period_cycles + tick - 1) / tick;
    if (count > 0xFFFF)
        sim::fatal("sampling period %u cycles exceeds the chained range",
                   period_cycles);
    return {true, static_cast<std::uint16_t>(tick),
            static_cast<std::uint16_t>(count)};
}

/** The uC parameter symbols, in ParamValues order. */
const std::vector<std::string> &
paramNames()
{
    static const std::vector<std::string> names = {
        "P_CHAINED", "P_PERIOD1_HI", "P_PERIOD1_LO", "P_PERIOD_HI",
        "P_PERIOD_LO", "P_THRESH", "P_DEST_HI", "P_DEST_LO",
        "P_MACCTRL", "P_WDT_HI", "P_WDT_LO",
    };
    return names;
}

/** Staged applications (v1-v4) arm the timer chain, MAC and watchdog
 *  their parameters ask for; the other apps ignore those settings. */
bool
isStaged(const std::string &name)
{
    return name == "app1" || name == "app2" || name == "app3" ||
           name == "app4";
}

/** The .equ block in front of every uC source: parameters, then the
 *  memory-map constants the code shares. */
std::string
mcuHeader(const ParamValues &values)
{
    std::string s;
    for (std::size_t i = 0; i < numParams; ++i) {
        s += sim::csprintf(".equ %s, %u\n", paramNames()[i].c_str(),
                           static_cast<unsigned>(values[i]));
    }
    s += sim::csprintf(
        ".equ MCU_CODE, %u\n"
        ".equ MSG_INBUF_CMD, %u\n"
        ".equ MSG_INBUF_VHI, %u\n"
        ".equ MSG_INBUF_VLO, %u\n"
        ".equ MSG_INBUF_SRC_LO, %u\n"
        ".equ MSG_INBUF_SRC_HI, %u\n"
        ".equ ACL_HI, %u\n"
        ".equ ACL_LO, %u\n"
        ".equ SCRATCH, %u\n",
        map::mcuCodeBase,
        map::msgBase + map::msgInBuf + cmdTargetOffset,
        map::msgBase + map::msgInBuf + cmdValueHiOffset,
        map::msgBase + map::msgInBuf + cmdValueLoOffset,
        map::msgBase + map::msgInBuf + 7,
        map::msgBase + map::msgInBuf + 8,
        0x00, 0x42,
        map::mcuCodeBase - 2);
    return s;
}

/**
 * System initialization (an irregular task by definition): configure the
 * slaves for the application, then go to sleep forever (regular operation
 * is entirely the EP's business).
 */
std::string
mcuInit(const AppShape &shape, bool use_filter, bool radio_rx,
        bool enable_timer)
{
    std::string s = "\n.org MCU_CODE\ninit:\n"
                    "    LDI r0, P_DEST_HI\n"
                    "    STS MSG_DEST_HI, r0\n"
                    "    LDI r0, P_DEST_LO\n"
                    "    STS MSG_DEST_LO, r0\n"
                    "    LDI r0, 1\n"
                    "    STS MSG_PAYLOAD_LEN, r0\n";
    if (shape.mac) {
        s += "    LDI r0, P_MACCTRL\n"
             "    STS RADIO_MACCTRL, r0\n";
    }
    if (use_filter) {
        s += "    LDI r0, P_THRESH\n"
             "    STS FILTER_THRESH, r0\n"
             "    LDI r0, 1\n"
             "    STS FILTER_CTRL, r0\n";
    }
    if (radio_rx) {
        s += "    LDI r0, 2\n"
             "    STS RADIO_CTRL, r0\n"; // RX on
    }
    if (enable_timer) {
        s += "    LDI r0, P_PERIOD_HI\n"
             "    STS TIMER0_LOADHI, r0\n"
             "    LDI r0, P_PERIOD_LO\n"
             "    STS TIMER0_LOADLO, r0\n";
        if (shape.chained) {
            s += "    LDI r0, P_PERIOD1_HI\n"
                 "    STS TIMER1_LOADHI, r0\n"
                 "    LDI r0, P_PERIOD1_LO\n"
                 "    STS TIMER1_LOADLO, r0\n"
                 "    LDI r0, 7\n"          // enable | reload | chain
                 "    STS TIMER1_CTRL, r0\n";
        }
        s += "    LDI r0, 3\n"              // enable | reload
             "    STS TIMER0_CTRL, r0\n";
    }
    if (shape.watchdog) {
        // Arm last so the first kick (from the timer ISR) lands well
        // inside the first countdown window.
        s += "    LDI r0, P_WDT_HI\n"
             "    STS WDT_LOADHI, r0\n"
             "    LDI r0, P_WDT_LO\n"
             "    STS WDT_LOADLO, r0\n"
             "    LDI r0, 1\n"
             "    STS WDT_CTRL, r0\n";
    }
    s += "    SLEEP\n";
    return s;
}

/**
 * v4 irregular-event handler: decode a reconfiguration command from the
 * message processor's IN buffer and apply it. MARK 1 fires after a timer
 * change, MARK 2 after a threshold change, MARK 4 after a route update
 * (measurement hooks).
 */
const char *mcuReconfigHandler = R"(
reconfig:
    LDS r0, MSG_IN_LEN          ; sanity: a command frame is >= 12 bytes
    CPI r0, 12
    JC rc_invalid
    LDS r0, MSG_INBUF           ; FCF: really a command frame?
    ANDI r0, 7
    CPI r0, 3
    JNZ rc_invalid
    LDS r0, MSG_INBUF_SRC_HI    ; authorised reconfigurer only
    CPI r0, ACL_HI
    JNZ rc_invalid
    LDS r0, MSG_INBUF_SRC_LO
    CPI r0, ACL_LO
    JNZ rc_invalid
    LDS r0, MSG_INBUF_CMD
    CPI r0, 0
    JNZ rc_not_timer
    ; --- timer period change ---
    LDS r1, MSG_INBUF_VHI
    LDS r2, MSG_INBUF_VLO
    MOV r3, r1                  ; reject a zero period
    OR r3, r2
    JZ rc_invalid
    LDI r3, 0                   ; pause while rewriting
    STS TIMER0_CTRL, r3
    STS TIMER0_LOADHI, r1
    STS TIMER0_LOADLO, r2
    LDI r3, 3                   ; restart periodic
    STS TIMER0_CTRL, r3
    MARK 1
    LDS r4, SCRATCH             ; applied-reconfigurations counter
    INC r4
    STS SCRATCH, r4
    SLEEP
rc_not_timer:
    CPI r0, 1
    JNZ rc_not_thresh
    ; --- filter threshold change ---
    LDS r1, MSG_INBUF_VHI
    STS FILTER_THRESH, r1
    MARK 2
    LDS r4, SCRATCH
    INC r4
    STS SCRATCH, r4
    SLEEP
rc_not_thresh:
    CPI r0, 2
    JNZ rc_invalid
    ; --- route update: repoint the wildcard uplink at a new parent ---
    LDS r1, MSG_INBUF_VHI
    LDS r2, MSG_INBUF_VLO
    LDI r3, 0xFF
    STS MSG_ROUTE_ORIG_HI, r3   ; wildcard origin (0xFFFF)
    STS MSG_ROUTE_ORIG_LO, r3
    STS MSG_ROUTE_NEXT_HI, r1
    STS MSG_ROUTE_NEXT_LO, r2
    LDI r3, 4                   ; CmdRouteAdd: replaces the old wildcard
    STS MSG_CTRL, r3
    STS MSG_DEST_HI, r1         ; own traffic follows the new parent too
    STS MSG_DEST_LO, r2
    MARK 4
    LDS r4, SCRATCH
    INC r4
    STS SCRATCH, r4
    SLEEP
rc_invalid:
    MARK 3
    SLEEP
)";

// ---------------------------------------------------------------------------
// Application sources.
// ---------------------------------------------------------------------------

/** Watchdog EP plumbing shared by the staged applications. */
std::string
epWatchdogParts(const AppShape &shape)
{
    if (!shape.watchdog)
        return "";
    return std::string(epWatchdogIsr) + epIsrBindingsWatchdog;
}

/** The periodic timer ISR, feeding the watchdog when one is armed. */
std::string
epTimerIsr(const char *isr, const AppShape &shape)
{
    return shape.watchdog ? withWatchdogKick(isr) : isr;
}

/** An application's fixed source: everything but the parameter block. */
struct AppSource
{
    const char *name;
    std::string ep;
    std::string mcu;
};

AppSource
appSource(const AppShape &shape)
{
    const std::string &n = shape.name;
    if (n == "app1") {
        return {"app1-sample-send",
                epTimerIsr(epTimerIsrNoFilter, shape) + epTxReadyIsr +
                    epTxDoneGateRadio + epNullIsr +
                    epIsrBindingsV1(shape.chained) + epWatchdogParts(shape),
                mcuInit(shape, false, false, true)};
    }
    if (n == "app2") {
        return {"app2-sample-filter-send",
                epTimerIsr(epTimerIsrFilter, shape) + epTxReadyIsr +
                    epTxDoneGateRadio + epNullIsr +
                    epIsrBindingsV1(shape.chained) + epIsrBindingsFilter +
                    epWatchdogParts(shape),
                mcuInit(shape, true, false, true)};
    }
    if (n == "app3") {
        return {"app3-multihop",
                epTimerIsr(epTimerIsrFilter, shape) + epTxReadyIsr +
                    epTxDoneKeepRadio + epRxIsrs + epNullIsr +
                    epIsrBindingsV1(shape.chained) + epIsrBindingsFilter +
                    epIsrBindingsRx + epWatchdogParts(shape),
                mcuInit(shape, true, true, true)};
    }
    if (n == "app4") {
        return {"app4-reconfigurable",
                epTimerIsr(epTimerIsrFilter, shape) + epTxReadyIsr +
                    epTxDoneKeepRadio + epRxIsrs + epIrregularIsr +
                    epNullIsr + epIsrBindingsV1(shape.chained) +
                    epIsrBindingsFilter + epIsrBindingsRx +
                    epIsrBindingsIrregular + epWatchdogParts(shape),
                mcuInit(shape, true, true, true) + mcuReconfigHandler};
    }
    if (n == "blink") {
        // SNAP comparison: a timer interrupt toggles an LED. The "LED" is
        // a scratch byte; the EP writes alternating values from two tiny
        // ISRs is overkill, a single WRITEI models the set-LED operation.
        return {"blink", R"(
blink_isr:
    WRITEI 0x0700, 1            ; LED register in scratch space
    TERMINATE
.isr Timer0, blink_isr
)",
                mcuInit(shape, false, false, true)};
    }
    if (n == "sense") {
        // SNAP comparison: periodically sample the ADC and feed a running
        // statistic. The threshold filter block plays the accumulator
        // role (data-processing slave), with interrupts disabled.
        return {"sense", R"(
sense_isr:
    SWITCHON SENSOR
    READ SENSOR_DATA
    SWITCHOFF SENSOR
    WRITE FILTER_DATA
    TERMINATE
.isr Timer0, sense_isr
)",
                "\n.org MCU_CODE\ninit:\n"
                "    LDI r0, 0\n"
                "    STS FILTER_CTRL, r0\n" // statistic mode: no irqs
                "    LDI r0, P_PERIOD_HI\n"
                "    STS TIMER0_LOADHI, r0\n"
                "    LDI r0, P_PERIOD_LO\n"
                "    STS TIMER0_LOADLO, r0\n"
                "    LDI r0, 3\n"
                "    STS TIMER0_CTRL, r0\n"
                "    SLEEP\n"};
    }
    // Listen-only sink: the receive pipeline of app3 with no timer,
    // filter or send path. The forward ISR stays bound so a sink given
    // routing-CAM entries can still relay (tree roots that uplink
    // elsewhere).
    return {"sink-listen",
            std::string(epTxDoneKeepRadio) + epRxIsrs +
                ".isr RadioTxDone, txdone_isr\n"
                ".isr RadioTxFail, txdone_isr\n" +
                epIsrBindingsRx,
            mcuInit(shape, false, true, false)};
}

/** Everything an install does once both programs are in SRAM. */
void
bindAndBoot(SensorNode &node, const NodeApp &app)
{
    for (const auto &[index, handler] : app.vectors)
        node.setMcuVector(index, handler);
    node.boot(app.initEntry);
}

} // namespace

AppShape
appShape(const std::string &name, const AppParams &params)
{
    if (isStaged(name)) {
        return {name, params.samplePeriodCycles > 0xFFFF,
                params.macRetries > 0, params.watchdogCycles > 0};
    }
    if (name == "blink" || name == "sense" || name == "sink")
        return {name};
    sim::fatal("unknown app '%s' (valid: app1, app2, app3, app4, blink, "
               "sense, sink)",
               name.c_str());
}

ParamValues
paramValues(const std::string &name, const AppParams &params)
{
    TimerPlan plan = planTimers(params.samplePeriodCycles);
    // The microbenchmarks and the sink model neither MAC retries nor the
    // watchdog, and their symbol tables say so.
    const bool plain = name == "blink" || name == "sink";
    const unsigned retries = plain ? 0 : params.macRetries;
    const std::uint32_t wdt_cycles = plain ? 0 : params.watchdogCycles;
    // MAC control: bits 0-2 retry budget, bit 3 auto-ACK (paired with a
    // non-zero retry budget so symmetric apps acknowledge each other).
    unsigned macctrl = retries ? (0x08u | (retries & 0x07u)) : 0;
    // Watchdog load register counts 256-cycle units; round the request up.
    std::uint32_t wdt_load = (wdt_cycles + 255) / 256;
    if (wdt_load > 0xFFFF)
        wdt_load = 0xFFFF;
    auto byte = [](unsigned v) { return static_cast<std::uint8_t>(v); };
    return {byte(plan.chained ? 1 : 0), byte(plan.load1 >> 8),
            byte(plan.load1 & 0xFF), byte(plan.load0 >> 8),
            byte(plan.load0 & 0xFF), params.threshold,
            byte(params.dest >> 8), byte(params.dest & 0xFF),
            byte(macctrl), byte(wdt_load >> 8), byte(wdt_load & 0xFF)};
}

AppImage
assembleImage(const AppShape &shape, const ParamValues &values)
{
    AppSource source = appSource(shape);
    mcu::ParamImage mcu = mcu::assembleWithParams(
        mcuHeader(values) + source.mcu, epDefaultSymbols(), paramNames());
    AppImage image;
    NodeApp &app = image.app;
    app.name = source.name;
    app.ep = epAssemble(source.ep);
    app.mcu = std::move(mcu.image);
    image.sites = std::move(mcu.sites);
    app.initEntry = app.mcu.symbol("init");
    if (app.mcu.hasSymbol("reconfig"))
        app.vectors[0] = app.mcu.symbol("reconfig");
    // A bark re-runs init (full reconfiguration) via wakeup vector 7.
    if (shape.watchdog)
        app.vectors[7] = app.initEntry;
    return image;
}

NodeApp
AppImage::stamped(const ParamValues &values) const
{
    NodeApp out = app;
    for (const mcu::ParamSite &site : sites)
        out.mcu.chunks[site.chunk].bytes[site.offset] = values[site.param];
    for (std::size_t i = 0; i < numParams; ++i)
        out.mcu.symbols[paramNames()[i]] = values[i];
    return out;
}

NodeApp
buildByName(const std::string &name, const AppParams &params)
{
    const AppShape shape = appShape(name, params);
    return assembleImage(shape, paramValues(name, params)).app;
}

NodeApp
buildApp1(const AppParams &params)
{
    return buildByName("app1", params);
}

NodeApp
buildMcuOnly(std::uint32_t period_cycles)
{
    NodeApp app;
    app.name = "mcu-only";

    // The EP only dispatches: every event wakes the microcontroller.
    app.ep = epAssemble(R"(
timer_isr:
    WAKEUP 1
txready_isr:
    WAKEUP 2
txdone_isr:
    WAKEUP 3
.isr Timer0, timer_isr
.isr MsgTxReady, txready_isr
.isr RadioTxDone, txdone_isr
)");

    std::string mc = sim::csprintf(
        ".equ MCU_CODE, %u\n"
        ".equ P_PERIOD_HI, %u\n"
        ".equ P_PERIOD_LO, %u\n",
        map::mcuCodeBase, (period_cycles >> 8) & 0xFF,
        period_cycles & 0xFF);
    mc += R"(
.org MCU_CODE
init:
    LDI r0, 1
    STS MSG_PAYLOAD_LEN, r0
    LDI r0, P_PERIOD_HI
    STS TIMER0_LOADHI, r0
    LDI r0, P_PERIOD_LO
    STS TIMER0_LOADLO, r0
    LDI r0, 3
    STS TIMER0_CTRL, r0
    SLEEP

; sample and stage the payload in software
h_timer:
    LDS r0, SENSOR_DATA
    STS MSG_PAYLOAD, r0
    LDI r0, 1
    STS MSG_CTRL, r0
    SLEEP

; move the prepared frame to the radio in software
h_txready:
    LDP p1, MSG_OUTBUF
    LDP p2, RADIO_TXFIFO
    LDI r8, 12
h_cp:
    LDX r0, p1
    STX p2, r0
    INCP p1
    INCP p2
    DEC r8
    JNZ h_cp
    LDI r0, 12
    STS RADIO_TXLEN, r0
    LDI r0, 1
    STS RADIO_CTRL, r0
    SLEEP

h_txdone:
    SLEEP
)";
    app.mcu = mcu::assemble(mc, epDefaultSymbols());
    app.initEntry = app.mcu.symbol("init");
    app.vectors[1] = app.mcu.symbol("h_timer");
    app.vectors[2] = app.mcu.symbol("h_txready");
    app.vectors[3] = app.mcu.symbol("h_txdone");
    return app;
}

NodeApp
buildApp2(const AppParams &params)
{
    return buildByName("app2", params);
}

NodeApp
buildApp3(const AppParams &params)
{
    return buildByName("app3", params);
}

NodeApp
buildApp4(const AppParams &params)
{
    return buildByName("app4", params);
}

NodeApp
buildBlink(const AppParams &params)
{
    return buildByName("blink", params);
}

NodeApp
buildSense(const AppParams &params)
{
    return buildByName("sense", params);
}

NodeApp
buildSink(const AppParams &params)
{
    return buildByName("sink", params);
}

void
install(SensorNode &node, const NodeApp &app)
{
    node.loadEpProgram(app.ep);
    node.loadMcuProgram(app.mcu);
    bindAndBoot(node, app);
}

void
install(SensorNode &node, const AppImage &image, const ParamValues &values)
{
    const NodeApp &app = image.app;
    node.loadEpProgram(app.ep);
    node.loadMcuProgram(app.mcu);
    for (const mcu::ParamSite &site : image.sites) {
        const mcu::ImageChunk &chunk = app.mcu.chunks[site.chunk];
        node.memory().poke(
            static_cast<std::uint16_t>(chunk.base + site.offset),
            values[site.param]);
    }
    bindAndBoot(node, app);
}

} // namespace ulp::core::apps
