/**
 * @file
 * Tests of the event processor: ISA encode/decode round trips, the ISR
 * assembler (directives, symbols, error cases), and the state machine's
 * execution semantics — lookup, fetch/execute timing, SWITCHON stalls,
 * TRANSFER block moves, WAKEUP handoff and WAIT_BUS arbitration against
 * an awake microcontroller, and overload behaviour.
 */

#include <gtest/gtest.h>

#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::core;

// --------------------------------------------------------------------------
// ISA
// --------------------------------------------------------------------------

TEST(EpIsa, WordCountsMatchTable2)
{
    EXPECT_EQ(epInstrWords(EpOpcode::SWITCHON), 1u);
    EXPECT_EQ(epInstrWords(EpOpcode::SWITCHOFF), 1u);
    EXPECT_EQ(epInstrWords(EpOpcode::READ), 3u);
    EXPECT_EQ(epInstrWords(EpOpcode::WRITE), 3u);
    EXPECT_EQ(epInstrWords(EpOpcode::WRITEI), 3u);
    EXPECT_EQ(epInstrWords(EpOpcode::TRANSFER), 5u);
    EXPECT_EQ(epInstrWords(EpOpcode::TERMINATE), 1u);
    EXPECT_EQ(epInstrWords(EpOpcode::WAKEUP), 2u);
}

class EpIsaRoundTrip : public ::testing::TestWithParam<unsigned>
{};

TEST_P(EpIsaRoundTrip, EncodeDecodeIdentity)
{
    EpInstruction instr;
    instr.opcode = static_cast<EpOpcode>(GetParam());
    instr.operand5 = 0x15;
    instr.addrA = 0x1234;
    instr.addrB = 0x5678;
    instr.vector = 3;

    auto bytes = instr.encode();
    EXPECT_EQ(bytes.size(), epInstrWords(instr.opcode));
    auto decoded = EpInstruction::decode(bytes);
    ASSERT_TRUE(decoded);
    EXPECT_EQ(decoded->opcode, instr.opcode);
    EXPECT_EQ(decoded->operand5, instr.operand5);
    switch (instr.opcode) {
      case EpOpcode::READ:
      case EpOpcode::WRITE:
      case EpOpcode::WRITEI:
        EXPECT_EQ(decoded->addrA, instr.addrA);
        break;
      case EpOpcode::TRANSFER:
        EXPECT_EQ(decoded->addrA, instr.addrA);
        EXPECT_EQ(decoded->addrB, instr.addrB);
        break;
      case EpOpcode::WAKEUP:
        EXPECT_EQ(decoded->vector, instr.vector);
        break;
      default:
        break;
    }

    // The disassembly reassembles to the same bytes, a zero address
    // too. Only SWITCHON, SWITCHOFF, WRITEI and TRANSFER print the
    // 5-bit operand.
    EpInstruction shown = instr;
    switch (shown.opcode) {
      case EpOpcode::READ:
      case EpOpcode::WRITE:
      case EpOpcode::TERMINATE:
      case EpOpcode::WAKEUP:
        shown.operand5 = 0;
        break;
      default:
        break;
    }
    EXPECT_EQ(epAssemble(shown.toString()).code, shown.encode())
        << shown.toString();
    shown.addrA = 0;
    shown.addrB = 0;
    EXPECT_EQ(epAssemble(shown.toString()).code, shown.encode())
        << shown.toString();
    const char *const zeroText[] = {
        "SWITCHON 21",       "SWITCHOFF 21",
        "READ 0x0000",       "WRITE 0x0000",
        "WRITEI 0x0000, 21", "TRANSFER 0x0000, 0x0000, 21",
        "TERMINATE",         "WAKEUP 3"};
    EXPECT_EQ(shown.toString(), zeroText[GetParam()]);

    // Truncated input must not decode.
    bytes.pop_back();
    if (!bytes.empty()) {
        EXPECT_FALSE(EpInstruction::decode(bytes).has_value());
    }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EpIsaRoundTrip,
                         ::testing::Range(0u, 8u));

TEST(EpIsa, TransferLengthEncoding)
{
    EpInstruction instr;
    instr.opcode = EpOpcode::TRANSFER;
    instr.operand5 = 0; // means 32
    EXPECT_EQ(instr.transferLength(), 32u);
    instr.operand5 = 7;
    EXPECT_EQ(instr.transferLength(), 7u);
}

TEST(EpIsa, OversizedOperandIsFatal)
{
    EpInstruction instr;
    instr.opcode = EpOpcode::SWITCHON;
    instr.operand5 = 40;
    EXPECT_THROW(instr.encode(), sim::FatalError);
}

// --------------------------------------------------------------------------
// EP assembler
// --------------------------------------------------------------------------

TEST(EpAssembler, AssemblesFigure5StyleIsr)
{
    EpProgram program = epAssemble(R"(
timer_isr:
    SWITCHON SENSOR
    READ SENSOR_DATA
    SWITCHOFF SENSOR
    SWITCHON MSGPROC
    WRITE MSG_PAYLOAD
    WRITEI MSG_CTRL, 1
    TERMINATE
.isr Timer0, timer_isr
)");
    // 1+3+1+1+3+3+1 = 13 bytes at the default base.
    EXPECT_EQ(program.code.size(), 13u);
    EXPECT_EQ(program.base, map::epIsrBase);
    ASSERT_EQ(program.isrBindings.size(), 1u);
    EXPECT_EQ(program.isrBindings.at(Irq::Timer0), map::epIsrBase);

    auto first = EpInstruction::decode(program.code);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->opcode, EpOpcode::SWITCHON);
    EXPECT_EQ(first->operand5, 5u); // SENSOR
}

TEST(EpAssembler, ErrorsAreDiagnosed)
{
    EXPECT_THROW(epAssemble("BOGUS 1\n"), sim::FatalError);
    EXPECT_THROW(epAssemble("WRITEI MSG_CTRL, 99\n"), sim::FatalError);
    EXPECT_THROW(epAssemble("TRANSFER 0, 1, 40\n"), sim::FatalError);
    EXPECT_THROW(epAssemble("WAKEUP 9\n"), sim::FatalError);
    EXPECT_THROW(epAssemble("SWITCHON NOSUCH\n"), sim::FatalError);
    EXPECT_THROW(epAssemble(".isr NotAnIrq, x\nx: TERMINATE\n"),
                 sim::FatalError);
    EXPECT_THROW(epAssemble("READ 0x10\nREAD\n"), sim::FatalError);
}

TEST(EpAssembler, WideOperandsAreFatalNotTruncated)
{
    // Each of these used to wrap silently: READ 0x12345 read 0x2345.
    EXPECT_THROW(epAssemble("READ 0x12345\n"), sim::FatalError);
    EXPECT_THROW(epAssemble("WRITEI 0x10000, 1\n"), sim::FatalError);
    EXPECT_THROW(epAssemble("TRANSFER 0x0100, 0x10000, 4\n"),
                 sim::FatalError);
    EXPECT_THROW(epAssemble(".isr Timer0, 0x10000\n"), sim::FatalError);
    EXPECT_THROW(epAssemble("SWITCHON 4294967296\n"), sim::FatalError);
    EXPECT_THROW(epAssemble("READ 12abc\n"), sim::FatalError);
    EXPECT_THROW(epAssemble(".org 0x12345\n"), sim::FatalError);
    try {
        epAssemble("TERMINATE\nREAD 0x12345\n");
        FAIL() << "expected fatal";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
    EpProgram program = epAssemble("READ 0xFFFF\nTERMINATE\n");
    EXPECT_EQ(EpInstruction::decode(program.code)->addrA, 0xFFFF);
}

TEST(EpAssembler, DuplicateEquIsFatal)
{
    EXPECT_THROW(epAssemble(".equ A, 1\n.equ A, 2\n"), sim::FatalError);
    EXPECT_THROW(epAssemble("a:\nTERMINATE\n.equ a, 2\n"),
                 sim::FatalError);
    EXPECT_THROW(epAssemble(".equ a, 2\na:\nTERMINATE\n"),
                 sim::FatalError);
    // A default symbol is no more redefinable than a source one.
    EXPECT_THROW(epAssemble(".equ RADIO_CTRL, 0x10\nREAD RADIO_CTRL\n"),
                 sim::FatalError);
    EXPECT_THROW(epAssemble("RADIO_CTRL:\nTERMINATE\n"), sim::FatalError);
}

TEST(EpAssembler, OrgForwardReferenceIsFatal)
{
    // Pass 1 used to read the later label as 0 and misplace every label.
    try {
        epAssemble(".org start\nstart: TERMINATE\n");
        FAIL() << "expected fatal";
    } catch (const sim::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 1"), std::string::npos) << what;
        EXPECT_NE(what.find("'start'"), std::string::npos) << what;
    }
    // An .equ that reads a later symbol is provisional in pass 1 too.
    EXPECT_THROW(
        epAssemble(".equ A, B\n.org A\nTERMINATE\n.equ B, 0x0400\n"),
        sim::FatalError);
    EpProgram program = epAssemble(
        ".equ BASE, 0x0400\n.org BASE+2\nentry: TERMINATE\n");
    EXPECT_EQ(program.base, 0x0402);
    EXPECT_EQ(program.symbol("entry"), 0x0402u);
    // Code above the .org used to load at the .org while its labels
    // stayed put, so this Timer0 ISR ran TERMINATE.
    try {
        epAssemble("a: TERMINATE\n.org 0x0400\nb: WAKEUP 1\n"
                   ".isr Timer0, b\n");
        FAIL() << "expected fatal";
    } catch (const sim::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }
}

TEST(EpAssembler, SymbolArithmeticAndEqu)
{
    EpProgram program = epAssemble(
        ".equ MYREG, 0x1234\n"
        "entry:\n"
        "READ MYREG+2\n"
        "TERMINATE\n");
    auto instr = EpInstruction::decode(program.code);
    EXPECT_EQ(instr->addrA, 0x1236);
    EXPECT_EQ(program.symbol("entry"), map::epIsrBase);
    EXPECT_THROW(program.symbol("nope"), sim::FatalError);

    // The evaluator the µC assembler uses: byte selectors, parentheses
    // and characters. A wide .equ stays out of the 16-bit symbol table.
    program = epAssemble(".equ WIDE, 0x12345\n"
                         "WRITEI MSG_CTRL, lo(0x101)\n"
                         "WRITEI MSG_CTRL, hi(0x0300) + ('b' - 'a')\n");
    EXPECT_EQ(EpInstruction::decode(program.code)->operand5, 1u);
    EXPECT_EQ(EpInstruction::decode(std::span(program.code).subspan(3))
                  ->operand5,
              4u);
    EXPECT_THROW(program.symbol("WIDE"), sim::FatalError);

    // A reads B above B's own line, where B still holds pass 1's guess.
    try {
        epAssemble(".equ A, B\n.equ B, C\nREAD A\nC: TERMINATE\n");
        FAIL() << "expected fatal";
    } catch (const sim::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 1"), std::string::npos) << what;
        EXPECT_NE(what.find("'B'"), std::string::npos) << what;
    }
    program = epAssemble(".equ B, C\n.equ A, B\nREAD A\nC: TERMINATE\n");
    EXPECT_EQ(EpInstruction::decode(program.code)->addrA,
              program.symbol("C"));
}

// --------------------------------------------------------------------------
// Execution semantics
// --------------------------------------------------------------------------

namespace {

struct EpExec : ::testing::Test
{
    sim::Simulation simulation;
    NodeConfig cfg;
    std::unique_ptr<SensorNode> node;

    void
    SetUp() override
    {
        cfg.sensorSignal = [](sim::Tick) { return 0x5C; };
        node = std::make_unique<SensorNode>(simulation, "node", cfg);
    }

    void
    loadAndFire(const std::string &ep_source, Irq irq)
    {
        node->loadEpProgram(epAssemble(ep_source));
        node->irqBus().post(irq);
    }

    void advance(double seconds) { simulation.runForSeconds(seconds); }
};

} // namespace

TEST_F(EpExec, ReadWriteMovesDataThroughRegister)
{
    node->memory().poke(0x0500, 0x77);
    loadAndFire(R"(
isr:
    READ 0x0500
    WRITE 0x0501
    TERMINATE
.isr Timer0, isr
)",
                Irq::Timer0);
    advance(0.01);
    EXPECT_EQ(node->memory().peek(0x0501), 0x77);
    EXPECT_EQ(node->ep().state(), EventProcessor::State::Ready);
    EXPECT_EQ(node->ep().isrsExecuted(), 1u);
}

TEST_F(EpExec, WriteImmediatePutsOperandOnBus)
{
    loadAndFire(R"(
isr:
    WRITEI 0x0502, 21
    TERMINATE
.isr Timer0, isr
)",
                Irq::Timer0);
    advance(0.01);
    EXPECT_EQ(node->memory().peek(0x0502), 21);
}

TEST_F(EpExec, TransferMovesBlocks)
{
    for (unsigned i = 0; i < 16; ++i)
        node->memory().poke(static_cast<std::uint16_t>(0x0500 + i),
                            static_cast<std::uint8_t>(i * 3));
    loadAndFire(R"(
isr:
    TRANSFER 0x0500, 0x0600, 16
    TERMINATE
.isr Timer0, isr
)",
                Irq::Timer0);
    advance(0.01);
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(node->memory().peek(static_cast<std::uint16_t>(0x0600 + i)),
                  static_cast<std::uint8_t>(i * 3));
    }
}

TEST_F(EpExec, SwitchOnStallsForWakeupAck)
{
    node->powerCtrl().switchOff(ComponentId::Sensor);
    loadAndFire(R"(
isr:
    SWITCHON SENSOR
    READ 0x1501
    WRITE 0x0503
    TERMINATE
.isr Timer0, isr
)",
                Irq::Timer0);
    advance(0.01);
    // The read happened after the ack, so the sample is valid, not bus
    // garbage.
    EXPECT_EQ(node->memory().peek(0x0503), 0x5C);
    EXPECT_TRUE(node->powerCtrl().isOn(ComponentId::Sensor));
}

TEST_F(EpExec, BusyCyclesAreAccounted)
{
    loadAndFire(R"(
isr:
    READ 0x0500
    TERMINATE
.isr Timer0, isr
)",
                Irq::Timer0);
    advance(0.01);
    // lookup 3 + fetch 3 + exec 1 + fetch 1 + exec 1 = 9 cycles.
    EXPECT_EQ(node->ep().busyCycles(), 9u);
    EXPECT_EQ(node->ep().instructionsExecuted(), 2u);
}

TEST_F(EpExec, UnboundInterruptIsIgnoredWithWarning)
{
    sim::setQuiet(true);
    node->irqBus().post(Irq::Timer3);
    advance(0.01);
    sim::setQuiet(false);
    EXPECT_EQ(node->ep().state(), EventProcessor::State::Ready);
    EXPECT_EQ(node->ep().isrsExecuted(), 1u); // consumed, no work
}

TEST_F(EpExec, WakeupHandsOffToMcuAndWaitsForBus)
{
    // uC program: write a marker, then sleep.
    mcu::Image image = mcu::assemble(
        sim::csprintf(".org %u\n", map::mcuCodeBase) +
            "handler:\n"
            "LDI r0, 0x99\n"
            "STS 0x0504, r0\n"
            "SLEEP\n",
        epDefaultSymbols());
    node->loadMcuProgram(image);
    node->setMcuVector(2, image.symbol("handler"));

    loadAndFire(R"(
isr:
    WAKEUP 2
.isr Timer0, isr
)",
                Irq::Timer0);
    advance(0.05);
    EXPECT_EQ(node->memory().peek(0x0504), 0x99);
    EXPECT_EQ(node->micro().wakeups(), 1u);
    EXPECT_FALSE(node->micro().awake());
    EXPECT_EQ(node->probes().count(Probe::McuSlept), 1u);
}

TEST_F(EpExec, EpWaitsWhileMcuHoldsBus)
{
    // uC busy-spins for a long time before sleeping; an interrupt posted
    // meanwhile must park the EP in WAIT_BUS until the uC sleeps.
    mcu::Image image = mcu::assemble(
        sim::csprintf(".org %u\n", map::mcuCodeBase) +
            "handler:\n"
            "LDI r1, 200\n"
            "spin:\n"
            "DEC r1\n"
            "JNZ spin\n"
            "SLEEP\n",
        epDefaultSymbols());
    node->loadMcuProgram(image);
    node->setMcuVector(0, image.symbol("handler"));

    node->loadEpProgram(epAssemble(R"(
wake_isr:
    WAKEUP 0
mark_isr:
    WRITEI 0x0505, 7
    TERMINATE
.isr Timer0, wake_isr
.isr Timer1, mark_isr
)"));

    node->irqBus().post(Irq::Timer0);
    advance(0.002); // uC is awake and spinning (~1000 cycles at 100 kHz)
    EXPECT_TRUE(node->micro().awake());

    node->irqBus().post(Irq::Timer1);
    simulation.runFor(node->clock().cyclesToTicks(4));
    EXPECT_EQ(node->ep().state(), EventProcessor::State::WaitBus);
    EXPECT_EQ(node->memory().peek(0x0505), 0); // not yet serviced

    advance(0.05); // uC sleeps; EP resumes and services Timer1
    EXPECT_EQ(node->memory().peek(0x0505), 7);
    EXPECT_FALSE(node->micro().awake());
}

TEST_F(EpExec, BackToBackInterruptsServiceInPriorityOrder)
{
    loadAndFire(R"(
low_isr:
    WRITEI 0x0506, 1
    TERMINATE
high_isr:
    WRITEI 0x0507, 2
    TERMINATE
.isr RadioTxDone, low_isr
.isr Timer0, high_isr
)",
                Irq::RadioTxDone);
    node->irqBus().post(Irq::Timer0);
    // Both pending before the EP runs: Timer0 (lower code) goes first.
    // We can't observe order in memory (both complete); check the EP
    // serviced two ISRs and ended Ready.
    advance(0.01);
    EXPECT_EQ(node->ep().isrsExecuted(), 2u);
    EXPECT_EQ(node->memory().peek(0x0506), 1);
    EXPECT_EQ(node->memory().peek(0x0507), 2);
    EXPECT_EQ(node->ep().state(), EventProcessor::State::Ready);
}

TEST_F(EpExec, OverloadDropsEventsInsteadOfQueueing)
{
    // A 10-cycle periodic timer against a ~102-cycle send path: most
    // alarms find Timer0 still asserted and are dropped (paper §4.2.4).
    // With fixed-priority arbitration the always-pending Timer0 starves
    // the send pipeline entirely — overload degrades, it never queues.
    sim::setQuiet(true);
    apps::AppParams params;
    params.samplePeriodCycles = 10;
    apps::install(*node, apps::buildApp1(params));
    advance(0.1);
    sim::setQuiet(false);
    EXPECT_GT(node->irqBus().dropped(), 100u);
    EXPECT_GT(node->ep().isrsExecuted(), 100u); // still servicing
    EXPECT_LT(node->radio().framesSent(), 5u);  // starved, not crashed

    // Below saturation the pipeline flows normally.
    sim::Simulation sim2;
    NodeConfig cfg2;
    cfg2.sensorSignal = [](sim::Tick) { return 1; };
    SensorNode healthy(sim2, "healthy", cfg2);
    params.samplePeriodCycles = 200;
    apps::install(healthy, apps::buildApp1(params));
    sim2.runForSeconds(0.1);
    EXPECT_GT(healthy.radio().framesSent(), 40u);
    EXPECT_EQ(healthy.irqBus().dropped(), 0u);
}

TEST_F(EpExec, IdleEpKeepsNoEventsQueued)
{
    advance(0.001);
    std::uint64_t processed = simulation.eventq().numProcessed();
    advance(1.0); // nothing pending: the queue must stay quiet
    EXPECT_EQ(simulation.eventq().numProcessed(), processed);
}
