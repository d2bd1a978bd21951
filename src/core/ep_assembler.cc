#include "core/ep_assembler.hh"

#include "core/components.hh"
#include "core/memory_map.hh"
#include "mcu/asm_source.hh"
#include "sim/logging.hh"

namespace ulp::core {

std::uint16_t
EpProgram::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        sim::fatal("EP program has no symbol '%s'", name.c_str());
    return it->second;
}

const std::map<std::string, std::uint16_t> &
epDefaultSymbols()
{
    using namespace map;
    static const std::map<std::string, std::uint16_t> symbols = {
        // Component ids for SWITCHON/SWITCHOFF.
        {"UCONTROLLER", 0},
        {"TIMERS", 1},
        {"FILTER", 2},
        {"MSGPROC", 3},
        {"RADIO", 4},
        {"SENSOR", 5},
        {"COMPRESSOR", 6},
        {"MEMBANK0", 8}, {"MEMBANK1", 9}, {"MEMBANK2", 10},
        {"MEMBANK3", 11}, {"MEMBANK4", 12}, {"MEMBANK5", 13},
        {"MEMBANK6", 14}, {"MEMBANK7", 15},

        // Timer registers.
        {"TIMER0_CTRL", static_cast<std::uint16_t>(timerBase + timerCtrl)},
        {"TIMER0_LOADHI",
         static_cast<std::uint16_t>(timerBase + timerLoadHi)},
        {"TIMER0_LOADLO",
         static_cast<std::uint16_t>(timerBase + timerLoadLo)},
        {"TIMER1_CTRL",
         static_cast<std::uint16_t>(timerBase + timerStride + timerCtrl)},
        {"TIMER1_LOADHI",
         static_cast<std::uint16_t>(timerBase + timerStride + timerLoadHi)},
        {"TIMER1_LOADLO",
         static_cast<std::uint16_t>(timerBase + timerStride + timerLoadLo)},
        {"TIMER2_CTRL",
         static_cast<std::uint16_t>(timerBase + 2 * timerStride +
                                    timerCtrl)},
        {"TIMER3_CTRL",
         static_cast<std::uint16_t>(timerBase + 3 * timerStride +
                                    timerCtrl)},

        // Watchdog.
        {"WDT_CTRL", static_cast<std::uint16_t>(timerBase + wdtCtrl)},
        {"WDT_LOADHI", static_cast<std::uint16_t>(timerBase + wdtLoadHi)},
        {"WDT_LOADLO", static_cast<std::uint16_t>(timerBase + wdtLoadLo)},
        {"WDT_KICK", static_cast<std::uint16_t>(timerBase + wdtKick)},

        // Threshold filter.
        {"FILTER_THRESH",
         static_cast<std::uint16_t>(filterBase + filterThresh)},
        {"FILTER_DATA", static_cast<std::uint16_t>(filterBase + filterData)},
        {"FILTER_RESULT",
         static_cast<std::uint16_t>(filterBase + filterResult)},
        {"FILTER_CTRL", static_cast<std::uint16_t>(filterBase + filterCtrl)},

        // Message processor.
        {"MSG_CTRL", static_cast<std::uint16_t>(msgBase + msgCtrl)},
        {"MSG_STATUS", static_cast<std::uint16_t>(msgBase + msgStatus)},
        {"MSG_SEQ", static_cast<std::uint16_t>(msgBase + msgSeq)},
        {"MSG_SRC_HI", static_cast<std::uint16_t>(msgBase + msgSrcHi)},
        {"MSG_SRC_LO", static_cast<std::uint16_t>(msgBase + msgSrcLo)},
        {"MSG_DEST_HI", static_cast<std::uint16_t>(msgBase + msgDestHi)},
        {"MSG_DEST_LO", static_cast<std::uint16_t>(msgBase + msgDestLo)},
        {"MSG_PAYLOAD_LEN",
         static_cast<std::uint16_t>(msgBase + msgPayloadLen)},
        {"MSG_APPEND", static_cast<std::uint16_t>(msgBase + msgAppend)},
        {"MSG_BATCH", static_cast<std::uint16_t>(msgBase + msgBatch)},
        {"MSG_OUT_LEN", static_cast<std::uint16_t>(msgBase + msgOutLen)},
        {"MSG_IN_LEN", static_cast<std::uint16_t>(msgBase + msgInLen)},
        {"MSG_PAYLOAD", static_cast<std::uint16_t>(msgBase + msgPayload)},
        {"MSG_OUTBUF", static_cast<std::uint16_t>(msgBase + msgOutBuf)},
        {"MSG_INBUF", static_cast<std::uint16_t>(msgBase + msgInBuf)},
        {"MSG_ROUTE_ORIG_HI",
         static_cast<std::uint16_t>(msgBase + msgRouteOrigHi)},
        {"MSG_ROUTE_ORIG_LO",
         static_cast<std::uint16_t>(msgBase + msgRouteOrigLo)},
        {"MSG_ROUTE_NEXT_HI",
         static_cast<std::uint16_t>(msgBase + msgRouteNextHi)},
        {"MSG_ROUTE_NEXT_LO",
         static_cast<std::uint16_t>(msgBase + msgRouteNextLo)},

        // Radio.
        {"RADIO_CTRL", static_cast<std::uint16_t>(radioBase + radioCtrl)},
        {"RADIO_STATUS",
         static_cast<std::uint16_t>(radioBase + radioStatus)},
        {"RADIO_TXLEN", static_cast<std::uint16_t>(radioBase + radioTxLen)},
        {"RADIO_RXLEN", static_cast<std::uint16_t>(radioBase + radioRxLen)},
        {"RADIO_MACCTRL",
         static_cast<std::uint16_t>(radioBase + radioMacCtrl)},
        {"RADIO_TXFIFO",
         static_cast<std::uint16_t>(radioBase + radioTxFifo)},
        {"RADIO_RXFIFO",
         static_cast<std::uint16_t>(radioBase + radioRxFifo)},

        // Compressor (future-work accelerator).
        {"COMP_CTRL", static_cast<std::uint16_t>(compBase + compCtrl)},
        {"COMP_STATUS", static_cast<std::uint16_t>(compBase + compStatus)},
        {"COMP_INLEN", static_cast<std::uint16_t>(compBase + compInLen)},
        {"COMP_OUTLEN", static_cast<std::uint16_t>(compBase + compOutLen)},
        {"COMP_BATCH", static_cast<std::uint16_t>(compBase + compBatch)},
        {"COMP_APPEND", static_cast<std::uint16_t>(compBase + compAppend)},
        {"COMP_INBUF", static_cast<std::uint16_t>(compBase + compInBuf)},
        {"COMP_OUTBUF", static_cast<std::uint16_t>(compBase + compOutBuf)},

        // Sensor/ADC.
        {"SENSOR_CTRL", static_cast<std::uint16_t>(sensorBase + sensorCtrl)},
        {"SENSOR_DATA", static_cast<std::uint16_t>(sensorBase + sensorData)},
        {"SENSOR_STATUS",
         static_cast<std::uint16_t>(sensorBase + sensorStatus)},
    };
    return symbols;
}

namespace {

using Statement = mcu::AsmSource::Statement;

Irq
irqByName(const mcu::AsmSource &src, const std::string &name)
{
    for (unsigned code = 1; code < numIrqCodes; ++code) {
        auto irq = static_cast<Irq>(code);
        if (name == irqName(irq) && std::string(irqName(irq)) != "Unknown")
            return irq;
    }
    src.fail("unknown interrupt name '" + name + "'");
}

EpOpcode
opcode(const mcu::AsmSource &src, const Statement &st)
{
    const std::optional<EpOpcode> op = epOpcodeByMnemonic(st.mnemonic);
    if (!op)
        src.fail("unknown mnemonic '" + st.mnemonic + "'");
    return *op;
}

EpInstruction
encode(const mcu::AsmSource &src, const Statement &st)
{
    EpInstruction instr;
    instr.opcode = opcode(src, st);
    const std::vector<std::string> &ops = st.operands;
    auto need = [&](std::size_t n) {
        if (ops.size() != n) {
            src.fail(std::string(epMnemonic(instr.opcode)) + " expects " +
                     std::to_string(n) + " operand(s)");
        }
    };
    switch (instr.opcode) {
      case EpOpcode::SWITCHON:
      case EpOpcode::SWITCHOFF: {
        need(1);
        const std::uint32_t id = src.value(ops[0]);
        if (id > 31)
            src.fail("component id out of range");
        instr.operand5 = static_cast<std::uint8_t>(id);
        break;
      }
      case EpOpcode::READ:
      case EpOpcode::WRITE:
        need(1);
        instr.addrA = src.word(ops[0]);
        break;
      case EpOpcode::WRITEI: {
        need(2);
        instr.addrA = src.word(ops[0]);
        const std::uint32_t imm = src.value(ops[1]);
        if (imm > 31)
            src.fail("WRITEI immediate exceeds 5 bits");
        instr.operand5 = static_cast<std::uint8_t>(imm);
        break;
      }
      case EpOpcode::TRANSFER: {
        need(3);
        instr.addrA = src.word(ops[0]);
        instr.addrB = src.word(ops[1]);
        const std::uint32_t len = src.value(ops[2]);
        if (len < 1 || len > 32)
            src.fail("TRANSFER length must be 1..32");
        instr.operand5 = static_cast<std::uint8_t>(len & 0x1F);
        break;
      }
      case EpOpcode::TERMINATE:
        need(0);
        break;
      case EpOpcode::WAKEUP: {
        need(1);
        const std::uint32_t vec = src.value(ops[0]);
        if (vec > 7)
            src.fail("WAKEUP vector must be 0..7");
        instr.vector = static_cast<std::uint8_t>(vec);
        break;
      }
    }
    return instr;
}

} // namespace

EpProgram
epAssemble(const std::string &source)
{
    mcu::AsmSource src("ep asm", source, epDefaultSymbols());
    EpProgram program;
    program.base = map::epIsrBase;
    bool placed = false;
    src.assemble(
        map::epIsrBase,
        [&](const Statement &st) -> std::uint32_t {
            return st.is(".isr") ? 0 : epInstrWords(opcode(src, st));
        },
        [&](const Statement &st) {
            if (st.is(".org")) {
                // ISR code is placed as one contiguous block, from the
                // .org: code above it would load away from its labels.
                if (placed)
                    src.fail("EP programs support a single .org");
                if (!program.code.empty())
                    src.fail(".org must come before the first instruction");
                placed = true;
                program.base =
                    static_cast<std::uint16_t>(src.value(st.operands[0]));
            } else if (st.is(".isr")) {
                if (st.operands.size() != 2)
                    src.fail(".isr needs IRQNAME, LABEL");
                const Irq irq = irqByName(src, st.operands[0]);
                program.isrBindings[irq] = src.word(st.operands[1]);
            } else {
                const std::vector<std::uint8_t> bytes =
                    encode(src, st).encode();
                program.code.insert(program.code.end(), bytes.begin(),
                                    bytes.end());
            }
        });
    program.symbols = src.symbols();
    return program;
}

} // namespace ulp::core
