#include "core/ep_assembler.hh"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

#include "core/components.hh"
#include "core/memory_map.hh"
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
        {"COMP_CTRL", 0x1700},
        {"COMP_STATUS", 0x1701},
        {"COMP_INLEN", 0x1702},
        {"COMP_OUTLEN", 0x1703},
        {"COMP_BATCH", 0x1704},
        {"COMP_APPEND", 0x1705},
        {"COMP_INBUF", 0x1710},
        {"COMP_OUTBUF", 0x1730},

        // Sensor/ADC.
        {"SENSOR_CTRL", static_cast<std::uint16_t>(sensorBase + sensorCtrl)},
        {"SENSOR_DATA", static_cast<std::uint16_t>(sensorBase + sensorData)},
        {"SENSOR_STATUS",
         static_cast<std::uint16_t>(sensorBase + sensorStatus)},
    };
    return symbols;
}

namespace {

struct Ctx
{
    const std::map<std::string, std::uint16_t> *defaults;
    const std::map<std::string, std::uint16_t> *extra;
    std::map<std::string, std::uint32_t> symbols;
    int lineNo = 0;

    /** Pass 1: .equ symbols whose value read a forward reference, so
     *  their pass-1 value is provisional. */
    std::set<std::string> forwardEqus;
    /** First forward (or provisional) symbol the current pass-1
     *  evaluation read; empty when the value is final. */
    mutable std::string forwardRef;

    [[noreturn]] void
    error(const std::string &message) const
    {
        sim::fatal("ep asm line %d: %s", lineNo, message.c_str());
    }

    static std::string
    trim(const std::string &s)
    {
        std::size_t b = s.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            return "";
        std::size_t e = s.find_last_not_of(" \t\r");
        return s.substr(b, e - b + 1);
    }

    bool
    lookup(const std::string &name, std::uint32_t &out) const
    {
        if (auto it = symbols.find(name); it != symbols.end()) {
            out = it->second;
            return true;
        }
        if (extra) {
            if (auto it = extra->find(name); it != extra->end()) {
                out = it->second;
                return true;
            }
        }
        if (defaults) {
            if (auto it = defaults->find(name); it != defaults->end()) {
                out = it->second;
                return true;
            }
        }
        return false;
    }

    std::uint32_t
    eval(const std::string &expr, bool final) const
    {
        std::string s = trim(expr);
        if (s.empty())
            error("empty expression");
        for (std::size_t i = s.size(); i-- > 1;) {
            if (s[i] == '+' || s[i] == '-') {
                std::uint32_t lhs = eval(s.substr(0, i), final);
                std::uint32_t rhs = eval(s.substr(i + 1), final);
                return s[i] == '+' ? lhs + rhs : lhs - rhs;
            }
        }
        if (std::isdigit(static_cast<unsigned char>(s[0]))) {
            const bool hex =
                s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
            const std::string digits = hex ? s.substr(2) : s;
            std::size_t used = 0;
            unsigned long long v = 0;
            try {
                v = std::stoull(digits, &used, hex ? 16 : 10);
            } catch (const std::exception &) {
                used = 0;
            }
            if (digits.empty() || used != digits.size() ||
                !std::isxdigit(static_cast<unsigned char>(digits[0])))
                error("bad numeric literal '" + s + "'");
            if (v > 0xFFFFFFFFull)
                error("numeric literal '" + s + "' does not fit in 32 bits");
            return static_cast<std::uint32_t>(v);
        }
        std::uint32_t value;
        if (lookup(s, value)) {
            if (!final && forwardRef.empty() && forwardEqus.count(s))
                forwardRef = s;
            return value;
        }
        if (!final) {
            if (forwardRef.empty())
                forwardRef = s;
            return 0;
        }
        error("undefined symbol '" + s + "'");
    }

    /** A 16-bit address operand; wider values are fatal, not wrapped. */
    std::uint16_t
    address(const std::string &expr) const
    {
        std::uint32_t v = eval(expr, true);
        if (v > 0xFFFF)
            error(sim::csprintf("address %#x exceeds 16 bits", v));
        return static_cast<std::uint16_t>(v);
    }
};

struct Line
{
    int lineNo;
    std::string label;
    std::string mnemonic;
    std::vector<std::string> operands;
};

std::vector<Line>
parseLines(const std::string &source, Ctx &ctx)
{
    std::vector<Line> lines;
    std::istringstream in(source);
    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        ctx.lineNo = line_no;
        std::size_t semi = raw.find(';');
        if (semi != std::string::npos)
            raw = raw.substr(0, semi);
        raw = Ctx::trim(raw);
        if (raw.empty())
            continue;

        Line line;
        line.lineNo = line_no;

        std::size_t colon = raw.find(':');
        if (colon != std::string::npos) {
            std::string head = Ctx::trim(raw.substr(0, colon));
            bool ident = !head.empty();
            for (char c : head) {
                if (!(std::isalnum(static_cast<unsigned char>(c)) ||
                      c == '_'))
                    ident = false;
            }
            if (ident) {
                line.label = head;
                raw = Ctx::trim(raw.substr(colon + 1));
            }
        }

        if (!raw.empty()) {
            std::size_t sp = raw.find_first_of(" \t");
            line.mnemonic =
                sp == std::string::npos ? raw : raw.substr(0, sp);
            std::string rest =
                sp == std::string::npos ? "" : Ctx::trim(raw.substr(sp));
            std::string cur;
            for (char c : rest) {
                if (c == ',') {
                    line.operands.push_back(Ctx::trim(cur));
                    cur.clear();
                } else {
                    cur += c;
                }
            }
            if (!Ctx::trim(cur).empty())
                line.operands.push_back(Ctx::trim(cur));
        }
        if (!line.label.empty() || !line.mnemonic.empty())
            lines.push_back(std::move(line));
    }
    return lines;
}

std::string
upper(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return s;
}

Irq
irqByName(const std::string &name, Ctx &ctx)
{
    for (unsigned code = 1; code < numIrqCodes; ++code) {
        auto irq = static_cast<Irq>(code);
        if (name == irqName(irq) && std::string(irqName(irq)) != "Unknown")
            return irq;
    }
    ctx.error("unknown interrupt name '" + name + "'");
}

} // namespace

EpProgram
epAssemble(const std::string &source,
           const std::map<std::string, std::uint16_t> &extra)
{
    Ctx ctx;
    ctx.defaults = &epDefaultSymbols();
    ctx.extra = &extra;

    std::vector<Line> lines = parseLines(source, ctx);

    // Pass 1: label addresses.
    std::uint32_t loc = map::epIsrBase;
    bool org_seen = false;
    std::uint32_t program_base = map::epIsrBase;
    for (const Line &line : lines) {
        ctx.lineNo = line.lineNo;
        if (!line.label.empty()) {
            if (ctx.symbols.count(line.label))
                ctx.error("duplicate label '" + line.label + "'");
            ctx.symbols[line.label] = loc;
        }
        if (line.mnemonic.empty())
            continue;
        std::string m = upper(line.mnemonic);
        if (m == ".ORG") {
            if (line.operands.size() != 1)
                ctx.error(".org needs one operand");
            // .org places every later label, so it must not read a symbol
            // defined further down: pass 1 would read it as 0.
            ctx.forwardRef.clear();
            loc = ctx.eval(line.operands[0], false);
            if (!ctx.forwardRef.empty()) {
                ctx.error(".org operand reads '" + ctx.forwardRef +
                          "', which is not known before this line");
            }
            if (!org_seen) {
                program_base = loc;
                org_seen = true;
            }
            continue;
        }
        if (m == ".EQU") {
            if (line.operands.size() != 2)
                ctx.error(".equ needs NAME, VALUE");
            if (ctx.symbols.count(line.operands[0]))
                ctx.error("duplicate symbol '" + line.operands[0] + "'");
            ctx.forwardRef.clear();
            ctx.symbols[line.operands[0]] =
                ctx.eval(line.operands[1], false);
            if (!ctx.forwardRef.empty())
                ctx.forwardEqus.insert(line.operands[0]);
            continue;
        }
        if (m == ".ISR")
            continue;
        auto opcode = epOpcodeByMnemonic(line.mnemonic);
        if (!opcode)
            ctx.error("unknown mnemonic '" + line.mnemonic + "'");
        loc += epInstrWords(*opcode);
        if (loc > 0x10000)
            ctx.error("program exceeds the 64 KiB address space");
    }

    // Pass 2: emit. A single contiguous chunk is supported (ISR code is
    // placed as one block); a second .org is an error.
    EpProgram program;
    program.base = static_cast<std::uint16_t>(program_base);
    int orgs = 0;
    for (const Line &line : lines) {
        ctx.lineNo = line.lineNo;
        if (line.mnemonic.empty())
            continue;
        std::string m = upper(line.mnemonic);
        if (m == ".ORG") {
            if (++orgs > 1)
                ctx.error("EP programs support a single .org");
            continue;
        }
        if (m == ".EQU") {
            ctx.symbols[line.operands[0]] = ctx.eval(line.operands[1], true);
            continue;
        }
        if (m == ".ISR") {
            if (line.operands.size() != 2)
                ctx.error(".isr needs IRQNAME, LABEL");
            Irq irq = irqByName(line.operands[0], ctx);
            program.isrBindings[irq] = ctx.address(line.operands[1]);
            continue;
        }

        auto opcode = epOpcodeByMnemonic(line.mnemonic);
        EpInstruction instr;
        instr.opcode = *opcode;
        auto need = [&](std::size_t n) {
            if (line.operands.size() != n) {
                ctx.error(std::string(epMnemonic(*opcode)) + " expects " +
                          std::to_string(n) + " operand(s)");
            }
        };
        switch (*opcode) {
          case EpOpcode::SWITCHON:
          case EpOpcode::SWITCHOFF: {
            need(1);
            std::uint32_t id = ctx.eval(line.operands[0], true);
            if (id > 31)
                ctx.error("component id out of range");
            instr.operand5 = static_cast<std::uint8_t>(id);
            break;
          }
          case EpOpcode::READ:
          case EpOpcode::WRITE:
            need(1);
            instr.addrA = ctx.address(line.operands[0]);
            break;
          case EpOpcode::WRITEI: {
            need(2);
            instr.addrA = ctx.address(line.operands[0]);
            std::uint32_t imm = ctx.eval(line.operands[1], true);
            if (imm > 31)
                ctx.error("WRITEI immediate exceeds 5 bits");
            instr.operand5 = static_cast<std::uint8_t>(imm);
            break;
          }
          case EpOpcode::TRANSFER: {
            need(3);
            instr.addrA = ctx.address(line.operands[0]);
            instr.addrB = ctx.address(line.operands[1]);
            std::uint32_t len = ctx.eval(line.operands[2], true);
            if (len < 1 || len > 32)
                ctx.error("TRANSFER length must be 1..32");
            instr.operand5 = static_cast<std::uint8_t>(len & 0x1F);
            break;
          }
          case EpOpcode::TERMINATE:
            need(0);
            break;
          case EpOpcode::WAKEUP: {
            need(1);
            std::uint32_t vec = ctx.eval(line.operands[0], true);
            if (vec > 7)
                ctx.error("WAKEUP vector must be 0..7");
            instr.vector = static_cast<std::uint8_t>(vec);
            break;
          }
        }
        std::vector<std::uint8_t> bytes = instr.encode();
        program.code.insert(program.code.end(), bytes.begin(), bytes.end());
    }

    for (const auto &[name, value] : ctx.symbols)
        program.symbols[name] = static_cast<std::uint16_t>(value);
    return program;
}

} // namespace ulp::core
