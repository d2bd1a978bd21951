#include "mcu/assembler.hh"

#include <cctype>
#include <charconv>

#include "mcu/asm_source.hh"
#include "sim/logging.hh"

namespace ulp::mcu {

std::size_t
Image::sizeBytes() const
{
    std::size_t total = 0;
    for (const ImageChunk &chunk : chunks)
        total += chunk.bytes.size();
    return total;
}

std::uint16_t
Image::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        sim::fatal("image has no symbol '%s'", name.c_str());
    return it->second;
}

bool
Image::hasSymbol(const std::string &name) const
{
    return symbols.find(name) != symbols.end();
}

namespace {

using Statement = AsmSource::Statement;

/**
 * The N of operand @p token spelled @p prefix N (in either case): decimal
 * digits and nothing else, at most @p max.
 */
unsigned
indexOperand(const AsmSource &src, const std::string &token, char prefix,
             unsigned max, const char *expected)
{
    if (token.size() >= 2 &&
        std::tolower(static_cast<unsigned char>(token[0])) == prefix) {
        const char *last = token.data() + token.size();
        unsigned n = 0;
        const auto [end, ec] = std::from_chars(token.data() + 1, last, n);
        if (ec == std::errc{} && end == last && n <= max)
            return n;
    }
    src.fail(std::string("expected ") + expected + ", got '" + token + "'");
}

/** The number of operands an instruction of format @p f takes. */
std::size_t
operandCount(Format f)
{
    switch (f) {
      case Format::None:
        return 0;
      case Format::Rd:
      case Format::Pair:
      case Format::Addr:
      case Format::Imm:
        return 1;
      default:
        return 2;
    }
}

const InstrInfo &
instruction(const AsmSource &src, const Statement &st)
{
    const InstrInfo *info = instrInfoByMnemonic(st.mnemonic);
    if (!info)
        src.fail("unknown mnemonic '" + st.mnemonic + "'");
    return *info;
}

/** The µC back end: its directives and instruction formats. */
struct Encoder
{
    AsmSource &src;
    ParamImage out;
    ImageChunk chunk;

    unsigned
    reg(const std::string &op) const
    {
        return indexOperand(src, op, 'r', 15, "register r0..r15");
    }

    unsigned
    pair(const std::string &op) const
    {
        return indexOperand(src, op, 'p', 7, "pointer pair p0..p7");
    }

    std::uint32_t
    length(const Statement &st) const
    {
        if (st.is(".byte"))
            return st.operands.size();
        if (st.is(".word"))
            return st.operands.size() * 2;
        if (st.is(".space")) {
            if (st.operands.size() != 1)
                src.fail(".space needs one operand");
            return src.value(st.operands[0]);
        }
        return instruction(src, st).lengthBytes;
    }

    /** A byte operand, noting where it lands if it is a parameter. */
    void
    byte(const std::string &expr)
    {
        const int param = src.param(expr);
        if (param < 0) {
            chunk.bytes.push_back(src.byte(expr));
            return;
        }
        const std::optional<std::uint32_t> v = src.lookup(expr);
        if (!v)
            src.fail("undefined parameter '" + expr + "'");
        if (*v > 0xFF)
            src.fail("parameter '" + expr + "' does not fit in a byte");
        out.sites.push_back(
            {static_cast<std::uint32_t>(out.image.chunks.size()),
             static_cast<std::uint32_t>(chunk.bytes.size()),
             static_cast<std::uint32_t>(param)});
        chunk.bytes.push_back(static_cast<std::uint8_t>(*v));
    }

    void
    word(std::uint16_t v)
    {
        chunk.bytes.push_back(static_cast<std::uint8_t>(v >> 8));
        chunk.bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
    }

    void
    flush()
    {
        if (!chunk.bytes.empty())
            out.image.chunks.push_back(std::move(chunk));
        chunk = ImageChunk{};
    }

    void
    emit(const Statement &st)
    {
        if (st.is(".org")) {
            flush();
            chunk.base =
                static_cast<std::uint16_t>(src.value(st.operands[0]));
        } else if (st.is(".byte")) {
            for (const std::string &op : st.operands)
                byte(op);
        } else if (st.is(".word")) {
            for (const std::string &op : st.operands)
                word(src.word(op));
        } else if (st.is(".space")) {
            chunk.bytes.insert(chunk.bytes.end(), src.value(st.operands[0]),
                               0);
        } else {
            encode(st, instruction(src, st));
        }
    }

    void
    encode(const Statement &st, const InstrInfo &info)
    {
        const std::vector<std::string> &ops = st.operands;
        if (ops.size() != operandCount(info.format)) {
            src.fail(std::string(info.mnemonic) + " expects " +
                     std::to_string(operandCount(info.format)) +
                     " operand(s), got " + std::to_string(ops.size()));
        }

        chunk.bytes.push_back(static_cast<std::uint8_t>(info.opcode));
        auto pack = [&](unsigned hi, unsigned lo = 0) {
            chunk.bytes.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
        };
        switch (info.format) {
          case Format::None:
            break;
          case Format::Rd:
            pack(reg(ops[0]));
            break;
          case Format::RdRs: {
            const unsigned rd = reg(ops[0]);
            pack(rd, reg(ops[1]));
            break;
          }
          case Format::RdImm:
            pack(reg(ops[0]));
            byte(ops[1]);
            break;
          case Format::RdAddr: {
            const unsigned rd = reg(ops[0]);
            const std::uint16_t addr = src.word(ops[1]);
            pack(rd);
            word(addr);
            break;
          }
          case Format::AddrRs: {
            const std::uint16_t addr = src.word(ops[0]);
            pack(reg(ops[1]));
            word(addr);
            break;
          }
          case Format::RdPair: {
            const unsigned rd = reg(ops[0]);
            pack(rd, pair(ops[1]));
            break;
          }
          case Format::PairRs: {
            const unsigned pn = pair(ops[0]);
            pack(pn, reg(ops[1]));
            break;
          }
          case Format::PairAddr: {
            const unsigned pn = pair(ops[0]);
            const std::uint16_t addr = src.word(ops[1]);
            pack(pn);
            word(addr);
            break;
          }
          case Format::Pair:
            pack(pair(ops[0]));
            break;
          case Format::Addr:
            word(src.word(ops[0]));
            break;
          case Format::Imm:
            byte(ops[0]);
            break;
        }
    }
};

ParamImage
assembleImpl(const std::string &source,
             const std::map<std::string, std::uint16_t> &predefined,
             std::vector<std::string> params)
{
    AsmSource src("asm", source, predefined, std::move(params));
    Encoder enc{src, {}, {}};
    src.assemble(
        0, [&](const Statement &st) { return enc.length(st); },
        [&](const Statement &st) { enc.emit(st); });
    enc.flush();
    enc.out.image.symbols = src.symbols();
    return std::move(enc.out);
}

} // namespace

Image
assemble(const std::string &source,
         const std::map<std::string, std::uint16_t> &predefined)
{
    return assembleImpl(source, predefined, {}).image;
}

ParamImage
assembleWithParams(const std::string &source,
                   const std::map<std::string, std::uint16_t> &predefined,
                   const std::vector<std::string> &params)
{
    return assembleImpl(source, predefined, params);
}

std::string
disassemble(const std::uint8_t *bytes, std::size_t available)
{
    if (available == 0)
        return "<empty>";
    const InstrInfo *info = instrInfo(static_cast<Opcode>(bytes[0]));
    if (!info)
        return sim::csprintf("<bad opcode 0x%02x>", bytes[0]);
    if (available < info->lengthBytes)
        return sim::csprintf("<truncated %s>", info->mnemonic);

    auto rd = [&] { return (bytes[1] >> 4) & 0xF; };
    auto rs = [&] { return bytes[1] & 0xF; };
    auto addr_at = [&](int i) {
        return (static_cast<unsigned>(bytes[i]) << 8) | bytes[i + 1];
    };

    switch (info->format) {
      case Format::None:
        return info->mnemonic;
      case Format::Rd:
        return sim::csprintf("%s r%d", info->mnemonic, rd());
      case Format::RdRs:
        return sim::csprintf("%s r%d, r%d", info->mnemonic, rd(), rs());
      case Format::RdImm:
        return sim::csprintf("%s r%d, 0x%02x", info->mnemonic, rd(),
                             bytes[2]);
      case Format::RdAddr:
        return sim::csprintf("%s r%d, 0x%04x", info->mnemonic, rd(),
                             addr_at(2));
      case Format::AddrRs:
        return sim::csprintf("%s 0x%04x, r%d", info->mnemonic, addr_at(2),
                             rd());
      case Format::RdPair:
        return sim::csprintf("%s r%d, p%d", info->mnemonic, rd(), rs());
      case Format::PairRs:
        return sim::csprintf("%s p%d, r%d", info->mnemonic, rd(), rs());
      case Format::PairAddr:
        return sim::csprintf("%s p%d, 0x%04x", info->mnemonic, rd(),
                             addr_at(2));
      case Format::Pair:
        return sim::csprintf("%s p%d", info->mnemonic, rd());
      case Format::Addr:
        return sim::csprintf("%s 0x%04x", info->mnemonic, addr_at(1));
      case Format::Imm:
        return sim::csprintf("%s 0x%02x", info->mnemonic, bytes[1]);
    }
    return "<unreachable>";
}

} // namespace ulp::mcu
