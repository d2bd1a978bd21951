#include "mcu/asm_source.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

#include "sim/ini.hh"
#include "sim/logging.hh"

namespace ulp::mcu {

namespace {

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

bool
isIdentifier(const std::string &s)
{
    return !s.empty() && std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isalnum(c) || c == '_';
    });
}

} // namespace

bool
AsmSource::Statement::is(std::string_view name) const
{
    return lower(mnemonic) == name;
}

AsmSource::AsmSource(std::string what_, const std::string &text,
                     const Symbols &predefined_,
                     std::vector<std::string> params_)
    : what(std::move(what_)), predefined(predefined_),
      params(std::move(params_))
{
    std::istringstream in(text);
    std::string raw;
    for (int line_no = 1; std::getline(in, raw); ++line_no) {
        std::string rest = sim::ini::trim(raw.substr(0, raw.find(';')));
        Statement st;
        st.line = line_no;
        // A label is the first token, an identifier followed by ':'.
        if (const auto colon = rest.find(':'); colon != std::string::npos) {
            std::string head = sim::ini::trim(rest.substr(0, colon));
            if (isIdentifier(head)) {
                st.label = std::move(head);
                rest = sim::ini::trim(rest.substr(colon + 1));
            }
        }
        const auto space = rest.find_first_of(" \t");
        st.mnemonic = rest.substr(0, space);
        if (space != std::string::npos) {
            int depth = 0;
            std::string operand;
            for (const char c : rest.substr(space)) {
                depth += (c == '(') - (c == ')');
                if (c == ',' && depth == 0) {
                    st.operands.push_back(sim::ini::trim(operand));
                    operand.clear();
                } else {
                    operand += c;
                }
            }
            if (!sim::ini::trim(operand).empty())
                st.operands.push_back(sim::ini::trim(operand));
        }
        if (!st.label.empty() || !st.mnemonic.empty())
            statements.push_back(std::move(st));
    }
}

void
AsmSource::assemble(std::uint32_t origin, const Length &length,
                    const Emit &emit)
{
    std::uint32_t loc = origin;
    for (const Statement &st : statements) {
        line = st.line;
        if (!st.label.empty()) {
            checkNew(st.label, true);
            table[st.label] = {loc, false};
        }
        if (st.mnemonic.empty())
            continue;
        forward.clear();
        if (st.is(".equ")) {
            if (st.operands.size() != 2)
                fail(".equ needs NAME, VALUE");
            checkNew(st.operands[0], false);
            const std::uint32_t v = value(st.operands[1]);
            table[st.operands[0]] = {v, !forward.empty()};
            continue;
        }
        if (st.is(".org")) {
            if (st.operands.size() != 1)
                fail(".org needs one operand");
            loc = value(st.operands[0]);
        } else {
            loc += length(st);
        }
        if (!forward.empty()) {
            fail(lower(st.mnemonic) + " operand reads '" + forward +
                 "', which is not known before this line");
        }
        if (loc > 0x10000)
            fail("location counter beyond 64 KiB");
    }

    final = true;
    for (const Statement &st : statements) {
        line = st.line;
        if (st.is(".equ"))
            table[st.operands[0]] = {value(st.operands[1]), false};
        else if (!st.mnemonic.empty())
            emit(st);
    }
}

std::uint32_t
AsmSource::value(const std::string &expr) const
{
    const std::string s = sim::ini::trim(expr);
    if (s.empty())
        fail("empty expression");
    // The last + or - outside parentheses, not a leading sign.
    int depth = 0;
    for (std::size_t i = s.size(); i-- > 1;) {
        const char c = s[i];
        depth += (c == ')') - (c == '(');
        if (depth == 0 && (c == '+' || c == '-')) {
            const std::uint32_t lhs = value(s.substr(0, i));
            const std::uint32_t rhs = value(s.substr(i + 1));
            return c == '+' ? lhs + rhs : lhs - rhs;
        }
    }
    return term(s);
}

std::uint32_t
AsmSource::term(const std::string &s) const
{
    const std::string low = lower(s);
    if (low.size() > 4 && low.back() == ')' &&
        (low.starts_with("lo(") || low.starts_with("hi("))) {
        const std::uint32_t v = value(s.substr(3, s.size() - 4));
        return (low[0] == 'l' ? v : v >> 8) & 0xFF;
    }
    if (s.front() == '(' && s.back() == ')')
        return value(s.substr(1, s.size() - 2));
    if (s.size() == 3 && s.front() == '\'' && s.back() == '\'')
        return static_cast<std::uint8_t>(s[1]);
    if (std::isdigit(static_cast<unsigned char>(s[0])))
        return literal(s);
    if (param(s) >= 0)
        fail("parameter '" + s + "' may only be a bare byte operand");

    if (const std::optional<std::uint32_t> v = lookup(s))
        return *v;
    if (final)
        fail("undefined symbol '" + s + "'");
    if (forward.empty())
        forward = s;
    return 0;
}

std::uint32_t
AsmSource::literal(const std::string &s) const
{
    const bool hex =
        s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
    const char *first = s.data() + (hex ? 2 : 0);
    const char *last = s.data() + s.size();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (first == last || end != last || ec == std::errc::invalid_argument)
        fail("bad numeric literal '" + s + "'");
    if (ec == std::errc::result_out_of_range || v > 0xFFFFFFFFu)
        fail("numeric literal '" + s + "' does not fit in 32 bits");
    return static_cast<std::uint32_t>(v);
}

std::uint8_t
AsmSource::byte(const std::string &expr) const
{
    const std::uint32_t v = value(expr);
    if (v > 0xFF)
        fail("value " + std::to_string(v) + " does not fit in a byte");
    return static_cast<std::uint8_t>(v);
}

std::uint16_t
AsmSource::word(const std::string &expr) const
{
    const std::uint32_t v = value(expr);
    if (v > 0xFFFF)
        fail("value " + std::to_string(v) + " does not fit in a word");
    return static_cast<std::uint16_t>(v);
}

int
AsmSource::param(const std::string &name) const
{
    const auto it = std::find(params.begin(), params.end(), name);
    return it == params.end() ? -1 : static_cast<int>(it - params.begin());
}

std::optional<std::uint32_t>
AsmSource::lookup(const std::string &name) const
{
    if (const auto it = table.find(name); it != table.end()) {
        if (it->second.provisional) {
            // Pass 2 re-evaluates each .equ on its own line; until then a
            // provisional symbol holds pass 1's guess.
            if (final) {
                fail("reads '" + name + "' before its .equ, which reads a "
                     "later symbol");
            }
            if (forward.empty())
                forward = name;
        }
        return it->second.value;
    }
    if (const auto it = predefined.find(name); it != predefined.end())
        return it->second;
    return std::nullopt;
}

void
AsmSource::fail(const std::string &message) const
{
    sim::fatal("%s line %d: %s", what.c_str(), line, message.c_str());
}

AsmSource::Symbols
AsmSource::symbols() const
{
    Symbols out;
    for (const auto &[name, symbol] : table) {
        if (symbol.value <= 0xFFFF) // wide .equ constants stay internal
            out[name] = static_cast<std::uint16_t>(symbol.value);
    }
    return out;
}

void
AsmSource::checkNew(const std::string &name, bool label) const
{
    if (table.count(name) || predefined.count(name))
        fail("duplicate symbol '" + name + "'");
    if (label && param(name) >= 0)
        fail("parameter '" + name + "' must be an .equ");
}

} // namespace ulp::mcu
