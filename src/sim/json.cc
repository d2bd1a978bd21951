#include "sim/json.hh"

#include <charconv>

#include "sim/logging.hh"

namespace ulp::sim::json {

namespace {

/** Deeper nesting is refused instead of recursed into. */
constexpr unsigned maxDepth = 256;

constexpr const char *kindNames[] = {"null",     "a boolean", "a number",
                                     "a string", "an array",  "an object"};

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

void
appendUtf8(std::string &out, std::uint32_t cp)
{
    static constexpr unsigned char lead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(lead[extra] | (cp >> (6 * extra)));
    for (int i = extra - 1; i >= 0; --i)
        out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
}

/** Recursive descent over one document's text. */
class Parser
{
  public:
    explicit Parser(const Document &doc)
        : doc(doc), p(doc.text().data()), end(p + doc.text().size())
    {}

    void
    document(Value &out)
    {
        value(out, 0);
        skipWs();
        if (p != end)
            fail("unexpected content after the value");
    }

  private:
    const Document &doc;
    const char *p;
    const char *end;

    [[noreturn]] void
    fail(const char *what) const
    {
        const auto offset = static_cast<std::size_t>(p - doc.text().data());
        sim::fatal("%s: %s", doc.where(offset).c_str(), what);
    }

    void
    skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (p == end || *p != c)
            return false;
        ++p;
        return true;
    }

    bool
    word(std::string_view w)
    {
        if (static_cast<std::size_t>(end - p) < w.size() ||
            std::string_view(p, w.size()) != w)
            return false;
        p += w.size();
        return true;
    }

    void
    value(Value &out, unsigned depth)
    {
        skipWs();
        if (p == end)
            fail("expected a value, found the end of the text");
        const char *start = p;
        out.doc = &doc;
        if (*p == '{' || *p == '[') {
            container(out, depth);
        } else if (*p == '"') {
            out.kind = Value::Kind::String;
            out.text = string();
        } else if (word("true") || word("false")) {
            out.kind = Value::Kind::Bool;
        } else if (!word("null")) {
            number();
            out.kind = Value::Kind::Number;
        }
        out.source = std::string_view(start,
                                      static_cast<std::size_t>(p - start));
    }

    void
    container(Value &out, unsigned depth)
    {
        const bool object = *p++ == '{';
        out.kind = object ? Value::Kind::Object : Value::Kind::Array;
        if (depth >= maxDepth)
            fail("nesting deeper than 256 levels");
        if (eat(object ? '}' : ']'))
            return;
        do {
            if (!object) {
                value(out.items.emplace_back(), depth + 1);
                continue;
            }
            skipWs();
            if (p == end || *p != '"')
                fail("expected a member name");
            Member &m = out.members.emplace_back();
            m.key = string();
            if (!eat(':'))
                fail("expected ':'");
            value(m.value, depth + 1);
        } while (eat(','));
        if (!eat(object ? '}' : ']'))
            fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
    }

    void
    digits(const char *what)
    {
        if (p == end || !isDigit(*p))
            fail(what);
        while (p < end && isDigit(*p))
            ++p;
    }

    void
    number()
    {
        if (*p == '-')
            ++p;
        if (end - p > 1 && p[0] == '0' && isDigit(p[1]))
            fail("leading zero in a number");
        digits("expected a value");
        if (p < end && *p == '.') {
            ++p;
            digits("expected a digit after '.'");
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            digits("expected a digit in the exponent");
        }
    }

    std::uint32_t
    hex4()
    {
        std::uint32_t v = 0;
        const char *last = p + 4;
        if (end - p < 4 || std::from_chars(p, last, v, 16).ptr != last)
            fail("bad \\u escape");
        p = last;
        return v;
    }

    /** A \u escape's code point; a surrogate pair is one code point. */
    std::uint32_t
    codePoint()
    {
        const std::uint32_t cp = hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF && end - p >= 2 && p[0] == '\\' &&
            p[1] == 'u') {
            p += 2;
            const std::uint32_t low = hex4();
            if (low >= 0xDC00 && low <= 0xDFFF)
                return 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        if (cp >= 0xD800 && cp <= 0xDFFF)
            fail("unpaired surrogate in a \\u escape");
        return cp;
    }

    /** The decoded body of the string starting at p. */
    std::string
    string()
    {
        static constexpr std::string_view escapes = "\"\\/bfnrt";
        static constexpr std::string_view decoded = "\"\\/\b\f\n\r\t";
        std::string out;
        for (++p;; ++p) {
            if (p == end)
                fail("unterminated string");
            const auto c = static_cast<unsigned char>(*p);
            if (c == '"') {
                ++p;
                return out;
            }
            if (c < 0x20)
                fail("raw control character in a string");
            if (c != '\\') {
                out += static_cast<char>(c);
                continue;
            }
            if (++p == end)
                fail("unterminated string");
            if (*p == 'u') {
                ++p;
                appendUtf8(out, codePoint());
                --p; // the loop steps past the escape's last digit
            } else if (const auto i = escapes.find(*p);
                       i != std::string_view::npos) {
                out += decoded[i];
            } else {
                fail("bad escape character");
            }
        }
    }
};

} // namespace

const Value *
Value::find(std::string_view key) const
{
    for (const Member &m : members) {
        if (m.key == key)
            return &m.value;
    }
    return nullptr;
}

const Value &
Value::is(Kind expected) const
{
    if (kind != expected) {
        fail(std::string("expected ") +
             kindNames[static_cast<int>(expected)] + ", found " +
             kindNames[static_cast<int>(kind)]);
    }
    return *this;
}

const Value &
Value::operator[](std::string_view key) const
{
    is(Kind::Object);
    if (const Value *v = find(key))
        return *v;
    fail("no member \"" + std::string(key) + "\"");
}

double
Value::number() const
{
    is(Kind::Number);
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(source.data(), source.data() + source.size(), v);
    if (ec != std::errc() || end != source.data() + source.size())
        fail("number out of range");
    return v;
}

std::uint64_t
Value::unsignedInt() const
{
    is(Kind::Number);
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(source.data(), source.data() + source.size(), v);
    if (ec != std::errc() || end != source.data() + source.size())
        fail("expected an unsigned integer below 2^64, digits only");
    return v;
}

std::string
Value::where() const
{
    if (!doc)
        return "<no document>";
    return doc->where(
        static_cast<std::size_t>(source.data() - doc->text().data()));
}

void
Value::fail(const std::string &what) const
{
    sim::fatal("%s: %s", where().c_str(), what.c_str());
}

Document::Document(std::string origin_, std::string text,
                   unsigned firstLine_)
    : origin(std::move(origin_)), body(std::move(text)),
      firstLine(firstLine_)
{
    Parser(*this).document(top);
}

std::string
Document::where(std::size_t offset) const
{
    unsigned line = firstLine;
    std::size_t lineStart = 0;
    for (std::size_t i = 0; i < offset && i < body.size(); ++i) {
        if (body[i] == '\n') {
            ++line;
            lineStart = i + 1;
        }
    }
    return csprintf("%s:%u:%zu", origin.c_str(), line,
                    offset - lineStart + 1);
}

std::string
escape(std::string_view s)
{
    static constexpr std::string_view raw = "\"\\\n\r\t", escaped = "\"\\nrt";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (const auto i = raw.find(c); i != std::string_view::npos) {
            out += '\\';
            out += escaped[i];
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += csprintf("\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace ulp::sim::json
