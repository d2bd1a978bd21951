/**
 * @file
 * The one JSON reader and string escaper: campaign stores and
 * baselines, bench snapshots and the Chrome-trace check read through it.
 *
 * Strict RFC 8259 (no trailing commas, leading zeros or raw control
 * characters; nothing after the value). Objects keep their members in
 * file order and every value keeps a view of its source text, so a
 * nested object can be copied byte for byte (the store's `stats`).
 * Every error is a sim::FatalError "<origin>:<line>:<column>: <what>",
 * where origin is the file path; a syntax error names the offending
 * byte, a typed read or Value::fail() the value.
 */

#ifndef ULP_SIM_JSON_HH
#define ULP_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ulp::sim::json {

class Document;
struct Member;

/** One parsed value. Valid while its Document lives. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    std::string_view source;     ///< exact text, a view into the Document
    std::string text;            ///< decoded String
    std::vector<Value> items;    ///< Array elements
    std::vector<Member> members; ///< Object members, in file order
    const Document *doc = nullptr;

    /** The member named @p key, or nullptr (also when not an Object). */
    const Value *find(std::string_view key) const;

    // Typed reads: each is fatal, naming this value, on another kind.
    const Value &is(Kind expected) const;
    const Value &operator[](std::string_view key) const; ///< fatal if absent
    const std::vector<Member> &
    object() const
    {
        return is(Kind::Object).members;
    }
    const std::vector<Value> &array() const { return is(Kind::Array).items; }
    const std::string &string() const { return is(Kind::String).text; }
    bool boolean() const { return is(Kind::Bool).source == "true"; }
    double number() const;
    /** Digits only: a sign, a fraction, an exponent or a value above
     *  UINT64_MAX is fatal. */
    std::uint64_t unsignedInt() const;

    /** "<origin>:<line>:<column>" of this value. */
    std::string where() const;
    /** Throw sim::FatalError "<where()>: <what>". */
    [[noreturn]] void fail(const std::string &what) const;
};

struct Member
{
    std::string key;
    Value value;
};

/** A parsed text and its root value. */
class Document
{
  public:
    /**
     * Parse @p text as one JSON value; @p origin names it in errors and
     * @p firstLine numbers its first line (a line read out of a larger
     * file keeps its own number).
     */
    Document(std::string origin, std::string text, unsigned firstLine = 1);

    /** Values view the text: a Document never moves. */
    Document(const Document &) = delete;
    Document &operator=(const Document &) = delete;

    const Value &root() const { return top; }
    std::string_view text() const { return body; }

    /** "<origin>:<line>:<column>" of byte @p offset of the text. */
    std::string where(std::size_t offset) const;

  private:
    std::string origin;
    std::string body;
    unsigned firstLine;
    Value top;
};

/** @p s as the body of a JSON string: `"` and `\` escaped, `\n`, `\r`
 *  and `\t` as short escapes, other control bytes as `\u00XX`. */
std::string escape(std::string_view s);

} // namespace ulp::sim::json

#endif // ULP_SIM_JSON_HH
