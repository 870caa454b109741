/**
 * @file
 * The one JSON reader, the string and number formatters every JSON
 * writer shares, and the strict number parsers for user-typed text.
 * Writers own their bytes (see DESIGN.md "JSON"); readers parse the
 * whole text and look members up by name, so bad input is an error
 * with a byte offset, not a silent zero.
 */

#ifndef IDYLL_SIM_JSON_HH
#define IDYLL_SIM_JSON_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace idyll
{

/** A parsed JSON value; objects keep their members in text order. */
class JsonValue
{
  public:
    struct Member;

    bool isNull() const { return _kind == Kind::Null; }
    bool isObject() const { return _kind == Kind::Object; }
    bool isArray() const { return _kind == Kind::Array; }

    /** Object members in text order; array elements (else empty). */
    const std::vector<Member> &members() const { return _members; }
    const std::vector<JsonValue> &items() const { return _items; }

    /** The first member named @p key; nullptr when there is none. */
    const JsonValue *find(std::string_view key) const;

    /** find(), but a null value when absent, so lookups chain:
     *  `v["latency"]["demand"]["total"]`. */
    const JsonValue &operator[](std::string_view key) const;

    /** A number that is exactly a value of the type ("1.5" is no
     *  integer, "-1" no uint64_t), or any number as a double. */
    std::optional<std::uint64_t> asU64() const { return as<std::uint64_t>(); }
    std::optional<std::int64_t> asI64() const { return as<std::int64_t>(); }
    std::optional<double> asDouble() const { return as<double>(); }

    std::optional<bool>
    asBool() const
    {
        return _kind == Kind::Bool ? std::optional(_text == "true")
                                   : std::nullopt;
    }

    std::optional<std::string_view>
    asString() const
    {
        return _kind == Kind::String ? std::optional<std::string_view>(_text)
                                     : std::nullopt;
    }

  private:
    friend class JsonParser;
    enum class Kind { Null, Bool, Number, String, Array, Object };

    template <typename T>
    std::optional<T>
    as() const
    {
        T value{};
        const char *end = _text.data() + _text.size();
        const auto [ptr, ec] = std::from_chars(_text.data(), end, value);
        if (_kind != Kind::Number || ec != std::errc() || ptr != end)
            return std::nullopt;
        return value;
    }

    Kind _kind = Kind::Null;
    /** A string's text, a number's token, or "true"/"false". */
    std::string _text;
    std::vector<JsonValue> _items;
    std::vector<Member> _members;
};

struct JsonValue::Member
{
    std::string key;
    JsonValue value;
};

/** Where and why parseJson stopped. */
struct JsonError
{
    std::size_t offset = 0; ///< byte offset into the parsed text
    std::string message;
};

/**
 * Parse @p text as one JSON value (RFC 8259; blanks around it
 * allowed, anything else is an error). On failure returns nullopt
 * and, when @p error is non-null, fills it.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   JsonError *error = nullptr);

/** JSON-escape @p text (quotes, backslashes, control characters). */
std::string jsonEscape(std::string_view text);

/** A double at max_digits10, so it reads back bit-exact (an
 *  ostream's `%g` form: "0.5", "1e-07", "3"). */
std::string jsonNumber(double value);

/** Parse a base-10 unsigned integer: no sign, no blanks, nothing
 *  trailing, nothing past uint64_t. */
bool parseUnsigned(std::string_view text, std::uint64_t &out);

/** Parse a finite number; rejects empty text and trailing
 *  characters. */
bool parseDouble(const std::string &text, double &out);

} // namespace idyll

#endif // IDYLL_SIM_JSON_HH
