#include "sim/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace idyll
{

/** Recursive descent over the text; the first error stops it. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : _text(text) {}

    std::optional<JsonValue>
    parseDocument(JsonError *error)
    {
        JsonValue root;
        if (value(root, 0) && (skipBlanks(), _pos != _text.size()))
            fail("trailing characters after the JSON value");
        if (_error.message.empty())
            return root;
        if (error)
            *error = _error;
        return std::nullopt;
    }

  private:
    /** Deeper nesting is refused rather than risking the stack. */
    static constexpr int kMaxDepth = 256;

    /** Record the first error (at the end of the text, say so). */
    bool
    fail(const char *message)
    {
        if (_pos == _text.size())
            message = "unexpected end of input";
        if (_error.message.empty())
            _error = {_pos, message};
        return false;
    }

    void
    skipBlanks()
    {
        _pos = std::min(_text.find_first_not_of(" \t\n\r", _pos),
                        _text.size());
    }

    /** Consume @p word if it comes next. */
    bool
    next(std::string_view word)
    {
        if (_text.substr(_pos, word.size()) != word)
            return false;
        _pos += word.size();
        return true;
    }

    /** Skip blanks, then consume @p c if it comes next. */
    bool
    eat(char c)
    {
        skipBlanks();
        return next(std::string_view(&c, 1));
    }

    bool
    value(JsonValue &out, int depth)
    {
        skipBlanks();
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (next("{") || next("["))
            return container(out, _text[_pos - 1] == '{', depth);
        if (next("\"")) {
            out._kind = JsonValue::Kind::String;
            return string(out._text);
        }
        for (const char *word : {"true", "false"}) {
            if (next(word)) {
                out._kind = JsonValue::Kind::Bool;
                out._text = word;
                return true;
            }
        }
        return next("null") || number(out);
    }

    /** An object or array, its opening bracket already consumed. */
    bool
    container(JsonValue &out, bool object, int depth)
    {
        out._kind =
            object ? JsonValue::Kind::Object : JsonValue::Kind::Array;
        const char close = object ? '}' : ']';
        if (eat(close))
            return true;
        do {
            JsonValue *slot = nullptr;
            if (object) {
                if (!eat('"'))
                    return fail("expected a quoted member name");
                JsonValue::Member &member = out._members.emplace_back();
                if (!string(member.key))
                    return false;
                if (!eat(':'))
                    return fail("expected ':' after a member name");
                slot = &member.value;
            } else {
                slot = &out._items.emplace_back();
            }
            if (!value(*slot, depth + 1))
                return false;
        } while (eat(','));
        return eat(close) || fail(object ? "expected ',' or '}'"
                                         : "expected ',' or ']'");
    }

    /** A string's contents and closing quote, unescaped into @p out. */
    bool
    string(std::string &out)
    {
        while (_pos < _text.size()) {
            const char c = _text[_pos];
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in a string");
            ++_pos;
            if (c == '"')
                return true;
            if (c != '\\')
                out += c;
            else if (!escape(out))
                return false;
        }
        return fail("unterminated string");
    }

    /** One escape, after its backslash; \u escapes become UTF-8. */
    bool
    escape(std::string &out)
    {
        static constexpr std::string_view kCode = "\"\\/bfnrt";
        static constexpr std::string_view kChar = "\"\\/\b\f\n\r\t";
        const auto at =
            _pos < _text.size() ? kCode.find(_text[_pos]) : kCode.npos;
        if (at != kCode.npos) {
            out += kChar[at];
            ++_pos;
            return true;
        }
        std::uint32_t cp = 0, low = 0;
        if (!next("u"))
            return fail("bad escape");
        if (!hex4(cp))
            return false;
        if (cp >= 0xDC00 && cp < 0xE000)
            return fail("unpaired surrogate");
        if (cp >= 0xD800 && cp < 0xDC00) {
            // A high surrogate needs a low one: together they name a
            // code point past U+FFFF.
            if (!next("\\u") || !hex4(low) || low < 0xDC00 ||
                low >= 0xE000)
                return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        static constexpr unsigned kLead[] = {0, 0xC0, 0xE0, 0xF0};
        const int tail =
            cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
        for (int i = tail - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
        return true;
    }

    /** The four hex digits of a \u escape. */
    bool
    hex4(std::uint32_t &out)
    {
        const std::string_view hex = _text.substr(_pos, 4);
        const char *end = hex.data() + hex.size();
        const auto [ptr, ec] = std::from_chars(hex.data(), end, out, 16);
        if (hex.size() < 4 || ec != std::errc() || ptr != end)
            return fail("bad \\u escape");
        _pos += 4;
        return true;
    }

    bool
    digits()
    {
        const std::size_t start = _pos;
        _pos = std::min(_text.find_first_not_of("0123456789", _pos),
                        _text.size());
        return _pos > start;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, kept as text. */
    bool
    number(JsonValue &out)
    {
        const std::size_t start = _pos;
        next("-");
        const std::size_t whole = _pos;
        if (!digits())
            return fail("unexpected character");
        if (_text[whole] == '0' && _pos - whole > 1)
            return fail("leading zero in a number");
        if (next(".") && !digits())
            return fail("expected digits after '.'");
        if (next("e") || next("E")) {
            if (!next("+"))
                next("-");
            if (!digits())
                return fail("expected digits in an exponent");
        }
        out._kind = JsonValue::Kind::Number;
        out._text = _text.substr(start, _pos - start);
        return true;
    }

    std::string_view _text;
    std::size_t _pos = 0;
    JsonError _error;
};

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const Member &member : _members)
        if (member.key == key)
            return &member.value;
    return nullptr;
}

const JsonValue &
JsonValue::operator[](std::string_view key) const
{
    static const JsonValue kNull;
    const JsonValue *value = find(key);
    return value ? *value : kNull;
}

std::optional<JsonValue>
parseJson(std::string_view text, JsonError *error)
{
    return JsonParser(text).parseDocument(error);
}

std::string
jsonEscape(std::string_view text)
{
    static constexpr std::string_view kChar = "\"\\\n\t\r";
    static constexpr std::string_view kCode = "\"\\ntr";
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    for (const char c : text) {
        const auto byte = static_cast<unsigned char>(c);
        if (const auto at = kChar.find(c); at != kChar.npos)
            out.append({'\\', kCode[at]});
        else if (byte < 0x20)
            out.append({'\\', 'u', '0', '0', kHex[byte >> 4],
                        kHex[byte & 0xF]});
        else
            out += c;
    }
    return out;
}

std::string
jsonNumber(double value)
{
    // to_chars with a precision writes exactly what printf's %.*g
    // does, which is an ostream's default format at that precision.
    char buf[32];
    const auto end = std::to_chars(
        buf, buf + sizeof buf, value, std::chars_format::general,
        std::numeric_limits<double>::max_digits10);
    return std::string(buf, end.ptr);
}

bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return *end == '\0' && std::isfinite(out);
}

bool
parseUnsigned(std::string_view text, std::uint64_t &out)
{
    // from_chars takes no blanks, and no sign for an unsigned type.
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, 10);
    return !text.empty() && ec == std::errc() && ptr == end;
}

} // namespace idyll
