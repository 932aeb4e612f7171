#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace swiftrl::json {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (type != Type::Object)
        return nullptr;
    const JsonValue *hit = nullptr;
    for (const auto &[k, v] : members) {
        if (k == key)
            hit = &v;
    }
    return hit;
}

double
JsonValue::numberOr(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    return (v && v->isNumber()) ? v->number : fallback;
}

long
JsonValue::intOr(std::string_view key, long fallback) const
{
    const JsonValue *v = find(key);
    return (v && v->isNumber()) ? saturate<long>(v->number) : fallback;
}

std::string
JsonValue::stringOr(std::string_view key,
                    std::string_view fallback) const
{
    const JsonValue *v = find(key);
    return (v && v->isString()) ? v->string : std::string(fallback);
}

namespace {

/** Recursive-descent parser over one immutable text buffer. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : _text(text), _error(error)
    {
    }

    std::optional<JsonValue>
    document()
    {
        skipWs();
        JsonValue v;
        if (!value(v, 0))
            return std::nullopt;
        skipWs();
        if (_pos != _text.size()) {
            fail("trailing characters after document");
            return std::nullopt;
        }
        return v;
    }

  private:
    // Nesting guard: configuration documents are shallow; a bound
    // keeps hostile input from exhausting the stack.
    static constexpr int kMaxDepth = 64;

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\t' ||
                _text[_pos] == '\n' || _text[_pos] == '\r'))
            ++_pos;
    }

    bool
    fail(const char *reason)
    {
        if (_error && _error->empty())
            *_error = "offset " + std::to_string(_pos) + ": " + reason;
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (_text.substr(_pos, word.size()) != word)
            return fail("invalid literal");
        _pos += word.size();
        return true;
    }

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        switch (_text[_pos]) {
        case '{':
            return object(out, depth);
        case '[':
            return array(out, depth);
        case '"':
            out.type = JsonValue::Type::String;
            return string(out.string);
        case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null");
        default:
            return number(out);
        }
    }

    bool
    object(JsonValue &out, int depth)
    {
        out.type = JsonValue::Type::Object;
        ++_pos; // '{'
        skipWs();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (_pos >= _text.size() || _text[_pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (_pos >= _text.size() || _text[_pos] != ':')
                return fail("expected ':' after object key");
            ++_pos;
            skipWs();
            JsonValue v;
            if (!value(v, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (_pos >= _text.size())
                return fail("unterminated object");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_text[_pos] == '}') {
                ++_pos;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue &out, int depth)
    {
        out.type = JsonValue::Type::Array;
        ++_pos; // '['
        skipWs();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue v;
            if (!value(v, depth + 1))
                return false;
            out.elements.push_back(std::move(v));
            skipWs();
            if (_pos >= _text.size())
                return fail("unterminated array");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_text[_pos] == ']') {
                ++_pos;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string(std::string &out)
    {
        ++_pos; // opening '"'
        while (_pos < _text.size()) {
            const char c = _text[_pos];
            if (c == '"') {
                ++_pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                ++_pos;
                continue;
            }
            ++_pos;
            if (_pos >= _text.size())
                return fail("unterminated escape");
            const char e = _text[_pos];
            switch (e) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (_pos + 4 >= _text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 1; i <= 4; ++i) {
                    const char h = _text[_pos + i];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("invalid \\u escape digit");
                }
                // Configuration strings are ASCII in practice; wider
                // code points round-trip as UTF-8.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                _pos += 4;
                break;
            }
            default:
                return fail("invalid escape character");
            }
            ++_pos;
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        auto digits = [&] {
            const std::size_t before = _pos;
            while (_pos < _text.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(_text[_pos])))
                ++_pos;
            return _pos > before;
        };
        if (!digits())
            return fail("invalid number");
        if (_pos < _text.size() && _text[_pos] == '.') {
            ++_pos;
            if (!digits())
                return fail("digits required after decimal point");
        }
        if (_pos < _text.size() &&
            (_text[_pos] == 'e' || _text[_pos] == 'E')) {
            ++_pos;
            if (_pos < _text.size() &&
                (_text[_pos] == '+' || _text[_pos] == '-'))
                ++_pos;
            if (!digits())
                return fail("digits required in exponent");
        }
        double v = 0.0;
        const char *first = _text.data() + start;
        const char *last = _text.data() + _pos;
        const auto res = std::from_chars(first, last, v);
        if (res.ec != std::errc() || res.ptr != last) {
            _pos = start;
            return fail("unparseable number");
        }
        out.type = JsonValue::Type::Number;
        out.number = v;
        return true;
    }

    std::string_view _text;
    std::string *_error;
    std::size_t _pos = 0;
};

} // namespace

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    return Parser(text, error).document();
}

} // namespace swiftrl::json
