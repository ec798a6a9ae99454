#include "util/json.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/strings.hh"

namespace mpress {
namespace util {

namespace {

/** Recursive-descent document builder over a borrowed string. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, const JsonLimits &limits)
        : _text(text), _limits(limits)
    {}

    ParsedJson
    parse()
    {
        ParsedJson out;
        out.ok = checkSize() && value(out.value) &&
                 (skipWs(), _pos == _text.size());
        if (!out.ok) {
            out.error = strformat(
                "invalid JSON at byte %zu: %s", _pos,
                _reason.empty() ? "trailing content"
                                : _reason.c_str());
            out.errorKind = _kind == JsonErrorKind::None
                                ? JsonErrorKind::Syntax
                                : _kind;
            out.value = JsonValue();
        }
        return out;
    }

  private:
    bool
    fail(const char *reason,
         JsonErrorKind kind = JsonErrorKind::Syntax)
    {
        if (_reason.empty()) {
            _reason = reason;
            _kind = kind;
        }
        return false;
    }

    bool
    checkSize()
    {
        if (_limits.maxBytes > 0 && _text.size() > _limits.maxBytes) {
            return fail("input exceeds size limit",
                        JsonErrorKind::TooLarge);
        }
        return true;
    }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\t' ||
                _text[_pos] == '\n' || _text[_pos] == '\r'))
            ++_pos;
    }

    bool
    consume(char c)
    {
        if (_pos < _text.size() && _text[_pos] == c) {
            ++_pos;
            return true;
        }
        return false;
    }

    char
    peek() const
    {
        return _pos < _text.size() ? _text[_pos] : '\0';
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (!consume(*p))
                return fail("bad literal");
        }
        return true;
    }

    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    string(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        while (_pos < _text.size()) {
            auto c = static_cast<unsigned char>(_text[_pos]);
            if (c == '"') {
                ++_pos;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c == '\\') {
                ++_pos;
                char esc = peek();
                switch (esc) {
                  case 'u': {
                    ++_pos;
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i, ++_pos) {
                        char h = peek();
                        if (!std::isxdigit(
                                static_cast<unsigned char>(h)))
                            return fail("bad \\u escape");
                        cp = cp * 16 +
                             static_cast<unsigned>(
                                 std::isdigit(
                                     static_cast<unsigned char>(h))
                                     ? h - '0'
                                     : (std::tolower(h) - 'a' + 10));
                    }
                    appendUtf8(out, cp);
                    break;
                  }
                  case '"': case '\\': case '/':
                    out.push_back(esc);
                    ++_pos;
                    break;
                  case 'b': out.push_back('\b'); ++_pos; break;
                  case 'f': out.push_back('\f'); ++_pos; break;
                  case 'n': out.push_back('\n'); ++_pos; break;
                  case 'r': out.push_back('\r'); ++_pos; break;
                  case 't': out.push_back('\t'); ++_pos; break;
                  default:
                    return fail("bad escape");
                }
            } else {
                out.push_back(static_cast<char>(c));
                ++_pos;
            }
        }
        return fail("unterminated string");
    }

    bool
    number(double &out)
    {
        std::size_t start = _pos;
        consume('-');
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return fail("bad number");
        // int = zero / (digit1-9 *DIGIT): no leading zeros.
        if (consume('0')) {
            if (std::isdigit(static_cast<unsigned char>(peek())))
                return fail("bad number");
        } else {
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        if (consume('.')) {
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("bad fraction");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++_pos;
            if (peek() == '+' || peek() == '-')
                ++_pos;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("bad exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        // strtod rounds an underflowing literal (1e-310) to the
        // nearest subnormal or zero, which is fine; only overflow
        // (1e400) has no finite value, and a diagnostic beats a
        // silent infinity.
        out = std::strtod(_text.substr(start, _pos - start).c_str(),
                          nullptr);
        if (std::isinf(out))
            return fail("number out of range");
        return true;
    }

    bool
    array(JsonValue &out)
    {
        ++_pos;  // '['
        std::vector<JsonValue> items;
        skipWs();
        if (consume(']')) {
            out = JsonValue::makeArray(std::move(items));
            return true;
        }
        for (;;) {
            JsonValue v;
            if (!value(v))
                return false;
            items.push_back(std::move(v));
            skipWs();
            if (consume(']')) {
                out = JsonValue::makeArray(std::move(items));
                return true;
            }
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    bool
    object(JsonValue &out)
    {
        ++_pos;  // '{'
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWs();
        if (consume('}')) {
            out = JsonValue::makeObject(std::move(members));
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue v;
            if (!value(v))
                return false;
            members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (consume('}')) {
                out = JsonValue::makeObject(std::move(members));
                return true;
            }
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    bool
    value(JsonValue &out)
    {
        if (++_depth > std::max(_limits.maxDepth, 1)) {
            return fail("nesting too deep",
                        JsonErrorKind::DepthExceeded);
        }
        skipWs();
        bool ok;
        switch (peek()) {
          case '{':
            ok = object(out);
            break;
          case '[':
            ok = array(out);
            break;
          case '"': {
            std::string s;
            ok = string(s);
            if (ok)
                out = JsonValue::makeString(std::move(s));
            break;
          }
          case 't':
            ok = literal("true");
            if (ok)
                out = JsonValue::makeBool(true);
            break;
          case 'f':
            ok = literal("false");
            if (ok)
                out = JsonValue::makeBool(false);
            break;
          case 'n':
            ok = literal("null");
            if (ok)
                out = JsonValue::makeNull();
            break;
          default: {
            double n = 0.0;
            ok = number(n);
            if (ok)
                out = JsonValue::makeNumber(n);
            break;
          }
        }
        --_depth;
        return ok;
    }

    const std::string &_text;
    JsonLimits _limits;
    std::size_t _pos = 0;
    int _depth = 0;
    std::string _reason;
    JsonErrorKind _kind = JsonErrorKind::None;
};

} // namespace

const char *
jsonErrorKindName(JsonErrorKind kind)
{
    switch (kind) {
      case JsonErrorKind::None:
        return "none";
      case JsonErrorKind::Syntax:
        return "syntax";
      case JsonErrorKind::DepthExceeded:
        return "depth-exceeded";
      case JsonErrorKind::TooLarge:
        return "too-large";
    }
    return "unknown";
}

ParsedJson
jsonParse(const std::string &text, const JsonLimits &limits)
{
    return JsonParser(text, limits).parse();
}

std::string
jsonQuote(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out.push_back('"');
    for (char ch : text) {
        auto c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20)
                out += strformat("\\u%04x", c);
            else
                out.push_back(ch);
            break;
        }
    }
    out.push_back('"');
    return out;
}

namespace {

void
renderInto(const JsonValue &value, std::string &out)
{
    switch (value.type()) {
      case JsonValue::Type::Null:
        out += "null";
        break;
      case JsonValue::Type::Bool:
        out += value.boolean() ? "true" : "false";
        break;
      case JsonValue::Type::Number: {
        // %.17g round-trips every double; integral values render
        // without an exponent or trailing ".0" noise.
        double n = value.number();
        if (n == static_cast<double>(static_cast<long long>(n))) {
            out += strformat("%lld",
                             static_cast<long long>(n));
        } else {
            out += strformat("%.17g", n);
        }
        break;
      }
      case JsonValue::Type::String:
        out += jsonQuote(value.str());
        break;
      case JsonValue::Type::Array: {
        out.push_back('[');
        const char *sep = "";
        for (const auto &item : value.items()) {
            out += sep;
            sep = ",";
            renderInto(item, out);
        }
        out.push_back(']');
        break;
      }
      case JsonValue::Type::Object: {
        out.push_back('{');
        const char *sep = "";
        for (const auto &[key, member] : value.members()) {
            out += sep;
            sep = ",";
            out += jsonQuote(key);
            out.push_back(':');
            renderInto(member, out);
        }
        out.push_back('}');
        break;
      }
    }
}

} // namespace

std::string
jsonRender(const JsonValue &value)
{
    std::string out;
    renderInto(value, out);
    return out;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : _members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->str() : fallback;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->number() : fallback;
}

bool
JsonValue::boolOr(const std::string &key, bool fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isBool() ? v->boolean() : fallback;
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v._type = Type::Bool;
    v._bool = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v._type = Type::Number;
    v._number = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v._type = Type::String;
    v._string = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v._type = Type::Array;
    v._items = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> ms)
{
    JsonValue v;
    v._type = Type::Object;
    v._members = std::move(ms);
    return v;
}

} // namespace util
} // namespace mpress
