/**
 * @file
 * Minimal strict JSON support: one parser, a quoter and a renderer.
 *
 * jsonParse() builds a document tree (JsonValue) under the RFC 8259
 * grammar; numbers are held as doubles (a literal beyond double range
 * is rejected, an underflowing one rounds to the nearest subnormal or
 * zero) and object member order is preserved.  It reads user-supplied
 * JSON such as the CLI's --sweep scenario specs and mpress-serve
 * requests, and lets tests assert that exported files (Chrome traces,
 * metrics dumps, which Perfetto and plotting scripts reject when
 * malformed) parse, without a JSON library dependency.
 *
 * Parsing is safe on untrusted bytes: it is bounded by explicit
 * resource limits (JsonLimits) instead of the process stack, and
 * every rejection carries a typed reason (JsonErrorKind) so
 * network-facing callers (mpress-serve) can answer with a typed
 * protocol error rather than a crash or an opaque string.
 */

#ifndef MPRESS_UTIL_JSON_HH
#define MPRESS_UTIL_JSON_HH

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mpress {
namespace util {

/**
 * Resource bounds enforced while parsing.  The recursive-descent
 * parser consumes one stack frame per nesting level, so maxDepth is
 * what stands between a hostile `[[[[...` payload and a stack
 * overflow; maxBytes rejects oversized documents before any work.
 */
struct JsonLimits
{
    /** Maximum container nesting depth (top-level value = depth 1).
     *  Values < 1 are treated as 1. */
    int maxDepth = 256;

    /** Maximum input size in bytes; 0 = unlimited. */
    std::size_t maxBytes = 0;
};

/** Why a parse was rejected (None on success). */
enum class JsonErrorKind
{
    None,           ///< parse succeeded
    Syntax,         ///< malformed JSON text
    DepthExceeded,  ///< nesting beyond JsonLimits::maxDepth
    TooLarge,       ///< input beyond JsonLimits::maxBytes
};

/** Returns a stable display name for @p kind. */
const char *jsonErrorKindName(JsonErrorKind kind);

/** One parsed JSON value (see jsonParse()). */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isBool() const { return _type == Type::Bool; }
    bool isNumber() const { return _type == Type::Number; }
    bool isString() const { return _type == Type::String; }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }

    /** Value accessors; meaningful only for the matching type. */
    bool boolean() const { return _bool; }
    double number() const { return _number; }
    const std::string &str() const { return _string; }

    /** Array elements (empty unless isArray()). */
    const std::vector<JsonValue> &items() const { return _items; }

    /** Object members in source order (empty unless isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return _members;
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Typed member lookups with defaults for absent keys. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;
    double numberOr(const std::string &key, double fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;

    // Builder interface for the parser.
    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> ms);

  private:
    Type _type = Type::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<JsonValue> _items;
    std::vector<std::pair<std::string, JsonValue>> _members;
};

/** Result of jsonParse(): a document or an error description. */
struct ParsedJson
{
    bool ok = false;
    JsonValue value;
    std::string error;  ///< set when !ok, names offset and reason

    /** Typed rejection reason (None when ok). */
    JsonErrorKind errorKind = JsonErrorKind::None;
};

/** Parse @p text — exactly one JSON value, with optional surrounding
 *  whitespace — into a document tree (strict RFC 8259), enforcing
 *  @p limits. */
ParsedJson jsonParse(const std::string &text,
                     const JsonLimits &limits = {});

/** Quote @p text as a JSON string literal: surrounding double quotes
 *  plus escapes for quotes, backslashes and control characters.  The
 *  output always parses with jsonParse(). */
std::string jsonQuote(std::string_view text);

/** Serialize @p value back to compact JSON text (no whitespace,
 *  object member order preserved).  jsonRender(jsonParse(t).value)
 *  parses to an equivalent document; used to hand a subtree of a
 *  request document to a text-based parser (fault scenario specs
 *  embedded in an mpress-serve request). */
std::string jsonRender(const JsonValue &value);

} // namespace util
} // namespace mpress

#endif // MPRESS_UTIL_JSON_HH
