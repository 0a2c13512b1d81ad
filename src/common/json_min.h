/**
 * @file
 * Minimal strict JSON value parser: the repository's one JSON reader.
 *
 * Builds a value tree for exactly one RFC 8259 document — the same
 * strictness contract as Python's json.load, which reads every document
 * the tools emit (scripts/check_stats_schema.py). It reads the explorer's
 * wsrs-space-v1 specifications and, in the tests, checks that every
 * emitted document is strict JSON. The writer side is jsonEscape and
 * dumpJsonDouble in src/common/stats.h.
 *
 * It is deliberately tiny: no streaming, no comments, no relaxed mode,
 * and one number kind (double). Parse errors throw wsrs::FatalError
 * naming the byte offset.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wsrs {

/** One parsed JSON value (tree-owning). */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t {
        Null, Bool, Number, String, Array, Object
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    bool asBool() const;
    double asDouble() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::map<std::string, JsonValue> &asObject() const;

    /** Object member or null-kind sentinel when absent. */
    const JsonValue &get(const std::string &key) const;
    bool has(const std::string &key) const;

    /** Typed object accessors with defaults (absent -> default). */
    bool getBool(const std::string &key, bool def) const;
    std::string getString(const std::string &key,
                          const std::string &def) const;

    // Construction (used by the parser).
    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> v);
    static JsonValue makeObject(std::map<std::string, JsonValue> v);

  private:
    Kind kind_ = Kind::Null;
    bool b_ = false;
    double d_ = 0;
    std::string s_;
    std::vector<JsonValue> arr_;
    std::map<std::string, JsonValue> obj_;
};

/**
 * Parse exactly one JSON document (trailing garbage is an error).
 * @param what names the document in error messages (e.g. a file path).
 * @throws wsrs::FatalError on malformed input.
 */
JsonValue parseJson(std::string_view text, const std::string &what);

} // namespace wsrs
