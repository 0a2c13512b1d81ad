/**
 * @file
 * Strict JSON syntax check for tests: is a string exactly one well-formed
 * RFC 8259 document? `nan`/`inf` spellings, trailing commas, unescaped
 * control characters in strings, bad escapes and trailing garbage all
 * fail. The check is the repository's JSON reader (src/common/json_min.h),
 * whose contract mirrors Python's `json.load` (the parser behind
 * scripts/check_stats_schema.py), so a dump that lints clean here
 * round-trips through the real toolchain.
 */
#pragma once

#include <string>
#include <string_view>

#include "src/common/json_min.h"
#include "src/common/log.h"

namespace wsrs::test {

/**
 * Lint @p text as one strict JSON document.
 * @return empty string when valid, otherwise the parse error (with its
 *         byte offset).
 */
inline std::string
jsonLint(std::string_view text)
{
    try {
        parseJson(text, "json lint");
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace wsrs::test
