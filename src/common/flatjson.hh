/**
 * @file
 * Strict parsing of one flat JSON object per line, and the one JSON
 * string writer every emitter shares.
 *
 * Both JSONL front-ends - serve job files and fleet topology files -
 * share this minimal parser: one `{"key": scalar, ...}` object per
 * line, scalars limited to strings, numbers, and booleans.  Nested
 * objects/arrays and null are rejected on purpose: the records are
 * flat, and rejecting structure we would silently ignore keeps a bad
 * input file loud.
 *
 * The strict integer validators (digits only, no sign, no trailing
 * junk, no overflow) live here too, so every line-oriented front-end
 * rejects "3x" or "-1" counts the same way the CLI's parseCount does.
 */

#ifndef HETSIM_COMMON_FLATJSON_HH
#define HETSIM_COMMON_FLATJSON_HH

#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace hetsim::json
{

/** One scalar JSON value: a string, a number, or a boolean. */
struct Value
{
    enum class Kind
    {
        String,
        Number,
        Boolean,
    };

    Kind kind = Kind::String;
    std::string text; ///< string contents or raw number token
    double number = 0.0;
    bool boolean = false;
};

/** Key -> scalar map of one parsed flat object. */
using Object = std::map<std::string, Value>;

/**
 * Parse @p line as one flat JSON object.  Duplicate keys, trailing
 * characters, unterminated strings, and non-scalar values are errors.
 * @return nullopt and set @p error on any malformed input.
 */
std::optional<Object> parseFlatObject(const std::string &line,
                                      std::string &error);

/**
 * Write @p text as a JSON string literal, quotes included: `"`, `\`,
 * newline, carriage return and tab as two-character escapes, other
 * bytes below 0x20 as lowercase `\u00xx`, every other byte (UTF-8
 * included) verbatim.  parseFlatObject reads every form back.
 */
void writeString(std::ostream &os, std::string_view text);

/** Strictly parse digits-only text into a u64 (no sign, no junk). */
std::optional<u64> parseU64(const std::string &text);

} // namespace hetsim::json

#endif // HETSIM_COMMON_FLATJSON_HH
