/**
 * @file
 * Strict number parsing for command-line and job-spec values.
 */

#ifndef HETSIM_COMMON_NUMPARSE_HH
#define HETSIM_COMMON_NUMPARSE_HH

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

namespace hetsim
{

/**
 * Strictly parse a finite number: strtod must consume all of @p text.
 * nan and inf are rejected here because every range check a caller
 * applies afterwards (v <= 0, v > 1, ...) is false for NaN.
 */
inline std::optional<double>
parseFinite(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(v))
        return std::nullopt;
    return v;
}

} // namespace hetsim

#endif // HETSIM_COMMON_NUMPARSE_HH
