#include "stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>

namespace hetsim
{

namespace
{

/**
 * Sort @p values ascending with an LSD radix sort on their bit
 * patterns: 11-bit digits, six passes, every histogram from one
 * counting pass, and a pass skipped when all keys share its digit.
 * The patterns of +0.0 .. +inf order like the doubles and equal
 * doubles have equal patterns, so the result is bitwise std::sort's.
 * @return false, leaving @p values untouched, when a value is
 * negative, -0.0 or NaN.
 */
bool
radixSortNonNegative(std::vector<double> &values)
{
    constexpr unsigned kDigitBits = 11;
    constexpr unsigned kPasses = 6; // 66 bits cover the 64-bit keys
    constexpr size_t kRadix = size_t{1} << kDigitBits;
    constexpr u64 kMaxKey = 0x7ff0000000000000ULL; // +inf
    const size_t n = values.size();
    std::vector<u64> keys(n), scratch(n);
    std::vector<u32> counts(kPasses * kRadix, 0);
    for (size_t i = 0; i < n; ++i) {
        const u64 key = std::bit_cast<u64>(values[i]);
        if (key > kMaxKey)
            return false;
        keys[i] = key;
        for (unsigned p = 0; p < kPasses; ++p)
            ++counts[p * kRadix + ((key >> (p * kDigitBits)) & (kRadix - 1))];
    }
    u64 *src = keys.data();
    u64 *dst = scratch.data();
    for (unsigned p = 0; p < kPasses; ++p) {
        const unsigned shift = p * kDigitBits;
        u32 *slot = &counts[p * kRadix];
        if (slot[(src[0] >> shift) & (kRadix - 1)] == n)
            continue;
        u32 offset = 0;
        for (size_t d = 0; d < kRadix; ++d) {
            const u32 c = slot[d];
            slot[d] = offset;
            offset += c;
        }
        for (size_t i = 0; i < n; ++i) {
            const u64 key = src[i];
            dst[slot[(key >> shift) & (kRadix - 1)]++] = key;
        }
        std::swap(src, dst);
    }
    for (size_t i = 0; i < n; ++i)
        values[i] = std::bit_cast<double>(src[i]);
    return true;
}

} // namespace

Percentiles
percentiles(std::vector<double> values)
{
    Percentiles summary;
    if (values.empty())
        return summary;
    if (values.size() < kPercentilesRadixMin || values.size() > UINT32_MAX ||
        !radixSortNonNegative(values))
        std::sort(values.begin(), values.end());
    summary.count = values.size();
    double sum = 0.0;
    for (double v : values)
        sum += v;
    summary.mean = sum / static_cast<double>(values.size());
    auto rank = [&](double pct) {
        // Nearest-rank: ceil(p/100 * N), 1-based.
        size_t r = static_cast<size_t>(std::ceil(
            pct / 100.0 * static_cast<double>(values.size())));
        r = std::clamp<size_t>(r, 1, values.size());
        return values[r - 1];
    };
    summary.p50 = rank(50.0);
    summary.p90 = rank(90.0);
    summary.p95 = rank(95.0);
    summary.p99 = rank(99.0);
    summary.max = values.back();
    return summary;
}

Percentiles
percentilesFromBuckets(const std::vector<double> &bounds,
                       const std::vector<u64> &counts, double min,
                       double max, double sum)
{
    Percentiles summary;
    if (counts.empty())
        return summary;
    u64 total = 0;
    for (u64 c : counts)
        total += c;
    if (total == 0)
        return summary;
    // An inconsistent caller can hand min > max (e.g. a histogram
    // merged from empty shards); collapse to an ordered range instead
    // of feeding std::clamp undefined bounds.
    const double lo = std::min(min, max);
    const double hi = std::max(min, max);
    summary.count = total;
    summary.mean = sum / static_cast<double>(total);
    summary.max = hi;
    auto rank = [&](double pct) {
        // Nearest-rank over the cumulative bucket counts; the value
        // is the bucket's upper bound (bucket resolution).
        const u64 target = std::max<u64>(
            1, static_cast<u64>(std::ceil(
                   pct / 100.0 * static_cast<double>(total))));
        u64 seen = 0;
        for (size_t b = 0; b < counts.size(); ++b) {
            seen += counts[b];
            if (seen >= target) {
                double v = b < bounds.size() ? bounds[b] : hi;
                return std::clamp(v, lo, hi);
            }
        }
        return hi;
    };
    summary.p50 = rank(50.0);
    summary.p90 = rank(90.0);
    summary.p95 = rank(95.0);
    summary.p99 = rank(99.0);
    return summary;
}

void
Stats::dump(std::ostream &os) const
{
    for (const auto &[name, value] : values) {
        os << std::left << std::setw(40) << name << ' '
           << std::setprecision(9) << value << '\n';
    }
}

} // namespace hetsim
