/**
 * @file
 * Unit tests for the stats registry and the percentile summaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"

namespace hetsim
{
namespace
{

TEST(Stats, AddAccumulates)
{
    Stats stats;
    stats.add("x", 1.5);
    stats.add("x", 2.5);
    EXPECT_DOUBLE_EQ(stats.get("x"), 4.0);
}

TEST(Stats, GetMissingIsZero)
{
    Stats stats;
    EXPECT_DOUBLE_EQ(stats.get("nope"), 0.0);
}

TEST(Stats, DumpContainsEntries)
{
    Stats stats;
    stats.add("kernel.launches", 3);
    std::ostringstream oss;
    stats.dump(oss);
    EXPECT_NE(oss.str().find("kernel.launches"), std::string::npos);
    EXPECT_NE(oss.str().find("3"), std::string::npos);
}

TEST(Percentiles, EmptyInputsYieldZeroSummary)
{
    const Percentiles fromValues = percentiles({});
    EXPECT_EQ(fromValues.count, 0u);
    EXPECT_DOUBLE_EQ(fromValues.p99, 0.0);
    EXPECT_DOUBLE_EQ(fromValues.max, 0.0);

    // No buckets at all (not just all-zero counts) used to walk off
    // the histogram; it must yield the zero summary too.
    const Percentiles fromBuckets =
        percentilesFromBuckets({}, {}, 0.0, 0.0, 0.0);
    EXPECT_EQ(fromBuckets.count, 0u);
    EXPECT_DOUBLE_EQ(fromBuckets.p50, 0.0);

    const Percentiles zeroCounts =
        percentilesFromBuckets({1.0, 2.0}, {0, 0, 0}, 0.0, 0.0, 0.0);
    EXPECT_EQ(zeroCounts.count, 0u);
}

TEST(Percentiles, InvertedRangeIsReordered)
{
    // A histogram merged from empty shards can carry min > max;
    // clamped ranks must not hit undefined std::clamp bounds.
    const Percentiles p =
        percentilesFromBuckets({1.0, 2.0}, {0, 3, 0}, 5.0, 1.5, 5.4);
    EXPECT_EQ(p.count, 3u);
    EXPECT_DOUBLE_EQ(p.max, 5.0);
    EXPECT_GE(p.p50, 1.5);
    EXPECT_LE(p.p50, 5.0);
    EXPECT_GE(p.p99, p.p50);
}

/** Reference: percentiles() as it was before the radix sort - one
 *  std::sort, then the sum and ranks in sorted order. */
Percentiles
referencePercentiles(std::vector<double> values)
{
    Percentiles summary;
    if (values.empty())
        return summary;
    std::sort(values.begin(), values.end());
    summary.count = values.size();
    double sum = 0.0;
    for (double v : values)
        sum += v;
    summary.mean = sum / static_cast<double>(values.size());
    auto rank = [&](double pct) {
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

void
expectBitwiseEqual(const Percentiles &got, const Percentiles &want)
{
    EXPECT_EQ(got.count, want.count);
    const std::pair<const double *, const double *> fields[] = {
        {&got.mean, &want.mean}, {&got.p50, &want.p50},
        {&got.p90, &want.p90},   {&got.p95, &want.p95},
        {&got.p99, &want.p99},   {&got.max, &want.max}};
    for (const auto &[g, w] : fields)
        EXPECT_EQ(std::memcmp(g, w, sizeof(double)), 0)
            << "field " << (g - &got.mean) << ": " << *g << " vs " << *w;
}

/** @return @p n non-negative values drawn with many duplicates, plus
 *  +0.0, subnormals, +inf and the largest finite double. */
std::vector<double>
nonNegativeValues(size_t n, Rng &rng)
{
    const double pool[] = {0.0,
                           std::numeric_limits<double>::denorm_min(),
                           0x1.8p-1060,
                           std::numeric_limits<double>::min(),
                           1.0,
                           2.5,
                           1e300,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity()};
    std::vector<double> values(n);
    for (double &v : values) {
        const u64 kind = rng.below(4);
        if (kind == 0)
            v = pool[rng.below(std::size(pool))];
        else if (kind == 1)
            v = static_cast<double>(rng.below(16)) * 0.125;
        else if (kind == 2)
            v = std::ldexp(rng.uniform(), -1070); // subnormal or 0
        else
            v = rng.uniform(0.0, 1000.0);
    }
    return values;
}

TEST(Percentiles, RadixSortIsBitwiseStdSort)
{
    Rng rng(7);
    const size_t sizes[] = {1, 2, kPercentilesRadixMin - 1,
                            kPercentilesRadixMin,
                            kPercentilesRadixMin + 1, 50000};
    for (size_t n : sizes) {
        SCOPED_TRACE(n);
        for (int trial = 0; trial < 3; ++trial) {
            const std::vector<double> values = nonNegativeValues(n, rng);
            expectBitwiseEqual(percentiles(values),
                               referencePercentiles(values));
        }
    }
    // Inputs the key order does not cover fall back to std::sort.
    for (double odd : {-1.0, -0.0, std::nan("")}) {
        SCOPED_TRACE(odd);
        std::vector<double> values =
            nonNegativeValues(kPercentilesRadixMin + 1, rng);
        values[values.size() / 3] = odd;
        expectBitwiseEqual(percentiles(values),
                           referencePercentiles(values));
    }
}

} // namespace
} // namespace hetsim
