/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"

namespace hetsim
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    u64 first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(99);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(-3.0, 7.0);
        ASSERT_GE(v, -3.0);
        ASSERT_LT(v, 7.0);
    }
}

/** below(bound) stays in range and covers the range. */
class RngBelow : public testing::TestWithParam<u64>
{
};

TEST_P(RngBelow, InRangeAndCovers)
{
    const u64 bound = GetParam();
    Rng rng(bound * 977 + 1);
    std::vector<int> hits(static_cast<size_t>(std::min<u64>(bound, 64)),
                          0);
    for (int i = 0; i < 4000; ++i) {
        u64 v = rng.below(bound);
        ASSERT_LT(v, bound);
        if (bound <= 64)
            ++hits[static_cast<size_t>(v)];
    }
    if (bound <= 64) {
        for (u64 v = 0; v < bound; ++v)
            EXPECT_GT(hits[static_cast<size_t>(v)], 0)
                << "value " << v << " never drawn (bound " << bound
                << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBelow,
                         testing::Values<u64>(1, 2, 3, 7, 16, 64, 1000,
                                              1u << 20));

TEST(Rng, FillBelowMatchesBelowLoop)
{
    const u64 bounds[] = {1, 2, 3, 68, 76840, (1ull << 33) + 1};
    for (u64 bound : bounds) {
        for (u64 count : {0, 1, 17, 1000}) {
            SCOPED_TRACE(testing::Message()
                         << "bound " << bound << " count " << count);
            Rng loop(bound ^ (count << 40)), fill(bound ^ (count << 40));
            std::vector<u64> want(count), got(count);
            for (u64 &v : want)
                v = loop.below(bound);
            fill.fillBelow(bound, got.data(), count);
            EXPECT_EQ(got, want);
            EXPECT_EQ(fill.next(), loop.next());
        }
    }
}

} // namespace
} // namespace hetsim
