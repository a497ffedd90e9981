/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/cache.hh"
#include "sim/device.hh"

namespace hetsim::sim
{
namespace
{

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache cache(1024, 64, 2);
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(0));
    EXPECT_TRUE(cache.access(63)); // same line
    EXPECT_FALSE(cache.access(64)); // next line
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2 ways, 1 set: capacity 2 lines.
    SetAssocCache cache(128, 64, 2);
    cache.access(0);     // A miss
    cache.access(64);    // B miss
    cache.access(0);     // A hit (B is now LRU)
    cache.access(128);   // C miss, evicts B
    EXPECT_TRUE(cache.access(0));    // A survived
    EXPECT_FALSE(cache.access(64));  // B was evicted
}

TEST(Cache, StreamingMissesEveryLine)
{
    SetAssocCache cache(64 * KiB, 64, 8);
    for (Addr addr = 0; addr < 1 * MiB; addr += 64)
        cache.access(addr);
    // Working set >> capacity: all compulsory misses.
    EXPECT_EQ(cache.misses(), cache.accesses());
}

TEST(Cache, ResidentSetHitsAfterWarmup)
{
    SetAssocCache cache(64 * KiB, 64, 8);
    auto sweep = [&] {
        for (Addr addr = 0; addr < 32 * KiB; addr += 64)
            cache.access(addr);
    };
    sweep(); // warm
    u64 misses_before = cache.misses();
    sweep();
    EXPECT_EQ(cache.misses(), misses_before); // all hits
}

TEST(Cache, AccessRangeTouchesEveryLine)
{
    SetAssocCache cache(4 * KiB, 64, 4);
    cache.accessRange(10, 200); // spans lines 0..3
    EXPECT_EQ(cache.accesses(), 4u);
    cache.accessRange(0, 0);
    EXPECT_EQ(cache.accesses(), 4u);
}

TEST(Cache, ResetClearsState)
{
    SetAssocCache cache(4 * KiB, 64, 4);
    cache.access(0);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 1.0); // no accesses
    EXPECT_FALSE(cache.access(0)); // cold again
}

/** Brute-force true LRU: per set, a map from line to last-use tick;
 *  a miss in a full set evicts the line with the smallest tick. */
class ReferenceLru
{
  public:
    ReferenceLru(u64 size_bytes, u32 line_bytes, u32 assoc)
        : lineBytes(line_bytes), assoc(assoc),
          sets(size_bytes / (u64(line_bytes) * assoc))
    {
    }

    bool
    access(Addr addr)
    {
        const u64 line = addr / lineBytes;
        std::map<u64, u64> &set = sets[line % sets.size()];
        ++tick;
        auto it = set.find(line);
        if (it != set.end()) {
            it->second = tick;
            return true;
        }
        if (set.size() == assoc) {
            auto lru = set.begin();
            for (auto w = set.begin(); w != set.end(); ++w)
                if (w->second < lru->second)
                    lru = w;
            set.erase(lru);
        }
        set.emplace(line, tick);
        return false;
    }

  private:
    u64 lineBytes;
    u64 assoc;
    u64 tick = 0;
    std::vector<std::map<u64, u64>> sets;
};

struct Geometry
{
    const char *name;
    u64 bytes;
    u32 line;
    u32 assoc;
};

std::vector<Geometry>
differentialGeometries()
{
    // "odd": 3 ways pad to 4, and 5 sets take the multiply-shift index.
    std::vector<Geometry> geoms = {{"toy", 4 * 64 * 2, 64, 2},
                                   {"odd", 5 * 64 * 3, 64, 3}};
    for (const auto &[name, spec] :
         {std::pair{"cpu", sim::a10_7850kCpu()},
          std::pair{"apu", sim::a10_7850kGpu()},
          std::pair{"dgpu", sim::radeonR9_280X()}})
        geoms.push_back({name, spec.l2Bytes, spec.l2LineBytes,
                         spec.l2Assoc});
    return geoms;
}

/** Random lines over 3x capacity, strided sweeps, same-line runs and
 *  rows (random 4-6 line rows, then random offsets in the row, so a
 *  line recurs non-adjacently, as in XSBench's union-index stream),
 *  interleaved in chunks so each pattern meets a warm cache. */
std::vector<Addr>
mixedStream(const Geometry &g, u64 seed)
{
    Rng rng(seed);
    std::vector<Addr> addrs;
    const u64 region = 3 * g.bytes;
    Addr sweep = 0;
    for (int chunk = 0; chunk < 24; ++chunk) {
        switch (chunk % 4) {
          case 0:
            for (int k = 0; k < 3000; ++k)
                addrs.push_back(rng.below(region));
            break;
          case 1: {
            const u64 stride = 4u << (chunk % 6);
            for (int k = 0; k < 3000; ++k, sweep += stride)
                addrs.push_back(sweep % region);
            break;
          }
          case 2:
            for (int k = 0; k < 600; ++k) {
                const Addr line_base =
                    rng.below(region / g.line) * g.line;
                const u64 run = 1 + rng.below(8);
                for (u64 r = 0; r < run; ++r)
                    addrs.push_back(line_base + rng.below(g.line));
            }
            break;
          default:
            for (int k = 0; k < 300; ++k) {
                const u64 row_bytes = (4 + rng.below(3)) * g.line;
                const Addr row = rng.below(region / row_bytes) * row_bytes;
                for (int n = 0; n < 17; ++n)
                    addrs.push_back(row + rng.below(row_bytes / 4) * 4);
            }
            break;
        }
    }
    return addrs;
}

TEST(CacheDifferential, MatchesReferenceLruAccessByAccess)
{
    for (const Geometry &g : differentialGeometries()) {
        SCOPED_TRACE(g.name);
        SetAssocCache cache(g.bytes, g.line, g.assoc);
        ReferenceLru ref(g.bytes, g.line, g.assoc);
        if (std::string(g.name) == "dgpu") {
            EXPECT_EQ(cache.sets(), 768u); // the modulo set index
        }
        const std::vector<Addr> addrs = mixedStream(g, 17);
        u64 misses = 0;
        for (size_t i = 0; i < addrs.size(); ++i) {
            const bool hit = cache.access(addrs[i]);
            ASSERT_EQ(hit, ref.access(addrs[i])) << "access " << i;
            misses += !hit;
        }
        EXPECT_EQ(cache.accesses(), addrs.size());
        EXPECT_EQ(cache.misses(), misses);
        EXPECT_GT(misses, 0u);
        EXPECT_LT(misses, addrs.size());
    }
}

TEST(CacheDifferential, LinesNearTagBoundMatchReference)
{
    // The dGPU's 768 sets take the multiply-shift index; lines up to
    // 2^32 - 2 (the largest a 32-bit tag holds) must land in the sets
    // line % 768 does, with hits and evictions as in the reference.
    const Geometry g = differentialGeometries().back();
    SetAssocCache cache(g.bytes, g.line, g.assoc);
    ReferenceLru ref(g.bytes, g.line, g.assoc);
    ASSERT_EQ(cache.sets(), 768u);
    const u64 top = (u64(1) << 32) - 2;
    Rng rng(53);
    std::vector<u64> lines;
    for (u64 k = 0; k < 4 * g.bytes / g.line; ++k)
        lines.push_back(top - k);
    for (int k = 0; k < 20000; ++k) {
        lines.push_back(top - rng.below(g.bytes / 4));
        lines.push_back(rng.below(top + 1));
        // Conflicting lines: one set, 3x its ways.
        lines.push_back(top - 768 * rng.below(3 * g.assoc));
    }
    u64 hits = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
        const Addr addr = lines[i] * g.line + rng.below(g.line);
        const bool hit = cache.access(addr);
        ASSERT_EQ(hit, ref.access(addr)) << "access " << i;
        hits += hit;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_GT(cache.misses(), 0u);
}

TEST(CacheDifferential, BatchAndStreamEqualAccessLoop)
{
    for (const Geometry &g : differentialGeometries()) {
        SCOPED_TRACE(g.name);
        const std::vector<Addr> addrs = mixedStream(g, 29);
        SetAssocCache loop(g.bytes, g.line, g.assoc);
        SetAssocCache batch(g.bytes, g.line, g.assoc);
        for (Addr a : addrs)
            loop.access(a);
        batch.accessBatch(addrs.data(), addrs.size());
        EXPECT_EQ(batch.accesses(), loop.accesses());
        EXPECT_EQ(batch.misses(), loop.misses());

        // Strided streams, sub-line and super-line strides, starting
        // mid-line, appended to the warm caches above.
        for (u64 stride : {0u, 4u, 12u, 64u, 200u}) {
            SetAssocCache stream = batch;
            loop = batch;
            const Addr start = 4 * g.bytes + 20;
            stream.accessStream(start, stride, 5000);
            for (u64 k = 0; k < 5000; ++k)
                loop.access(start + k * stride);
            EXPECT_EQ(stream.accesses(), loop.accesses()) << stride;
            EXPECT_EQ(stream.misses(), loop.misses()) << stride;
            // Equal LRU state too: replay one more stream on both.
            for (Addr a : addrs) {
                ASSERT_EQ(stream.access(a), loop.access(a)) << stride;
            }
        }
    }
}

TEST(CacheDifferential, ResetReturnsToColdState)
{
    for (const Geometry &g : differentialGeometries()) {
        SCOPED_TRACE(g.name);
        const std::vector<Addr> addrs = mixedStream(g, 41);
        SetAssocCache used(g.bytes, g.line, g.assoc);
        used.accessBatch(addrs.data(), addrs.size());
        used.reset();
        EXPECT_EQ(used.accesses(), 0u);
        EXPECT_EQ(used.misses(), 0u);
        SetAssocCache cold(g.bytes, g.line, g.assoc);
        for (Addr a : addrs)
            ASSERT_EQ(used.access(a), cold.access(a));
    }
}

TEST(CacheDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(SetAssocCache(1024, 48, 2),
                testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(SetAssocCache(1024, 1, 2),
                testing::ExitedWithCode(1), "power of two >= 2");
    EXPECT_EXIT(SetAssocCache(1000, 64, 2),
                testing::ExitedWithCode(1), "not divisible");
    EXPECT_EXIT(SetAssocCache(1024, 64, 0),
                testing::ExitedWithCode(1), "associativity");
}

TEST(CacheDeath, RejectsLineBeyondTagRange)
{
    // Line 2^32 - 1 would alias the empty-way tag; no line may wrap.
    const Addr first_bad = ((u64(1) << 32) - 1) * 64;
    EXPECT_EXIT(SetAssocCache(768 * KiB, 64, 16).access(first_bad),
                testing::ExitedWithCode(1), "32-bit tag");
    EXPECT_EXIT(SetAssocCache(4 * KiB, 64, 4).access(u64(1) << 40),
                testing::ExitedWithCode(1), "32-bit tag");
    const Addr batch[] = {0, 64, first_bad};
    EXPECT_EXIT(SetAssocCache(4 * KiB, 64, 4).accessBatch(batch, 3),
                testing::ExitedWithCode(1), "32-bit tag");
}

/** Property: for any geometry, a loop over a set fitting in the ways
 *  hits after warmup, and one exceeding the ways thrashes. */
class CacheGeometry
    : public testing::TestWithParam<std::tuple<u64, u32, u32>>
{
};

TEST_P(CacheGeometry, AssociativityBoundsConflicts)
{
    auto [size, line, assoc] = GetParam();
    SetAssocCache cache(size, line, assoc);
    const u64 set_stride = static_cast<u64>(cache.sets()) * line;

    // assoc distinct lines mapping to set 0: all fit.
    for (int pass = 0; pass < 3; ++pass)
        for (u32 w = 0; w < assoc; ++w)
            cache.access(w * set_stride);
    EXPECT_EQ(cache.misses(), assoc); // only compulsory

    cache.reset();
    // assoc+1 lines in LRU order: every access misses (classic thrash).
    for (int pass = 0; pass < 3; ++pass)
        for (u32 w = 0; w < assoc + 1; ++w)
            cache.access(w * set_stride);
    EXPECT_EQ(cache.misses(), cache.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    testing::Values(std::make_tuple(u64(4) * KiB, 64u, 2u),
                    std::make_tuple(u64(64) * KiB, 64u, 4u),
                    std::make_tuple(u64(512) * KiB, 64u, 16u),
                    std::make_tuple(u64(768) * KiB, 64u, 16u),
                    std::make_tuple(u64(16) * KiB, 128u, 8u),
                    std::make_tuple(u64(5) * 64 * 3, 64u, 3u)));

} // namespace
} // namespace hetsim::sim
