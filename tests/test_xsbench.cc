/**
 * @file
 * Tests for the XSBench proxy application.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/xsbench/xsbench_core.hh"
#include "core/harness.hh"
#include "core/workload.hh"
#include "kernelir/captable.hh"
#include "sim/cache.hh"
#include "sim/timing_cache.hh"

namespace hetsim
{
namespace
{

using core::ModelKind;

TEST(XsbenchCore, UnionGridSortedAndIndexed)
{
    apps::xsbench::Problem<double> prob(512, 10000);
    prob.fillState();
    EXPECT_TRUE(std::is_sorted(prob.unionEnergy.begin(),
                               prob.unionEnergy.end()));
    EXPECT_EQ(prob.unionIndex.size(),
              prob.unionSize * apps::xsbench::numNuclides);
    // Index invariant: nuclide gridpoint energy <= union energy.
    for (u64 u = 100; u < prob.unionSize; u += 9973) {
        for (int n = 0; n < apps::xsbench::numNuclides; n += 7) {
            u32 g = prob.unionIndex[u * apps::xsbench::numNuclides + n];
            // g == 0 also encodes "below this nuclide's first point".
            if (g > 0) {
                ASSERT_LE(prob.nuclideEnergy[u64(n) * 512 + g],
                          prob.unionEnergy[u] + 1e-12);
            }
        }
    }
}

/** Brute-force union grid: a global sort of every gridpoint, and for
 *  each row the count of energies[n][1..G-1] <= e. */
template <typename Real>
void
expectReferenceUnionGrid(int G, bool expect_tie)
{
    using namespace apps::xsbench;
    Problem<Real> prob(G, 1);
    prob.fillState();
    std::vector<Real> sorted = prob.nuclideEnergy;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(prob.unionEnergy.size(), sorted.size());
    ASSERT_TRUE(prob.unionEnergy == sorted);

    ASSERT_EQ(prob.unionIndex.size(), prob.unionSize * numNuclides);
    for (u64 u = 0; u < prob.unionSize; ++u) {
        const Real e = prob.unionEnergy[u];
        for (int n = 0; n < numNuclides; ++n) {
            const Real *energies = &prob.nuclideEnergy[u64(n) * G];
            const u32 count = static_cast<u32>(
                std::upper_bound(energies + 1, energies + G, e) -
                (energies + 1));
            ASSERT_EQ(prob.unionIndex[u * numNuclides + n], count)
                << "row " << u << " nuclide " << n;
        }
    }

    // Equal energies in two different nuclides take the tie path.
    u64 cross_ties = 0;
    for (u64 u = 0; u + 1 < prob.unionSize; ++u) {
        if (prob.unionEnergy[u] != prob.unionEnergy[u + 1])
            continue;
        int holders = 0;
        for (int n = 0; n < numNuclides; ++n) {
            const Real *energies = &prob.nuclideEnergy[u64(n) * G];
            holders += std::binary_search(energies, energies + G,
                                          prob.unionEnergy[u]);
        }
        cross_ties += holders > 1;
    }
    if (expect_tie) {
        EXPECT_GT(cross_ties, 0u);
    }
}

TEST(XsbenchCore, UnionGridMatchesBruteForceReference)
{
    for (int G : {256, 512, 1130}) {
        SCOPED_TRACE(G);
        expectReferenceUnionGrid<float>(G, true);
        expectReferenceUnionGrid<double>(G, false);
    }
}

/** The union gridpoint of @p energy by binary search over the grid. */
template <typename Real>
u64
binarySearchLower(const std::vector<Real> &grid, double energy)
{
    u64 lo = 0, hi = grid.size() - 1;
    while (lo + 1 < hi) {
        u64 mid = (lo + hi) / 2;
        if (static_cast<double>(grid[mid]) <= energy)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

/** Every bucket edge and its neighbours, every union energy (duplicates
 *  included) and the ends of [0, 1) find the binary search's gridpoint. */
template <typename Real>
void
expectBucketedSearchEqualsBinarySearch(int G)
{
    using namespace apps::xsbench;
    const Shape<Real> shape(G);
    shape.writeUnionIndex();
    const u64 buckets = Shape<Real>::searchBuckets(shape.unionSize);
    ASSERT_EQ(std::popcount(buckets), 1);
    std::vector<double> energies{0.0, std::nextafter(1.0, 0.0)};
    for (u64 b = 0; b <= buckets; ++b) {
        const double edge = double(b) / double(buckets);
        energies.insert(energies.end(),
                        {std::nextafter(edge, -1.0), edge,
                         std::nextafter(edge, 2.0)});
    }
    u64 duplicates = 0;
    for (u64 u = 0; u < shape.unionSize; ++u) {
        const double e = shape.unionEnergy[u];
        energies.insert(energies.end(), {std::nextafter(e, -1.0), e,
                                         std::nextafter(e, 2.0)});
        duplicates += u > 0 && shape.unionEnergy[u - 1] == e;
    }
    // Single precision draws collide on the grid; the search must land
    // past every copy of an energy.
    if (sizeof(Real) == 4) {
        EXPECT_GT(duplicates, 0u);
    }
    for (double e : energies)
        ASSERT_EQ(shape.unionLower(e), binarySearchLower(shape.unionEnergy, e))
            << "energy " << e;
}

TEST(XsbenchCore, BucketedSearchEqualsBinarySearch)
{
    for (int G : {256, 1130}) {
        SCOPED_TRACE(G);
        expectBucketedSearchEqualsBinarySearch<float>(G);
        expectBucketedSearchEqualsBinarySearch<double>(G);
    }
}

/** Replays the problem's Rng: per nuclide, G energies then G * 5 cross
 *  sections.  Each nuclide's grid must be its energy draws, sorted, and
 *  its cross sections must be the draws in order. */
template <typename Real>
void
expectNuclideGridsAreSortedDraws(int G)
{
    using namespace apps::xsbench;
    const Problem<Real> prob(G, 1);
    ASSERT_EQ(prob.nuclideEnergy.size(), u64(numNuclides) * G);
    ASSERT_EQ(prob.nuclideXs.size(), u64(numNuclides) * G * xsChannels);
    Rng rng(0x5EED5ULL);
    std::vector<Real> energies(G), xs(u64(G) * xsChannels);
    for (int n = 0; n < numNuclides; ++n) {
        for (Real &e : energies)
            e = static_cast<Real>(rng.uniform());
        std::sort(energies.begin(), energies.end());
        for (Real &x : xs)
            x = static_cast<Real>(rng.uniform());
        const auto grid = prob.nuclideEnergy.begin() + u64(n) * G;
        ASSERT_TRUE(std::equal(energies.begin(), energies.end(), grid))
            << "energies of nuclide " << n;
        const auto xs_row =
            prob.nuclideXs.begin() + u64(n) * G * xsChannels;
        ASSERT_TRUE(std::equal(xs.begin(), xs.end(), xs_row))
            << "cross sections of nuclide " << n;
    }
}

TEST(XsbenchCore, NuclideGridsAreSortedDraws)
{
    for (int G : {256, 1130}) {
        SCOPED_TRACE(G);
        expectNuclideGridsAreSortedDraws<float>(G);
        expectNuclideGridsAreSortedDraws<double>(G);
    }
}

TEST(XsbenchCore, PaperTableIsAboutRightSize)
{
    // -s small: ~240 MB (paper Sec. VI-A) in double precision.
    apps::xsbench::Problem<double> prob(apps::xsbench::baseGridpoints,
                                        1);
    double mb = static_cast<double>(prob.tableBytes()) / (1024 * 1024);
    EXPECT_GT(mb, 180.0);
    EXPECT_LT(mb, 320.0);
}

TEST(XsbenchCore, LookupsDeterministicPerIndex)
{
    apps::xsbench::Problem<float> prob(512, 1000);
    double e1, e2;
    u32 m1, m2;
    prob.samplePair(42, e1, m1);
    prob.samplePair(42, e2, m2);
    EXPECT_DOUBLE_EQ(e1, e2);
    EXPECT_EQ(m1, m2);
    EXPECT_LT(m1, u32(apps::xsbench::numMaterials));
}

TEST(XsbenchCore, ResultsPositiveAndBounded)
{
    apps::xsbench::Problem<float> prob(512, 5000);
    prob.macroXsLookup(0, prob.lookups);
    EXPECT_TRUE(prob.finite());
    for (float r : prob.results) {
        ASSERT_GE(r, 0.0f);
        // <= nuclides * channels * max_xs(=1).
        ASSERT_LE(r, 34.0f * 5.0f);
    }
    EXPECT_GT(prob.checksum(), 0.0);
}

TEST(XsbenchCore, DescriptorDeclaresDependentChain)
{
    apps::xsbench::Problem<float> prob(512, 1000);
    auto desc = prob.descriptor();
    double dep = 0.0;
    for (const auto &s : desc.streams)
        dep += s.dependentAccessesPerItem;
    EXPECT_GT(dep, 10.0); // the binary search
    EXPECT_LT(desc.chainConcurrencyPerCu, 64.0); // register pressure
}

TEST(XsbenchCore, ProblemsOfOneSizeShareTheShape)
{
    using namespace apps::xsbench;
    Problem<float> a(512, 1000);
    Problem<float> b(512, 2000);
    EXPECT_EQ(a.shape, b.shape);
    EXPECT_EQ(&a.unionEnergy, &b.unionEnergy);
    EXPECT_EQ(&a.nuclideEnergy, &b.nuclideEnergy);
    EXPECT_EQ(&a.nuclideXs, &b.nuclideXs);
    EXPECT_EQ(&a.matNuclide, &b.matNuclide);
    EXPECT_EQ(&a.unionIndex, &b.unionIndex);
    // The results are each problem's own.
    EXPECT_NE(a.results.data(), b.results.data());
    EXPECT_EQ(b.results.size(), 2000u);

    // One slot per precision: a DP problem leaves the SP slot alone,
    // and another size replaces it while old problems keep theirs.
    Problem<double> dp(512, 1000);
    EXPECT_EQ(Shape<float>::get(512), a.shape);
    Problem<float> other(600, 1000);
    EXPECT_NE(other.shape, a.shape);
    EXPECT_EQ(Shape<float>::get(600), other.shape);
    EXPECT_EQ(Shape<double>::get(512), dp.shape);
    Problem<float> again(512, 1000);
    EXPECT_NE(again.shape, a.shape);
    EXPECT_TRUE(again.unionEnergy == a.unionEnergy);
}

/** Accesses and misses of a descriptor's union-energy trace. */
std::pair<u64, u64>
unionEnergyTrace(const ir::KernelDescriptor &desc)
{
    sim::SetAssocCache cache(768 * 1024, 64, 16);
    Rng rng(42);
    for (const ir::MemStream &stream : desc.streams) {
        if (stream.buffer == "union-energy")
            stream.trace(cache, rng);
    }
    return {cache.accesses(), cache.misses()};
}

TEST(XsbenchCore, DescriptorOutlivesItsProblem)
{
    // The stored descriptor must keep the tables its trace reads after
    // the problem is gone and the memo slot moved to another size.
    using namespace apps::xsbench;
    ir::KernelDescriptor stored =
        Problem<float>(512, 1000).descriptor();
    Problem<float> other(600, 1000);
    const auto got = unionEnergyTrace(stored);
    EXPECT_GT(got.first, 0u);
    const Problem<float> fresh(512, 1000);
    EXPECT_EQ(got, unionEnergyTrace(fresh.descriptor()));
}

template <typename Real>
void
expectUnrunProblemIsAllZero()
{
    apps::xsbench::Problem<Real> prob(512, 1000);
    const double sum = prob.checksum();
    EXPECT_EQ(std::bit_cast<u64>(sum), std::bit_cast<u64>(0.0));
    EXPECT_TRUE(prob.finite());
}

TEST(XsbenchCore, UnrunProblemChecksumIsPositiveZero)
{
    expectUnrunProblemIsAllZero<float>();
    expectUnrunProblemIsAllZero<double>();
}

/** Results and checksum of a full functional run of one problem. */
struct LookupRun
{
    std::vector<u8> resultBytes;
    u64 checksumBits = 0;
    bool operator==(const LookupRun &) const = default;
};

template <typename Real>
LookupRun
runLookups(int G, u64 lookups)
{
    apps::xsbench::Problem<Real> prob(G, lookups);
    prob.macroXsLookup(0, prob.lookups / 3);
    prob.macroXsLookup(prob.lookups / 3, prob.lookups);
    const auto *bytes =
        reinterpret_cast<const u8 *>(prob.results.data());
    return {{bytes, bytes + prob.results.size() * sizeof(Real)},
            std::bit_cast<u64>(prob.checksum())};
}

TEST(XsbenchCore, ConcurrentMixedShapesMatchSerial)
{
    // Four configurations alternate between SP/DP and two sizes, so
    // both memo slots are replaced while other threads read them.
    constexpr u64 lookups = 3000;
    auto run = [](int config) {
        const int G = config / 2 ? 300 : 256;
        return config % 2 ? runLookups<double>(G, lookups)
                          : runLookups<float>(G, lookups);
    };
    std::vector<LookupRun> serial;
    for (int config = 0; config < 4; ++config)
        serial.push_back(run(config));

    constexpr int threads = 4, rounds = 6;
    std::vector<std::vector<LookupRun>> got(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (int r = 0; r < rounds; ++r)
                got[t].push_back(run((t + r) % 4));
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    for (int t = 0; t < threads; ++t) {
        for (int r = 0; r < rounds; ++r)
            EXPECT_TRUE(got[t][r] == serial[(t + r) % 4])
                << "thread " << t << " round " << r;
    }
}

/**
 * The XSBench trace generators before their repeat collapses, kept as
 * references: one access per push, a branchy search, no collapse.
 * @p probe receives every address in access order.
 */
template <typename Real, typename Probe>
void
referenceTrace(const std::string &buffer,
               const apps::xsbench::Problem<Real> &prob, double nucs,
               Rng &rng, Probe probe)
{
    using namespace apps::xsbench;
    const u64 usize = prob.unionSize;
    if (buffer == "union-energy") {
        for (u64 k = 0; k < ir::defaultTraceProbes / 32; ++k) {
            double target = rng.uniform();
            u64 lo = 0, hi = usize - 1;
            while (lo + 1 < hi) {
                u64 mid = (lo + hi) / 2;
                probe(mid * sizeof(Real));
                if (static_cast<double>(prob.unionEnergy[mid]) <= target)
                    lo = mid;
                else
                    hi = mid;
            }
        }
    } else if (buffer == "union-index") {
        const u64 row_bytes = numNuclides * 4;
        for (u64 k = 0; k < ir::defaultTraceProbes / 16; ++k) {
            u64 row = rng.below(usize);
            for (u64 j = 0; j < static_cast<u64>(nucs); ++j)
                probe(row * row_bytes + rng.below(numNuclides) * 4);
        }
    } else {
        ASSERT_EQ(buffer, "nuclide-grids");
        const u64 G = prob.gridpointsPerNuclide;
        const u64 stride = (xsChannels + 1) * sizeof(Real);
        for (u64 k = 0; k < ir::defaultTraceProbes /
                                (32 * 2 * (xsChannels + 1));
             ++k) {
            for (int s = 0; s < static_cast<int>(nucs); ++s) {
                u64 n = rng.below(numNuclides);
                u64 g = rng.below(G - 1);
                Addr base = (n * G + g) * stride;
                for (u64 e = 0; e < 2 * (xsChannels + 1); ++e)
                    probe(base + e * sizeof(Real));
            }
        }
    }
}

/** Each traced stream of a problem leaves an L2 of @p spec exactly as
 *  its reference generator does: counters, Rng state and LRU state. */
template <typename Real>
void
expectTracesMatchReference(const sim::DeviceSpec &spec, u64 seed)
{
    const apps::xsbench::Problem<Real> prob(512, 1000);
    const ir::KernelDescriptor desc = prob.descriptor();
    double nucs = 0.0;
    for (const ir::MemStream &stream : desc.streams) {
        if (stream.buffer == "union-index")
            nucs = stream.bytesPerItemSp / 4.0; // exact: nucs * 4.0
    }
    ASSERT_GT(nucs, 1.0);
    int traced = 0;
    for (const ir::MemStream &stream : desc.streams) {
        if (!stream.trace)
            continue;
        SCOPED_TRACE(stream.buffer);
        ++traced;
        sim::SetAssocCache ref(spec.l2Bytes, spec.l2LineBytes,
                               spec.l2Assoc);
        sim::SetAssocCache got(spec.l2Bytes, spec.l2LineBytes,
                               spec.l2Assoc);
        Rng ref_rng(seed);
        Rng got_rng(seed);
        referenceTrace(stream.buffer, prob, nucs, ref_rng,
                       [&](Addr a) { ref.access(a); });
        stream.trace(got, got_rng);
        EXPECT_EQ(got.accesses(), ref.accesses());
        EXPECT_EQ(got.misses(), ref.misses());
        EXPECT_EQ(got_rng.next(), ref_rng.next());
        // Same LRU state: both caches answer a further stream alike.
        Rng follow(seed ^ 0xF0110);
        u64 differ = 0;
        referenceTrace(stream.buffer, prob, nucs, follow, [&](Addr a) {
            differ += ref.access(a) != got.access(a);
        });
        EXPECT_EQ(differ, 0u);
    }
    EXPECT_EQ(traced, 3);
}

// An L2 geometry under test. The tag, not the function's address,
// is what the test's name and printed parameter show, so both stay
// the same from one build and run to the next.
struct L2Case
{
    const char *tag;
    sim::DeviceSpec (*device)();
};

void
PrintTo(const L2Case &l2, std::ostream *os)
{
    *os << l2.tag;
}

class XsbenchTraces
    : public testing::TestWithParam<std::tuple<L2Case, Precision, u64>>
{
};

TEST_P(XsbenchTraces, CollapsedEqualPerAccessReference)
{
    auto [l2, prec, seed] = GetParam();
    const sim::DeviceSpec spec = l2.device();
    SCOPED_TRACE(spec.name);
    if (prec == Precision::Double)
        expectTracesMatchReference<double>(spec, seed);
    else
        expectTracesMatchReference<float>(spec, seed);
}

std::string
xsbenchTracesName(
    const testing::TestParamInfo<XsbenchTraces::ParamType> &info)
{
    auto [l2, prec, seed] = info.param;
    return std::string(l2.tag) + (prec == Precision::Double ? "Dp" : "Sp") +
           "Seed" + std::to_string(seed);
}

// The cpu (4096 sets), apu (512) and dgpu (768, not a power of two)
// L2 geometries.
INSTANTIATE_TEST_SUITE_P(
    L2s, XsbenchTraces,
    testing::Combine(testing::Values(L2Case{"cpu", &sim::a10_7850kCpu},
                                     L2Case{"apu", &sim::a10_7850kGpu},
                                     L2Case{"dgpu", &sim::radeonR9_280X}),
                     testing::Values(Precision::Single,
                                     Precision::Double),
                     testing::Values(u64(7), u64(0x5EED5))),
    xsbenchTracesName);

TEST(XsbenchTracesDeath, UnionIndexRowMustSpanDistinctSets)
{
    const apps::xsbench::Problem<float> prob(512, 1000);
    const ir::KernelDescriptor desc = prob.descriptor();
    for (const ir::MemStream &stream : desc.streams) {
        if (stream.buffer != "union-index")
            continue;
        Rng rng(1);
        // 4 sets of 64-byte lines; a 272-byte row spans up to 6.
        sim::SetAssocCache few_sets(4 * KiB, 64, 16);
        EXPECT_EXIT(stream.trace(few_sets, rng),
                    testing::ExitedWithCode(1),
                    "272-byte row spans up to 6 lines");
        // 2-byte lines: 138 lines, more than the 64-line mask.
        sim::SetAssocCache tiny_lines(64 * KiB, 2, 1);
        EXPECT_EXIT(stream.trace(tiny_lines, rng),
                    testing::ExitedWithCode(1),
                    "spans up to 138 lines");
    }
}

class XsbenchModels
    : public testing::TestWithParam<std::tuple<ModelKind, Precision>>
{
};

TEST_P(XsbenchModels, ValidatesAgainstSerial)
{
    auto [model, prec] = GetParam();
    auto wl = core::makeXsbench();
    core::WorkloadConfig cfg;
    cfg.scale = 0.02;
    cfg.precision = prec;
    cfg.functional = true;
    auto result = wl->run(model, sim::radeonR9_280X(), cfg);
    EXPECT_TRUE(result.validated) << ir::displayName(model);
    EXPECT_EQ(result.uniqueKernels, 1); // Table I
}

INSTANTIATE_TEST_SUITE_P(
    All, XsbenchModels,
    testing::Combine(testing::Values(ModelKind::Serial,
                                     ModelKind::OpenMp,
                                     ModelKind::OpenCl,
                                     ModelKind::CppAmp,
                                     ModelKind::OpenAcc,
                                     ModelKind::Hc),
                     testing::Values(Precision::Single,
                                     Precision::Double)));

TEST(Xsbench, TableStagingDominatesStartupOnDiscreteGpu)
{
    auto wl = core::makeXsbench();
    core::WorkloadConfig cfg;
    cfg.scale = 0.2;
    cfg.functional = false;
    auto result = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    // "Moving this lookup-table to the GPU memory accounts for a
    // significant amount of total execution time."
    EXPECT_GT(result.transferSeconds, 0.002);
}

TEST(Xsbench, CompareRowsEqualSeparateRuns)
{
    // A compare shares one shape across its models; each row must be
    // what a run of that configuration alone prints.
    auto wl = core::makeXsbench();
    for (const sim::DeviceSpec &device :
         {sim::a10_7850kGpu(), sim::radeonR9_280X()}) {
        for (Precision prec : {Precision::Single, Precision::Double}) {
            SCOPED_TRACE(device.name + " " + toString(prec));
            core::Harness harness(*wl, 0.02, false);
            std::vector<core::SpeedupPoint> rows;
            for (const ir::BackendCaps &caps : ir::backendTable()) {
                if (caps.kind != ModelKind::Serial &&
                    caps.kind != ModelKind::OpenMp)
                    rows.push_back(
                        harness.speedup(device, caps.kind, prec));
            }
            ASSERT_EQ(rows.size(), 6u);
            for (const core::SpeedupPoint &row : rows) {
                sim::TimingCache::global().clear();
                core::WorkloadConfig cfg;
                cfg.scale = 0.02;
                cfg.precision = prec;
                cfg.functional = false;
                const core::RunResult alone =
                    core::makeXsbench()->run(row.model, device, cfg);
                EXPECT_EQ(row.seconds, alone.seconds)
                    << ir::displayName(row.model);
                EXPECT_EQ(row.energyJoules, alone.energyJoules)
                    << ir::displayName(row.model);
            }
        }
    }
}

} // namespace
} // namespace hetsim
