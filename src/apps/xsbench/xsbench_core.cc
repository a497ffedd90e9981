#include "xsbench_core.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <type_traits>
#include <utility>

namespace hetsim::apps::xsbench
{

namespace
{

/** SplitMix64 step - lookups must be deterministic per index so every
 *  programming-model variant computes identical results regardless of
 *  work partitioning. */
inline u64
mix(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

inline double
asUnit(u64 x)
{
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/** One gridpoint draw: its energy's bit pattern and its nuclide. */
template <typename Real>
struct Draw
{
    using Bits = std::conditional_t<sizeof(Real) == 4, u32, u64>;
    Bits key;
    u32 nuclide;
};

/** Stable LSD radix sort of @p draws by key, one byte per pass. */
template <typename Real>
void
radixSort(std::vector<Draw<Real>> &draws)
{
    using Bits = typename Draw<Real>::Bits;
    constexpr int passes = sizeof(Bits);
    std::array<std::array<u32, 256>, passes> hist{};
    for (const Draw<Real> &d : draws)
        for (int p = 0; p < passes; ++p)
            ++hist[p][(d.key >> (8 * p)) & 0xFF];

    std::vector<Draw<Real>> scratch(draws.size());
    for (int p = 0; p < passes; ++p) {
        std::array<u32, 256> &offset = hist[p];
        u32 sum = 0;
        for (u32 &slot : offset)
            sum += std::exchange(slot, sum);
        for (const Draw<Real> &d : draws)
            scratch[offset[(d.key >> (8 * p)) & 0xFF]++] = d;
        draws.swap(scratch);
    }
}

} // namespace

template <typename Real>
Shape<Real>::Shape(int gridpoints)
    : gridpointsPerNuclide(gridpoints),
      unionSize(static_cast<u64>(numNuclides) * gridpoints),
      index(unionSize * numNuclides)
{
    const int G = gridpointsPerNuclide;

    // --- Per-nuclide draws: G energies, then G * 5 cross sections. ----
    std::vector<Draw<Real>> draws(unionSize);
    nuclideXs.resize(unionSize * xsChannels);
    Rng rng(0x5EED5ULL);
    for (int n = 0; n < numNuclides; ++n) {
        for (int g = 0; g < G; ++g) {
            const Real e = static_cast<Real>(rng.uniform());
            draws[static_cast<u64>(n) * G + g] = {
                std::bit_cast<typename Draw<Real>::Bits>(e),
                static_cast<u32>(n)};
        }
        Real *xs = &nuclideXs[static_cast<u64>(n) * G * xsChannels];
        for (int k = 0; k < G * xsChannels; ++k)
            xs[k] = static_cast<Real>(rng.uniform());
    }

    // --- Every gridpoint in energy order. ----------------------------
    // Energies are non-negative, so their bit patterns sort like their
    // values.  Scattering the sorted draws back per nuclide yields each
    // nuclide's sorted grid; the sorted energies are the union grid.
    radixSort<Real>(draws);
    nuclideEnergy.resize(unionSize);
    unionEnergy.resize(unionSize);
    static_assert(numNuclides <= 256, "unionOwner stores nuclides as u8");
    unionOwner.resize(unionSize);
    std::vector<u32> filled(numNuclides, 0);
    for (u64 u = 0; u < unionSize; ++u) {
        const u32 n = draws[u].nuclide;
        const Real e = std::bit_cast<Real>(draws[u].key);
        nuclideEnergy[static_cast<u64>(n) * G + filled[n]++] = e;
        unionEnergy[u] = e;
        unionOwner[u] = static_cast<u8>(n);
    }
    std::vector<Draw<Real>>().swap(draws);

    // --- Materials (H-M-like: fuel is large and hot). -----------------
    static const int mat_sizes[numMaterials] = {34, 21, 12, 9, 7, 6,
                                                5,  5,  4,  4, 3, 3};
    matStart.assign(numMaterials + 1, 0);
    for (int m = 0; m < numMaterials; ++m)
        matStart[m + 1] = matStart[m] + mat_sizes[m];
    matNuclide.resize(matStart[numMaterials]);
    Rng mat_rng(0xA70DULL);
    for (int m = 0; m < numMaterials; ++m) {
        for (u32 s = matStart[m]; s < matStart[m + 1]; ++s)
            matNuclide[s] =
                static_cast<u32>(mat_rng.below(numNuclides));
    }
}

template <typename Real>
std::shared_ptr<const Shape<Real>>
Shape<Real>::get(int gridpoints)
{
    static LatestSlot<Shape> slot;
    return slot.get(
        [gridpoints](const Shape &shape) {
            return shape.gridpointsPerNuclide == gridpoints;
        },
        [gridpoints] { return std::make_shared<const Shape>(gridpoints); });
}

template <typename Real>
void
Shape<Real>::writeUnionIndex() const
{
    // Equal energies form one group; after a group every nuclide's
    // cursor is its last gridpoint g with energies[g] <= e (0 if none),
    // ties across nuclides included, and every row of the group is the
    // same.  Each group advances only its own nuclides' cursors.
    std::call_once(indexOnce, [this] {
        u32 *rows = index.data();
        std::vector<u32> cursor(numNuclides, 0);
        std::vector<u32> filled(numNuclides, 0);
        for (u64 u = 0; u < unionSize;) {
            const Real e = unionEnergy[u];
            u64 end = u;
            for (; end < unionSize && unionEnergy[end] == e; ++end)
                cursor[unionOwner[end]] = filled[unionOwner[end]]++;
            for (; u < end; ++u)
                std::copy(cursor.begin(), cursor.end(),
                          rows + u * numNuclides);
        }

        const u64 buckets = searchBuckets(unionSize);
        bucketStart.resize(buckets + 1);
        u64 first = 0;
        for (u64 b = 0; b < buckets; ++b) {
            const double edge =
                static_cast<double>(b) / static_cast<double>(buckets);
            while (first < unionSize &&
                   static_cast<double>(unionEnergy[first]) < edge)
                ++first;
            bucketStart[b] = static_cast<u32>(first);
        }
        bucketStart[buckets] = static_cast<u32>(unionSize);
    });
}

template <typename Real>
u64
Shape<Real>::searchBuckets(u64 union_size)
{
    return std::bit_ceil(std::max<u64>(union_size / 8, 1));
}

template <typename Real>
u64
Shape<Real>::unionLower(double energy) const
{
    // Energies below 0 fall in the first bucket and energies from 1 up
    // in the last; the first bucket starts at 0 and the last ends at
    // unionSize, so their searches stay exact too.
    const u64 buckets = bucketStart.size() - 1;
    const double scaled = energy * static_cast<double>(buckets);
    u64 b = 0;
    if (scaled >= static_cast<double>(buckets))
        b = buckets - 1;
    else if (scaled > 0.0)
        b = static_cast<u64>(scaled);
    const Real *grid = unionEnergy.data();
    const Real *above = std::upper_bound(
        grid + bucketStart[b], grid + bucketStart[b + 1], energy,
        [](double e, Real x) { return e < static_cast<double>(x); });
    const u64 upper = static_cast<u64>(above - grid);
    return std::clamp<u64>(upper, 1, unionSize - 1) - 1;
}

template <typename Real>
Problem<Real>::Problem(int gridpoints, u64 lookups_)
    : shape(Shape<Real>::get(gridpoints)),
      gridpointsPerNuclide(gridpoints), lookups(lookups_),
      unionSize(shape->unionSize), nuclideEnergy(shape->nuclideEnergy),
      nuclideXs(shape->nuclideXs), unionEnergy(shape->unionEnergy),
      unionIndex(shape->unionIndex), matStart(shape->matStart),
      matNuclide(shape->matNuclide), results(lookups_)
{
}

template <typename Real>
void
Problem<Real>::fillState()
{
    shape->writeUnionIndex();
    std::call_once(stateOnce, [this] {
        std::fill(results.begin(), results.end(), Real(0));
        stateWritten = true;
    });
}

template <typename Real>
void
Problem<Real>::samplePair(u64 i, double &energy, u32 &material) const
{
    u64 h = mix(i);
    energy = asUnit(h);
    // The fuel (material 0) dominates lookups, as in XSBench.
    u64 roll = mix(h) % 100;
    if (roll < 40) {
        material = 0;
    } else {
        material = 1 + static_cast<u32>(mix(roll ^ h) %
                                        (numMaterials - 1));
    }
}

template <typename Real>
void
Problem<Real>::macroXsLookup(u64 begin, u64 end)
{
    fillState();
    const int G = gridpointsPerNuclide;
    for (u64 i = begin; i < end; ++i) {
        double energy;
        u32 material;
        samplePair(i, energy, material);

        double macro[xsChannels] = {0, 0, 0, 0, 0};
        const u32 *indices =
            &unionIndex[shape->unionLower(energy) * numNuclides];
        for (u32 s = matStart[material]; s < matStart[material + 1];
             ++s) {
            u32 n = matNuclide[s];
            u32 g = indices[n];
            u32 g1 = std::min<u32>(g + 1, static_cast<u32>(G - 1));
            const Real *e =
                &nuclideEnergy[static_cast<u64>(n) * G];
            double e0 = e[g], e1 = e[g1];
            double f = e1 > e0
                           ? std::clamp((energy - e0) / (e1 - e0),
                                        0.0, 1.0)
                           : 0.0;
            const Real *xs0 =
                &nuclideXs[(static_cast<u64>(n) * G + g) * xsChannels];
            const Real *xs1 =
                &nuclideXs[(static_cast<u64>(n) * G + g1) *
                           xsChannels];
            for (int c = 0; c < xsChannels; ++c)
                macro[c] += xs0[c] + f * (xs1[c] - xs0[c]);
        }

        double sum = 0.0;
        for (double m : macro)
            sum += m;
        results[i] = static_cast<Real>(sum);
    }
}

template <typename Real>
double
Problem<Real>::checksum() const
{
    // An unwritten problem's results are all zero by definition.
    if (!stateWritten)
        return 0.0;
    double sum = 0.0;
    for (Real r : results)
        sum += static_cast<double>(r);
    return sum / static_cast<double>(results.size());
}

template <typename Real>
bool
Problem<Real>::finite() const
{
    if (!stateWritten)
        return true;
    for (Real r : results) {
        if (!std::isfinite(static_cast<double>(r)))
            return false;
    }
    return true;
}

template <typename Real>
u64
Problem<Real>::tableBytes() const
{
    return unionEnergy.size() * sizeof(Real) +
           unionIndex.size() * sizeof(u32) +
           nuclideEnergy.size() * sizeof(Real) +
           nuclideXs.size() * sizeof(Real);
}

template <typename Real>
double
Problem<Real>::avgNuclidesPerLookup() const
{
    double fuel = matStart[1] - matStart[0];
    double rest = 0.0;
    for (int m = 1; m < numMaterials; ++m)
        rest += matStart[m + 1] - matStart[m];
    rest /= (numMaterials - 1);
    return 0.40 * fuel + 0.60 * rest;
}

template <typename Real>
ir::KernelDescriptor
Problem<Real>::descriptor() const
{
    const double nucs = avgNuclidesPerLookup();
    const double search_steps =
        std::log2(static_cast<double>(unionSize));

    ir::KernelDescriptor desc;
    desc.name = "macro_xs_lookup";
    desc.flopsPerItem = nucs * (xsChannels * 3.0 + 4.0) + 10.0;
    desc.intOpsPerItem = search_steps * 5.0 + nucs * 8.0 + 20.0;
    desc.loop.divergentControlFlow = true; // material-dependent path
    desc.loop.variableTripCount = true;    // nuclides per material
    desc.loop.indirectAddressing = true;
    // Huge kernel: register pressure limits resident waves, so few
    // dependent-miss chains overlap (calibrated to Table I's IPC).
    desc.chainConcurrencyPerCu = 2.5;
    desc.preferredWorkgroup = 64;

    const u64 usize = unionSize;

    // 1. Binary search over the unionized energies: dependent chain.
    ir::MemStream search;
    search.buffer = "union-energy";
    search.bytesPerItemSp = search_steps * 4.0;
    search.pattern = sim::AccessPattern::RandomGather;
    search.workingSetBytesSp = unionSize * 4;
    search.dependentAccessesPerItem = search_steps;
    // The trace owns the shape, so a stored descriptor outlives its
    // Problem safely.
    // Each generator draws from a local copy of the stream's Rng and
    // writes it back once: TraceBatcher::push stores u64s that could
    // alias the stream's Rng, which would keep its state in memory.
    search.trace = [usize, shape = shape](sim::SetAssocCache &cache,
                                          Rng &stream_rng) {
        const u64 samples = ir::defaultTraceProbes / 32;
        const Real *ue = shape->unionEnergy.data();
        Rng rng = stream_rng;
        ir::TraceBatcher batch(cache);
        for (u64 k = 0; k < samples; ++k) {
            double target = rng.uniform();
            u64 lo = 0, hi = usize - 1;
            while (lo + 1 < hi) {
                u64 mid = (lo + hi) / 2;
                batch.push(mid * sizeof(Real));
                // Select by mask: the comparison is a coin flip, so a
                // branch on it mispredicts half the time.
                const u64 up = -u64(static_cast<double>(ue[mid]) <= target);
                lo = (mid & up) | (lo & ~up);
                hi = (hi & up) | (mid & ~up);
            }
        }
        stream_rng = rng;
    };
    desc.streams.push_back(std::move(search));

    // 2. Per-nuclide index row of the hit gridpoint.
    ir::MemStream idx;
    idx.buffer = "union-index";
    idx.bytesPerItemSp = nucs * 4.0;
    idx.scalesWithPrecision = false;
    idx.pattern = sim::AccessPattern::RandomGather;
    idx.workingSetBytesSp = unionSize * numNuclides * 4;
    const u64 row_bytes = numNuclides * 4;
    // A sample reads per_row entries of one row, which spans at most
    // row_bytes / line + 2 consecutive lines.  When the cache has at
    // least that many sets, those lines fall in distinct sets, so every
    // access after a line's first within the sample is an MRU hit, and
    // reordering the first accesses changes no set's sequence.  The
    // trace therefore probes each distinct line of the row once, in
    // line order, and counts the other accesses with countMruHits().
    idx.trace = [usize, row_bytes, nucs](sim::SetAssocCache &cache,
                                         Rng &stream_rng) {
        const u64 samples = ir::defaultTraceProbes / 16;
        const u64 per_row = static_cast<u64>(nucs);
        const u32 shift =
            static_cast<u32>(std::countr_zero(cache.lineBytes()));
        const u64 span = row_bytes / cache.lineBytes() + 2;
        if (span > cache.sets() || span > 64)
            fatal("union-index trace: a %llu-byte row spans up to %llu "
                  "lines, more than the cache's %u sets or a 64-line mask",
                  static_cast<unsigned long long>(row_bytes),
                  static_cast<unsigned long long>(span), cache.sets());
        std::vector<u64> nuclides(per_row);
        Rng rng = stream_rng;
        u64 repeats = 0;
        ir::TraceBatcher batch(cache);
        for (u64 k = 0; k < samples; ++k) {
            const u64 base = rng.below(usize) * row_bytes;
            rng.fillBelow(numNuclides, nuclides.data(), per_row);
            const u64 first = base >> shift;
            u64 lines = 0; // bit i: line first + i is read
            for (u64 n : nuclides)
                lines |= u64(1) << (((base + n * 4) >> shift) - first);
            repeats += per_row - static_cast<u64>(std::popcount(lines));
            for (; lines != 0; lines &= lines - 1)
                batch.push((first + std::countr_zero(lines)) << shift);
        }
        cache.countMruHits(repeats);
        stream_rng = rng;
    };
    desc.streams.push_back(std::move(idx));

    // 3. Nuclide grid interpolation gathers (two gridpoints x 5+1).
    ir::MemStream grid;
    grid.buffer = "nuclide-grids";
    grid.bytesPerItemSp = nucs * 2.0 * (xsChannels + 1) * 4.0;
    grid.pattern = sim::AccessPattern::RandomGather;
    grid.workingSetBytesSp =
        (nuclideXs.size() + nuclideEnergy.size()) * 4;
    const u64 G = gridpointsPerNuclide;
    // One probe per element so the miss ratio composes with the
    // resolver's per-element access counts.
    grid.trace = [G, nucs](sim::SetAssocCache &cache, Rng &stream_rng) {
        const u64 samples = ir::defaultTraceProbes /
                            (32 * 2 * (xsChannels + 1));
        const u64 stride = (xsChannels + 1) * sizeof(Real);
        Rng rng = stream_rng;
        ir::TraceBatcher batch(cache);
        for (u64 k = 0; k < samples; ++k) {
            for (int s = 0; s < static_cast<int>(nucs); ++s) {
                u64 n = rng.below(numNuclides);
                u64 g = rng.below(G - 1);
                Addr base = (n * G + g) * stride;
                for (u64 e = 0; e < 2 * (xsChannels + 1); ++e)
                    batch.push(base + e * sizeof(Real));
            }
        }
        stream_rng = rng;
    };
    desc.streams.push_back(std::move(grid));

    // 4. Result write.
    ir::MemStream out;
    out.buffer = "results";
    out.bytesPerItemSp = 4.0;
    out.pattern = sim::AccessPattern::Sequential;
    out.workingSetBytesSp = lookups * 4;
    desc.streams.push_back(std::move(out));
    return desc;
}

namespace
{

/** The results of every lookup of one (gridpoints, lookups). */
template <typename Real>
struct Results
{
    int gridpoints;
    u64 lookups;
    StateVector<Real> results;
};

} // namespace

template <typename Real>
void
runReference(Problem<Real> &prob)
{
    static LatestSlot<Results<Real>> slot;
    bool computed = false;
    auto memo = slot.get(
        [&prob](const Results<Real> &r) {
            return r.gridpoints == prob.gridpointsPerNuclide &&
                   r.lookups == prob.lookups;
        },
        [&prob, &computed] {
            prob.macroXsLookup(0, prob.lookups);
            computed = true;
            return std::make_shared<const Results<Real>>(Results<Real>{
                prob.gridpointsPerNuclide, prob.lookups, prob.results});
        });
    if (!computed) {
        prob.fillState();
        std::copy(memo->results.begin(), memo->results.end(),
                  prob.results.begin());
    }
}

template void runReference<float>(Problem<float> &);
template void runReference<double>(Problem<double> &);

template struct Shape<float>;
template struct Shape<double>;
template struct Problem<float>;
template struct Problem<double>;

} // namespace hetsim::apps::xsbench
