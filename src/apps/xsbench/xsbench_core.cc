#include "xsbench_core.hh"

#include <algorithm>
#include <cmath>
#include <functional>

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

} // namespace

template <typename Real>
Problem<Real>::Problem(int gridpoints, u64 lookups_)
    : gridpointsPerNuclide(gridpoints), lookups(lookups_)
{
    const int G = gridpointsPerNuclide;
    unionSize = static_cast<u64>(numNuclides) * G;

    // --- Per-nuclide grids (sorted random energies, random XS). -----
    nuclideEnergy.resize(static_cast<u64>(numNuclides) * G);
    nuclideXs.resize(static_cast<u64>(numNuclides) * G * xsChannels);
    Rng rng(0x5EED5ULL);
    for (int n = 0; n < numNuclides; ++n) {
        Real *energies = &nuclideEnergy[static_cast<u64>(n) * G];
        for (int g = 0; g < G; ++g)
            energies[g] = static_cast<Real>(rng.uniform());
        std::sort(energies, energies + G);
        for (int g = 0; g < G; ++g)
            for (int c = 0; c < xsChannels; ++c) {
                nuclideXs[(static_cast<u64>(n) * G + g) * xsChannels +
                          c] = static_cast<Real>(rng.uniform());
            }
    }

    // --- Unionized grid. ---------------------------------------------
    // K-way merge of the sorted per-nuclide runs.  Equal energies form
    // one group; after a group every nuclide's cursor is its last
    // gridpoint g >= 1 with energies[g] <= e (0 if none), ties across
    // nuclides included, so each row is the previous row with only the
    // merged nuclides' cursors advanced.
    struct Head
    {
        Real energy;
        int nuclide;
        bool operator>(const Head &o) const { return energy > o.energy; }
    };
    std::vector<Head> heap; // min-heap of each nuclide's next gridpoint
    std::vector<u32> next(numNuclides, 0);
    for (int n = 0; n < numNuclides; ++n)
        heap.push_back({nuclideEnergy[static_cast<u64>(n) * G], n});
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});

    unionEnergy.reserve(unionSize);
    unionIndex.reserve(unionSize * numNuclides);
    std::vector<u32> cursor(numNuclides, 0);
    while (!heap.empty()) {
        const Real e = heap.front().energy;
        u64 group = 0;
        while (!heap.empty() && heap.front().energy == e) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
            const int n = heap.back().nuclide;
            heap.pop_back();
            cursor[n] = next[n];
            if (++next[n] < static_cast<u32>(G)) {
                heap.push_back(
                    {nuclideEnergy[static_cast<u64>(n) * G + next[n]], n});
                std::push_heap(heap.begin(), heap.end(), std::greater<>{});
            }
            ++group;
        }
        for (u64 k = 0; k < group; ++k) {
            unionEnergy.push_back(e);
            unionIndex.insert(unionIndex.end(), cursor.begin(),
                              cursor.end());
        }
    }

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

    results.assign(lookups, Real(0));
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
    const int G = gridpointsPerNuclide;
    for (u64 i = begin; i < end; ++i) {
        double energy;
        u32 material;
        samplePair(i, energy, material);

        // Binary search in the unionized energy grid (serial chain).
        u64 lo = 0, hi = unionSize - 1;
        while (lo + 1 < hi) {
            u64 mid = (lo + hi) / 2;
            if (static_cast<double>(unionEnergy[mid]) <= energy)
                lo = mid;
            else
                hi = mid;
        }

        double macro[xsChannels] = {0, 0, 0, 0, 0};
        const u32 *indices = &unionIndex[lo * numNuclides];
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
    double sum = 0.0;
    for (Real r : results)
        sum += static_cast<double>(r);
    return sum / static_cast<double>(results.size());
}

template <typename Real>
bool
Problem<Real>::finite() const
{
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
    const std::vector<Real> *ue = &unionEnergy;

    // 1. Binary search over the unionized energies: dependent chain.
    ir::MemStream search;
    search.buffer = "union-energy";
    search.bytesPerItemSp = search_steps * 4.0;
    search.pattern = sim::AccessPattern::RandomGather;
    search.workingSetBytesSp = unionSize * 4;
    search.dependentAccessesPerItem = search_steps;
    search.trace = [usize, ue](sim::SetAssocCache &cache, Rng &rng) {
        const u64 samples = ir::defaultTraceProbes / 32;
        ir::TraceBatcher batch(cache);
        for (u64 k = 0; k < samples; ++k) {
            double target = rng.uniform();
            u64 lo = 0, hi = usize - 1;
            while (lo + 1 < hi) {
                u64 mid = (lo + hi) / 2;
                batch.push(mid * sizeof(Real));
                if (static_cast<double>((*ue)[mid]) <= target)
                    lo = mid;
                else
                    hi = mid;
            }
        }
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
    idx.trace = [usize, row_bytes, nucs](sim::SetAssocCache &cache,
                                         Rng &rng) {
        const u64 samples = ir::defaultTraceProbes / 16;
        ir::TraceBatcher batch(cache);
        for (u64 k = 0; k < samples; ++k) {
            u64 row = rng.below(usize);
            for (int s = 0; s < static_cast<int>(nucs); ++s) {
                u64 n = rng.below(numNuclides);
                batch.push(row * row_bytes + n * 4);
            }
        }
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
    grid.trace = [G, nucs](sim::SetAssocCache &cache, Rng &rng) {
        const u64 samples = ir::defaultTraceProbes /
                            (32 * 2 * (xsChannels + 1));
        const u64 stride = (xsChannels + 1) * sizeof(Real);
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

template struct Problem<float>;
template struct Problem<double>;

} // namespace hetsim::apps::xsbench
