/**
 * @file
 * XSBench proxy application - macroscopic neutron cross-section
 * lookup over a Hoogenboom-Martin-style reactor model.
 *
 * The benchmark builds per-nuclide energy grids of pointwise cross
 * sections, a *unionized* energy grid with per-nuclide indices (the
 * ~240 MB table the paper cites for -s small), and a set of
 * materials, each a list of nuclides.  Each lookup draws a
 * pseudo-random (energy, material) pair, binary-searches the
 * unionized grid (a serially dependent pointer chase) and
 * interpolates five cross sections for every nuclide in the material
 * - the single kernel of Table I, with appalling data locality.
 */

#ifndef HETSIM_APPS_XSBENCH_XSBENCH_CORE_HH
#define HETSIM_APPS_XSBENCH_XSBENCH_CORE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "apps/appsupport.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "kernelir/kernel.hh"
#include "kernelir/tracegen.hh"

namespace hetsim::apps::xsbench
{

/** -s small: nuclides and gridpoints per nuclide. */
constexpr int numNuclides = 68;
constexpr int baseGridpoints = 11303;
/** Default lookups. */
constexpr u64 baseLookups = 15000000;
/** Cross-section channels (total, elastic, absorption, fission, nu-f). */
constexpr int xsChannels = 5;
/** Number of materials in the reactor model. */
constexpr int numMaterials = 12;

/**
 * Allocator that default-initialises: a sized vector of a trivial type
 * is allocated but not written, so its untouched pages cost no memory.
 */
template <typename T>
struct UninitAllocator : std::allocator<T>
{
    template <typename U>
    void
    construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }
};

/** Array sized up front and written on first use. */
template <typename T>
using StateVector = std::vector<T, UninitAllocator<T>>;

/**
 * The read-only tables of one (gridpoints, precision): everything the
 * timing path reads, shared by every Problem of that size, and the
 * union index that functional lookups read.
 */
template <typename Real>
struct Shape
{
    int gridpointsPerNuclide = 0;
    u64 unionSize = 0; ///< numNuclides * gridpointsPerNuclide

    /** Per-nuclide grids: energies[n][g] sorted; xs[n][g*5 + c]. */
    std::vector<Real> nuclideEnergy; ///< [n * G + g]
    std::vector<Real> nuclideXs;     ///< [(n * G + g) * 5 + c]

    /** Unionized grid: sorted energies and the nuclide of each. */
    std::vector<Real> unionEnergy; ///< [unionSize]
    std::vector<u8> unionOwner;    ///< [unionSize]

    /** Materials: CSR of nuclide ids + lookup probability weights. */
    std::vector<u32> matStart;   ///< numMaterials + 1
    std::vector<u32> matNuclide; ///< concatenated nuclide lists

    /**
     * Per-nuclide lower gridpoint of every union energy
     * ([unionSize * numNuclides]).  Allocated but unwritten until the
     * first writeUnionIndex(), so timing-only runs never pay for it.
     */
    const StateVector<u32> &unionIndex = index;

    /**
     * Draw every nuclide's energies and cross sections from one fixed
     * seed, then build the sorted per-nuclide grids and the union grid
     * from a single stable radix sort of all (energy, nuclide) draws.
     */
    explicit Shape(int gridpoints);

    /**
     * The shape of @p gridpoints from a process-wide memo with one
     * slot per precision, holding the most recently requested size.
     */
    static std::shared_ptr<const Shape> get(int gridpoints);

    /**
     * Write the union index and the search buckets, once; later calls
     * return at once.
     */
    void writeUnionIndex() const;

    /**
     * The union gridpoint a lookup of @p energy interpolates from: the
     * last u with unionEnergy[u] <= energy, clamped to [0, unionSize -
     * 2], which is where a binary search over the whole grid ends.
     * Reads the search buckets, so writeUnionIndex() must have run.
     */
    u64 unionLower(double energy) const;

    /**
     * Buckets of the union-grid search for a grid of @p union_size:
     * a power of two, so energy * buckets and every bucket edge
     * b / buckets are exact.
     */
    static u64 searchBuckets(u64 union_size);

  private:
    mutable StateVector<u32> index;
    /**
     * bucketStart[b]: the first u with unionEnergy[u] >= b / buckets;
     * the last entry is unionSize.  Energies in [b, b + 1) / buckets
     * therefore end their search in [bucketStart[b], bucketStart[b +
     * 1]].
     */
    mutable std::vector<u32> bucketStart;
    mutable std::once_flag indexOnce;
};

/**
 * One XSBench run: the shared tables of its size, plus the results
 * that only functional runs write.
 */
template <typename Real>
struct Problem
{
    const std::shared_ptr<const Shape<Real>> shape;

    int gridpointsPerNuclide = 0;
    u64 lookups = 0;
    u64 unionSize = 0; ///< numNuclides * gridpointsPerNuclide

    /** Per-nuclide grids: energies[n][g] sorted; xs[n][g*5 + c]. */
    const std::vector<Real> &nuclideEnergy; ///< [n * G + g]
    const std::vector<Real> &nuclideXs;     ///< [(n * G + g) * 5 + c]

    /** Unionized grid: sorted energies + per-nuclide lower indices. */
    const std::vector<Real> &unionEnergy; ///< [unionSize]
    const StateVector<u32> &unionIndex;   ///< [unionSize * numNuclides]

    /** Materials: CSR of nuclide ids + lookup probability weights. */
    const std::vector<u32> &matStart;   ///< numMaterials + 1
    const std::vector<u32> &matNuclide; ///< concatenated nuclide lists

    /** Per-lookup verification output (sum of the 5 macro XS). */
    StateVector<Real> results;

    /**
     * Share the memoized shape of @p gridpoints; the results are
     * allocated but stay unwritten until fillState().
     */
    Problem(int gridpoints, u64 lookups);

    /**
     * Write the shape's union index and zero the results, once; every
     * macroXsLookup() calls it first.
     */
    void fillState();

    /** The single device kernel: lookups [begin, end). */
    void macroXsLookup(u64 begin, u64 end);

    /** Mean of the results array (figure of merit); 0 before any
     *  lookup ran, as the all-zero array it stands for. */
    double checksum() const;

    /** @return true when all results are finite. */
    bool finite() const;

    /** Kernel descriptor with traces over the real table. */
    ir::KernelDescriptor descriptor() const;

    /** Total table footprint in bytes (the paper's 240 MB). */
    u64 tableBytes() const;

    /** Deterministic (energy, material) pair of lookup @p i. */
    void samplePair(u64 i, double &energy, u32 &material) const;

  private:
    double avgNuclidesPerLookup() const;

    std::once_flag stateOnce;
    std::atomic<bool> stateWritten{false};
};

extern template struct Shape<float>;
extern template struct Shape<double>;
extern template struct Problem<float>;
extern template struct Problem<double>;

/** Gridpoints per nuclide for a scale factor. */
inline int
scaledGridpoints(double scale)
{
    return std::max(256,
                    static_cast<int>(baseGridpoints * scale + 0.5));
}

/** Lookups for a scale factor. */
inline u64
scaledLookups(double scale)
{
    return std::max<u64>(
        4096, static_cast<u64>(double(baseLookups) * scale + 0.5));
}

/**
 * Serial reference: every lookup of @p prob, in place.  The results
 * come from a memo with one slot per precision, keyed by (gridpoints,
 * lookups): lookup i reads only i and the shape, so they are exact.
 */
template <typename Real>
void runReference(Problem<Real> &prob);

extern template void runReference<float>(Problem<float> &);
extern template void runReference<double>(Problem<double> &);

/** Compare results of two problems. */
template <typename Real>
bool
sameState(const Problem<Real> &a, const Problem<Real> &b)
{
    return almostEqual<Real>(a.results, b.results);
}

} // namespace hetsim::apps::xsbench

#endif // HETSIM_APPS_XSBENCH_XSBENCH_CORE_HH
