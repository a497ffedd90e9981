/**
 * @file
 * Kernel intermediate representation.
 *
 * Every device kernel in hetsim is described twice:
 *
 *  1. A *functional body* (plain C++ executed on the host) that computes
 *     the application's real results; this lives in the app code and is
 *     passed to the runtime at launch time.
 *  2. A KernelDescriptor — the machine-readable summary a programming
 *     model's compiler would see: arithmetic per work-item, memory
 *     streams with their access patterns and (optionally) exact sampled
 *     address-trace generators, loop-structure traits, and LDS/barrier
 *     requirements.
 *
 * The descriptor is what a programming model's capability row
 * (captable.hh, compiled by ir::compileWithCaps) consumes to decide
 * SIMD efficiency, and what the profile resolver
 * (trace.hh) turns into a sim::KernelProfile by running the address
 * traces through the device's L2 cache model.
 */

#ifndef HETSIM_KERNELIR_KERNEL_HH
#define HETSIM_KERNELIR_KERNEL_HH

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/cache.hh"
#include "sim/timing.hh"

namespace hetsim::ir
{

/**
 * Generates a sampled address stream into a cache model.
 *
 * Implementations must emit a *contiguous-work-item* sample (the first
 * N items' accesses, N chosen by the generator) so that spatial and
 * temporal locality are preserved; uniform subsampling would destroy
 * the reuse the cache model is supposed to measure.
 */
using TraceFn = std::function<void(sim::SetAssocCache &cache, Rng &rng)>;

/** One logical memory stream of a kernel (one buffer's traffic). */
struct MemStream
{
    /** Buffer name, for reports. */
    std::string buffer;
    /** Logical bytes accessed per work-item, in single precision. */
    double bytesPerItemSp = 0.0;
    /** Whether the bytes double in double precision (real data). */
    bool scalesWithPrecision = true;
    /** Spatial pattern of the stream. */
    sim::AccessPattern pattern = sim::AccessPattern::Sequential;
    /** Approximate bytes touched by the whole launch (SP). */
    u64 workingSetBytesSp = 0;
    /**
     * Of the stream's accesses, how many per work-item form a serial
     * dependence chain (each address depends on the previous load,
     * e.g. binary-search steps).  Misses on these are latency-bound.
     */
    double dependentAccessesPerItem = 0.0;
    /**
     * Optional exact trace generator built over the app's real data
     * structures; when absent an analytic working-set heuristic is
     * used instead (see trace.cc).
     */
    TraceFn trace;
};

/** Structural properties of the kernel's loop nest (compiler inputs). */
struct LoopTraits
{
    /** Branches whose outcome varies between adjacent work-items. */
    bool divergentControlFlow = false;
    /** Inner loop trip count varies per work-item. */
    bool variableTripCount = false;
    /** Loads through index arrays (gather). */
    bool indirectAddressing = false;
    /** The kernel is (or contains) a reduction. */
    bool reduction = false;
    /** Correctness requires work-group barriers. */
    bool needsBarriers = false;
    /** Blocking/tiling opportunity exists (e.g. CoMD force loops). */
    bool tileable = false;
    /** Depth of manually unrollable inner loops. */
    int unrollableDepth = 0;
};

/** Machine-readable description of one device kernel. */
struct KernelDescriptor
{
    std::string name;
    /** Floating-point operations per work-item. */
    double flopsPerItem = 0.0;
    /** Integer/address operations per work-item. */
    double intOpsPerItem = 0.0;
    /** Memory streams. */
    std::vector<MemStream> streams;
    /**
     * LDS bytes moved per work-item when the model stages data through
     * the LDS (only honored when the compiler supports LDS and the
     * variant requests it).
     */
    double ldsBytesPerItemIfUsed = 0.0;
    /** Barriers per work-item when LDS staging is used. */
    double barriersPerItem = 0.0;
    /** Structural traits seen by the compilers. */
    LoopTraits loop;
    /** Natural work-group size. */
    u32 preferredWorkgroup = 64;
    /**
     * Concurrent dependent-miss chains per CU this kernel sustains
     * (limited by register-pressure occupancy); only meaningful when a
     * stream declares dependent accesses.
     */
    double chainConcurrencyPerCu = 64.0;

    /** @return total logical load+store bytes per item at precision. */
    double bytesPerItem(Precision prec) const;
};

/** Hand-tuning decisions made by the author of an app variant. */
struct OptHints
{
    /** Stage data through the LDS (OpenCL/C++ AMP only). */
    bool useLds = false;
    /** Expose parallelism in tiles (C++ AMP tiles / OpenCL WGs). */
    bool tiled = false;
    /** Manual unroll factor (OpenCL only honors > 1). */
    int unroll = 1;
    /** Loop-invariant code manually hoisted (OpenCL only). */
    bool hoistedInvariants = false;
    /** Work-group size override (0 = kernel's preference). */
    u32 workgroupSize = 0;
    /** Collapsed nest depth (OpenMP target collapse(n); 1 = none). */
    int collapse = 1;
};

} // namespace hetsim::ir

#endif // HETSIM_KERNELIR_KERNEL_HH
