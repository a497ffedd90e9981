/**
 * @file
 * Analytic kernel timing model.
 *
 * Kernel time is a roofline over four serial-resource terms plus a
 * launch overhead:
 *
 *   t = t_launch + max(t_issue, t_mem, t_lds, t_latency)
 *
 *   t_issue:   wavefront-instruction issue (compute) time.  Instruction
 *              throughput scales with core clock, compute units, SIMD
 *              width, and the SIMD efficiency achieved by the
 *              programming model's compiler
 *              (CodegenResult::simdEfficiency).
 *   t_mem:     max(DRAM term, L2 term).  DRAM bandwidth scales with
 *              memory clock, derated by the resolved access-pattern
 *              efficiency, and clipped by the request-issue limit which
 *              scales with core clock (the Figure 7 interaction).
 *   t_lds:     local-data-store traffic served at LDS bandwidth.
 *   t_latency: serially-dependent load chains (pointer chases, binary
 *              searches) bounded by the sustainable chain concurrency:
 *              (dep misses x miss latency + dep L2 hits x hit latency)
 *              / (CUs x chains).  L2 hit latency runs on the core
 *              clock, which is what makes XSBench scale with core
 *              rather than memory frequency (paper Fig. 7d).
 *
 * The DRAM/L2 byte split comes from the cache simulator (see
 * kernelir/trace.hh), fed with sampled address streams drawn from each
 * application's real data structures.
 */

#ifndef HETSIM_SIM_TIMING_HH
#define HETSIM_SIM_TIMING_HH

#include <string>

#include "common/types.hh"
#include "sim/device.hh"

namespace hetsim::sim
{

/** Dominant spatial pattern of a kernel's DRAM traffic. */
enum class AccessPattern
{
    Sequential,   ///< unit-stride streaming
    Stencil,      ///< neighborhood reuse (structured grid)
    Strided,      ///< regular non-unit stride
    Gather,       ///< indexed, with some spatial locality
    RandomGather, ///< effectively random (hash/binary-search lookups)
};

/** @return printable pattern name. */
const char *toString(AccessPattern pattern);

/**
 * @return fraction of peak DRAM bandwidth achievable for a pattern on
 * a device type (granularity waste of fetching full lines for sparse
 * accesses).  CPUs fare relatively better on irregular patterns: the
 * out-of-order cores and deep caches recover more of each line.
 */
double patternEfficiency(AccessPattern pattern, DeviceType type);

/**
 * Aggregate execution profile of one kernel launch, after the cache
 * simulator has split memory traffic into DRAM and L2 bytes.
 */
struct KernelProfile
{
    std::string name;
    /** Number of work-items executed. */
    u64 items = 0;
    /** Floating-point operations per item (in element precision). */
    double flopsPerItem = 0.0;
    /** Integer/address ALU operations per item. */
    double intOpsPerItem = 0.0;
    /** Memory instructions per item (loads + stores). */
    double memInstrsPerItem = 0.0;
    /** Bytes per item that miss the LLC and go to DRAM. */
    double dramBytesPerItem = 0.0;
    /** Bytes per item served by the LLC. */
    double l2BytesPerItem = 0.0;
    /** Dominant DRAM access pattern (reporting only). */
    AccessPattern pattern = AccessPattern::Sequential;
    /**
     * Resolved bandwidth efficiency of the DRAM traffic: the
     * bytes-weighted harmonic mean of the per-stream pattern
     * efficiencies (see kernelir/trace.cc).
     */
    double patternEff = 1.0;
    /** Serially-dependent LLC misses per item (latency chains). */
    double dependentMissesPerItem = 0.0;
    /** Serially-dependent LLC *hits* per item.  GPU L2 hit latency is
     *  long and runs on the core clock, so hit-dominated pointer
     *  chases (binary searches over hot trees) scale with the core
     *  frequency - the paper's Fig. 7d XSBench behaviour. */
    double dependentHitsPerItem = 0.0;
    /**
     * Concurrent dependent chains per CU the kernel can keep in
     * flight (occupancy-limited); clipped by the device's cap.
     */
    double chainConcurrencyPerCu = 64.0;
    /** LDS bytes moved per item (0 when LDS is not used). */
    double ldsBytesPerItem = 0.0;
    /** Work-group barriers executed per item. */
    double barriersPerItem = 0.0;
    /** Work-group (tile) size used for the launch. */
    u32 workgroupSize = 64;
};

/** What a programming model's compiler made of a kernel. */
struct CodegenResult
{
    /** Fraction of peak instruction-issue rate achieved. */
    double simdEfficiency = 1.0;
    /** Derate on achievable DRAM bandwidth (coalescing quality). */
    double bwEfficiency = 1.0;
    /** Extra per-launch overhead on top of the device's base, us. */
    double launchOverheadUs = 0.0;
    /** Whether the generated code stages data through the LDS. */
    bool usesLds = false;
    /** Human-readable compiler decision notes. */
    std::string note;
};

/** Timing breakdown of one kernel launch. */
struct KernelTiming
{
    double seconds = 0.0;        ///< total, including launch overhead
    double issueSeconds = 0.0;   ///< instruction-issue (compute) term
    double memSeconds = 0.0;     ///< memory term
    double ldsSeconds = 0.0;     ///< LDS term
    double latencySeconds = 0.0; ///< dependent-miss-chain term
    double launchSeconds = 0.0;
    double waveInstructions = 0.0;
    double cycles = 0.0;       ///< body cycles at the core clock
    /** Issued wavefront instructions per cycle per CU (Table I IPC). */
    double ipc = 0.0;
};

/**
 * Time one kernel launch on a device.
 *
 * @param spec device description.
 * @param freq core/memory clocks to model (Figure 7 sweeps these).
 * @param prec element precision (DP derates FP instruction issue).
 * @param prof kernel launch profile.
 * @param cg   compiler model output for this kernel.
 */
KernelTiming timeKernel(const DeviceSpec &spec, const FreqDomain &freq,
                        Precision prec, const KernelProfile &prof,
                        const CodegenResult &cg);

} // namespace hetsim::sim

#endif // HETSIM_SIM_TIMING_HH
