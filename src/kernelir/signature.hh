/**
 * @file
 * Content signature of a KernelDescriptor, for timing memoization.
 *
 * The signature hashes everything the profile resolver and the
 * compiler models read from a descriptor: the name, per-item
 * arithmetic, every memory stream's numeric content and buffer name,
 * the loop traits, and the work-group/chain parameters.  TraceFn
 * closures cannot be hashed; like the miss-ratio memo in trace.cc, the
 * signature relies on (kernel name, buffer name, working set) to
 * discriminate trace generators, plus a bit recording whether a
 * generator is present at all.
 */

#ifndef HETSIM_KERNELIR_SIGNATURE_HH
#define HETSIM_KERNELIR_SIGNATURE_HH

#include "common/types.hh"
#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "kernelir/trace.hh"
#include "sim/timing_cache.hh"

namespace hetsim::ir
{

/** @return content hash of a descriptor (see file comment). */
u64 kernelSignature(const KernelDescriptor &desc);

/**
 * Resolve and time one kernel launch through the global
 * sim::TimingCache: on a hit the memoized profile+timing is returned
 * without touching the resolver; on a miss (or with the cache
 * disabled) the launch is evaluated exactly as before - resolve,
 * chain-efficiency scaling, timeKernel - and the result memoized.
 *
 * @param resolver profile resolver bound to @p spec.
 * @param spec     device to model.
 * @param freq     clock pair to time at.
 * @param prec     element precision.
 * @param desc     kernel descriptor.
 * @param items    work-items launched.
 * @param wg_size  work-group size override (0 = preference).
 * @param cg       compiler output for this (desc, hints, spec).
 */
sim::TimingEntry memoizedTiming(ProfileResolver &resolver,
                                const sim::DeviceSpec &spec,
                                const sim::FreqDomain &freq,
                                Precision prec,
                                const KernelDescriptor &desc, u64 items,
                                u32 wg_size, const Codegen &cg);

/**
 * Fold one timed launch into obs::Profiler::global() when profiling
 * is on: one observation per runtime launch or co-execution chunk,
 * keyed by its signature (arguments as for memoizedTiming, @p model
 * the programming model that compiled it).
 */
void observeLaunch(const sim::DeviceSpec &spec, ModelKind model,
                   const sim::FreqDomain &freq, Precision prec,
                   const KernelDescriptor &desc, u64 items, u32 wg_size,
                   const sim::KernelTiming &timing);

} // namespace hetsim::ir

#endif // HETSIM_KERNELIR_SIGNATURE_HH
