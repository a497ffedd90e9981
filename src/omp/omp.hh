/**
 * @file
 * hetsim::omp - an OpenMP 4.x target-offload directive frontend.
 *
 * Reproduces the directive programming model Memeti et al. (PAPERS.md)
 * add to the paper's comparison, and the porting target Agueny
 * documents for OpenACC codes: annotated loops offloaded through
 * "#pragma omp target teams distribute parallel for", structured data
 * lifetimes through "#pragma omp target data", and OpenMP's implicit
 * data-mapping rule - any mapped array a target region references
 * without an explicit map clause or enclosing data environment is
 * mapped tofrom, i.e. staged in AND back out around every region (even
 * more conservative than OpenACC's copyin/copyout split).
 *
 * Because C++ has no pragmas we can intercept, directives are spelled
 * as scoped objects and calls:
 *
 *   #pragma omp target data map(to:a) map(from:b)
 *                          ->  TargetData data(rt, MapTo{a}, MapFrom{b});
 *   #pragma omp target teams distribute parallel for \
 *           collapse(2) reduction(+:s) thread_limit(V)
 *   for (...)              ->  targetLoop(rt, desc, n,
 *                                {.threadLimit=V, .collapse=2,
 *                                 .reduction=true}, reads, writes, body);
 *
 * Codegen-relevant quirks flow through the capability table
 * (kernelir/captable.hh, ModelKind::OmpTarget): collapse(n) on a
 * regular nest wins back part of the variable-trip penalty, LDS hints
 * are warned about and ignored, and transfers run at the directive
 * runtime's pageable staging efficiency.
 */

#ifndef HETSIM_OMP_OMP_HH
#define HETSIM_OMP_OMP_HH

#include <vector>

#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "runtime/offload.hh"
#include "sim/device.hh"

namespace hetsim::omp
{

/** Pointer list for a map clause. */
using rt::PtrList;

/** map(to: ...) clause. */
struct MapTo : PtrList
{
    using PtrList::PtrList;
};

/** map(from: ...) clause. */
struct MapFrom : PtrList
{
    using PtrList::PtrList;
};

/** map(alloc: ...) clause (device allocation, no transfer). */
struct MapAlloc : PtrList
{
    using PtrList::PtrList;
};

/** Clauses of a "target teams distribute parallel for" directive. */
struct ForClauses
{
    /** num_teams(n); 0 lets the runtime choose. */
    u64 numTeams = 0;
    /** thread_limit(n); 0 lets the runtime choose. */
    u32 threadLimit = 0;
    /** collapse(n) flattened nest depth; 1 = no collapse. */
    int collapse = 1;
    /** The loop carries a reduction clause. */
    bool reduction = false;
    /**
     * nowait: the target region is a deferred task and its implicit
     * copy-backs wait for the next taskwait(rt) - the standard remedy
     * (besides target data) for per-region implicit mapping.
     */
    bool nowait = false;
};

/**
 * The OpenMP device runtime bound to one offload target.  declare()
 * supplies the [0:n] array-section shape every map clause needs.
 */
class TargetRuntime : public rt::DataEnv
{
  public:
    TargetRuntime(sim::DeviceType type, Precision precision)
        : TargetRuntime(sim::deviceFor(type), precision)
    {
    }
    TargetRuntime(const sim::DeviceSpec &spec, Precision precision)
        : DataEnv(spec, ir::ModelKind::OmpTarget, precision, "omp")
    {
    }
};

/** "#pragma omp taskwait": flush deferred nowait copy-backs. */
void taskwait(TargetRuntime &rt);

/**
 * A "#pragma omp target data" environment: stages map(to:) arrays on
 * entry, map(from:) arrays on exit, and marks everything listed as
 * present so enclosed target regions skip their implicit tofrom maps.
 */
class TargetData
{
  public:
    TargetData(TargetRuntime &rt, MapTo to, MapFrom from = {},
               MapAlloc alloc = {})
        : region(rt, std::move(to), std::move(from), std::move(alloc))
    {
    }

  private:
    rt::DataEnv::Region region;
};

/**
 * Core of the target construct (type-erased body).
 * Prefer the targetLoop template below.
 */
sim::TaskId targetRegion(TargetRuntime &rt,
                         const ir::KernelDescriptor &desc, u64 n,
                         const ForClauses &clauses,
                         const std::vector<const void *> &reads,
                         const std::vector<const void *> &writes,
                         const rt::KernelBody &body);

/**
 * "#pragma omp target teams distribute parallel for" over [0, n).
 *
 * @param rt      the device runtime.
 * @param desc    loop descriptor (what the compiler sees).
 * @param n       trip count.
 * @param clauses teams/thread_limit/collapse/reduction/nowait.
 * @param reads   host arrays the region reads (implicit map set).
 * @param writes  host arrays the region writes (implicit map set).
 * @param fn      per-iteration body: void(u64 i).
 */
template <typename Body>
void
targetLoop(TargetRuntime &rt, const ir::KernelDescriptor &desc, u64 n,
           const ForClauses &clauses,
           const std::vector<const void *> &reads,
           const std::vector<const void *> &writes, Body &&fn)
{
    targetRegion(rt, desc, n, clauses, reads, writes,
                 [&fn](u64 begin, u64 end) {
                     for (u64 i = begin; i < end; ++i)
                         fn(i);
                 });
}

} // namespace hetsim::omp

#endif // HETSIM_OMP_OMP_HH
