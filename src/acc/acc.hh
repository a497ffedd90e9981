/**
 * @file
 * hetsim::acc - an OpenACC-style directive frontend.
 *
 * Reproduces the programming model of OpenACC as the paper uses it
 * (PGI v14.10 targeting Radeon): annotated loops offloaded through a
 * "kernels" construct with gang/vector clauses, implicit conservative
 * data movement around each compute region, and the "data" directive
 * (DataRegion) to hoist transfers out of compute regions.
 *
 * Because C++ has no pragmas we can intercept, directives are spelled
 * as scoped objects and calls:
 *
 *   #pragma acc data copyin(a) copyout(b)   ->  DataRegion data(rt,
 *                                                 copyin({a}),
 *                                                 copyout({b}));
 *   #pragma acc kernels loop gang(G) vector(V) independent
 *   for (...)                               ->  kernelsLoop(rt, desc,
 *                                                 n, {.gang=G,
 *                                                 .vector=V,
 *                                                 .independent=true},
 *                                                 reads, writes, body);
 *
 * Semantics the paper measures are preserved: without an enclosing
 * data region every kernels region stages its inputs in and its
 * outputs out (the conservative default that hurts discrete GPUs);
 * LDS, barriers and unrolling are not expressible.
 */

#ifndef HETSIM_ACC_ACC_HH
#define HETSIM_ACC_ACC_HH

#include <vector>

#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "runtime/offload.hh"
#include "sim/device.hh"

namespace hetsim::acc
{

/** Pointer list for a data clause. */
using rt::PtrList;

/** copyin(...) clause. */
struct CopyIn : PtrList
{
    using PtrList::PtrList;
};

/** copyout(...) clause. */
struct CopyOut : PtrList
{
    using PtrList::PtrList;
};

/** create(...) clause (device allocation, no transfer). */
struct Create : PtrList
{
    using PtrList::PtrList;
};

/** Clauses of a "kernels loop" directive. */
struct LoopClauses
{
    /** Number of gangs (work-groups); 0 lets the compiler choose. */
    u64 gang = 0;
    /** Vector length (threads per gang); 0 lets the compiler choose. */
    u32 vector = 0;
    /** The programmer asserts iteration independence. */
    bool independent = false;
    /** The loop carries a reduction the compiler must implement. */
    bool reduction = false;
    /**
     * async(queue) clause: the region returns immediately and its
     * implicit copy-outs are deferred until acc::wait() - the other
     * standard OpenACC remedy (besides the data directive) for the
     * conservative per-region transfers.
     */
    bool async = false;
};

/**
 * The OpenACC runtime bound to one device.  declare() supplies the
 * shape PGI needs for every array a directive names (the [n] in
 * copyin(a[0:n])).
 */
class Runtime : public rt::DataEnv
{
  public:
    Runtime(sim::DeviceType type, Precision precision)
        : Runtime(sim::deviceFor(type), precision)
    {
    }
    Runtime(const sim::DeviceSpec &spec, Precision precision)
        : DataEnv(spec, ir::ModelKind::OpenAcc, precision, "acc")
    {
    }
};

/** "#pragma acc wait": flush deferred async copy-outs. */
void wait(Runtime &rt);

/**
 * A "#pragma acc data" region: stages copyin arrays on entry, copyout
 * arrays on exit, and marks everything listed as present so enclosed
 * kernels regions skip their implicit transfers.
 */
class DataRegion
{
  public:
    DataRegion(Runtime &rt, CopyIn in, CopyOut out = {},
               Create create = {})
        : region(rt, std::move(in), std::move(out), std::move(create))
    {
    }

  private:
    rt::DataEnv::Region region;
};

/**
 * Core of the kernels construct (type-erased body).
 * Prefer the kernelsLoop template below.
 */
sim::TaskId kernelsRegion(Runtime &rt, const ir::KernelDescriptor &desc,
                          u64 n, const LoopClauses &clauses,
                          const std::vector<const void *> &reads,
                          const std::vector<const void *> &writes,
                          const rt::KernelBody &body);

/**
 * "#pragma acc kernels loop" over [0, n).
 *
 * @param rt      the runtime.
 * @param desc    loop descriptor (what the compiler sees).
 * @param n       trip count.
 * @param clauses gang/vector/independent/reduction clauses.
 * @param reads   host arrays read by the loop.
 * @param writes  host arrays written by the loop.
 * @param fn      per-iteration body: void(u64 i).
 */
template <typename Body>
void
kernelsLoop(Runtime &rt, const ir::KernelDescriptor &desc, u64 n,
            const LoopClauses &clauses,
            const std::vector<const void *> &reads,
            const std::vector<const void *> &writes, Body &&fn)
{
    kernelsRegion(rt, desc, n, clauses, reads, writes,
                  [&fn](u64 begin, u64 end) {
                      for (u64 i = begin; i < end; ++i)
                          fn(i);
                  });
}

} // namespace hetsim::acc

#endif // HETSIM_ACC_ACC_HH
