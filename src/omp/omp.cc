#include "omp.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hetsim::omp
{

sim::TaskId
targetRegion(TargetRuntime &rt, const ir::KernelDescriptor &desc, u64 n,
             const ForClauses &clauses,
             const std::vector<const void *> &reads,
             const std::vector<const void *> &writes,
             const rt::KernelBody &body)
{
    if (n == 0)
        fatal("omp: target loop with zero trip count");

    ir::KernelDescriptor effective = desc;
    if (clauses.reduction)
        effective.loop.reduction = true;

    // Implicit data mapping: every referenced array without an
    // enclosing data environment is mapped tofrom - staged in before
    // the region regardless of whether the region only writes it.
    // (This is the OpenMP default the "target data" directive exists
    // to avoid; OpenACC at least splits copyin from copyout.)
    std::vector<const void *> implicit = reads;
    for (const void *ptr : writes) {
        if (std::find(implicit.begin(), implicit.end(), ptr) ==
            implicit.end()) {
            implicit.push_back(ptr);
        }
    }
    rt.stageIn(implicit);

    ir::OptHints hints;
    if (clauses.threadLimit)
        hints.workgroupSize = clauses.threadLimit;
    if (clauses.collapse > 1)
        hints.collapse = clauses.collapse;
    sim::TaskId task = rt.queue().launch(effective, n, hints, body);

    // The tofrom rule also copies every implicitly-mapped array back,
    // written or not; nowait defers the copy-backs to taskwait().
    rt.stageOut(implicit, writes, clauses.nowait);
    return task;
}

void
taskwait(TargetRuntime &rt)
{
    rt.flush();
}

} // namespace hetsim::omp
