#include "acc.hh"

#include "common/logging.hh"

namespace hetsim::acc
{

sim::TaskId
kernelsRegion(Runtime &rt, const ir::KernelDescriptor &desc, u64 n,
              const LoopClauses &clauses,
              const std::vector<const void *> &reads,
              const std::vector<const void *> &writes,
              const rt::KernelBody &body)
{
    if (n == 0)
        fatal("acc: kernels loop with zero trip count");

    // Without 'independent' the compiler must assume dependences and
    // serializes the loop on a single gang (a classic OpenACC trap).
    ir::KernelDescriptor effective = desc;
    if (!clauses.independent) {
        warn("acc: loop %s not marked independent; emitting "
             "conservative (near-scalar) schedule", desc.name.c_str());
        effective.loop.divergentControlFlow = true;
        effective.loop.variableTripCount = true;
    }
    if (clauses.reduction)
        effective.loop.reduction = true;

    // Implicit conservative data movement around the region for
    // anything not already present.
    rt.stageIn(reads);

    ir::OptHints hints;
    if (clauses.vector)
        hints.workgroupSize = clauses.vector;
    sim::TaskId task = rt.queue().launch(effective, n, hints, body);

    // async defers the copy-outs until acc::wait(), where duplicate
    // copy-outs of the same array coalesce into one transfer.
    rt.stageOut(writes, writes, clauses.async);
    return task;
}

void
wait(Runtime &rt)
{
    rt.flush();
}

} // namespace hetsim::acc
