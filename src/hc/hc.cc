#include "hc.hh"

#include <vector>

#include "common/logging.hh"

namespace hetsim::hc
{

AcceleratorView::AcceleratorView(sim::DeviceType type, Precision precision)
    : rt(sim::deviceFor(type), ir::ModelKind::Hc, precision)
{
}

AcceleratorView::AcceleratorView(const sim::DeviceSpec &spec,
                                 Precision precision)
    : rt(spec, ir::ModelKind::Hc, precision)
{
}

void
AcceleratorView::registerPointer(const void *ptr, u64 bytes,
                                 std::string name)
{
    if (!ptr)
        fatal("hc: registering a null pointer");
    if (registry.count(ptr))
        return;
    registry.emplace(ptr, rt.createBuffer("hc:" + std::move(name),
                                          bytes));
}

rt::BufferId
AcceleratorView::bufferFor(const void *ptr) const
{
    auto it = registry.find(ptr);
    if (it == registry.end())
        fatal("hc: pointer was never registered with the runtime");
    return it->second;
}

CompletionFuture
AcceleratorView::copyAsync(const void *ptr, CopyDir dir,
                           CompletionFuture dep)
{
    rt::BufferId buf = bufferFor(ptr);
    sim::TaskId task;
    if (dir == CopyDir::HostToDevice) {
        rt.markHostDirty(buf);
        task = rt.copyToDevice(buf, dep.task);
    } else {
        task = rt.copyToHost(buf, dep.task);
    }
    return CompletionFuture{task};
}

CompletionFuture
AcceleratorView::launchAsync(const ir::KernelDescriptor &desc, u64 items,
                             const ir::OptHints &hints,
                             const rt::KernelBody &body,
                             std::initializer_list<CompletionFuture> deps)
{
    std::vector<sim::TaskId> tasks;
    tasks.reserve(deps.size() + 1);
    for (const CompletionFuture &future : deps) {
        if (future.valid())
            tasks.push_back(future.task);
    }
    if (tasks.empty() && lastCompute != sim::NoTask)
        tasks.push_back(lastCompute);

    sim::TaskId task = rt.launch(desc, items, hints, body,
                                 std::span<const sim::TaskId>(tasks));
    lastCompute = task;
    return CompletionFuture{task};
}

CompletionFuture
AcceleratorView::platformAtomicFence(CompletionFuture dep)
{
    // ~1 us on HSA user-mode queues; a full flush otherwise.
    double seconds = rt.device().zeroCopy ? 1e-6 : 10e-6;
    sim::TaskId task = rt.hostWork(seconds,
                                   dep.valid() ? dep.task : lastCompute);
    return CompletionFuture{task};
}

double
AcceleratorView::completionSeconds(CompletionFuture future) const
{
    if (!future.valid())
        return 0.0;
    return rt.taskFinishSeconds(future.task);
}

coexec::CoExecResult
parallel_dispatch(const coexec::DevicePool &pool, Precision prec,
                  const coexec::CoKernel &kernel,
                  const coexec::ExecOptions &opts)
{
    coexec::CoExecutor executor(pool, prec);
    return executor.execute(kernel, opts);
}

coexec::CoExecResult
parallel_dispatch(const coexec::DevicePool &pool, Precision prec,
                  const ir::KernelDescriptor &desc, u64 items,
                  const ir::OptHints &hints,
                  const coexec::KernelBody &body,
                  const coexec::ExecOptions &opts)
{
    coexec::CoKernel kernel;
    kernel.name = desc.name;
    kernel.desc = desc;
    kernel.hints = hints;
    kernel.items = items;
    kernel.body = body;
    return parallel_dispatch(pool, prec, kernel, opts);
}

} // namespace hetsim::hc
