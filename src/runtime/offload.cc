#include "offload.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hetsim::rt
{

sim::TaskId
Queue::launch(const ir::KernelDescriptor &desc, u64 items,
              const ir::OptHints &hints, const KernelBody &body,
              std::span<const sim::TaskId> extra_deps)
{
    std::vector<sim::TaskId> deps{last};
    deps.insert(deps.end(), extra_deps.begin(), extra_deps.end());
    std::erase(deps, sim::NoTask);
    // Even a launch dropped on a dead device (NoTask) becomes the
    // tail: later work stops waiting on that device.
    last = rt.launch(desc, items, hints, body, deps);
    return last;
}

void
DataEnv::declare(const void *ptr, u64 bytes, std::string name)
{
    if (!ptr)
        fatal("%s: declaring a null pointer", prefix.c_str());
    auto [it, fresh] = mappings.try_emplace(ptr, Mapping{0, bytes});
    if (fresh) {
        it->second.buffer =
            rt.createBuffer(prefix + ":" + name, bytes);
    } else if (it->second.bytes != bytes) {
        fatal("%s: %s re-declared with different size", prefix.c_str(),
              name.c_str());
    }
}

bool
DataEnv::present(const void *ptr) const
{
    auto it = mappings.find(ptr);
    return it != mappings.end() && it->second.presentDepth > 0;
}

DataEnv::Mapping &
DataEnv::mappingFor(const void *ptr)
{
    auto it = mappings.find(ptr);
    if (it == mappings.end()) {
        fatal("%s: pointer used in a data clause was never declared "
              "(missing array shape)",
              prefix.c_str());
    }
    return it->second;
}

DataEnv::Region::Region(DataEnv &env, PtrList to_, PtrList from_,
                        PtrList alloc_)
    : env(env), to(std::move(to_)), from(std::move(from_)),
      alloc(std::move(alloc_))
{
    for (const void *ptr : to.ptrs) {
        Mapping &mapping = env.mappingFor(ptr);
        env.rt.markHostDirty(mapping.buffer);
        env.inOrder.copyToDevice(mapping.buffer);
        ++mapping.presentDepth;
    }
    // from and alloc only allocate on entry.
    for (const PtrList *list : {&from, &alloc}) {
        for (const void *ptr : list->ptrs) {
            Mapping &mapping = env.mappingFor(ptr);
            env.rt.markDeviceDirty(mapping.buffer);
            ++mapping.presentDepth;
        }
    }
}

DataEnv::Region::~Region()
{
    for (const void *ptr : from.ptrs) {
        Mapping &mapping = env.mappingFor(ptr);
        env.inOrder.copyToHost(mapping.buffer);
        --mapping.presentDepth;
    }
    for (const PtrList *list : {&to, &alloc}) {
        for (const void *ptr : list->ptrs)
            --env.mappingFor(ptr).presentDepth;
    }
}

void
DataEnv::stageIn(const Ptrs &ptrs)
{
    for (const void *ptr : ptrs) {
        Mapping &mapping = mappingFor(ptr);
        if (mapping.presentDepth > 0)
            continue;
        rt.markHostDirty(mapping.buffer);
        inOrder.copyToDevice(mapping.buffer);
    }
}

void
DataEnv::stageOut(const Ptrs &ptrs, const Ptrs &written, bool defer)
{
    for (const void *ptr : ptrs) {
        Mapping &mapping = mappingFor(ptr);
        if (std::find(written.begin(), written.end(), ptr) !=
            written.end()) {
            rt.markDeviceDirty(mapping.buffer);
        }
        if (mapping.presentDepth > 0)
            continue;
        if (defer)
            deferred.push_back(ptr);
        else
            inOrder.copyToHost(mapping.buffer);
    }
}

void
DataEnv::flush()
{
    Ptrs pending;
    pending.swap(deferred);
    std::sort(pending.begin(), pending.end());
    pending.erase(std::unique(pending.begin(), pending.end()),
                  pending.end());
    for (const void *ptr : pending) {
        Mapping &mapping = mappingFor(ptr);
        if (mapping.presentDepth == 0)
            inOrder.copyToHost(mapping.buffer);
    }
}

} // namespace hetsim::rt
