#include "amp.hh"

namespace hetsim::amp
{

namespace detail
{

ViewState::ViewState(accelerator_view &av, u64 bytes, std::string name,
                     bool writable)
    : writable(writable)
{
    bufId = av.runtime().createBuffer("array_view:" + name, bytes);
}

void
ViewState::ensureOnDeviceFor(accelerator_view &av)
{
    if (discarded) {
        // discard_data(): contents will be overwritten on the device.
        discarded = false;
        av.runtime().markDeviceDirty(bufId);
        return;
    }
    av.queue().ensureOnDevice(bufId);
}

void
ViewState::markKernelWrote(accelerator_view &av)
{
    av.runtime().markDeviceDirty(bufId);
}

void
ViewState::synchronizeOn(accelerator_view &av)
{
    av.queue().ensureOnHost(bufId);
}

void
ViewState::refreshOn(accelerator_view &av)
{
    av.runtime().markHostDirty(bufId);
}

sim::TaskId
launchCommon(accelerator_view &av, const ir::KernelDescriptor &desc,
             u64 items, const ir::OptHints &hints,
             const std::vector<ViewRef> &views,
             const rt::KernelBody &body)
{
    // The AMP runtime synchronizes every captured view before the
    // launch: copy-in anything stale (mutable views included, unless
    // discarded - the runtime cannot know the kernel overwrites them).
    for (const ViewRef &view : views)
        view.viewState().ensureOnDeviceFor(av);

    sim::TaskId task = av.queue().launch(desc, items, hints, body);

    for (const ViewRef &view : views) {
        if (view.viewState().isWritable())
            view.viewState().markKernelWrote(av);
    }
    return task;
}

} // namespace detail

} // namespace hetsim::amp
