#include "cuda.hh"

#include "common/logging.hh"

namespace hetsim::cuda
{

DevicePtr
Device::malloc(const void *host, u64 bytes, std::string name)
{
    if (!host)
        fatal("cuda: cudaMalloc for a null host array");
    if (bytes == 0)
        fatal("cuda: cudaMalloc of zero bytes for %s", name.c_str());
    DevicePtr ptr;
    ptr.buffer = rt.createBuffer("cuda:" + name, bytes);
    ptr.allocated = true;
    return ptr;
}

Event
Stream::memcpyAsync(const DevicePtr &ptr, CopyDir dir)
{
    if (!ptr.allocated)
        fatal("cuda: cudaMemcpyAsync on an unallocated device pointer");
    if (dir == CopyDir::HostToDevice) {
        queue.runtime().markHostDirty(ptr.buffer);
        queue.copyToDevice(ptr.buffer);
    } else {
        queue.runtime().markDeviceDirty(ptr.buffer);
        queue.copyToHost(ptr.buffer);
    }
    return recordEvent();
}

Event
Stream::launchKernel(const ir::KernelDescriptor &desc, u64 items,
                     u32 block, ir::OptHints hints,
                     const rt::KernelBody &body)
{
    if (block == 0) {
        fatal("cuda: kernel %s launched with a zero block size "
              "(cudaErrorInvalidConfiguration)", desc.name.c_str());
    }
    if (items == 0) {
        fatal("cuda: kernel %s launched with an empty grid",
              desc.name.c_str());
    }
    // <<<grid, block>>>: the block size IS the work-group geometry the
    // compiler sees; oversized blocks pay the occupancy penalty.
    hints.workgroupSize = block;
    return Event{queue.launch(desc, items, hints, body)};
}

void
Stream::waitEvent(const Event &event)
{
    if (!event.valid())
        return;
    // The stream's next operation depends on both the stream front
    // and the event; order the stream after whichever finishes later.
    if (!recordEvent().valid() ||
        queue.runtime().taskFinishSeconds(event.task) > synchronize()) {
        queue.advance(event.task);
    }
}

double
Stream::synchronize() const
{
    const Event front = recordEvent();
    return front.valid() ? queue.runtime().taskFinishSeconds(front.task)
                         : 0.0;
}

} // namespace hetsim::cuda
