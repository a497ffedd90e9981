#include "opencl.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hetsim::ocl
{

// --- Platform -----------------------------------------------------------

Platform &
Platform::getDefault()
{
    static Platform platform;
    return platform;
}

std::vector<Device>
Platform::getDevices(sim::DeviceType type) const
{
    return {Device(sim::deviceFor(type))};
}

// --- Context ------------------------------------------------------------

Context::Context(const Device &device, Precision precision)
    : rt(device.deviceSpec(), ir::ModelKind::OpenCl, precision)
{
}

// --- Buffer ----------------------------------------------------------------

Buffer::Buffer(Context &context, MemFlags flags, u64 bytes,
               const std::string &name, Status *err)
    : ctx(&context), sizeBytes(bytes), memFlags(flags)
{
    if (bytes == 0) {
        if (err)
            *err = InvalidBufferSize;
        ctx = nullptr;
        return;
    }
    bufId = context.runtime().createBuffer("cl_mem:" + name, bytes);
    if (err)
        *err = Success;
}

// --- Kernel ----------------------------------------------------------------

Status
Kernel::setArg(u32 index, const Buffer &buf)
{
    if (index >= expectedArgs)
        return InvalidArgIndex;
    args[index] = buf;
    return Success;
}

Status
Kernel::setArg(u32 index, double scalar)
{
    if (index >= expectedArgs)
        return InvalidArgIndex;
    args[index] = scalar;
    return Success;
}

Status
Kernel::setArg(u32 index, i64 scalar)
{
    if (index >= expectedArgs)
        return InvalidArgIndex;
    args[index] = scalar;
    return Success;
}

// --- Program ----------------------------------------------------------------

void
Program::declareKernel(ir::KernelDescriptor desc, u32 num_args)
{
    std::string name = desc.name;
    kernels.emplace(std::move(name), std::make_pair(std::move(desc),
                                                    num_args));
}

Status
Program::build()
{
    log.clear();
    for (const auto &[name, entry] : kernels) {
        const auto &desc = entry.first;
        if (desc.streams.empty() && desc.flopsPerItem <= 0.0) {
            log += "error: kernel '" + name + "' is empty\n";
            return BuildProgramFailure;
        }
        log += "kernel '" + name + "': ok\n";
    }
    built = true;
    return Success;
}

Kernel
Program::createKernel(const std::string &name, Status *err) const
{
    auto it = kernels.find(name);
    if (it == kernels.end() || !built) {
        if (err)
            *err = InvalidKernelName;
        return Kernel{};
    }
    Kernel kernel;
    kernel.desc = it->second.first;
    kernel.expectedArgs = it->second.second;
    kernel.args.assign(kernel.expectedArgs, KernelArg{});
    if (err)
        *err = Success;
    return kernel;
}

// --- CommandQueue ------------------------------------------------------------

CommandQueue::CommandQueue(Context &context, const Device &device)
    : queue(context.runtime())
{
    (void)device;
}

Status
CommandQueue::enqueueWriteBuffer(const Buffer &buf, Event *event)
{
    if (!buf.valid())
        return MemObjectAllocationFailure;
    queue.runtime().markHostDirty(buf.id());
    sim::TaskId task = queue.copyToDevice(buf.id());
    if (event)
        *event = Event(task);
    return Success;
}

Status
CommandQueue::enqueueReadBuffer(const Buffer &buf, Event *event)
{
    if (!buf.valid())
        return MemObjectAllocationFailure;
    sim::TaskId task = queue.copyToHost(buf.id());
    if (event)
        *event = Event(task);
    return Success;
}

Status
CommandQueue::enqueueNDRangeKernel(Kernel &kernel, u64 global, u32 local,
                                   const std::vector<Event> &wait_list,
                                   Event *event)
{
    if (kernel.name().empty())
        return InvalidKernelName;
    for (const auto &arg : kernel.args) {
        if (std::holds_alternative<std::monostate>(arg))
            return InvalidKernelArgs;
    }
    if (local > 1024)
        return InvalidWorkGroupSize;

    ir::OptHints hints = kernel.optHints;
    if (local)
        hints.workgroupSize = local;

    // OpenCL does NOT stage data automatically: running a kernel whose
    // buffers were never written is a (very classic) application bug.
    for (const auto &arg : kernel.args) {
        if (const auto *buf = std::get_if<Buffer>(&arg)) {
            if (buf->flags() != MemFlags::WriteOnly &&
                !queue.runtime().deviceValid(buf->id())) {
                warn("kernel %s reads cl_mem with no device copy "
                     "(missing enqueueWriteBuffer?)",
                     kernel.name().c_str());
            }
            if (buf->flags() != MemFlags::ReadOnly)
                queue.runtime().markDeviceDirty(buf->id());
        }
    }

    std::vector<sim::TaskId> waits;
    for (const Event &e : wait_list)
        waits.push_back(e.task);
    sim::TaskId task =
        queue.launch(kernel.desc, global, hints, kernel.fn, waits);
    if (event)
        *event = Event(task);
    return Success;
}

Status
CommandQueue::enqueueBarrier()
{
    // In-order queue: all prior commands already gate later ones.
    return Success;
}

Status
CommandQueue::enqueueNativeKernel(double seconds)
{
    if (seconds < 0.0)
        return InvalidKernelArgs;
    queue.hostWork(seconds);
    return Success;
}

void
CommandQueue::finish()
{
    // In-order queue: the timeline already serializes; nothing to do.
}

double
CommandQueue::elapsedSeconds() const
{
    return queue.runtime().elapsedSeconds();
}

} // namespace hetsim::ocl
