/**
 * @file
 * hetsim::ocl - an OpenCL 1.2-style host API.
 *
 * This frontend reproduces the *programming model* of OpenCL as the
 * paper uses it: explicit platform/context/program boilerplate,
 * cl_mem-style buffers, clSetKernelArg-style argument binding, explicit
 * enqueueWriteBuffer/enqueueReadBuffer staging, and in-order command
 * queues.  Kernels carry a functional C++ body (the "device code") and
 * an ir::KernelDescriptor standing in for the compiled ISA.
 *
 * Error handling follows OpenCL conventions: calls return a Status and
 * misuse returns the matching error code rather than throwing.
 */

#ifndef HETSIM_OPENCL_OPENCL_HH
#define HETSIM_OPENCL_OPENCL_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "runtime/offload.hh"
#include "sim/device.hh"

namespace hetsim::ocl
{

/** OpenCL-style status codes (subset). */
enum Status : int
{
    Success = 0,
    DeviceNotFound = -1,
    BuildProgramFailure = -11,
    MemObjectAllocationFailure = -4,
    InvalidKernelName = -46,
    InvalidArgIndex = -49,
    InvalidKernelArgs = -52,
    InvalidWorkGroupSize = -54,
    InvalidBufferSize = -61,
};

/** cl_mem_flags analogue. */
enum class MemFlags
{
    ReadOnly,
    WriteOnly,
    ReadWrite,
};

class Context;
class Buffer;
class Kernel;

/**
 * An OpenCL event: the completion handle of an enqueued command, used
 * in wait lists to express cross-command dependencies (cl_event).
 */
class Event
{
  public:
    Event() = default;

    bool valid() const { return task != sim::NoTask; }

  private:
    friend class CommandQueue;
    explicit Event(sim::TaskId task) : task(task) {}

    sim::TaskId task = sim::NoTask;
};

/** A compute device (wraps a simulator DeviceSpec). */
class Device
{
  public:
    explicit Device(sim::DeviceSpec spec) : spec(std::move(spec)) {}

    const std::string &name() const { return spec.name; }
    const sim::DeviceSpec &deviceSpec() const { return spec; }

  private:
    sim::DeviceSpec spec;
};

/** The platform layer: device discovery boilerplate. */
class Platform
{
  public:
    /** @return the singleton platform ("hetsim simulated platform"). */
    static Platform &getDefault();

    /** @return all devices of a type (CPU / iGPU / dGPU). */
    std::vector<Device> getDevices(sim::DeviceType type) const;

    /** Vendor string, for completeness. */
    std::string vendor() const { return "hetsim"; }
};

/**
 * An OpenCL context: owns the runtime state for one device.
 *
 * Corresponds to the clCreateContext + runtime-initialization part of
 * the paper's InitCl() boilerplate.
 */
class Context
{
  public:
    Context(const Device &device, Precision precision);

    rt::RuntimeContext &runtime() { return rt; }
    const rt::RuntimeContext &runtime() const { return rt; }
    Precision precision() const { return rt.precision(); }

  private:
    rt::RuntimeContext rt;
};

/** A device memory object (cl_mem analogue). */
class Buffer
{
  public:
    Buffer() = default;

    /**
     * Allocate a device buffer.
     *
     * @param ctx   context.
     * @param flags access flags.
     * @param bytes size in bytes.
     * @param name  debug name (shows up in transfer stats).
     * @param err   optional status out-parameter.
     */
    Buffer(Context &ctx, MemFlags flags, u64 bytes,
           const std::string &name, Status *err = nullptr);

    bool valid() const { return ctx != nullptr; }
    rt::BufferId id() const { return bufId; }
    u64 bytes() const { return sizeBytes; }
    MemFlags flags() const { return memFlags; }

  private:
    Context *ctx = nullptr;
    rt::BufferId bufId = 0;
    u64 sizeBytes = 0;
    MemFlags memFlags = MemFlags::ReadWrite;
};

/** A kernel argument: a buffer or a scalar (by value). */
using KernelArg = std::variant<std::monostate, Buffer, double, i64>;

/**
 * A kernel object.  The "device code" is a C++ range body bound by the
 * application after argument setup (our stand-in for the compiled
 * kernel entry point); the descriptor stands in for its ISA.
 */
class Kernel
{
  public:
    Kernel() = default;

    /** Bind argument @p index (clSetKernelArg analogue). */
    Status setArg(u32 index, const Buffer &buf);
    Status setArg(u32 index, double scalar);
    Status setArg(u32 index, i64 scalar);

    /** Bind the functional body invoked at NDRange time. */
    void bindBody(rt::KernelBody body) { fn = std::move(body); }

    /** Record the hand-tuning applied to this kernel's source. */
    void setOptHints(const ir::OptHints &hints) { optHints = hints; }

    const std::string &name() const { return desc.name; }
    const ir::KernelDescriptor &descriptor() const { return desc; }

  private:
    friend class Program;
    friend class CommandQueue;

    ir::KernelDescriptor desc;
    u32 expectedArgs = 0;
    std::vector<KernelArg> args;
    rt::KernelBody fn;
    ir::OptHints optHints;
};

/**
 * A program: a compilation unit of kernel "sources".
 *
 * Applications register each kernel's descriptor (and, for flavor, its
 * OpenCL C source listing); build() then "compiles" them through the
 * Catalyst compiler model.
 */
class Program
{
  public:
    /** The context and OpenCL C source only keep the API's shape;
     *  modelling a build needs neither. */
    Program(Context &, std::string /*source*/) {}

    /** Declare a kernel in this program. */
    void declareKernel(ir::KernelDescriptor desc, u32 num_args);

    /** Compile; returns BuildProgramFailure on malformed kernels. */
    Status build();

    /** @return build log (compiler model notes). */
    const std::string &buildLog() const { return log; }

    /** Create a kernel object (clCreateKernel analogue). */
    Kernel createKernel(const std::string &name,
                        Status *err = nullptr) const;

  private:
    std::string log;
    bool built = false;
    std::map<std::string, std::pair<ir::KernelDescriptor, u32>> kernels;
};

/** An in-order command queue. */
class CommandQueue
{
  public:
    CommandQueue(Context &ctx, const Device &device);

    /**
     * Stage host data into a device buffer (blocking semantics).
     *
     * @param buf   the buffer.
     * @param event optional completion-event out-parameter.
     */
    Status enqueueWriteBuffer(const Buffer &buf,
                              Event *event = nullptr);

    /** Read a device buffer back to the host. */
    Status enqueueReadBuffer(const Buffer &buf, Event *event = nullptr);

    /**
     * Launch a kernel over @p global work-items with @p local sized
     * work-groups (0 = kernel preference).  All arguments must be set
     * and the body bound.
     *
     * @param wait_list extra events that must complete first (the
     *        queue's own in-order dependency is always applied).
     * @param event     optional completion-event out-parameter.
     */
    Status enqueueNDRangeKernel(Kernel &kernel, u64 global,
                                u32 local = 0,
                                const std::vector<Event> &wait_list = {},
                                Event *event = nullptr);

    /** Queue barrier: later commands wait for everything prior. */
    Status enqueueBarrier();

    /**
     * Enqueue host-side work in queue order (clEnqueueNativeKernel
     * analogue); used for host fallback phases and final reductions.
     */
    Status enqueueNativeKernel(double seconds);

    /** Block until all enqueued work completes (clFinish). */
    void finish();

    /** @return simulated seconds elapsed on this queue's context. */
    double elapsedSeconds() const;

  private:
    rt::Queue queue;
};

} // namespace hetsim::ocl

#endif // HETSIM_OPENCL_OPENCL_HH
