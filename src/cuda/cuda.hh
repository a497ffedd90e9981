/**
 * @file
 * hetsim::cuda - a CUDA-style explicit offload frontend.
 *
 * The second backend Memeti et al. (PAPERS.md) add to the paper's
 * comparison: the fully explicit model.  Nothing is implicit - the
 * programmer allocates device memory (cudaMalloc), moves every byte
 * with explicit asynchronous copies on streams (cudaMemcpyAsync),
 * picks the launch geometry (<<<grid, block>>>), and synchronizes with
 * events and stream/device barriers.  In exchange the toolchain offers
 * OpenCL-class hand-tuning (LDS, unrolling, invariants, work-group
 * control) and pinned-rate transfers.
 *
 * The model's codegen quirk rides in the capability table
 * (kernelir/captable.hh, ModelKind::Cuda): launches are
 * occupancy-limited - blocks past the occupancy limit exhaust the
 * per-CU register file, cut the resident wavefronts, and lose
 * dependent-chain latency hiding.
 *
 * API sketch (simulated analogues of the CUDA runtime API):
 *
 *   cudaMalloc(d_a, n)      ->  DevicePtr a = dev.malloc("a", bytes);
 *   cudaMemcpyAsync(.., s)  ->  s.memcpyAsync(a, CopyDir::HostToDevice);
 *   k<<<grid, block, s>>>() ->  s.launchKernel(desc, items, block,
 *                                              hints, body);
 *   cudaEventRecord         ->  Event e = s.recordEvent();
 *   cudaStreamWaitEvent     ->  s2.waitEvent(e);
 *   cudaStreamSynchronize   ->  s.synchronize();
 *   cudaDeviceSynchronize   ->  dev.deviceSynchronize();
 */

#ifndef HETSIM_CUDA_CUDA_HH
#define HETSIM_CUDA_CUDA_HH

#include <map>
#include <string>

#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "runtime/offload.hh"
#include "sim/device.hh"

namespace hetsim::cuda
{

/** Transfer direction (cudaMemcpyKind, device-pointer form). */
enum class CopyDir
{
    HostToDevice,
    DeviceToHost,
};

/** An allocation on the device (what cudaMalloc hands back). */
struct DevicePtr
{
    rt::BufferId buffer = 0;
    bool allocated = false;
};

/** A recorded stream event (cudaEvent_t). */
struct Event
{
    sim::TaskId task = sim::NoTask;

    bool valid() const { return task != sim::NoTask; }
};

class Stream;

/** One CUDA device context (primary context of a simulated GPU). */
class Device
{
  public:
    Device(sim::DeviceType type, Precision precision)
        : Device(sim::deviceFor(type), precision)
    {
    }
    Device(const sim::DeviceSpec &spec, Precision precision)
        : rt(spec, ir::ModelKind::Cuda, precision)
    {
    }

    /**
     * cudaMalloc: allocate @p bytes of device memory backing the host
     * array @p host (the simulator tracks residency per host array).
     */
    DevicePtr malloc(const void *host, u64 bytes, std::string name);

    /** cudaDeviceSynchronize: drain every stream on the device. */
    double deviceSynchronize() const { return rt.elapsedSeconds(); }

    rt::RuntimeContext &runtime() { return rt; }
    const rt::RuntimeContext &runtime() const { return rt; }

    /** @return simulated seconds elapsed. */
    double elapsedSeconds() const { return rt.elapsedSeconds(); }

  private:
    friend class Stream;

    rt::RuntimeContext rt;
};

/** An in-order CUDA stream on one device (cudaStream_t). */
class Stream
{
  public:
    explicit Stream(Device &device) : queue(device.rt) {}

    /**
     * cudaMemcpyAsync: explicit copy of the allocation, ordered after
     * everything previously enqueued on this stream.  Runs at pinned
     * staging rates (the explicit model's transfer advantage).
     */
    Event memcpyAsync(const DevicePtr &ptr, CopyDir dir);

    /**
     * Kernel launch <<<ceil(items/block), block>>> ordered on this
     * stream.  @p block is the block size (threads); the capability
     * table's occupancy limit penalizes oversized blocks.  A zero
     * block size is a launch-configuration error (fatal), as the CUDA
     * runtime would report cudaErrorInvalidConfiguration.
     */
    Event launchKernel(const ir::KernelDescriptor &desc, u64 items,
                       u32 block, ir::OptHints hints,
                       const rt::KernelBody &body);

    /** cudaEventRecord: capture the stream front as an event. */
    Event recordEvent() const { return Event{queue.tail()}; }

    /** cudaStreamWaitEvent: order this stream after @p event. */
    void waitEvent(const Event &event);

    /** cudaStreamSynchronize: simulated completion of this stream. */
    double synchronize() const;

  private:
    rt::Queue queue;
};

} // namespace hetsim::cuda

#endif // HETSIM_CUDA_CUDA_HH
