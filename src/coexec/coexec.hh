/**
 * @file
 * hetsim::coexec - the co-execution scheduler subsystem.
 *
 * Co-execution splits ONE kernel's iteration space across a pool of
 * simulated devices (e.g. the APU's CPU and integrated GPU, or the
 * CPU plus the discrete R9 280X over PCIe) and merges the per-device
 * simulated timelines into a single completion time.  This is the
 * "best of both worlds" step past the paper's one-device-at-a-time
 * evaluation: EngineCL (Nozal et al., 2018) showed static and dynamic
 * CPU+GPU co-execution beats the best single device on exactly the
 * paper's class of data-parallel workloads, and the Fang et al. (2020)
 * survey names workload partitioning as the central open problem for
 * heterogeneous programming models.
 *
 * Three scheduling policies ride behind a common Scheduler interface
 * (scheduler.hh):
 *
 *  - static-ratio: one chunk per device, split by the roofline cost
 *    model's predicted per-device kernel throughput;
 *  - dynamic: fixed-size chunks pulled from a shared work queue by
 *    whichever device becomes free first (chunked self-scheduling);
 *  - adaptive: EngineCL-style chunks resized from each device's
 *    *observed* per-chunk simulated throughput, shrinking toward the
 *    tail for load balance.
 *
 * Functional execution still happens on the real host thread pool, so
 * co-executed results stay bit-validated against each application's
 * serial core.  Discrete devices stage their share of the input over
 * the PCIe model (per-chunk, overlapping compute on the DMA engine);
 * zero-copy devices (CPU, APU GPU) stage nothing.
 */

#ifndef HETSIM_COEXEC_COEXEC_HH
#define HETSIM_COEXEC_COEXEC_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "kernelir/trace.hh"
#include "power/power.hh"
#include "sim/device.hh"
#include "sim/timeline.hh"

namespace hetsim::fault
{
class FaultPlan;
}

namespace hetsim::coexec
{

/** Functional kernel body over a contiguous global work-item range. */
using KernelBody = std::function<void(u64 begin, u64 end)>;

/** One contiguous [begin, end) slice of a kernel's iteration space. */
using ItemRange = std::pair<u64, u64>;

/** The three partitioning policies (ISSUE tentpole). */
enum class Policy
{
    StaticRatio,  ///< roofline-predicted one-shot split
    DynamicChunk, ///< fixed-size chunked self-scheduling
    Adaptive,     ///< throughput-adaptive chunk resizing
};

/** @return CLI identifier, e.g. "static". */
const char *toString(Policy policy);

/** @return the policy for a CLI alias (static/dynamic/adaptive). */
std::optional<Policy> policyByName(const std::string &name);

/**
 * One data-parallel kernel prepared for co-execution: the descriptor
 * the compilers see, the functional body computing real results, and
 * the staging footprint a discrete device must move per work-item
 * (plus any fixed, share-independent footprint such as XSBench's
 * unionized table, which every device needs in full).
 */
struct CoKernel
{
    std::string name;
    ir::KernelDescriptor desc;
    ir::OptHints hints;
    /** Total work-items of the launch. */
    u64 items = 0;
    /** Functional body over global [begin, end) (may be empty). */
    KernelBody body;
    /** Host->device bytes per work-item (partitionable inputs). */
    double h2dBytesPerItem = 0.0;
    /** Host->device bytes staged once per device (shared tables). */
    double h2dBytesFixed = 0.0;
    /** Device->host bytes per work-item (results). */
    double d2hBytesPerItem = 0.0;
    /** Validates functional results against the serial core. */
    std::function<bool()> validate;
    /** Application figure of merit. */
    std::function<double()> checksum;
};

/** A named set of devices that co-execute one kernel. */
class DevicePool
{
  public:
    explicit DevicePool(std::vector<sim::DeviceSpec> specs);

    /**
     * Parse a '+'-separated device list, e.g. "cpu+dgpu" or
     * "cpu+apu".  Each name is any sim::deviceByName() spelling; the
     * pool name joins each preset's canonical spelling.  @return
     * nullopt on an unknown name or empty list.
     */
    static std::optional<DevicePool> parse(const std::string &names);

    /** @return number of devices. */
    size_t size() const { return specs.size(); }

    /** @return device @p d 's architectural description. */
    const sim::DeviceSpec &spec(size_t d) const { return specs[d]; }

    /**
     * @return the programming-model compiler used for device @p d:
     * the host compiler for CPU slots, the pool's device backend
     * (HC by default - single-source, Section VII) for GPU slots.
     */
    ir::ModelKind model(size_t d) const;

    /**
     * Select the programming model GPU slots compile through
     * (`--backend`).  Any device backend of the capability table is
     * accepted; CPU slots always use the host OpenMP compiler.
     */
    void setGpuModel(ir::ModelKind m) { gpuModel = m; }

    /** @return display name, e.g. "cpu+dgpu". */
    const std::string &name() const { return poolName; }

  private:
    std::vector<sim::DeviceSpec> specs;
    std::string poolName;
    ir::ModelKind gpuModel = ir::ModelKind::Hc;
};

/** Knobs of one co-executed launch. */
struct ExecOptions
{
    Policy policy = Policy::Adaptive;
    /** Fixed chunk for the dynamic policy (0 = auto). */
    u64 chunkItems = 0;
    /** Smallest chunk the adaptive policy grabs (0 = auto). */
    u64 minChunkItems = 0;
    /** Execute functional bodies (real, validated results). */
    bool functional = true;
    /**
     * Fault-injection plan (non-owning; nullptr = fault-free).  The
     * executor draws transfer/launch/stall faults from the plan,
     * retries transfers with timeline-accounted backoff, rescues a
     * dead device's outstanding chunks onto healthy pools, and
     * degrades to whatever devices remain alive.
     */
    fault::FaultPlan *faults = nullptr;
    /**
     * Simulated-time budget of this launch (0 = unlimited).  Once a
     * device would pull its next chunk at or past this instant, the
     * executor stops grabbing work, checkpoints at the chunk boundary
     * (the undone ranges come back in CoExecResult::remaining), costs
     * one 100 us checkpoint span per surviving device on the timeline,
     * and returns with `preempted` set.  At least one chunk always runs,
     * so every slice makes progress.  Ignored for functional launches:
     * checkpointing live host-side buffers is out of scope, so
     * functional jobs run to completion (see DESIGN 7).
     */
    double budgetSeconds = 0.0;
    /**
     * Undone ranges of a previously preempted launch (non-owning;
     * nullptr = fresh launch over [0, items)).  The executor restricts
     * the iteration space to exactly these ranges; chunk accounting,
     * fault draws, and the scheduler restart fresh, which models a
     * resume-from-checkpoint on whatever devices are healthy now.
     */
    const std::vector<ItemRange> *resume = nullptr;
};

/** One contiguous range of the iteration space bound to a device. */
struct Partition
{
    size_t device = 0;
    u64 begin = 0;
    u64 end = 0;
};

/** Per-device outcome of a co-executed launch. */
struct DeviceReport
{
    std::string device;   ///< device name
    u64 items = 0;        ///< work-items executed
    double share = 0.0;   ///< fraction of the iteration space
    u64 chunks = 0;       ///< kernel launches (chunks pulled)
    double kernelSeconds = 0.0;   ///< simulated compute time
    double transferSeconds = 0.0; ///< simulated PCIe staging time
    double finishSeconds = 0.0;   ///< completion time on the timeline
    /** Time the device's compute queue was busy: kernels plus launch
     *  timeouts, rescue and checkpoint costs. */
    double busySeconds = 0.0;
    /** Time the device's compute queue sat idle while the pool was
     *  still running: co-exec makespan minus busySeconds. */
    double idleSeconds = 0.0;
    /** Energy-to-solution share (J): this device's compute and DMA
     *  resources accrued over the pool makespan. */
    double energyJoules = 0.0;
};

/** Merged outcome of a co-executed launch. */
struct CoExecResult
{
    /**
     * Whether the launch completed (possibly degraded).  False means
     * the work could not finish - e.g. every device of the pool died,
     * or the request itself was degenerate (empty pool, zero items);
     * `error` then describes why.  Callers report and exit cleanly
     * instead of the pre-fault-model panic()/fatal() aborts.
     */
    bool ok = true;
    std::string error;
    std::string policy;
    u64 items = 0;
    /** Merged completion time: makespan over every device. */
    double seconds = 0.0;
    /** Total simulated PCIe staging time across the pool. */
    double transferSeconds = 0.0;
    bool functional = false;
    bool validated = false;
    double checksum = 0.0;
    /** Energy-to-solution (J) of the merged timeline under the
     *  active power table; buckets tile makespan x power. */
    double energyJoules = 0.0;
    power::EnergyReport energy;
    std::vector<DeviceReport> devices;
    /** Chunk assignment, in simulated pull order.  With faults
     *  injected, rescued chunks appear when they finally succeed, so
     *  partitions always cover every item exactly once but may leave
     *  simulated pull order. */
    std::vector<Partition> partitions;

    // --- Fault-tolerance accounting (zero on fault-free runs) -------
    /** Faults injected during this launch (all kinds). */
    u64 faultsInjected = 0;
    /** Transfer retries that eventually succeeded. */
    u64 transferRetries = 0;
    /** Launch retries that eventually succeeded. */
    u64 launchRetries = 0;
    /** Chunks re-enqueued from a dead device to a healthy one. */
    u64 chunkRescues = 0;
    /** Device deaths the pool survived by redistributing work. */
    u64 degradations = 0;
    /** Devices marked dead, in death order. */
    std::vector<std::string> deadDevices;

    // --- Preemption (budgeted launches only) ------------------------
    /** The launch hit its simulated budget and checkpointed. */
    bool preempted = false;
    /** Undone ranges at the checkpoint, ascending and disjoint; feed
     *  back through ExecOptions::resume to continue the launch. */
    std::vector<ItemRange> remaining;
};

/**
 * Roofline-predicted kernel seconds for @p items work-items of
 * @p kernel on @p spec at stock clocks, compiled under programming
 * model @p model (DevicePool::model() of that device's slot).  The
 * static-ratio policy splits by the throughput ratio (items /
 * predicted seconds) of exactly this prediction; tests assert the
 * correspondence.
 */
double predictKernelSeconds(const sim::DeviceSpec &spec, Precision prec,
                            const ir::KernelDescriptor &desc,
                            const ir::OptHints &hints, u64 items,
                            ir::ModelKind model);

/** Splits one kernel across a device pool and merges the timelines. */
class CoExecutor
{
  public:
    CoExecutor(DevicePool pool, Precision prec);

    /** Co-execute @p kernel under @p opts. */
    CoExecResult execute(const CoKernel &kernel,
                         const ExecOptions &opts = {});

    const DevicePool &pool() const { return devices; }

  private:
    DevicePool devices;
    Precision prec;
};

} // namespace hetsim::coexec

#endif // HETSIM_COEXEC_COEXEC_HH
