/**
 * @file
 * The lowering the device frontends share on top of RuntimeContext:
 * an in-order queue (rt::Queue) and the present table of the
 * directive models (rt::DataEnv).  OpenACC's copyin/copyout/create
 * and OpenMP's map(to/from/alloc) are the same three clauses, so
 * acc::Runtime and omp::TargetRuntime are each a DataEnv, and
 * acc::DataRegion and omp::TargetData each open a DataEnv::Region.
 */

#ifndef HETSIM_RUNTIME_OFFLOAD_HH
#define HETSIM_RUNTIME_OFFLOAD_HH

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "runtime/context.hh"

namespace hetsim::rt
{

/**
 * An in-order queue (OpenCL command queue, CUDA stream, the implicit
 * queue of AMP and the directive runtimes): every operation depends
 * on the tail.  A copy the runtime skipped (zero-copy device, data
 * already valid, dead device) returns sim::NoTask and leaves the tail
 * where it was; any other operation becomes the tail.
 */
class Queue
{
  public:
    explicit Queue(RuntimeContext &rt) : rt(rt) {}

    Queue(const Queue &) = delete;
    Queue &operator=(const Queue &) = delete;

    RuntimeContext &runtime() const { return rt; }

    /** @return the last task in queue order (NoTask when empty). */
    sim::TaskId tail() const { return last; }

    /** Make @p task the tail unless it is sim::NoTask; @return it. */
    sim::TaskId
    advance(sim::TaskId task)
    {
        if (task != sim::NoTask)
            last = task;
        return task;
    }

    sim::TaskId
    copyToDevice(BufferId buf)
    {
        return advance(rt.copyToDevice(buf, last));
    }

    sim::TaskId
    copyToHost(BufferId buf)
    {
        return advance(rt.copyToHost(buf, last));
    }

    sim::TaskId
    ensureOnDevice(BufferId buf)
    {
        return advance(rt.ensureOnDevice(buf, last));
    }

    sim::TaskId
    ensureOnHost(BufferId buf)
    {
        return advance(rt.ensureOnHost(buf, last));
    }

    /** Launch after the tail and every valid task in @p extra_deps. */
    sim::TaskId launch(const ir::KernelDescriptor &desc, u64 items,
                       const ir::OptHints &hints, const KernelBody &body,
                       std::span<const sim::TaskId> extra_deps = {});

    sim::TaskId hostWork(double s) { return last = rt.hostWork(s, last); }

  private:
    RuntimeContext &rt;
    sim::TaskId last = sim::NoTask;
};

/** The host arrays one data clause names. */
struct PtrList
{
    std::vector<const void *> ptrs;

    PtrList() = default;
    PtrList(std::initializer_list<const void *> list) : ptrs(list) {}
};

/**
 * The runtime of a directive model (OpenACC, OpenMP target): a
 * context, its in-order queue, and the data environment - declared
 * host arrays mapped to runtime buffers, each with the depth of open
 * data regions that hold it present.  Compute regions stage only
 * arrays not present.
 */
class DataEnv
{
  public:
    using Ptrs = std::vector<const void *>;

    /** @param prefix prefix of buffer names and diagnostics ("acc"). */
    DataEnv(const sim::DeviceSpec &spec, ir::ModelKind model,
            Precision prec, std::string prefix)
        : rt(spec, model, prec), prefix(std::move(prefix))
    {
    }

    RuntimeContext &runtime() { return rt; }
    const RuntimeContext &runtime() const { return rt; }

    /** The in-order queue compute regions launch on. */
    Queue &queue() { return inOrder; }

    /** @return simulated seconds elapsed. */
    double elapsedSeconds() const { return rt.elapsedSeconds(); }

    /** Declare a host array's shape (the [0:n] of a data clause). */
    void declare(const void *ptr, u64 bytes, std::string name);

    /** @return whether an open data region holds @p ptr present. */
    bool present(const void *ptr) const;

    /**
     * A structured data region: entry stages @p to in and allocates
     * @p from and @p alloc; exit copies @p from back.  All three are
     * present while it is open.
     */
    class Region
    {
      public:
        Region(DataEnv &env, PtrList to, PtrList from, PtrList alloc);
        ~Region();

        Region(const Region &) = delete;
        Region &operator=(const Region &) = delete;

      private:
        DataEnv &env;
        PtrList to, from, alloc;
    };

    /** Stage in each array of @p ptrs that is not present. */
    void stageIn(const Ptrs &ptrs);

    /**
     * Mark each array of @p ptrs that is in @p written device-valid,
     * then copy back each one not present, or with @p defer leave it
     * for flush().
     */
    void stageOut(const Ptrs &ptrs, const Ptrs &written, bool defer);

    /** Copy back each deferred array once, unless it is present. */
    void flush();

  private:
    struct Mapping
    {
        BufferId buffer;
        u64 bytes;
        int presentDepth = 0;
    };

    Mapping &mappingFor(const void *ptr);

    RuntimeContext rt;
    Queue inOrder{rt};
    std::string prefix;
    std::map<const void *, Mapping> mappings;
    Ptrs deferred;
};

} // namespace hetsim::rt

#endif // HETSIM_RUNTIME_OFFLOAD_HH
