/**
 * @file
 * hetsim::amp - a C++ AMP-style single-source frontend.
 *
 * Reproduces the programming model of C++ AMP as the paper uses it:
 * extents and indices, array_view<T> with runtime-managed (implicit)
 * host<->device synchronization, parallel_for_each lambdas, tiled
 * extents mapping to work-groups, and tile_static LDS staging.
 *
 * Deviations from real C++ AMP, documented here because a simulator
 * cannot compile restrict(amp) lambdas:
 *  - parallel_for_each takes the kernel's ir::KernelDescriptor (our
 *    stand-in for the compiled kernel) and an explicit list of the
 *    array_views the lambda captures.
 *  - tile_static staging is declared with useTileStatic() on the
 *    launch rather than by declaring tile_static arrays in the lambda.
 *
 * The *semantics* the paper measures are preserved: transfers are
 * managed by the runtime (conservatively), tiles select work-group
 * geometry and enable LDS, and kernels are written as single-source
 * lambdas over the host data structures.
 */

#ifndef HETSIM_AMP_AMP_HH
#define HETSIM_AMP_AMP_HH

#include <memory>
#include <vector>
#include <string>
#include <utility>

#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "runtime/offload.hh"
#include "sim/device.hh"

namespace hetsim::amp
{

/** A 1-D index into a compute domain. */
template <int N = 1>
struct index
{
    static_assert(N == 1, "only rank-1 domains are used by the paper");
    u64 value = 0;

    u64 operator[](int) const { return value; }
};

/** A 1-D extent: the shape of a compute domain. */
template <int N = 1>
struct extent
{
    static_assert(N == 1, "only rank-1 domains are used by the paper");
    u64 sizeValue = 0;

    extent() = default;
    explicit extent(u64 size) : sizeValue(size) {}

    u64 size() const { return sizeValue; }

    /** Divide the extent into tiles of TileSize threads. */
    template <int TileSize>
    auto tile() const;
};

/** A tiled extent (work-group decomposition). */
template <int TileSize>
struct tiled_extent
{
    extent<1> base;

    u64 size() const { return base.size(); }
    static constexpr int tileSize = TileSize;
};

template <int N>
template <int TileSize>
auto
extent<N>::tile() const
{
    return tiled_extent<TileSize>{*this};
}

/** Thread identity within a tiled launch. */
template <int TileSize>
struct tiled_index
{
    index<1> global;
    index<1> local;
    index<1> tile;
};

/** An accelerator: one of the simulated devices. */
class accelerator
{
  public:
    /** @return the default accelerator of the given type. */
    static accelerator
    get(sim::DeviceType type)
    {
        return accelerator(sim::deviceFor(type));
    }

    /** @return an accelerator over an explicit device description. */
    static accelerator
    fromSpec(sim::DeviceSpec spec)
    {
        return accelerator(std::move(spec));
    }

    const sim::DeviceSpec &spec() const { return deviceSpec; }
    const std::string &description() const { return deviceSpec.name; }

  private:
    explicit accelerator(sim::DeviceSpec spec)
        : deviceSpec(std::move(spec))
    {
    }

    sim::DeviceSpec deviceSpec;
};

namespace detail
{

/**
 * An rt::Queue's tail spelled as an assignable task, so host phases
 * join queue order: `av.lastTask = av.runtime().hostWork(s,
 * av.lastTask)`.  Reads and writes go to the queue.
 */
class QueueTail
{
  public:
    explicit QueueTail(rt::Queue &queue) : queue(queue) {}
    operator sim::TaskId() const { return queue.tail(); }
    void operator=(sim::TaskId task) { queue.advance(task); }

  private:
    rt::Queue &queue;
};

} // namespace detail

/**
 * An accelerator_view: the execution context (queue + managed-buffer
 * registry) on one accelerator.
 */
class accelerator_view
{
  public:
    accelerator_view(const accelerator &accel, Precision precision)
        : rt(accel.spec(), ir::ModelKind::CppAmp, precision)
    {
    }

    rt::RuntimeContext &runtime() { return rt; }
    const rt::RuntimeContext &runtime() const { return rt; }

    /** The in-order queue view copies and launches chain on. */
    rt::Queue &queue() { return inOrder; }

    /** Block until all launches complete; @return simulated seconds. */
    double wait() { return rt.elapsedSeconds(); }

    detail::QueueTail lastTask{inOrder};

  private:
    rt::RuntimeContext rt;
    rt::Queue inOrder{rt};
};

namespace detail
{

/** Type-erased state shared by array_view specializations. */
class ViewState
{
  public:
    ViewState(accelerator_view &av, u64 bytes, std::string name,
              bool writable);

    void ensureOnDeviceFor(accelerator_view &av);
    void markKernelWrote(accelerator_view &av);
    void synchronizeOn(accelerator_view &av);
    void refreshOn(accelerator_view &av);

    rt::BufferId buffer() const { return bufId; }
    bool isWritable() const { return writable; }
    bool discarded = false;

  private:
    rt::BufferId bufId;
    bool writable;
};

} // namespace detail

/**
 * A runtime-managed view over host data.
 *
 * Mutable views (array_view<T>) are synchronized in both directions;
 * const views (array_view<const T>) are copy-in only.  discard_data()
 * suppresses the next copy-in (the classic AMP optimization the paper
 * notes programmers must remember).
 */
template <typename T>
class array_view
{
  public:
    /** Wrap host storage; registers a managed device buffer. */
    array_view(accelerator_view &av, T *data, u64 count,
               std::string name)
        : av(&av),
          state(std::make_shared<detail::ViewState>(
              av, count * sizeof(T), std::move(name),
              !std::is_const_v<T>)),
          hostData(data),
          count(count)
    {
    }

    /** Element access on the *device* side (inside kernels). */
    T &operator[](u64 i) const { return hostData[i]; }

    u64 size() const { return count; }
    T *data() const { return hostData; }

    /** Pull device results into the host copy (blocking semantics). */
    void synchronize() { state->synchronizeOn(*av); }

    /** Host code wrote the underlying data; device copy is stale. */
    void refresh() { state->refreshOn(*av); }

    /** The next kernel will overwrite the view: skip the copy-in. */
    void discard_data() { state->discarded = true; }

    detail::ViewState &viewState() const { return *state; }

  private:
    accelerator_view *av;
    std::shared_ptr<detail::ViewState> state;
    T *hostData;
    u64 count;
};

/**
 * A device-resident container (C++ AMP's `concurrency::array<T>`):
 * unlike array_view, it owns device storage and is synchronized only
 * by explicit copy() calls - the "manual" end of AMP's data
 * management spectrum.
 */
template <typename T>
class array
{
  public:
    /** Allocate uninitialized device storage for @p count elements. */
    array(accelerator_view &av, u64 count, std::string name)
        : av(&av),
          state(std::make_shared<detail::ViewState>(
              av, count * sizeof(T), std::move(name), true)),
          count(count)
    {
        // Freshly allocated on the device; no host copy exists.
        state->markKernelWrote(av);
    }

    u64 size() const { return count; }

    detail::ViewState &viewState() const { return *state; }

  private:
    template <typename U>
    friend void copy(const U *src, array<U> &dst);
    template <typename U>
    friend void copy(const array<U> &src, U *dst);

    accelerator_view *av;
    std::shared_ptr<detail::ViewState> state;
    u64 count;
};

/** Explicit host -> device copy into an array. */
template <typename T>
void
copy(const T *src, array<T> &dst)
{
    (void)src; // functional data stays host-side; model the staging
    dst.state->refreshOn(*dst.av);
    dst.state->ensureOnDeviceFor(*dst.av);
}

/** Explicit device -> host copy out of an array. */
template <typename T>
void
copy(const array<T> &src, T *dst)
{
    (void)dst;
    src.state->synchronizeOn(*src.av);
}

/** Reference to any array_view or array, used in capture lists. */
class ViewRef
{
  public:
    template <typename T>
    ViewRef(const array_view<T> &view) : state(&view.viewState())
    {
    }

    template <typename T>
    ViewRef(const array<T> &arr) : state(&arr.viewState())
    {
    }

    detail::ViewState &viewState() const { return *state; }

  private:
    detail::ViewState *state;
};

namespace detail
{

sim::TaskId launchCommon(accelerator_view &av,
                         const ir::KernelDescriptor &desc, u64 items,
                         const ir::OptHints &hints,
                         const std::vector<ViewRef> &views,
                         const rt::KernelBody &body);

} // namespace detail

/**
 * Launch a flat (untiled) kernel: one lambda invocation per index.
 *
 * @param av    execution context.
 * @param ext   compute domain.
 * @param desc  kernel descriptor (stand-in for the compiled lambda).
 * @param views array_views the lambda captures.
 * @param fn    per-index functor: void(index<1>).
 */
template <typename Kernel>
void
parallel_for_each(accelerator_view &av, const extent<1> &ext,
                  const ir::KernelDescriptor &desc,
                  const std::vector<ViewRef> &views, Kernel &&fn)
{
    ir::OptHints hints;
    detail::launchCommon(av, desc, ext.size(), hints, views,
                         [&fn](u64 begin, u64 end) {
                             for (u64 i = begin; i < end; ++i)
                                 fn(index<1>{i});
                         });
}

/**
 * Launch a tiled kernel: the domain is divided into TileSize-thread
 * tiles (work-groups).  useTileStatic stages through the LDS (the
 * tile_static storage class).
 */
template <int TileSize, typename Kernel>
void
parallel_for_each(accelerator_view &av,
                  const tiled_extent<TileSize> &ext,
                  const ir::KernelDescriptor &desc,
                  const std::vector<ViewRef> &views, Kernel &&fn,
                  bool use_tile_static = false)
{
    ir::OptHints hints;
    hints.tiled = true;
    hints.useLds = use_tile_static;
    hints.workgroupSize = TileSize;
    detail::launchCommon(av, desc, ext.size(), hints, views,
                         [&fn](u64 begin, u64 end) {
                             for (u64 i = begin; i < end; ++i) {
                                 tiled_index<TileSize> tidx;
                                 tidx.global = index<1>{i};
                                 tidx.local = index<1>{i % TileSize};
                                 tidx.tile = index<1>{i / TileSize};
                                 fn(tidx);
                             }
                         });
}

} // namespace hetsim::amp

#endif // HETSIM_AMP_AMP_HH
