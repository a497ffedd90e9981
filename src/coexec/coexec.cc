#include "coexec.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "cpu/threadpool.hh"
#include "coexec/scheduler.hh"
#include "fault/fault.hh"
#include "kernelir/captable.hh"
#include "kernelir/signature.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "sim/pcie.hh"

namespace hetsim::coexec
{

namespace
{

/** PCIe link discrete devices in a pool stage over. */
constexpr sim::PcieLink kPcie{};
/** Simulated cost of saving one checkpoint, charged on every
 *  surviving device's compute queue when a launch is preempted. */
constexpr double kCheckpointSeconds = 100e-6;

} // namespace

const char *
toString(Policy policy)
{
    switch (policy) {
      case Policy::StaticRatio:
        return "static";
      case Policy::DynamicChunk:
        return "dynamic";
      case Policy::Adaptive:
        return "adaptive";
    }
    return "?";
}

std::optional<Policy>
policyByName(const std::string &name)
{
    if (name == "static" || name == "static-ratio")
        return Policy::StaticRatio;
    if (name == "dynamic" || name == "chunked")
        return Policy::DynamicChunk;
    if (name == "adaptive")
        return Policy::Adaptive;
    return std::nullopt;
}

DevicePool::DevicePool(std::vector<sim::DeviceSpec> specs_)
    : specs(std::move(specs_))
{
    // An empty pool is representable (CoExecutor::execute reports it
    // as a structured error) so callers never abort mid-run.
    for (size_t d = 0; d < specs.size(); ++d) {
        if (d > 0)
            poolName += '+';
        poolName += specs[d].name;
    }
}

std::optional<DevicePool>
DevicePool::parse(const std::string &names)
{
    // Every '+'-separated token must name a device: an empty one
    // (leading, doubled or trailing '+', or no name at all) does not.
    std::vector<sim::DeviceSpec> specs;
    std::string alias_list;
    for (size_t start = 0;;) {
        const size_t end = names.find('+', start);
        const sim::DevicePreset *preset = sim::presetByName(
            std::string_view(names).substr(start, end - start));
        if (preset == nullptr)
            return std::nullopt;
        specs.push_back(preset->make());
        if (!alias_list.empty())
            alias_list += '+';
        alias_list += preset->canonical();
        if (end == std::string::npos)
            break;
        start = end + 1;
    }
    DevicePool pool(std::move(specs));
    pool.poolName = alias_list;
    return pool;
}

ir::ModelKind
DevicePool::model(size_t d) const
{
    return specs[d].type == sim::DeviceType::Cpu ? ir::ModelKind::OpenMp
                                                 : gpuModel;
}

double
predictKernelSeconds(const sim::DeviceSpec &spec, Precision prec,
                     const ir::KernelDescriptor &desc,
                     const ir::OptHints &hints, u64 items,
                     ir::ModelKind model)
{
    if (items == 0)
        return 0.0;
    const ir::Codegen cg =
        ir::compileWithCaps(ir::capsFor(model), desc, hints, spec);
    ir::ProfileResolver resolver(spec);
    return ir::memoizedTiming(resolver, spec, spec.stockFreq(), prec,
                              desc, items, hints.workgroupSize, cg)
        .timing.seconds;
}

CoExecutor::CoExecutor(DevicePool pool, Precision prec_)
    : devices(std::move(pool)), prec(prec_)
{}

CoExecResult
CoExecutor::execute(const CoKernel &kernel, const ExecOptions &opts)
{
    CoExecResult result;
    result.policy = toString(opts.policy);
    result.functional = opts.functional && kernel.body != nullptr;

    // The iteration space of this launch: the whole kernel, or the
    // undone ranges of a previously preempted launch (a resume).
    std::vector<ItemRange> work;
    if (opts.resume != nullptr)
        work = *opts.resume;
    else if (kernel.items > 0)
        work.push_back({0, kernel.items});
    u64 items_target = 0;
    for (const ItemRange &r : work)
        items_target += r.second - r.first;
    result.items = items_target;

    if (devices.size() == 0) {
        result.ok = false;
        result.error = "empty co-execution device pool";
        return result;
    }
    if (items_target == 0) {
        result.ok = false;
        result.error = csprintf("kernel %s co-executed with zero items",
                                kernel.name.c_str());
        return result;
    }

    // One slot of executor state per device in the pool.
    struct Slot
    {
        const sim::DeviceSpec *spec = nullptr;
        const ir::BackendCaps *caps = nullptr;
        ir::Codegen cg;
        std::unique_ptr<ir::ProfileResolver> resolver;
        sim::ResourceId computeQ = 0;
        sim::ResourceId dmaH2D = 0;
        sim::ResourceId dmaD2H = 0;
        /** Fixed (share-independent) staging already scheduled. */
        bool staged = false;
        sim::TaskId fixedTask = sim::NoTask;
        /** Simulated instant at which this device pulls again. */
        double nextPull = 0.0;
        /** The scheduler released this device (no fresh grabs). */
        bool schedDone = false;
        /** The device is out of service; its work is rescued. */
        bool dead = false;
        double lastFinish = 0.0;
        DeviceReport report;
    };

    sim::Timeline timeline;
    timeline.attachTracer(&obs::Tracer::global());
    obs::Metrics &metrics = obs::Metrics::global();
    metrics.defineHistogram("coexec.chunk_items",
                            {1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8});
    std::vector<Slot> slots(devices.size());
    std::vector<DeviceState> states(devices.size());
    for (size_t d = 0; d < devices.size(); ++d) {
        Slot &slot = slots[d];
        slot.spec = &devices.spec(d);
        slot.caps = &ir::capsFor(devices.model(d));
        if (kernel.desc.loop.needsBarriers &&
            !slot.caps->features.fineGrainedSync) {
            result.ok = false;
            result.error = csprintf(
                "kernel %s requires work-group barriers which the "
                "co-execution slot for %s cannot express",
                kernel.desc.name.c_str(), slot.spec->name.c_str());
            return result;
        }
        slot.cg = ir::compileWithCaps(*slot.caps, kernel.desc,
                                      kernel.hints, *slot.spec);
        slot.resolver =
            std::make_unique<ir::ProfileResolver>(*slot.spec);
        slot.computeQ =
            timeline.addResource(slot.spec->name + "/compute");
        slot.dmaH2D =
            timeline.addResource(slot.spec->name + "/dma-h2d");
        slot.dmaD2H =
            timeline.addResource(slot.spec->name + "/dma-d2h");
        slot.report.device = slot.spec->name;

        states[d].spec = slot.spec;
        const double predicted = predictKernelSeconds(
            *slot.spec, prec, kernel.desc, kernel.hints, kernel.items,
            devices.model(d));
        states[d].predictedItemsPerSec =
            predicted > 0.0
                ? static_cast<double>(kernel.items) / predicted
                : 0.0;
    }

    auto scheduler = makeScheduler(opts.policy, opts.chunkItems,
                                   opts.minChunkItems);
    scheduler->reset(items_target, states);

    // --- Fault machinery -------------------------------------------------
    fault::FaultPlan *plan = opts.faults;
    const bool faulty = plan != nullptr && plan->enabled();
    const u32 retry_max = faulty ? plan->config().retryMax : 0;
    const u64 faults_before = faulty ? plan->schedule().size() : 0;
    size_t alive = devices.size();

    // Declare a device dead: it takes no further work, and the pool
    // degrades to whatever devices remain.
    auto killDevice = [&](Slot &slot, const char *why, double when) {
        slot.dead = true;
        plan->markDead(slot.spec->name);
        alive -= 1;
        result.deadDevices.push_back(slot.spec->name);
        metrics.add("fault.dead_devices", 1);
        if (alive > 0) {
            result.degradations += 1;
            metrics.add("fault.degradations", 1);
        }
        if (timeline.tracing()) {
            timeline.tracer()->instant(
                timeline.tracer()->track(slot.spec->name + "/compute"),
                csprintf("device-dead [%s]", why), "fault", when);
        }
        warn("coexec: %s marked dead (%s); %s", slot.spec->name.c_str(),
             why,
             alive > 0 ? "redistributing its work"
                       : "no healthy devices remain");
    };

    // Failed chunk ranges awaiting re-execution on a healthy device.
    std::deque<std::pair<u64, u64>> rescue;
    auto rescueChunk = [&](u64 begin, u64 end) {
        rescue.push_back({begin, end});
        result.chunkRescues += 1;
        metrics.add("fault.rescues", 1);
    };

    // Schedule one staging transfer, retrying injected failures with
    // exponential backoff.  Every attempt occupies the DMA engine for
    // its full duration and each backoff holds the engine idle, so
    // recovery costs simulated time.  Returns the successful task, or
    // nullopt when the device exhausted its retry budget (and died).
    auto transferWithRetry =
        [&](Slot &slot, sim::ResourceId dma, double secs, u64 bytes,
            std::string_view what,
            sim::TaskId dep) -> std::optional<sim::TaskId> {
        for (u32 attempt = 0;; ++attempt) {
            if (!faulty || !plan->failTransfer(slot.spec->name)) {
                sim::TaskId task = timeline.schedule(
                    dma, secs, dep,
                    sim::Timeline::SpanInfo{what, "transfer", 0.0,
                                            bytes});
                slot.report.transferSeconds += secs;
                return task;
            }
            const std::string label = std::string(what) + " [failed]";
            sim::TaskId failed = timeline.schedule(
                dma, secs, dep,
                sim::Timeline::SpanInfo{label, "fault", 0.0, bytes});
            slot.report.transferSeconds += secs;
            metrics.add("fault.transfer_failures", 1);
            if (attempt >= retry_max) {
                killDevice(slot, "transfer retries exhausted",
                           timeline.finishTime(failed));
                return std::nullopt;
            }
            const double gap = fault::backoffSeconds(
                attempt + 1, fault::kBackoffSeconds);
            timeline.blockResource(dma,
                                   timeline.finishTime(failed) + gap);
            result.transferRetries += 1;
            metrics.add("fault.transfer_retries", 1);
            metrics.add("fault.backoff_seconds", gap);
        }
    };

    // Pull loop: whichever device reaches its pull instant first
    // grabs the next chunk of the shared iteration space.  A device's
    // next pull is the *start* of its current compute task, so the
    // next chunk's staging overlaps the current chunk's compute
    // (depth-1 prefetch on the DMA engine).  Chunks of dead devices
    // land on the rescue queue and re-execute on healthy devices;
    // items count as done only when their chunk fully succeeds.
    //
    // The fresh iteration space is the range list `work` (one range
    // for a plain launch, the checkpointed remainder for a resume);
    // chunks never cross a range boundary.  wr/wpos are the cursor.
    const double budget =
        result.functional ? 0.0 : opts.budgetSeconds;
    size_t wr = 0;
    u64 wpos = work[0].first;
    u64 fresh_left = items_target;
    u64 items_done = 0;
    while (items_done < items_target) {
        const bool have_fresh = fresh_left > 0;
        const bool degraded = !result.deadDevices.empty();
        size_t d = devices.size();
        for (size_t i = 0; i < devices.size(); ++i) {
            Slot &s = slots[i];
            if (s.dead)
                continue;
            // A scheduler-released device may still take rescue work,
            // and in degraded mode the fresh tail as well.
            const bool may_pull =
                have_fresh && (!s.schedDone || degraded);
            if (!may_pull && rescue.empty())
                continue;
            if (d == devices.size() ||
                s.nextPull < slots[d].nextPull) {
                d = i;
            }
        }
        if (d == devices.size()) {
            result.ok = false;
            result.error = csprintf(
                "co-exec left %llu of %llu items unassigned "
                "(no healthy device can take them)",
                static_cast<unsigned long long>(items_target -
                                                items_done),
                static_cast<unsigned long long>(items_target));
            break;
        }

        // Budgeted launch: once even the earliest-free device would
        // pull at or past the budget, checkpoint at this chunk
        // boundary instead of grabbing more work.  Guarded on
        // items_done so every slice makes progress regardless of how
        // small the budget is.
        if (budget > 0.0 && items_done > 0 &&
            slots[d].nextPull >= budget) {
            result.preempted = true;
            break;
        }

        Slot &slot = slots[d];
        u64 begin = 0;
        u64 take = 0;
        bool fresh_grab = true;
        if (!rescue.empty() && (slot.schedDone || !have_fresh)) {
            begin = rescue.front().first;
            take = rescue.front().second - begin;
            rescue.pop_front();
            fresh_grab = false;
        } else if (slot.schedDone) {
            // Degraded-mode takeover: the scheduler already released
            // this device, so it claims the current range's orphaned
            // tail directly.
            begin = wpos;
            take = work[wr].second - wpos;
        } else {
            take = scheduler->grab(d, states[d], fresh_left);
            if (take == 0) {
                slot.schedDone = true;
                if (timeline.tracing()) {
                    timeline.tracer()->instant(
                        timeline.tracer()->track(slot.spec->name +
                                                 "/compute"),
                        "scheduler-done", "coexec", slot.lastFinish);
                }
                continue;
            }
            take = std::min(take, work[wr].second - wpos);
            begin = wpos;
        }
        if (fresh_grab) {
            wpos += take;
            fresh_left -= take;
            if (wpos == work[wr].second && ++wr < work.size())
                wpos = work[wr].first;
        }

        // --fail-device: the named device dies at its next pull once
        // it has completed its configured chunk budget (mid-run).
        if (faulty && plan->shouldKill(*slot.spec,
                                       states[d].chunksDone)) {
            killDevice(slot, "fail-device", slot.lastFinish);
            rescueChunk(begin, begin + take);
            continue;
        }

        const bool discrete = !slot.spec->zeroCopy;
        const double xfer_eff = slot.caps->transferEfficiency;

        const sim::KernelTiming timing =
            ir::memoizedTiming(*slot.resolver, *slot.spec,
                               slot.spec->stockFreq(), prec, kernel.desc,
                               take, kernel.hints.workgroupSize, slot.cg)
                .timing;
        const double kernel_secs = timing.seconds;

        ir::observeLaunch(*slot.spec, devices.model(d),
                          slot.spec->stockFreq(), prec, kernel.desc, take,
                          kernel.hints.workgroupSize, timing);

        // Injected stall: the chunk hangs and the straggler watchdog
        // declares the device dead after the stall timeout.
        if (faulty && plan->stallDevice(slot.spec->name)) {
            const double timeout = fault::stallTimeoutSeconds(kernel_secs);
            const sim::TaskId stalled = timeline.schedule(
                slot.computeQ, timeout, std::span<const sim::TaskId>{},
                sim::Timeline::SpanInfo{"stall [watchdog]", "fault",
                                        0.0, 0});
            slot.lastFinish = std::max(slot.lastFinish,
                                       timeline.finishTime(stalled));
            metrics.add("fault.stalls", 1);
            killDevice(slot, "stall watchdog", slot.lastFinish);
            rescueChunk(begin, begin + take);
            continue;
        }

        std::vector<sim::TaskId> deps;
        bool chunk_lost = false;

        if (discrete && !slot.staged) {
            slot.staged = true;
            if (kernel.h2dBytesFixed > 0.0) {
                const u64 fixed_bytes =
                    static_cast<u64>(kernel.h2dBytesFixed);
                const double secs =
                    kPcie.transferSeconds(fixed_bytes) / xfer_eff;
                auto staged = transferWithRetry(
                    slot, slot.dmaH2D, secs, fixed_bytes,
                    "h2d fixed tables", sim::NoTask);
                if (staged)
                    slot.fixedTask = *staged;
                else
                    chunk_lost = true;
            }
        }
        if (!chunk_lost && discrete && kernel.h2dBytesPerItem > 0.0) {
            const u64 h2d_bytes = static_cast<u64>(
                static_cast<double>(take) * kernel.h2dBytesPerItem);
            const double secs =
                kPcie.transferSeconds(h2d_bytes) / xfer_eff;
            auto h2d = transferWithRetry(slot, slot.dmaH2D, secs,
                                         h2d_bytes, "h2d chunk",
                                         slot.fixedTask);
            if (h2d)
                deps.push_back(*h2d);
            else
                chunk_lost = true;
        } else if (!chunk_lost && slot.fixedTask != sim::NoTask) {
            deps.push_back(slot.fixedTask);
        }
        if (chunk_lost) {
            rescueChunk(begin, begin + take);
            continue;
        }

        // Injected launch failure: a rejected submission costs its
        // launch overhead before the error surfaces, then retries
        // after a backoff window.
        bool launch_ok = true;
        for (u32 attempt = 0;
             faulty && plan->failLaunch(slot.spec->name); ++attempt) {
            const double cost = std::max(timing.launchSeconds, 1e-6);
            const sim::TaskId failed = timeline.schedule(
                slot.computeQ, cost, std::span<const sim::TaskId>(deps),
                sim::Timeline::SpanInfo{"launch [failed]", "fault",
                                        cost, 0});
            metrics.add("fault.launch_failures", 1);
            if (attempt >= retry_max) {
                killDevice(slot, "launch retries exhausted",
                           timeline.finishTime(failed));
                launch_ok = false;
                break;
            }
            timeline.blockResource(
                slot.computeQ,
                timeline.finishTime(failed) +
                    fault::backoffSeconds(attempt + 1,
                                          fault::kBackoffSeconds));
            result.launchRetries += 1;
            metrics.add("fault.launch_retries", 1);
        }
        if (!launch_ok) {
            rescueChunk(begin, begin + take);
            continue;
        }

        const std::string chunk_label =
            kernel.name + "#" + std::to_string(slot.report.chunks);
        const sim::TaskId compute = timeline.schedule(
            slot.computeQ, kernel_secs,
            std::span<const sim::TaskId>(deps),
            sim::Timeline::SpanInfo{chunk_label, "compute",
                                    timing.launchSeconds, 0});
        slot.report.kernelSeconds += kernel_secs;

        double finish = timeline.finishTime(compute);
        if (discrete && kernel.d2hBytesPerItem > 0.0) {
            const u64 d2h_bytes = static_cast<u64>(
                static_cast<double>(take) * kernel.d2hBytesPerItem);
            const double secs =
                kPcie.transferSeconds(d2h_bytes) / xfer_eff;
            auto d2h = transferWithRetry(slot, slot.dmaD2H, secs,
                                         d2h_bytes, "d2h chunk",
                                         compute);
            if (!d2h) {
                // Results lost on the way back: the kernel work is
                // sunk cost and the chunk re-executes elsewhere.
                rescueChunk(begin, begin + take);
                continue;
            }
            finish = timeline.finishTime(*d2h);
        }
        slot.lastFinish = std::max(slot.lastFinish, finish);
        slot.nextPull = timeline.startTime(compute);

        slot.report.items += take;
        slot.report.chunks += 1;
        states[d].itemsDone += take;
        states[d].chunksDone += 1;
        items_done += take;
        metrics.add("coexec.chunks", 1);
        metrics.add("coexec.items", static_cast<double>(take));
        metrics.observe("coexec.chunk_items",
                        static_cast<double>(take));
        if (kernel_secs > 0.0) {
            // Per-chunk simulated kernel throughput, items/s.
            metrics.observe("coexec.chunk_items_per_sec",
                            static_cast<double>(take) / kernel_secs);
        }
        // End-to-end elapsed time on the device, staging included:
        // the adaptive policy's observed throughput must see PCIe
        // serialization, not just kernel time.
        states[d].busySeconds = slot.lastFinish;

        result.partitions.push_back({d, begin, begin + take});

        // Functional execution of the range (real results).  Only a
        // fully successful chunk executes its body, so rescued ranges
        // run exactly once and results stay bit-identical to a
        // fault-free (or CPU-only) run.
        if (result.functional) {
            cpu::ThreadPool::global().parallelFor(
                take, [&](u64 lo, u64 hi) {
                    kernel.body(begin + lo, begin + hi);
                });
        }
    }

    if (result.preempted) {
        // Checkpoint at the chunk boundary: the undone iteration
        // space is the fresh-cursor remainder plus any rescue-queued
        // ranges, reported ascending for the resume.  Saving state
        // costs kCheckpointSeconds on every surviving device.
        if (wr < work.size()) {
            result.remaining.push_back({wpos, work[wr].second});
            for (size_t r = wr + 1; r < work.size(); ++r)
                result.remaining.push_back(work[r]);
        }
        for (const auto &range : rescue)
            result.remaining.push_back(range);
        std::sort(result.remaining.begin(), result.remaining.end());
        for (Slot &slot : slots) {
            if (slot.dead)
                continue;
            const sim::TaskId ckpt = timeline.schedule(
                slot.computeQ, kCheckpointSeconds,
                std::span<const sim::TaskId>{},
                sim::Timeline::SpanInfo{"checkpoint [preempt]",
                                        "preempt", 0.0, 0});
            slot.lastFinish = std::max(slot.lastFinish,
                                       timeline.finishTime(ckpt));
        }
        metrics.add("coexec.preemptions", 1);
    }

    result.seconds = timeline.makespan();
    result.energy =
        power::energyOf(timeline, power::PowerTable::active());
    result.energyJoules = result.energy.joules;
    if (faulty) {
        result.faultsInjected = plan->schedule().size() - faults_before;
        metrics.add("fault.injected",
                    static_cast<double>(result.faultsInjected));
    }
    for (size_t d = 0; d < devices.size(); ++d) {
        Slot &slot = slots[d];
        slot.report.share =
            static_cast<double>(slot.report.items) /
            static_cast<double>(items_target);
        slot.report.finishSeconds = slot.lastFinish;
        slot.report.busySeconds =
            timeline.resourceBusyTime(slot.computeQ);
        // Idle: the pool kept running while this device's compute
        // queue had nothing scheduled (EngineCL's load-balance FoM).
        slot.report.idleSeconds =
            result.seconds - slot.report.busySeconds;
        for (const auto &bucket : result.energy.buckets)
            if (bucket.resource.rfind(slot.spec->name + "/", 0) == 0)
                slot.report.energyJoules +=
                    bucket.busyJoules + bucket.idleJoules;
        result.transferSeconds += slot.report.transferSeconds;
        result.devices.push_back(slot.report);
    }
    // A failed launch skips validation: the functional results are
    // incomplete by construction, and the caller already gets the
    // structured error.
    if (result.functional && result.ok) {
        if (kernel.validate)
            result.validated = kernel.validate();
        if (kernel.checksum)
            result.checksum = kernel.checksum();
    }
    return result;
}

} // namespace hetsim::coexec
