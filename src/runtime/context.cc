#include "context.hh"

#include "common/logging.hh"
#include "cpu/threadpool.hh"
#include "kernelir/signature.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"

namespace hetsim::rt
{

namespace
{

/** Per-thread session label; see rt::sessionLabel(). */
thread_local std::string threadSessionLabel;

} // namespace

const std::string &
sessionLabel()
{
    return threadSessionLabel;
}

ScopedSessionLabel::ScopedSessionLabel(std::string label)
    : prior(std::move(threadSessionLabel))
{
    threadSessionLabel = std::move(label);
}

ScopedSessionLabel::~ScopedSessionLabel()
{
    threadSessionLabel = std::move(prior);
}

RuntimeContext::RuntimeContext(sim::DeviceSpec spec_, ir::ModelKind model,
                               Precision prec)
    : spec(std::move(spec_)),
      caps(ir::capsFor(model)),
      prec(prec),
      clocks(spec.stockFreq()),
      resolver(spec)
{
    // Resources carry the device name so each queue gets its own
    // track in an emitted trace ("R9 280X/compute", ...).  On a
    // labelled serve-session thread they additionally carry the
    // session label ("w0/R9 280X/compute") so concurrent jobs land on
    // disjoint tracks.
    const std::string &label = sessionLabel();
    const std::string base =
        label.empty() ? spec.name : label + "/" + spec.name;
    dmaH2D = timeline.addResource(base + "/dma-h2d");
    dmaD2H = timeline.addResource(base + "/dma-d2h");
    computeQ = timeline.addResource(base + "/compute");
    hostQ = timeline.addResource(base + "/host");
    timeline.attachTracer(&obs::Tracer::global());
}

void
RuntimeContext::setFreq(const sim::FreqDomain &freq)
{
    if (freq.coreMhz <= 0.0 || freq.memMhz <= 0.0)
        fatal("invalid frequency domain (%g, %g)", freq.coreMhz,
              freq.memMhz);
    clocks = freq;
}

BufferId
RuntimeContext::createBuffer(std::string name, u64 bytes)
{
    if (bytes == 0)
        fatal("buffer %s has zero size", name.c_str());
    if (!spec.zeroCopy && bytes > spec.memoryBytes) {
        fatal("buffer %s (%llu bytes) exceeds device memory of %s",
              name.c_str(), static_cast<unsigned long long>(bytes),
              spec.name.c_str());
    }
    Buffer buf;
    buf.name = std::move(name);
    buf.bytes = bytes;
    buffers.push_back(std::move(buf));
    // In --stats but not in --metrics-out.
    counters.add("buffers.created", 1);
    counters.add("buffers.bytes", static_cast<double>(bytes));
    return static_cast<BufferId>(buffers.size() - 1);
}

void
RuntimeContext::markHostDirty(BufferId buf)
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    buffers[buf].hostOk = true;
    buffers[buf].deviceOk = spec.zeroCopy;
}

void
RuntimeContext::markDeviceDirty(BufferId buf)
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    buffers[buf].deviceOk = true;
    buffers[buf].hostOk = spec.zeroCopy;
}

bool
RuntimeContext::deviceValid(BufferId buf) const
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    return spec.zeroCopy || buffers[buf].deviceOk;
}

bool
RuntimeContext::hostValid(BufferId buf) const
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    return spec.zeroCopy || buffers[buf].hostOk;
}

void
RuntimeContext::count(std::string_view name, double delta)
{
    counters.add(name, delta);
    obs::Metrics::global().add(name, delta);
}

sim::TaskId
RuntimeContext::scheduleTransfer(BufferId buf, bool to_device,
                                 sim::TaskId dep)
{
    if (buf >= buffers.size())
        panic("bad buffer id %u", buf);
    Buffer &info = buffers[buf];
    if (spec.zeroCopy) {
        info.hostOk = true;
        info.deviceOk = true;
        return sim::NoTask;
    }

    const double seconds = pcie.transferSeconds(info.bytes) /
                           caps.transferEfficiency;
    const sim::TaskId task = timeline.schedule(
        to_device ? dmaH2D : dmaD2H, seconds, dep,
        sim::Timeline::SpanInfo{
            std::string(to_device ? "h2d " : "d2h ") + info.name,
            "transfer", 0.0, info.bytes});
    if (to_device)
        info.deviceOk = true;
    else
        info.hostOk = true;
    const double bytes = static_cast<double>(info.bytes);
    count(to_device ? "xfer.h2d.bytes" : "xfer.d2h.bytes", bytes);
    count(to_device ? "xfer.h2d.count" : "xfer.d2h.count", 1);
    count(to_device ? "xfer.h2d.seconds" : "xfer.d2h.seconds", seconds);
    return task;
}

sim::TaskId
RuntimeContext::copyToDevice(BufferId buf, sim::TaskId dep)
{
    return scheduleTransfer(buf, true, dep);
}

sim::TaskId
RuntimeContext::copyToHost(BufferId buf, sim::TaskId dep)
{
    return scheduleTransfer(buf, false, dep);
}

sim::TaskId
RuntimeContext::ensureOnDevice(BufferId buf, sim::TaskId dep)
{
    if (deviceValid(buf))
        return sim::NoTask;
    return scheduleTransfer(buf, true, dep);
}

sim::TaskId
RuntimeContext::ensureOnHost(BufferId buf, sim::TaskId dep)
{
    if (hostValid(buf))
        return sim::NoTask;
    return scheduleTransfer(buf, false, dep);
}

sim::TaskId
RuntimeContext::launch(const ir::KernelDescriptor &desc, u64 items,
                       const ir::OptHints &hints, const KernelBody &body,
                       std::span<const sim::TaskId> deps)
{
    if (items == 0)
        fatal("kernel %s launched with zero items", desc.name.c_str());

    if (desc.loop.needsBarriers &&
        !caps.features.fineGrainedSync) {
        fatal("kernel %s requires work-group barriers which %s cannot "
              "express; restructure the algorithm for this model",
              desc.name.c_str(), caps.display);
    }

    // Functional execution (real results) on the host pool.
    if (functional && body)
        cpu::ThreadPool::global().parallelFor(items, body);

    // Temporal modeling (memoized across repeated launches).
    ir::Codegen cg = ir::compileWithCaps(caps, desc, hints, spec);
    sim::TimingEntry eval =
        ir::memoizedTiming(resolver, spec, clocks, prec, desc, items,
                           hints.workgroupSize, cg);
    const sim::KernelTiming timing = eval.timing;
    const sim::TaskId task = timeline.schedule(
        computeQ, timing.seconds, deps,
        sim::Timeline::SpanInfo{desc.name, "compute",
                                timing.launchSeconds, 0});

    KernelRecord record;
    record.name = desc.name;
    record.items = items;
    record.profile = std::move(eval.profile);
    record.codegen = std::move(cg);
    record.timing = timing;
    launches.push_back(std::move(record));

    count("kernel.launches", 1);
    count("kernel.seconds", timing.seconds);
    count("kernel.launch_overhead_seconds", timing.launchSeconds);
    // In --metrics-out but not in --stats.
    obs::Metrics::global().add("kernel.items", static_cast<double>(items));
    ir::observeLaunch(spec, caps.kind, clocks, prec, desc, items,
                      hints.workgroupSize, timing);
    return task;
}

sim::TaskId
RuntimeContext::hostWork(double seconds, sim::TaskId dep)
{
    if (seconds < 0.0)
        panic("negative host work");
    count("host.seconds", seconds);
    return timeline.schedule(
        hostQ, seconds, dep,
        sim::Timeline::SpanInfo{"host-work", "host", 0.0, 0});
}

double
RuntimeContext::aggregateLlcMissRatio() const
{
    double accesses = 0.0;
    double misses = 0.0;
    for (const auto &record : launches) {
        double items = static_cast<double>(record.items);
        accesses += record.profile.memInstrsPerItem * items;
        misses += record.profile.dramBytesPerItem * items /
                  spec.l2LineBytes;
    }
    return accesses > 0.0 ? misses / accesses : 0.0;
}

double
RuntimeContext::aggregateIpc() const
{
    double instrs = 0.0;
    double cycles = 0.0;
    for (const auto &record : launches) {
        instrs += record.timing.waveInstructions;
        cycles += record.timing.cycles;
    }
    return cycles > 0.0 ? instrs / (cycles * spec.computeUnits) : 0.0;
}

} // namespace hetsim::rt
