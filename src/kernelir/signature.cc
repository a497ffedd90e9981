#include "kernelir/signature.hh"

#include "obs/profile.hh"
#include "sim/timing_cache.hh"

namespace hetsim::ir
{

u64
kernelSignature(const KernelDescriptor &desc)
{
    sim::HashMix h;
    h.mixString(desc.name);
    h.mixDouble(desc.flopsPerItem);
    h.mixDouble(desc.intOpsPerItem);
    h.mixDouble(desc.ldsBytesPerItemIfUsed);
    h.mixDouble(desc.barriersPerItem);
    h.mix(desc.loop.divergentControlFlow ? 1 : 0);
    h.mix(desc.loop.variableTripCount ? 1 : 0);
    h.mix(desc.loop.indirectAddressing ? 1 : 0);
    h.mix(desc.loop.reduction ? 1 : 0);
    h.mix(desc.loop.needsBarriers ? 1 : 0);
    h.mix(desc.loop.tileable ? 1 : 0);
    h.mix(static_cast<u64>(desc.loop.unrollableDepth));
    h.mix(desc.preferredWorkgroup);
    h.mixDouble(desc.chainConcurrencyPerCu);
    h.mix(desc.streams.size());
    for (const auto &stream : desc.streams) {
        h.mixString(stream.buffer);
        h.mixDouble(stream.bytesPerItemSp);
        h.mix(stream.scalesWithPrecision ? 1 : 0);
        h.mix(static_cast<u64>(stream.pattern));
        h.mix(stream.workingSetBytesSp);
        h.mixDouble(stream.dependentAccessesPerItem);
        h.mix(stream.trace ? 1 : 0);
    }
    return h.digest();
}

sim::TimingEntry
memoizedTiming(ProfileResolver &resolver, const sim::DeviceSpec &spec,
               const sim::FreqDomain &freq, Precision prec,
               const KernelDescriptor &desc, u64 items, u32 wg_size,
               const Codegen &cg)
{
    sim::TimingCache &cache = sim::TimingCache::global();
    sim::TimingKey key;
    if (cache.enabled()) {
        key.kernelSig = kernelSignature(desc);
        key.deviceSig = sim::deviceSignature(spec);
        key.codegenSig = sim::codegenSignature(cg, cg.chainEfficiency);
        key.items = items;
        key.setFreq(freq);
        key.precision = static_cast<u32>(prec);
        key.workgroup = wg_size;
        if (auto hit = cache.lookup(key))
            return std::move(*hit);
    }

    sim::TimingEntry entry;
    entry.profile =
        resolver.resolve(desc, items, prec, cg.usesLds, wg_size);
    entry.profile.chainConcurrencyPerCu *= cg.chainEfficiency;
    entry.timing =
        sim::timeKernel(spec, freq, prec, entry.profile, cg);
    if (cache.enabled())
        cache.insert(key, entry);
    return entry;
}

void
observeLaunch(const sim::DeviceSpec &spec, ModelKind model,
              const sim::FreqDomain &freq, Precision prec,
              const KernelDescriptor &desc, u64 items, u32 wg_size,
              const sim::KernelTiming &timing)
{
    obs::Profiler &profiler = obs::Profiler::global();
    if (!profiler.enabled())
        return;
    obs::ObsRecord rec;
    rec.kernel = desc.name;
    rec.device = spec.name;
    rec.model = toString(model);
    rec.precisionBits = prec == Precision::Double ? 64 : 32;
    rec.items = items;
    rec.coreMhz = freq.coreMhz;
    rec.memMhz = freq.memMhz;
    rec.workgroup = wg_size;
    rec.launches = 1;
    rec.seconds = timing.seconds;
    rec.issueSeconds = timing.issueSeconds;
    rec.memSeconds = timing.memSeconds;
    rec.ldsSeconds = timing.ldsSeconds;
    rec.latencySeconds = timing.latencySeconds;
    rec.launchSeconds = timing.launchSeconds;
    profiler.observe(rec);
}

} // namespace hetsim::ir
