#include "trace.hh"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/logging.hh"
#include "cpu/threadpool.hh"
#include "obs/metrics.hh"
#include "sim/timing_cache.hh"

namespace hetsim::ir
{

ProfileResolver::ProfileResolver(const sim::DeviceSpec &spec) : spec(spec)
{
}

double
ProfileResolver::analyticMissRatio(const MemStream &stream,
                                   Precision prec) const
{
    const double scale =
        stream.scalesWithPrecision && prec == Precision::Double ? 2.0 : 1.0;
    const double elem_bytes = 4.0 * scale;
    const double ws = static_cast<double>(stream.workingSetBytesSp) * scale;
    const double line = spec.l2LineBytes;

    // Resident working sets mostly hit after warm-up.
    if (ws > 0.0 && ws <= 0.75 * static_cast<double>(spec.l2Bytes))
        return 0.01;

    switch (stream.pattern) {
      case sim::AccessPattern::Sequential:
        // Streaming: one line miss per line's worth of elements.
        return elem_bytes / line;
      case sim::AccessPattern::Stencil:
        // Neighborhood reuse roughly halves the compulsory misses.
        return 0.5 * elem_bytes / line;
      case sim::AccessPattern::Strided:
        // Interleaved strided streams re-touch each line a few times
        // before eviction; charge roughly twice the compulsory rate.
        return std::min(1.0, 2.0 * elem_bytes / line);
      case sim::AccessPattern::Gather:
        // Indexed with some locality.
        return 0.5;
      case sim::AccessPattern::RandomGather: {
        // Random probes hit with probability ~ cache/working-set.
        if (ws <= 0.0)
            return 1.0;
        double p_hit = static_cast<double>(spec.l2Bytes) / ws;
        return std::clamp(1.0 - p_hit, 0.05, 1.0);
      }
    }
    return 1.0;
}

namespace
{

/**
 * Process-wide miss-ratio memo, keyed by kernel name, stream buffer,
 * precision, L2 size and working-set size - not clocks or model - so
 * sweeps across frequencies and models share entries.
 *
 * The key is exact for traced streams: their ratio depends only on
 * the trace, which is seeded from the key.  It is not exact for
 * untraced streams.  Their analytic ratio also reads the stream's
 * access pattern, which the key leaves out.  Two ports whose
 * descriptors differ only in pattern therefore share whichever ratio
 * was memoized first.  For example, MiniFE's CSR-scalar matvec
 * declares its "vals+cols" stream Strided (DP ratio 0.25) and the
 * other SpMV styles declare it Sequential (0.125).  That is why a
 * run's simulated times depend on the order its models run in.
 * Adding the pattern to the key changes committed digests.
 */
std::map<std::string, double> globalMissCache;
std::mutex globalMissMutex;

} // namespace

double
ProfileResolver::streamMissRatio(const KernelDescriptor &desc,
                                 const MemStream &stream, Precision prec)
{
    // The memo obeys the same switch as the timing cache: with
    // --no-timing-cache every launch re-derives its miss ratios from
    // scratch (the A/B contract is "no memoized timing state at all").
    // Results are identical either way - the trace Rng is seeded from
    // the key, so a re-run reproduces the memoized ratio bit-for-bit.
    return streamMissRatio(desc, stream, prec,
                           sim::TimingCache::global().enabled());
}

double
ProfileResolver::streamMissRatio(const KernelDescriptor &desc,
                                 const MemStream &stream, Precision prec,
                                 bool memoize)
{
    std::string key = desc.name + '/' + stream.buffer + '/' +
                      toString(prec) + '/' +
                      std::to_string(spec.l2Bytes) + '/' +
                      std::to_string(stream.workingSetBytesSp);
    if (memoize) {
        std::lock_guard<std::mutex> lock(globalMissMutex);
        auto it = globalMissCache.find(key);
        if (it != globalMissCache.end())
            return it->second;
    }

    double miss;
    if (stream.trace) {
        sim::SetAssocCache cache(spec.l2Bytes, spec.l2LineBytes,
                                 spec.l2Assoc);
        // Seed from the key so reruns are bit-identical.
        Rng rng(std::hash<std::string>{}(key));
        stream.trace(cache, rng);
        obs::Metrics::global().add(
            "sim.trace.probes", static_cast<double>(cache.accesses()));
        if (cache.accesses() == 0) {
            warn("trace for %s produced no accesses; using heuristic",
                 key.c_str());
            miss = analyticMissRatio(stream, prec);
        } else {
            miss = cache.missRatio();
        }
    } else {
        miss = analyticMissRatio(stream, prec);
    }

    if (memoize) {
        std::lock_guard<std::mutex> lock(globalMissMutex);
        globalMissCache.emplace(std::move(key), miss);
    }
    return miss;
}

sim::KernelProfile
ProfileResolver::resolve(const KernelDescriptor &desc, u64 items,
                         Precision prec, bool use_lds, u32 wg_size)
{
    if (desc.streams.empty() && desc.flopsPerItem <= 0.0 &&
        desc.intOpsPerItem <= 0.0) {
        panic("kernel %s has an empty descriptor", desc.name.c_str());
    }

    const double prec_scale = prec == Precision::Double ? 2.0 : 1.0;
    const double line = spec.l2LineBytes;

    sim::KernelProfile prof;
    prof.name = desc.name;
    prof.items = items;
    prof.flopsPerItem = desc.flopsPerItem;
    prof.intOpsPerItem = desc.intOpsPerItem;
    prof.workgroupSize =
        wg_size ? wg_size : desc.preferredWorkgroup;
    prof.chainConcurrencyPerCu = desc.chainConcurrencyPerCu;

    double dram_weighted = 0.0; // sum of dram_bytes / pattern_eff
    double max_dram_bytes = -1.0;

    // Independent per-stream cache simulations are the expensive part
    // of resolution (up to 2M probes each); shard them across the host
    // pool.  Each stream's Rng is seeded from its memo key, not from
    // its worker, so the miss ratios are bitwise-identical no matter
    // how the streams land on threads (see test_determinism).
    // The memoize switch is read here, on the resolving thread: a
    // per-job TimingCache::ScopedBypass is thread-local and must keep
    // governing the shards that land on pool workers.
    const bool memoize = sim::TimingCache::global().enabled();
    std::vector<double> miss_ratios(desc.streams.size(), 0.0);
    cpu::ThreadPool::global().parallelFor(
        desc.streams.size(),
        [&](u64 lo, u64 hi) {
            for (u64 s = lo; s < hi; ++s) {
                miss_ratios[s] = streamMissRatio(
                    desc, desc.streams[s], prec, memoize);
            }
        },
        1);

    for (size_t s = 0; s < desc.streams.size(); ++s) {
        const auto &stream = desc.streams[s];
        const double scale =
            stream.scalesWithPrecision ? prec_scale : 1.0;
        const double elem_bytes = 4.0 * scale;
        const double accesses = stream.bytesPerItemSp / 4.0;
        const double miss = miss_ratios[s];

        const double dram_bytes = accesses * miss * line;
        const double eff =
            sim::patternEfficiency(stream.pattern, spec.type);

        prof.memInstrsPerItem += accesses;
        prof.dramBytesPerItem += dram_bytes;
        prof.l2BytesPerItem += accesses * elem_bytes;
        dram_weighted += dram_bytes / eff;
        prof.dependentMissesPerItem +=
            stream.dependentAccessesPerItem * miss;
        prof.dependentHitsPerItem +=
            stream.dependentAccessesPerItem * (1.0 - miss);

        if (dram_bytes > max_dram_bytes) {
            max_dram_bytes = dram_bytes;
            prof.pattern = stream.pattern;
        }
    }

    prof.patternEff = dram_weighted > 0.0
                          ? prof.dramBytesPerItem / dram_weighted
                          : 1.0;

    if (use_lds && desc.ldsBytesPerItemIfUsed > 0.0) {
        prof.ldsBytesPerItem = desc.ldsBytesPerItemIfUsed;
        prof.barriersPerItem = desc.barriersPerItem;
    }

    return prof;
}

} // namespace hetsim::ir
