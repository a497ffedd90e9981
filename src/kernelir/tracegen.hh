/**
 * @file
 * Reusable address-trace generators for MemStream::trace.
 *
 * Generators emit a *contiguous sample* of the stream's accesses
 * (first-N-work-items style) so the cache model sees genuine spatial
 * and temporal locality.  Probe counts are capped so profile
 * resolution stays cheap; caps are chosen to cover several multiples
 * of any L2 the simulator models.
 */

#ifndef HETSIM_KERNELIR_TRACEGEN_HH
#define HETSIM_KERNELIR_TRACEGEN_HH

#include <bit>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "kernelir/kernel.hh"

namespace hetsim::ir
{

/** Default probe budget per stream trace. */
constexpr u64 defaultTraceProbes = 1u << 21; // 2M probes

/** Addresses buffered per accessBatch() call (stack-friendly). */
constexpr u64 traceBatchAddrs = 4096;

/**
 * The one way a trace generator feeds the cache: push() addresses in
 * access order.  A push whose line equals the previous push's line is
 * an MRU hit (nothing reached that line's set in between), so it is
 * counted but not stored; every other push is stored and probed.  A
 * batch ends every traceBatchAddrs pushes: its stored addresses go to
 * SetAssocCache::accessBatch() and its repeats to countMruHits(), and
 * the partial last batch is flushed on destruction.  Counters and LRU
 * state are therefore bit-identical to calling access() once per
 * push().  Only adjacent repeats are collapsed: an A-B-A repeat is
 * stored, and the probe's MRU compare decides whether it hits.
 */
class TraceBatcher
{
  public:
    explicit TraceBatcher(sim::SetAssocCache &cache)
        : cache(cache),
          lineShift(static_cast<u32>(std::countr_zero(cache.lineBytes())))
    {
    }
    ~TraceBatcher() { flush(); }
    TraceBatcher(const TraceBatcher &) = delete;
    TraceBatcher &operator=(const TraceBatcher &) = delete;

    void
    push(Addr addr)
    {
        // Branch-free: the slot is always written, and kept only when
        // the line is fresh.
        const u64 line = addr >> lineShift;
        buf[size] = addr;
        size += line != prevLine;
        prevLine = line;
        if (++pushes == traceBatchAddrs)
            flush();
    }

  private:
    void
    flush()
    {
        cache.accessBatch(buf, size);
        cache.countMruHits(pushes - size);
        size = 0;
        pushes = 0;
    }

    sim::SetAssocCache &cache;
    u32 lineShift;
    /** Line of the last push; no address maps to ~0 (lines are at
     *  least 2 bytes), so the first push is always fresh. */
    u64 prevLine = ~0ULL;
    u64 size = 0;   ///< stored addresses of this batch
    u64 pushes = 0; ///< pushes of this batch, stored or not
    Addr buf[traceBatchAddrs];
};

/**
 * Unit-stride streaming over @p bytes (element size @p elem_bytes).
 */
inline TraceFn
sequentialTrace(u64 bytes, u32 elem_bytes,
                u64 max_probes = defaultTraceProbes)
{
    return [bytes, elem_bytes, max_probes](sim::SetAssocCache &cache,
                                           Rng &) {
        u64 probes = std::min(bytes / elem_bytes, max_probes);
        cache.accessStream(0, elem_bytes, probes);
    };
}

/**
 * Indexed gather: probe element index_of(k) for k = 0..count-1 (or
 * the probe cap), each of @p elem_bytes, within a base-0 array.
 */
inline TraceFn
gatherTrace(std::function<u64(u64)> index_of, u64 count, u32 elem_bytes,
            u64 max_probes = defaultTraceProbes)
{
    return [index_of = std::move(index_of), count, elem_bytes,
            max_probes](sim::SetAssocCache &cache, Rng &) {
        const u64 probes = std::min(count, max_probes);
        TraceBatcher batch(cache);
        for (u64 k = 0; k < probes; ++k)
            batch.push(index_of(k) * elem_bytes);
    };
}

/**
 * Uniform random probes into a region of @p region_bytes.
 */
inline TraceFn
randomTrace(u64 region_bytes, u32 elem_bytes,
            u64 max_probes = defaultTraceProbes / 4)
{
    return [region_bytes, elem_bytes, max_probes](
               sim::SetAssocCache &cache, Rng &rng) {
        u64 elements = std::max<u64>(region_bytes / elem_bytes, 1);
        TraceBatcher batch(cache);
        for (u64 k = 0; k < max_probes; ++k)
            batch.push(rng.below(elements) * elem_bytes);
    };
}

} // namespace hetsim::ir

#endif // HETSIM_KERNELIR_TRACEGEN_HH
