/**
 * @file
 * Process-wide kernel-timing memoization.
 *
 * Repeated launches dominate the simulator's host-side cost: frequency
 * sweeps re-time the same kernel at 72 clock pairs, timestep loops
 * launch the same three kernels hundreds of times, and the co-execution
 * scheduler re-times one kernel per pulled chunk.  Profile resolution
 * (trace-driven cache simulation) and the roofline evaluation depend
 * only on the inputs captured by TimingKey, so their results can be
 * memoized across launches, runs, and even device contexts.
 *
 * The key covers everything timing depends on:
 *
 *  - the kernel signature: a hash of the descriptor's full numeric
 *    content plus its name and stream buffer names (the same contract
 *    the miss-ratio memo in kernelir/trace.cc relies on to stand in
 *    for the unhashable TraceFn closures);
 *  - the device signature: every DeviceSpec field the cache model or
 *    roofline reads;
 *  - launch shape: items, precision, work-group size;
 *  - the clock pair (bit-exact, so sweeps get one entry per point);
 *  - the codegen signature: every CodegenResult knob plus the chain
 *    efficiency that scales the profile.
 *
 * Entries are immutable once inserted (the simulator is deterministic:
 * equal keys always produce bit-equal values), so there is no
 * invalidation protocol - see DESIGN.md "Timing memoization" for the
 * full key/invalidation discussion.  The cache is enabled by default;
 * `--no-timing-cache` (CLI) or setEnabled(false) turns it off for A/B
 * validation, and hit/miss counts feed the obs::Metrics registry as
 * `sim.timing_cache.{hits,misses}`.
 *
 * The enabled() switch governs every layer of timing memoization: the
 * stream miss-ratio memo in kernelir/trace.cc consults it too, so a
 * disabled cache means each launch re-derives its miss ratios and
 * roofline timing from scratch (bit-identically - trace Rngs are
 * seeded from the memo key, not from prior state).
 */

#ifndef HETSIM_SIM_TIMING_CACHE_HH
#define HETSIM_SIM_TIMING_CACHE_HH

#include <atomic>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/types.hh"
#include "sim/device.hh"
#include "sim/timing.hh"

namespace hetsim::sim
{

/** Incremental 64-bit hash (SplitMix64-mixed), for building keys. */
class HashMix
{
  public:
    /** Absorb one 64-bit word. */
    void
    mix(u64 word)
    {
        u64 z = (state += 0x9e3779b97f4a7c15ULL + word);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        state = z ^ (z >> 31);
    }

    /** Absorb a double bit-exactly. */
    void mixDouble(double value);

    /** Absorb a string (length-prefixed). */
    void mixString(const std::string &text);

    /** @return the digest so far. */
    u64 digest() const { return state; }

  private:
    u64 state = 0x6a09e667f3bcc908ULL;
};

/** @return signature of every DeviceSpec field timing reads. */
u64 deviceSignature(const DeviceSpec &spec);

/** @return signature of a compiler-model output (+ chain scaling). */
u64 codegenSignature(const CodegenResult &cg, double chain_efficiency);

/** Memo key of one kernel-timing evaluation. */
struct TimingKey
{
    u64 kernelSig = 0; ///< descriptor-content hash (see kernelir)
    u64 deviceSig = 0; ///< deviceSignature()
    u64 codegenSig = 0; ///< codegenSignature()
    u64 items = 0;
    u64 coreBits = 0; ///< bit pattern of FreqDomain::coreMhz
    u64 memBits = 0;  ///< bit pattern of FreqDomain::memMhz
    u32 precision = 0;
    u32 workgroup = 0;

    bool operator==(const TimingKey &) const = default;

    /** Build the clock part from a frequency domain. */
    void setFreq(const FreqDomain &freq);
};

/** Memoized outcome of one launch evaluation. */
struct TimingEntry
{
    KernelProfile profile; ///< post-chain-scaling profile
    KernelTiming timing;
};

/** @return whether the calling thread has a ScopedBypass engaged. */
bool timingCacheThreadBypassed();

/** Thread-safe (key -> profile+timing) memo with hit/miss counters. */
class TimingCache
{
  public:
    /**
     * RAII per-thread bypass: while engaged, enabled() answers false
     * on this thread only, so lookups miss silently (no counters) and
     * inserts are dropped.  Other threads sharing the process-wide
     * cache are unaffected.  This is how a serve-layer job applies its
     * own `--no-timing-cache` while concurrent sessions keep hitting
     * the shared memo; the process-wide setEnabled() switch would race
     * between jobs.  Bypasses nest (each frame re-engages).
     */
    class ScopedBypass
    {
      public:
        explicit ScopedBypass(bool engage);
        ~ScopedBypass();

        ScopedBypass(const ScopedBypass &) = delete;
        ScopedBypass &operator=(const ScopedBypass &) = delete;

      private:
        bool engaged;
    };

    /** Turn the cache on or off (off = lookup always misses and
     *  insert is a no-op; counters freeze). */
    void
    setEnabled(bool on)
    {
        active.store(on, std::memory_order_relaxed);
    }

    /** @return whether memoization is active for the calling thread
     *  (the process-wide switch is on and no ScopedBypass is
     *  engaged on this thread). */
    bool
    enabled() const
    {
        return active.load(std::memory_order_relaxed) &&
               !timingCacheThreadBypassed();
    }

    /**
     * Look up a prior evaluation.  Counts a hit (mirrored into
     * obs::Metrics when that registry is recording); a miss is counted
     * by the insert() that follows it.
     */
    std::optional<TimingEntry> lookup(const TimingKey &key);

    /**
     * Memoize an evaluation (first insert wins).  The first insert of
     * a key counts its miss; a later one lost a race to resolve the
     * key and counts a hit.  So the counts depend only on the keys,
     * not on how concurrent lookups interleave.
     */
    void insert(const TimingKey &key, TimingEntry entry);

    u64 hits() const { return hitCount.load(std::memory_order_relaxed); }
    u64
    misses() const
    {
        return missCount.load(std::memory_order_relaxed);
    }

    /** @return number of resident entries. */
    u64 size() const;

    /**
     * Order-independent digest of the resident entries (per-entry
     * HashMix digests XOR-folded, so the unordered_map's iteration
     * order is irrelevant).  Taken before and after a stretch of
     * surrogate predictions, an unchanged digest proves the
     * predictions never touched the simulator.
     */
    u64 contentDigest() const;

    /** Drop all entries and zero the counters. */
    void clear();

    /** @return the process-wide cache (enabled by default). */
    static TimingCache &global();

  private:
    struct KeyHash
    {
        size_t operator()(const TimingKey &key) const;
    };

    void countHit();

    std::atomic<bool> active{true};
    std::atomic<u64> hitCount{0};
    std::atomic<u64> missCount{0};
    mutable std::mutex mtx;
    std::unordered_map<TimingKey, TimingEntry, KeyHash> entries;
};

} // namespace hetsim::sim

#endif // HETSIM_SIM_TIMING_CACHE_HH
