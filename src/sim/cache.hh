/**
 * @file
 * Set-associative LRU cache model.
 *
 * Used as the GPU last-level (L2) cache simulator that produces the
 * per-application miss rates of the paper's Table I.  The model is
 * trace-driven: workloads feed it sampled address streams generated
 * from their real data structures (CSR column indices, neighbor lists,
 * random lookup indices, ...) so locality emerges from the genuine
 * access patterns rather than from constants.
 */

#ifndef HETSIM_SIM_CACHE_HH
#define HETSIM_SIM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/types.hh"

namespace hetsim::sim
{

/**
 * A set-associative cache with true-LRU replacement.  Each set is a
 * flat run of 32-bit line numbers in recency order: a hit on the MRU
 * way changes no state, any other hit moves its line to the front, and
 * a miss shifts the set back by one - dropping the LRU line or an empty
 * way - and inserts the line at the front.  Sets are padded to a
 * multiple of 4 ways so one branch-free step compares 4 ways; a 16-way
 * set is one 64-byte host cache line.  An address whose line number
 * (addr / line_bytes) is 2^32 - 1 or more is fatal.
 */
class SetAssocCache
{
  public:
    /**
     * Construct a cache.
     *
     * @param size_bytes total capacity; must be a multiple of
     *                   line_bytes * assoc.
     * @param line_bytes cache-line size (power of two, >= 2).
     * @param assoc      associativity (>= 1).
     */
    SetAssocCache(u64 size_bytes, u32 line_bytes, u32 assoc);

    /**
     * Access one byte address.
     *
     * @return true on hit, false on miss (the line is then filled).
     */
    bool access(Addr addr);

    /**
     * Access a [addr, addr+bytes) range, one probe per touched line.
     */
    void accessRange(Addr addr, u64 bytes);

    /**
     * Access @p count addresses in order, as if access() had been
     * called once per element: one probe per address, so counters and
     * LRU state are those of the serial loop.  A line still MRU in its
     * set costs one compare and changes no state; repeats a caller
     * already knows to be MRU hits are cheaper to count with
     * countMruHits() than to pass here.
     */
    void accessBatch(const Addr *addrs, u64 count);

    /**
     * Count @p count accesses without probing.  Contract: the caller
     * guarantees that each counted access is to the line that is MRU
     * in its set at that point of the access order, so a probe would
     * hit and change no state.  Counters are then those of the serial
     * access() loop, whatever order the counted and probed accesses
     * are reported in.
     */
    void countMruHits(u64 count) { numAccesses += count; }

    /**
     * Access the strided sequence start, start+stride, ... (@p count
     * probes), equivalent to the serial access() loop.  Same-line runs
     * are collapsed arithmetically, so unit-stride streams cost one
     * LRU probe per touched *line* instead of one per element.
     */
    void accessStream(Addr start, u64 stride, u64 count);

    /** Invalidate all lines and reset statistics. */
    void reset();

    /** @return number of accesses so far. */
    u64 accesses() const { return numAccesses; }

    /** @return number of misses so far. */
    u64 misses() const { return numMisses; }

    /** @return miss ratio in [0, 1]; 1.0 when no accesses were made. */
    double
    missRatio() const
    {
        return numAccesses ? double(numMisses) / double(numAccesses) : 1.0;
    }

    /** @return number of sets. */
    u32 sets() const { return numSets; }

    /** @return line size in bytes. */
    u32 lineBytes() const { return lineSize; }

  private:
    /** Tag of an empty or padding way.  Line numbers are 32-bit: a
     *  probe of a line >= invalidTag is fatal, so no line matches an
     *  empty way and none aliases another line. */
    static constexpr u32 invalidTag = ~0u;

    /** Ways compared per branch-free step (one 16-byte vector). */
    static constexpr u32 waysPerStep = 4;

    /** Allocates the tag array on a 64-byte (host cache line)
     *  boundary by over-allocating and rounding up, with the raw
     *  pointer kept just below the array.  The aligned operator new
     *  goes through memalign, whose split-off fragments raised the
     *  peak RSS of a 1000-job serve batch by ~8 MB. */
    template <class T>
    struct LineAligned
    {
        using value_type = T;
        static constexpr std::uintptr_t line = 64;

        LineAligned() = default;
        template <class U>
        LineAligned(const LineAligned<U> &) {}

        T *
        allocate(std::size_t n)
        {
            void *raw = ::operator new(n * sizeof(T) + line);
            const std::uintptr_t at =
                (reinterpret_cast<std::uintptr_t>(raw) + line) & ~(line - 1);
            reinterpret_cast<void **>(at)[-1] = raw;
            return reinterpret_cast<T *>(at);
        }
        void
        deallocate(T *p, std::size_t)
        {
            ::operator delete(reinterpret_cast<void **>(p)[-1]);
        }
        bool operator==(const LineAligned &) const { return true; }
    };

    /** One LRU probe of @p line (does not count the access).  An MRU
     *  hit returns before touching the rest of the set.
     *  @return true on hit. */
    bool probeLine(u64 line);

    u32 lineSize;
    u32 lineShift;
    u32 assoc;
    u32 stride; ///< assoc rounded up to a multiple of waysPerStep
    u32 numSets;
    bool setsPow2; ///< set index is line & (numSets - 1)
    /** Otherwise the set index is line % numSets computed exactly as a
     *  multiply-shift (Lemire's fastmod): ceil(2^64 / numSets). */
    u64 setsInverse;
    u64 numAccesses = 0;
    u64 numMisses = 0;
    // numSets * stride line numbers, set-major.  Each set is kept in
    // recency order, MRU first; empty ways hold invalidTag and always
    // sit behind the valid ones, and so do the padding ways, which
    // never match and are never shifted into.
    std::vector<u32, LineAligned<u32>> tags;
};

} // namespace hetsim::sim

#endif // HETSIM_SIM_CACHE_HH
