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

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hetsim::sim
{

/**
 * A set-associative cache with true-LRU replacement.  Each set is a
 * flat run of line numbers in recency order: a hit moves its line to
 * the front, a miss shifts the set back by one - dropping the LRU line
 * or an empty way - and inserts the line at the front.
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
     * called once per element.  Counters and LRU state end up
     * bit-identical to the serial loop; consecutive same-line runs are
     * collapsed into one LRU probe (a run's trailing accesses are
     * guaranteed hits on the just-touched MRU line, so only the access
     * counter advances).
     */
    void accessBatch(const Addr *addrs, u64 count);

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
    /** Tag of an empty way: no line number reaches ~0 (lines are
     *  >= 2 bytes, so line numbers stay below 2^63). */
    static constexpr u64 invalidTag = ~0ULL;

    /** One LRU probe of @p line (does not count the access).  A run
     *  of same-line accesses needs only its first probe: the line is
     *  then MRU, so the rest are hits that change no state.
     *  @return true on hit. */
    bool probeLine(u64 line);

    u32 lineSize;
    u32 lineShift;
    u32 assoc;
    u32 numSets;
    bool setsPow2; ///< set index is line & (numSets - 1)
    u64 numAccesses = 0;
    u64 numMisses = 0;
    // numSets * assoc line numbers, set-major.  Each set is kept in
    // recency order, MRU first; empty ways hold invalidTag and always
    // sit behind the valid ones.
    std::vector<u64> tags;
};

} // namespace hetsim::sim

#endif // HETSIM_SIM_CACHE_HH
