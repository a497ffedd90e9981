#include "cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace hetsim::sim
{

SetAssocCache::SetAssocCache(u64 size_bytes, u32 line_bytes, u32 assoc)
    : lineSize(line_bytes), assoc(assoc)
{
    if (line_bytes < 2 || !std::has_single_bit(line_bytes))
        fatal("cache line size %u is not a power of two >= 2", line_bytes);
    if (assoc == 0)
        fatal("cache associativity must be >= 1");
    if (size_bytes % (u64(line_bytes) * assoc) != 0)
        fatal("cache size %llu not divisible by line*assoc",
              static_cast<unsigned long long>(size_bytes));

    lineShift = static_cast<u32>(std::countr_zero(line_bytes));
    numSets = static_cast<u32>(size_bytes / (u64(line_bytes) * assoc));
    if (numSets == 0)
        fatal("cache has zero sets");
    setsPow2 = std::has_single_bit(numSets);
    setsInverse = ~0ULL / numSets + 1;
    stride = (assoc + waysPerStep - 1) / waysPerStep * waysPerStep;
    tags.assign(u64(numSets) * stride, invalidTag);
}

bool
SetAssocCache::probeLine(u64 line)
{
    if (line >= invalidTag)
        fatal("cache line %llu does not fit a 32-bit tag",
              static_cast<unsigned long long>(line));
    const u32 tag = static_cast<u32>(line);
    // Exact for any 32-bit tag and set count (Lemire, Kaser and Kurz,
    // "Faster remainder by direct computation", 2019).
    const u32 set = setsPow2 ? tag & (numSets - 1)
                             : static_cast<u32>(
                                   (static_cast<unsigned __int128>(
                                        setsInverse * tag) *
                                    numSets) >>
                                   64);
    u32 *ways = tags.data() + u64(set) * stride;
    if (ways[0] == tag)
        return true;

    // Lane k of the step at s holds way s + k.  At most one way
    // matches, so OR-ing (way + 1) under each step's equality mask
    // leaves the match's way + 1 in one lane and 0 in the others; 0
    // overall is a miss.
    using Ways = u32 __attribute__((vector_size(sizeof(u32) * waysPerStep)));
    const Ways key = Ways{} + tag;
    Ways way1 = {1, 2, 3, 4};
    Ways found = {};
    for (u32 s = 0; s < stride; s += waysPerStep, way1 += waysPerStep) {
        Ways step;
        std::memcpy(&step, ways + s, sizeof step);
        found |= Ways(step == key) & way1;
    }
    const u32 match = found[0] | found[1] | found[2] | found[3];
    // A hit shifts the ways in front of the match.  A miss (match - 1
    // wraps) shifts the whole set: its last real way holds the LRU line
    // or is empty.
    const u32 miss = match == 0;
    const u32 w = match - 1 + miss * assoc;
    numMisses += miss;
    std::memmove(ways + 1, ways, w * sizeof(u32));
    ways[0] = tag;
    return match != 0;
}

bool
SetAssocCache::access(Addr addr)
{
    ++numAccesses;
    return probeLine(addr >> lineShift);
}

void
SetAssocCache::accessRange(Addr addr, u64 bytes)
{
    if (bytes == 0)
        return;
    Addr first = addr >> lineShift;
    Addr last = (addr + bytes - 1) >> lineShift;
    for (Addr line = first; line <= last; ++line)
        access(line << lineShift);
}

void
SetAssocCache::accessBatch(const Addr *addrs, u64 count)
{
    for (u64 i = 0; i < count; ++i)
        probeLine(addrs[i] >> lineShift);
    numAccesses += count;
}

void
SetAssocCache::accessStream(Addr start, u64 stride, u64 count)
{
    Addr addr = start;
    u64 i = 0;
    while (i < count) {
        const u64 line = addr >> lineShift;
        u64 run = count - i;
        if (stride > 0) {
            // Accesses remaining inside this line at this stride.
            const Addr line_end = (line + 1) << lineShift;
            run = std::min(run, (line_end - addr + stride - 1) / stride);
        }
        probeLine(line);
        numAccesses += run;
        addr += stride * run;
        i += run;
    }
}

void
SetAssocCache::reset()
{
    std::fill(tags.begin(), tags.end(), invalidTag);
    numAccesses = 0;
    numMisses = 0;
}

} // namespace hetsim::sim
