#include "cache.hh"

#include <algorithm>
#include <bit>

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
    tags.assign(u64(numSets) * assoc, invalidTag);
}

bool
SetAssocCache::probeLine(u64 line)
{
    const u64 set = setsPow2 ? line & (numSets - 1) : line % numSets;
    u64 *ways = &tags[set * assoc];
    u32 w = 0;
    while (w < assoc && ways[w] != line)
        ++w;
    const bool hit = w < assoc;
    if (!hit) {
        // Miss: the last way holds the LRU line or is empty.
        ++numMisses;
        w = assoc - 1;
    }
    std::copy_backward(ways, ways + w, ways + w + 1);
    ways[0] = line;
    return hit;
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
    u64 i = 0;
    while (i < count) {
        const u64 line = addrs[i] >> lineShift;
        u64 run = 1;
        while (i + run < count && (addrs[i + run] >> lineShift) == line)
            ++run;
        probeLine(line);
        numAccesses += run;
        i += run;
    }
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
