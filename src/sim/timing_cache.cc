#include "sim/timing_cache.hh"

#include <cstring>

#include "obs/metrics.hh"

namespace hetsim::sim
{

namespace
{

/** @return the bit pattern of a double as a u64. */
u64
bitsOf(double value)
{
    u64 bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Nesting depth of ScopedBypass frames on this thread. */
thread_local int bypassDepth = 0;

} // namespace

bool
timingCacheThreadBypassed()
{
    return bypassDepth > 0;
}

TimingCache::ScopedBypass::ScopedBypass(bool engage) : engaged(engage)
{
    if (engaged)
        ++bypassDepth;
}

TimingCache::ScopedBypass::~ScopedBypass()
{
    if (engaged)
        --bypassDepth;
}

void
HashMix::mixDouble(double value)
{
    mix(bitsOf(value));
}

void
HashMix::mixString(const std::string &text)
{
    mix(text.size());
    u64 word = 0;
    unsigned filled = 0;
    for (unsigned char c : text) {
        word = (word << 8) | c;
        if (++filled == 8) {
            mix(word);
            word = 0;
            filled = 0;
        }
    }
    if (filled > 0)
        mix(word);
}

u64
deviceSignature(const DeviceSpec &spec)
{
    HashMix h;
    h.mixString(spec.name);
    h.mix(static_cast<u64>(spec.type));
    h.mix(static_cast<u64>(spec.computeUnits));
    h.mix(static_cast<u64>(spec.lanesPerCu));
    h.mixDouble(spec.flopsPerLanePerCycle);
    h.mixDouble(spec.coreClockMhz);
    h.mixDouble(spec.memClockMhz);
    h.mixDouble(spec.peakBwGBs);
    h.mixDouble(spec.memEfficiency);
    h.mixDouble(spec.dpThroughputRatio);
    h.mix(spec.ldsBytesPerCu);
    h.mixDouble(spec.ldsBytesPerCyclePerCu);
    h.mix(spec.l2Bytes);
    h.mix(spec.l2LineBytes);
    h.mix(spec.l2Assoc);
    h.mixDouble(spec.l2BytesPerCyclePerCu);
    h.mixDouble(spec.issueBytesPerCyclePerCu);
    h.mix(spec.mshrsPerCu);
    h.mix(spec.chainsPerCuCap);
    h.mixDouble(spec.dramLatencyNs);
    h.mixDouble(spec.coreSideLatencyCycles);
    h.mixDouble(spec.l2HitLatencyCycles);
    h.mix(spec.memoryBytes);
    h.mix(spec.zeroCopy ? 1 : 0);
    h.mixDouble(spec.launchOverheadUs);
    return h.digest();
}

u64
codegenSignature(const CodegenResult &cg, double chain_efficiency)
{
    HashMix h;
    h.mixDouble(cg.simdEfficiency);
    h.mixDouble(cg.bwEfficiency);
    h.mixDouble(cg.launchOverheadUs);
    h.mix(cg.usesLds ? 1 : 0);
    h.mixDouble(chain_efficiency);
    return h.digest();
}

void
TimingKey::setFreq(const FreqDomain &freq)
{
    coreBits = bitsOf(freq.coreMhz);
    memBits = bitsOf(freq.memMhz);
}

size_t
TimingCache::KeyHash::operator()(const TimingKey &key) const
{
    HashMix h;
    h.mix(key.kernelSig);
    h.mix(key.deviceSig);
    h.mix(key.codegenSig);
    h.mix(key.items);
    h.mix(key.coreBits);
    h.mix(key.memBits);
    h.mix(key.precision);
    h.mix(key.workgroup);
    return static_cast<size_t>(h.digest());
}

std::optional<TimingEntry>
TimingCache::lookup(const TimingKey &key)
{
    if (!enabled())
        return std::nullopt;
    std::optional<TimingEntry> found;
    {
        std::lock_guard<std::mutex> lock(mtx);
        auto it = entries.find(key);
        if (it != entries.end())
            found = it->second;
    }
    if (found)
        countHit();
    return found;
}

void
TimingCache::insert(const TimingKey &key, TimingEntry entry)
{
    if (!enabled())
        return;
    bool inserted = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        inserted = entries.emplace(key, std::move(entry)).second;
    }
    if (!inserted) {
        countHit(); // another thread resolved the key first
        return;
    }
    missCount.fetch_add(1, std::memory_order_relaxed);
    obs::Metrics::global().add("sim.timing_cache.misses");
}

void
TimingCache::countHit()
{
    hitCount.fetch_add(1, std::memory_order_relaxed);
    obs::Metrics::global().add("sim.timing_cache.hits");
}

u64
TimingCache::size() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return entries.size();
}

u64
TimingCache::contentDigest() const
{
    std::lock_guard<std::mutex> lock(mtx);
    u64 folded = entries.size();
    for (const auto &[key, entry] : entries) {
        HashMix h;
        h.mix(key.kernelSig);
        h.mix(key.deviceSig);
        h.mix(key.codegenSig);
        h.mix(key.items);
        h.mix(key.coreBits);
        h.mix(key.memBits);
        h.mix(key.precision);
        h.mix(key.workgroup);
        h.mixDouble(entry.timing.seconds);
        h.mixDouble(entry.timing.issueSeconds);
        h.mixDouble(entry.timing.memSeconds);
        h.mixDouble(entry.timing.ldsSeconds);
        h.mixDouble(entry.timing.latencySeconds);
        h.mixDouble(entry.timing.launchSeconds);
        folded ^= h.digest();
    }
    return folded;
}

void
TimingCache::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    entries.clear();
    hitCount.store(0, std::memory_order_relaxed);
    missCount.store(0, std::memory_order_relaxed);
}

TimingCache &
TimingCache::global()
{
    static TimingCache cache;
    return cache;
}

} // namespace hetsim::sim
