/**
 * @file
 * Tests for the kernel-timing memoization layer: key discrimination,
 * hit/miss accounting, the enable/disable escape hatch, and the
 * end-to-end fast path through memoizedTiming(), and the cache's
 * effect on four repeated-launch scenarios.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "apps/coexec_kernels.hh"
#include "coexec/coexec.hh"
#include "core/harness.hh"
#include "core/workload.hh"
#include "kernelir/codegen.hh"
#include "kernelir/signature.hh"
#include "obs/metrics.hh"
#include "sim/device.hh"
#include "sim/timing_cache.hh"

namespace hetsim
{
namespace
{

sim::TimingKey
keyOf(u64 kernel, u64 items)
{
    sim::TimingKey key;
    key.kernelSig = kernel;
    key.deviceSig = 1;
    key.codegenSig = 2;
    key.items = items;
    key.setFreq({1000.0, 1500.0});
    key.precision = 0;
    key.workgroup = 64;
    return key;
}

TEST(TimingCache, LookupInsertRoundTrip)
{
    sim::TimingCache cache;
    EXPECT_FALSE(cache.lookup(keyOf(7, 100)).has_value());
    // The insert that follows a miss counts it.
    EXPECT_EQ(cache.misses(), 0u);

    sim::TimingEntry entry;
    entry.profile.name = "k";
    entry.timing.seconds = 0.125;
    cache.insert(keyOf(7, 100), entry);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    auto hit = cache.lookup(keyOf(7, 100));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->timing.seconds, 0.125);
    EXPECT_EQ(hit->profile.name, "k");
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(TimingCache, KeysDiscriminateEveryField)
{
    sim::TimingCache cache;
    sim::TimingEntry entry;
    cache.insert(keyOf(7, 100), entry);

    EXPECT_FALSE(cache.lookup(keyOf(8, 100)).has_value());
    EXPECT_FALSE(cache.lookup(keyOf(7, 101)).has_value());
    sim::TimingKey freq = keyOf(7, 100);
    freq.setFreq({1000.0, 1501.0});
    EXPECT_FALSE(cache.lookup(freq).has_value());
    sim::TimingKey prec = keyOf(7, 100);
    prec.precision = 1;
    EXPECT_FALSE(cache.lookup(prec).has_value());
    sim::TimingKey wg = keyOf(7, 100);
    wg.workgroup = 128;
    EXPECT_FALSE(cache.lookup(wg).has_value());
    EXPECT_TRUE(cache.lookup(keyOf(7, 100)).has_value());
}

TEST(TimingCache, DisabledCacheNeverHitsAndFreezesCounters)
{
    sim::TimingCache cache;
    cache.setEnabled(false);
    cache.insert(keyOf(1, 1), sim::TimingEntry{});
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup(keyOf(1, 1)).has_value());
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(TimingCache, ClearDropsEntriesAndCounters)
{
    sim::TimingCache cache;
    cache.insert(keyOf(1, 1), sim::TimingEntry{});
    cache.lookup(keyOf(1, 1));
    cache.lookup(keyOf(2, 2));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(TimingCache, DeviceSignatureSeesGeometry)
{
    sim::DeviceSpec a = sim::radeonR9_280X();
    sim::DeviceSpec b = a;
    EXPECT_EQ(sim::deviceSignature(a), sim::deviceSignature(b));
    b.l2Bytes *= 2;
    EXPECT_NE(sim::deviceSignature(a), sim::deviceSignature(b));
    b = a;
    b.memClockMhz += 1.0;
    EXPECT_NE(sim::deviceSignature(a), sim::deviceSignature(b));
}

TEST(TimingCache, KernelSignatureSeesDescriptorContent)
{
    ir::KernelDescriptor a;
    a.name = "k";
    a.flopsPerItem = 4.0;
    ir::MemStream ms;
    ms.buffer = "x";
    ms.bytesPerItemSp = 8.0;
    a.streams.push_back(ms);

    ir::KernelDescriptor b = a;
    EXPECT_EQ(ir::kernelSignature(a), ir::kernelSignature(b));
    b.flopsPerItem = 5.0;
    EXPECT_NE(ir::kernelSignature(a), ir::kernelSignature(b));
    b = a;
    b.streams[0].buffer = "y";
    EXPECT_NE(ir::kernelSignature(a), ir::kernelSignature(b));
    b = a;
    b.streams[0].workingSetBytesSp = 1024;
    EXPECT_NE(ir::kernelSignature(a), ir::kernelSignature(b));
}

TEST(TimingCache, MemoizedTimingHitSkipsResolver)
{
    sim::TimingCache &cache = sim::TimingCache::global();
    const bool prior = cache.enabled();
    cache.setEnabled(true);

    sim::DeviceSpec spec = sim::radeonR9_280X();
    ir::KernelDescriptor desc;
    desc.name = "memo-hit-test";
    desc.flopsPerItem = 8.0;
    ir::MemStream ms;
    ms.buffer = "memo-buf";
    ms.bytesPerItemSp = 4.0;
    ms.workingSetBytesSp = 1u << 30;
    desc.streams.push_back(ms);

    ir::ProfileResolver resolver(spec);
    ir::Codegen cg;
    const u64 miss0 = cache.misses();
    auto first = ir::memoizedTiming(resolver, spec, spec.stockFreq(),
                                    Precision::Single, desc, 1u << 20,
                                    0, cg);
    auto second = ir::memoizedTiming(resolver, spec, spec.stockFreq(),
                                     Precision::Single, desc, 1u << 20,
                                     0, cg);
    cache.setEnabled(prior);

    EXPECT_GT(cache.misses(), miss0);
    EXPECT_EQ(first.timing.seconds, second.timing.seconds);
    EXPECT_EQ(first.profile.dramBytesPerItem,
              second.profile.dramBytesPerItem);
    EXPECT_GT(first.timing.seconds, 0.0);
}

// Cross-session sharing stress (serve-layer contract): many worker
// threads hammer one cache with a mix of contended shared keys and
// per-thread private keys.  First insert wins, so every hit must
// return the value derived from its key - a lost-update or torn entry
// shows up as a mismatched read.
TEST(TimingCache, ConcurrentSharedAndPrivateKeysAreConsistent)
{
    sim::TimingCache cache;
    constexpr int kThreads = 8;
    constexpr int kIters = 400;
    constexpr u64 kSharedKernels = 4;

    auto entryFor = [](const sim::TimingKey &key) {
        sim::TimingEntry entry;
        entry.timing.seconds =
            static_cast<double>(key.kernelSig * 1000 + key.items);
        return entry;
    };

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                // Shared keys contend across every thread; private
                // keys (kernelSig offset by thread id) never collide.
                const bool shared = (i % 2) == 0;
                const u64 kernel =
                    shared ? (i % kSharedKernels)
                           : 100 + static_cast<u64>(t) * kIters + i;
                sim::TimingKey key = keyOf(kernel, (i % 8) + 1);
                auto hit = cache.lookup(key);
                if (hit) {
                    if (hit->timing.seconds !=
                        entryFor(key).timing.seconds)
                        mismatches.fetch_add(1);
                } else {
                    cache.insert(key, entryFor(key));
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(mismatches.load(), 0);
    // Every lookup either hit or missed; nothing was dropped.
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<u64>(kThreads) * kIters);
    // The shared working set is small; the bulk of entries are the
    // per-thread private keys (each inserted at most once).
    EXPECT_GE(cache.size(), kSharedKernels * 8);
    EXPECT_GT(cache.hits(), 0u);
}

// Threads that miss one key at once all resolve it, but only the
// first insert counts a miss: the others lost the race and count hits,
// so the counts do not depend on how the threads interleave.
TEST(TimingCache, ConcurrentMissOfOneKeyCountsOneMiss)
{
    sim::TimingCache &cache = sim::TimingCache::global();
    ASSERT_TRUE(cache.enabled());
    sim::DeviceSpec spec = sim::radeonR9_280X();
    ir::KernelDescriptor desc;
    desc.name = "concurrent-miss-test";
    desc.flopsPerItem = 6.0;
    ir::MemStream ms;
    ms.buffer = "concurrent-miss-buf";
    ms.bytesPerItemSp = 4.0;
    ms.workingSetBytesSp = 1u << 20;
    desc.streams.push_back(ms);

    constexpr int kThreads = 4;
    const u64 hits0 = cache.hits();
    const u64 misses0 = cache.misses();
    std::atomic<int> waiting{kThreads};
    std::vector<double> seconds(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ir::ProfileResolver resolver(spec);
            const ir::Codegen cg;
            waiting.fetch_sub(1);
            while (waiting.load() > 0)
                std::this_thread::yield();
            seconds[t] = ir::memoizedTiming(resolver, spec,
                                            spec.stockFreq(),
                                            Precision::Single, desc,
                                            1u << 16, 0, cg)
                             .timing.seconds;
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(cache.misses() - misses0, 1u);
    EXPECT_EQ(cache.hits() - hits0, static_cast<u64>(kThreads - 1));
    for (double s : seconds)
        EXPECT_EQ(s, seconds[0]);
}

// The serve layer's per-job `--no-timing-cache` relies on the bypass
// being thread-local: one worker opting out must not blind the other
// workers sharing the process-wide cache.
TEST(TimingCache, ScopedBypassIsPerThread)
{
    sim::TimingCache cache;
    cache.insert(keyOf(11, 5), sim::TimingEntry{});
    const u64 hits0 = cache.hits();
    const u64 misses0 = cache.misses();

    sim::TimingCache::ScopedBypass bypass(true);
    EXPECT_FALSE(cache.enabled());
    // Bypassed lookups miss silently: no counter movement, and
    // inserts are dropped.
    EXPECT_FALSE(cache.lookup(keyOf(11, 5)).has_value());
    cache.insert(keyOf(12, 5), sim::TimingEntry{});
    EXPECT_EQ(cache.hits(), hits0);
    EXPECT_EQ(cache.misses(), misses0);
    EXPECT_EQ(cache.size(), 1u);

    // A concurrent thread without a bypass still sees a live cache.
    bool otherEnabled = false;
    bool otherHit = false;
    std::thread other([&] {
        otherEnabled = cache.enabled();
        otherHit = cache.lookup(keyOf(11, 5)).has_value();
    });
    other.join();
    EXPECT_TRUE(otherEnabled);
    EXPECT_TRUE(otherHit);
    EXPECT_EQ(cache.hits(), hits0 + 1);
}

TEST(TimingCache, ScopedBypassNestsAndDisengages)
{
    sim::TimingCache cache;
    EXPECT_TRUE(cache.enabled());
    {
        sim::TimingCache::ScopedBypass outer(true);
        EXPECT_FALSE(cache.enabled());
        {
            // An unengaged frame must not cancel the outer bypass.
            sim::TimingCache::ScopedBypass noop(false);
            EXPECT_FALSE(cache.enabled());
            sim::TimingCache::ScopedBypass inner(true);
            EXPECT_FALSE(cache.enabled());
        }
        EXPECT_FALSE(cache.enabled());
    }
    EXPECT_TRUE(cache.enabled());
    EXPECT_FALSE(sim::timingCacheThreadBypassed());
}

// --- Fast-path scenarios -------------------------------------------------

/** Cache-model probes and cache counts of one scenario's two passes. */
struct FastPathCounts
{
    u64 probesOff = 0; ///< timing memoization disabled
    u64 probesOn = 0;  ///< cache enabled, from cold
    u64 hits = 0;
    u64 misses = 0;
};

/**
 * Runs @p fn (a sum of simulated seconds) with the timing cache off,
 * then on from cold; the two sums must be bitwise equal.
 */
FastPathCounts
runOffThenCold(const std::function<double()> &fn)
{
    sim::TimingCache &cache = sim::TimingCache::global();
    obs::Metrics &metrics = obs::Metrics::global();
    const bool prior = cache.enabled();
    metrics.setEnabled(true);
    FastPathCounts counts;

    cache.setEnabled(false);
    double probes = metrics.counterValue("sim.trace.probes");
    const double off = fn();
    counts.probesOff =
        u64(metrics.counterValue("sim.trace.probes") - probes);

    cache.setEnabled(true);
    cache.clear();
    probes = metrics.counterValue("sim.trace.probes");
    const double on = fn();
    counts.probesOn = u64(metrics.counterValue("sim.trace.probes") - probes);
    counts.hits = cache.hits();
    counts.misses = cache.misses();

    metrics.setEnabled(false);
    cache.setEnabled(prior);
    EXPECT_EQ(off, on);
    return counts;
}

/** Sum of simulated seconds over an OpenCL frequency sweep on the
 *  discrete GPU. */
double
sweepSeconds(core::Workload &wl, const std::vector<double> &coreMhz,
             const std::vector<double> &memMhz)
{
    core::Harness harness(wl, 0.125, false);
    double sum = 0.0;
    for (const auto &row : harness.freqSweep(
             sim::radeonR9_280X(), core::ModelKind::OpenCl,
             Precision::Single, coreMhz, memMhz)) {
        for (const auto &point : row)
            sum += point.seconds;
    }
    return sum;
}

TEST(SimFastPath, CachedScenariosKeepTimesAndPinnedProbeCounts)
{
    // Four repeated-launch scenarios at scale 0.125, in this order in
    // one process: the trace memo the cold passes share is
    // process-wide, so the pinned counts assume a fresh process (ctest
    // runs each test in its own).  A cold pass that probes more than
    // pinned, or hits less, has fallen back to re-simulation.
    auto readmem = core::makeReadMem();
    const FastPathCounts sweep = runOffThenCold([&] {
        return sweepSeconds(*readmem,
                            {200, 300, 400, 500, 600, 700, 800, 900, 1000},
                            {480, 590, 700, 810, 920, 1030, 1140, 1250});
    });
    EXPECT_EQ(sweep.probesOff, 150994944u);
    EXPECT_EQ(sweep.probesOn, 2097152u);
    EXPECT_EQ(sweep.hits, 0u);
    EXPECT_EQ(sweep.misses, 72u);

    // miniFE's CG loop launches hundreds of kernels per sweep point.
    auto minife = core::makeMiniFe();
    const FastPathCounts cg = runOffThenCold([&] {
        return sweepSeconds(*minife, {200, 400, 600, 800, 1000},
                            {480, 810, 1250});
    });
    EXPECT_EQ(cg.probesOff, 24000000u);
    EXPECT_EQ(cg.probesOn, 64000u);
    EXPECT_EQ(cg.hits, 2205u);
    EXPECT_EQ(cg.misses, 45u);

    // The adaptive scheduler re-times the SpMV once per pulled chunk.
    auto pool = coexec::DevicePool::parse("cpu+apu");
    ASSERT_TRUE(pool.has_value());
    const coexec::CoKernel spmv =
        apps::coex::makeMinifeSpmvCoKernel(0.125, Precision::Single);
    const FastPathCounts adaptive = runOffThenCold([&] {
        coexec::CoExecutor executor(*pool, Precision::Single);
        coexec::ExecOptions opts;
        opts.policy = coexec::Policy::Adaptive;
        opts.functional = false;
        double sum = 0.0;
        for (int rep = 0; rep < 4; ++rep)
            sum += executor.execute(spmv, opts).seconds;
        return sum;
    });
    EXPECT_EQ(adaptive.probesOff, 5888000u);
    EXPECT_EQ(adaptive.probesOn, 128000u);
    EXPECT_EQ(adaptive.hits, 73u);
    EXPECT_EQ(adaptive.misses, 19u);

    // A replication study: the same timing-only run eight times.
    auto xsbench = core::makeXsbench();
    const FastPathCounts repeated = runOffThenCold([&] {
        core::WorkloadConfig cfg;
        cfg.scale = 0.125;
        cfg.functional = false;
        double sum = 0.0;
        for (int rep = 0; rep < 8; ++rep) {
            sum += xsbench
                       ->run(core::ModelKind::OpenCl,
                             sim::radeonR9_280X(), cfg)
                       .seconds;
        }
        return sum;
    });
    EXPECT_EQ(repeated.probesOff, 35458272u);
    EXPECT_EQ(repeated.probesOn, 4432284u);
    EXPECT_EQ(repeated.hits, 7u);
    EXPECT_EQ(repeated.misses, 1u);
}

} // namespace
} // namespace hetsim
