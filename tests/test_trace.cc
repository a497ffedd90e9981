/**
 * @file
 * Tests for the profile resolver and trace generators.
 */

#include <gtest/gtest.h>

#include <vector>

#include "kernelir/trace.hh"
#include "kernelir/tracegen.hh"
#include "obs/metrics.hh"
#include "sim/device.hh"

namespace hetsim::ir
{
namespace
{

KernelDescriptor
streamKernel(u64 ws)
{
    KernelDescriptor desc;
    desc.name = "t_stream_" + std::to_string(ws);
    desc.flopsPerItem = 4;
    desc.intOpsPerItem = 2;
    MemStream s;
    s.buffer = "in";
    s.bytesPerItemSp = 64;
    s.pattern = sim::AccessPattern::Sequential;
    s.workingSetBytesSp = ws;
    desc.streams.push_back(s);
    return desc;
}

TEST(Resolver, SequentialStreamMissesOncePerLine)
{
    sim::DeviceSpec spec = sim::radeonR9_280X();
    ProfileResolver resolver(spec);
    // Streaming working set much larger than L2.
    auto desc = streamKernel(64 * MiB);
    auto prof = resolver.resolve(desc, 1 << 20, Precision::Single,
                                 false);
    // 16 accesses/item, 1/16 line miss rate, 64B lines: dram == logical.
    EXPECT_NEAR(prof.dramBytesPerItem, 64.0, 1.0);
    EXPECT_NEAR(prof.memInstrsPerItem, 16.0, 0.1);
}

TEST(Resolver, ResidentWorkingSetMostlyHits)
{
    sim::DeviceSpec spec = sim::radeonR9_280X(); // 768 KiB L2
    ProfileResolver resolver(spec);
    auto desc = streamKernel(256 * KiB);
    auto prof = resolver.resolve(desc, 1 << 20, Precision::Single,
                                 false);
    EXPECT_LT(prof.dramBytesPerItem, 16.0);
}

TEST(Resolver, TraceDrivenMissRatioUsed)
{
    sim::DeviceSpec spec = sim::radeonR9_280X();
    ProfileResolver resolver(spec);
    KernelDescriptor desc;
    desc.name = "t_traced";
    desc.flopsPerItem = 1;
    MemStream s;
    s.buffer = "gather";
    s.bytesPerItemSp = 4;
    s.pattern = sim::AccessPattern::Gather;
    s.workingSetBytesSp = 256 * MiB; // heuristic would say ~0.5
    // ...but the trace shows a single hot line: ~0 misses.
    s.trace = [](sim::SetAssocCache &cache, Rng &) {
        for (int i = 0; i < 100000; ++i)
            cache.access(0);
    };
    desc.streams.push_back(s);
    auto prof = resolver.resolve(desc, 1000, Precision::Single, false);
    EXPECT_LT(prof.dramBytesPerItem, 0.01);
}

TEST(Resolver, DoublePrecisionDoublesRealTraffic)
{
    sim::DeviceSpec spec = sim::radeonR9_280X();
    ProfileResolver resolver(spec);
    auto desc = streamKernel(64 * MiB);
    auto sp = resolver.resolve(desc, 1000, Precision::Single, false);
    auto dp = resolver.resolve(desc, 1000, Precision::Double, false);
    EXPECT_NEAR(dp.dramBytesPerItem, 2 * sp.dramBytesPerItem, 2.0);
    // Access *count* does not change with precision.
    EXPECT_DOUBLE_EQ(dp.memInstrsPerItem, sp.memInstrsPerItem);
}

TEST(Resolver, IntegerStreamsDoNotScaleWithPrecision)
{
    sim::DeviceSpec spec = sim::radeonR9_280X();
    ProfileResolver resolver(spec);
    KernelDescriptor desc;
    desc.name = "t_ints";
    desc.flopsPerItem = 1;
    MemStream s;
    s.buffer = "cols";
    s.bytesPerItemSp = 64;
    s.scalesWithPrecision = false;
    s.pattern = sim::AccessPattern::Sequential;
    s.workingSetBytesSp = 64 * MiB;
    desc.streams.push_back(s);
    auto sp = resolver.resolve(desc, 1000, Precision::Single, false);
    auto dp = resolver.resolve(desc, 1000, Precision::Double, false);
    EXPECT_NEAR(dp.l2BytesPerItem, sp.l2BytesPerItem, 1e-9);
}

TEST(Resolver, LdsOnlyWhenRequested)
{
    sim::DeviceSpec spec = sim::radeonR9_280X();
    ProfileResolver resolver(spec);
    auto desc = streamKernel(64 * MiB);
    desc.ldsBytesPerItemIfUsed = 32;
    auto off = resolver.resolve(desc, 1000, Precision::Single, false);
    auto on = resolver.resolve(desc, 1000, Precision::Single, true);
    EXPECT_DOUBLE_EQ(off.ldsBytesPerItem, 0.0);
    EXPECT_DOUBLE_EQ(on.ldsBytesPerItem, 32.0);
}

TEST(Resolver, DependentAccessesSplitByMissRatio)
{
    sim::DeviceSpec spec = sim::radeonR9_280X();
    ProfileResolver resolver(spec);
    KernelDescriptor desc;
    desc.name = "t_chain";
    desc.flopsPerItem = 1;
    MemStream s;
    s.buffer = "tree";
    s.bytesPerItemSp = 40;
    s.pattern = sim::AccessPattern::RandomGather;
    s.workingSetBytesSp = 256 * KiB; // resident -> low miss
    s.dependentAccessesPerItem = 10;
    desc.streams.push_back(s);
    auto prof = resolver.resolve(desc, 1000, Precision::Single, false);
    EXPECT_NEAR(prof.dependentMissesPerItem +
                    prof.dependentHitsPerItem,
                10.0, 1e-9);
    EXPECT_LT(prof.dependentMissesPerItem, 2.0); // resident tree
}

TEST(Resolver, PatternEffWeightsByTraffic)
{
    sim::DeviceSpec spec = sim::radeonR9_280X();
    ProfileResolver resolver(spec);
    KernelDescriptor desc;
    desc.name = "t_mixed";
    desc.flopsPerItem = 1;
    MemStream a = streamKernel(64 * MiB).streams[0];
    a.buffer = "seq";
    MemStream b;
    b.buffer = "rand";
    b.bytesPerItemSp = 4;
    b.pattern = sim::AccessPattern::RandomGather;
    b.workingSetBytesSp = 256 * MiB;
    desc.streams = {a, b};
    auto prof = resolver.resolve(desc, 1000, Precision::Single, false);
    double seq = sim::patternEfficiency(sim::AccessPattern::Sequential,
                                        spec.type);
    double rnd = sim::patternEfficiency(
        sim::AccessPattern::RandomGather, spec.type);
    EXPECT_LT(prof.patternEff, seq);
    EXPECT_GT(prof.patternEff, rnd);
}

TEST(TraceGen, SequentialTraceCoversRange)
{
    sim::SetAssocCache cache(64 * KiB, 64, 8);
    Rng rng(1);
    sequentialTrace(1 * MiB, 4)(cache, rng);
    EXPECT_EQ(cache.accesses(), 1 * MiB / 4);
    // Streaming: one miss per line.
    EXPECT_NEAR(static_cast<double>(cache.misses()),
                static_cast<double>(1 * MiB / 64), 1.0);
}

TEST(TraceGen, GatherTraceUsesIndexFunction)
{
    sim::SetAssocCache cache(64 * KiB, 64, 8);
    Rng rng(1);
    gatherTrace([](u64) { return u64(0); }, 1000, 4)(cache, rng);
    EXPECT_EQ(cache.accesses(), 1000u);
    EXPECT_EQ(cache.misses(), 1u); // all the same element
}

TEST(TraceGen, RandomTraceMissesOnHugeRegion)
{
    sim::SetAssocCache cache(64 * KiB, 64, 8);
    Rng rng(1);
    randomTrace(1 * GiB, 4, 100000)(cache, rng);
    EXPECT_GT(cache.missRatio(), 0.95);
}

/** Addresses with same-line runs, line-crossing steps and random
 *  jumps, more than two batches long so the last batch is partial. */
std::vector<Addr>
batcherStream()
{
    Rng rng(5);
    std::vector<Addr> addrs;
    while (addrs.size() < 2 * traceBatchAddrs + 1000) {
        const Addr base = rng.below(1u << 22);
        const u64 run = 1 + rng.below(12);
        for (u64 r = 0; r < run; ++r)
            addrs.push_back(base + 4 * r);
    }
    return addrs;
}

/** A-B-A repeats, half with B in A's set of the test cache (128 sets
 *  of 8 ways), which the batcher must not collapse, and a same-line
 *  run straddling the first traceBatchAddrs push boundary. */
std::vector<Addr>
repeatStream()
{
    Rng rng(11);
    std::vector<Addr> addrs;
    const Addr same_set = 128 * 64;
    while (addrs.size() < 2 * traceBatchAddrs + 1000) {
        const Addr a = rng.below(1u << 16) * 64;
        const Addr b = rng.below(2) ? a + same_set * (1 + rng.below(16))
                                    : rng.below(1u << 22);
        addrs.insert(addrs.end(), {a, b, a + 4});
    }
    for (u64 i = 0; i < 12; ++i)
        addrs[traceBatchAddrs - 6 + i] = 5 * same_set + 4 * i;
    return addrs;
}

/** Pushing @p addrs through a TraceBatcher leaves the cache as one
 *  access() per address does. */
void
expectBatcherEqualsScalar(const std::vector<Addr> &addrs)
{
    ASSERT_NE(addrs.size() % traceBatchAddrs, 0u);
    sim::SetAssocCache scalar(64 * KiB, 64, 8);
    sim::SetAssocCache batched(64 * KiB, 64, 8);
    for (Addr a : addrs)
        scalar.access(a);
    {
        TraceBatcher batch(batched);
        for (Addr a : addrs)
            batch.push(a);
        // Only whole batches have reached the cache so far.
        EXPECT_EQ(batched.accesses(),
                  addrs.size() / traceBatchAddrs * traceBatchAddrs);
    } // the destructor flushes the partial last batch
    EXPECT_EQ(batched.accesses(), scalar.accesses());
    EXPECT_EQ(batched.misses(), scalar.misses());
    // Same LRU state: both caches answer a further stream alike.
    for (Addr a : addrs)
        ASSERT_EQ(batched.access(a), scalar.access(a));
}

TEST(TraceGen, BatcherEqualsScalarAccessLoop)
{
    {
        SCOPED_TRACE("runs, steps and jumps");
        expectBatcherEqualsScalar(batcherStream());
    }
    SCOPED_TRACE("A-B-A repeats, run across a batch boundary");
    expectBatcherEqualsScalar(repeatStream());
}

TEST(Resolver, TraceProbesMetricCountsEveryAccess)
{
    auto &metrics = obs::Metrics::global();
    const bool was_enabled = metrics.enabled();
    metrics.setEnabled(true);
    const double before = metrics.counterValue("sim.trace.probes");

    KernelDescriptor desc;
    desc.name = "t_probe_count";
    desc.flopsPerItem = 1;
    MemStream s;
    s.buffer = "runs";
    s.bytesPerItemSp = 4;
    s.pattern = sim::AccessPattern::Gather;
    s.workingSetBytesSp = 1 * MiB;
    // 10000 accesses in same-line runs of 16: 625 collapsed probes.
    s.trace = [](sim::SetAssocCache &cache, Rng &) {
        TraceBatcher batch(cache);
        for (u64 i = 0; i < 10000; ++i)
            batch.push(i * 4);
    };
    desc.streams.push_back(s);
    ProfileResolver resolver(sim::radeonR9_280X());
    resolver.streamMissRatio(desc, desc.streams[0], Precision::Single);

    EXPECT_EQ(metrics.counterValue("sim.trace.probes") - before, 10000.0);
    metrics.setEnabled(was_enabled);
}

TEST(ResolverDeath, EmptyDescriptorPanics)
{
    sim::DeviceSpec spec = sim::radeonR9_280X();
    ProfileResolver resolver(spec);
    KernelDescriptor desc;
    desc.name = "t_empty";
    EXPECT_DEATH(resolver.resolve(desc, 10, Precision::Single, false),
                 "empty descriptor");
}

} // namespace
} // namespace hetsim::ir
