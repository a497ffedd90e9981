/**
 * @file
 * Tests for the co-execution scheduler subsystem (ISSUE acceptance
 * criteria a-d plus pool/policy/coverage behavior).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "apps/coexec_kernels.hh"
#include "coexec/coexec.hh"
#include "coexec/scheduler.hh"
#include "hc/hc.hh"
#include "sim/pcie.hh"

namespace hetsim::coexec
{
namespace
{

/** A synthetic streaming kernel with an optional per-item hit map. */
CoKernel
syntheticKernel(u64 items,
                std::shared_ptr<std::vector<std::atomic<int>>> hits =
                    nullptr)
{
    CoKernel ck;
    ck.name = "synthetic";
    ck.desc.name = "synthetic";
    ck.desc.flopsPerItem = 10.0;
    ck.desc.intOpsPerItem = 2.0;
    ir::MemStream stream;
    stream.buffer = "in";
    stream.bytesPerItemSp = 4.0;
    stream.workingSetBytesSp = items * 4;
    ck.desc.streams.push_back(stream);
    ck.items = items;
    ck.h2dBytesPerItem = 4.0;
    ck.d2hBytesPerItem = 4.0;
    if (hits) {
        ck.body = [hits](u64 begin, u64 end) {
            for (u64 i = begin; i < end; ++i)
                (*hits)[i].fetch_add(1, std::memory_order_relaxed);
        };
    }
    return ck;
}

TEST(CoexecPool, ParsesAliases)
{
    auto pool = DevicePool::parse("cpu+dgpu");
    ASSERT_TRUE(pool.has_value());
    ASSERT_EQ(pool->size(), 2u);
    EXPECT_EQ(pool->spec(0).type, sim::DeviceType::Cpu);
    EXPECT_EQ(pool->spec(1).type, sim::DeviceType::DiscreteGpu);
    EXPECT_EQ(pool->model(0), ir::ModelKind::OpenMp);
    EXPECT_EQ(pool->model(1), ir::ModelKind::Hc);
    EXPECT_EQ(pool->name(), "cpu+dgpu");

    auto apu = DevicePool::parse("cpu+apu");
    ASSERT_TRUE(apu.has_value());
    EXPECT_TRUE(apu->spec(1).zeroCopy);

    EXPECT_TRUE(DevicePool::parse("igpu").has_value());
    EXPECT_TRUE(DevicePool::parse("cpu+hd7950").has_value());
    EXPECT_FALSE(DevicePool::parse("").has_value());
    EXPECT_FALSE(DevicePool::parse("cpu+fpga").has_value());
}

TEST(CoexecPool, PolicyNamesRoundTrip)
{
    for (Policy p : {Policy::StaticRatio, Policy::DynamicChunk,
                     Policy::Adaptive})
        EXPECT_EQ(policyByName(toString(p)), p);
    EXPECT_EQ(policyByName("static-ratio"), Policy::StaticRatio);
    EXPECT_FALSE(policyByName("greedy").has_value());
}

// Criterion (a): functional results of every co-executed app kernel
// are bit-identical to the serial core validation, under all three
// policies.
TEST(CoexecFunctional, AppKernelsBitIdenticalToSerial)
{
    auto pool = DevicePool::parse("cpu+dgpu");
    ASSERT_TRUE(pool.has_value());
    struct AppCase
    {
        const char *app;
        double scale;
    };
    const AppCase cases[] = {
        {"readmem", 0.02}, {"xsbench", 0.001}, {"minife", 0.08}};
    for (const AppCase &c : cases) {
        for (Policy policy : {Policy::StaticRatio,
                              Policy::DynamicChunk,
                              Policy::Adaptive}) {
            auto kernel = apps::coex::coKernelByName(
                c.app, c.scale, Precision::Single);
            ASSERT_TRUE(kernel.has_value()) << c.app;
            ExecOptions opts;
            opts.policy = policy;
            opts.functional = true;
            CoExecutor executor(*pool, Precision::Single);
            CoExecResult result = executor.execute(*kernel, opts);
            EXPECT_TRUE(result.validated)
                << c.app << " under " << toString(policy);
            EXPECT_EQ(result.items, kernel->items);
        }
    }
}

// Criterion (b): the static-ratio split fractions follow the roofline
// model's per-device throughput ratio.
TEST(CoexecStatic, SplitFollowsRooflineThroughputRatio)
{
    auto pool = DevicePool::parse("cpu+dgpu");
    ASSERT_TRUE(pool.has_value());
    auto kernel = apps::coex::makeReadmemCoKernel(0.1,
                                                  Precision::Single);

    double thr[2];
    double sum = 0.0;
    for (size_t d = 0; d < 2; ++d) {
        double secs = predictKernelSeconds(
            pool->spec(d), Precision::Single, kernel.desc,
            kernel.hints, kernel.items, pool->model(d));
        ASSERT_GT(secs, 0.0);
        thr[d] = static_cast<double>(kernel.items) / secs;
        sum += thr[d];
    }

    ExecOptions opts;
    opts.policy = Policy::StaticRatio;
    opts.functional = false;
    CoExecutor executor(*pool, Precision::Single);
    CoExecResult result = executor.execute(kernel, opts);

    ASSERT_EQ(result.devices.size(), 2u);
    const double rounding =
        1.5 / static_cast<double>(kernel.items);
    for (size_t d = 0; d < 2; ++d) {
        EXPECT_NEAR(result.devices[d].share, thr[d] / sum, rounding)
            << result.devices[d].device;
        EXPECT_EQ(result.devices[d].chunks, 1u);
    }
}

// Per-device idle time: each device's idle + compute-busy time is
// bounded by the co-exec makespan, and at least one device finishes
// flush with the end (idle ~0 for the straggler).
TEST(CoexecIdle, IdlePlusBusyBoundedByMakespan)
{
    auto pool = DevicePool::parse("cpu+dgpu");
    ASSERT_TRUE(pool.has_value());
    auto kernel = apps::coex::makeReadmemCoKernel(0.2,
                                                  Precision::Single);
    ExecOptions opts;
    opts.policy = Policy::Adaptive;
    opts.functional = false;
    CoExecutor executor(*pool, Precision::Single);
    CoExecResult result = executor.execute(kernel, opts);

    ASSERT_EQ(result.devices.size(), 2u);
    double min_idle = result.seconds;
    for (const auto &dev : result.devices) {
        EXPECT_GE(dev.idleSeconds, 0.0) << dev.device;
        EXPECT_LE(dev.idleSeconds, result.seconds + 1e-12)
            << dev.device;
        min_idle = std::min(min_idle, dev.idleSeconds);
    }
    // The device defining the makespan has (near) no compute idle
    // beyond its transfer waits; allow a loose bound.
    EXPECT_LT(min_idle, 0.5 * result.seconds);
}

// Criterion (c): the adaptive policy's simulated time is no worse
// than static's on a memory-bound workload.  Static splits by
// kernel-only roofline throughput, which over-assigns the discrete
// GPU on a transfer-heavy streaming kernel; adaptive's pull model
// observes end-to-end throughput (PCIe included) and rebalances.
TEST(CoexecAdaptive, NoWorseThanStaticOnMemoryBound)
{
    auto pool = DevicePool::parse("cpu+dgpu");
    ASSERT_TRUE(pool.has_value());
    CoExecutor executor(*pool, Precision::Single);

    auto run = [&](Policy policy) {
        auto kernel = apps::coex::makeReadmemCoKernel(
            0.5, Precision::Single);
        ExecOptions opts;
        opts.policy = policy;
        opts.functional = false;
        return executor.execute(kernel, opts).seconds;
    };
    const double adaptive = run(Policy::Adaptive);
    const double fixed = run(Policy::StaticRatio);
    EXPECT_LE(adaptive, fixed);
    EXPECT_GT(adaptive, 0.0);
}

// Criterion (d): CPU + discrete GPU co-execution accounts PCIe
// transfer time; APU CPU+GPU (zero-copy) does not.
TEST(CoexecTransfers, PcieAccountedOnlyForDiscreteDevices)
{
    auto run = [](const char *pool_name) {
        auto pool = DevicePool::parse(pool_name);
        EXPECT_TRUE(pool.has_value());
        auto kernel = apps::coex::makeReadmemCoKernel(
            0.1, Precision::Single);
        ExecOptions opts;
        opts.policy = Policy::Adaptive;
        opts.functional = false;
        CoExecutor executor(*pool, Precision::Single);
        return executor.execute(kernel, opts);
    };

    CoExecResult dgpu = run("cpu+dgpu");
    EXPECT_GT(dgpu.transferSeconds, 0.0);
    ASSERT_EQ(dgpu.devices.size(), 2u);
    EXPECT_EQ(dgpu.devices[0].transferSeconds, 0.0); // CPU slot
    EXPECT_GT(dgpu.devices[1].transferSeconds, 0.0); // dGPU slot

    CoExecResult apu = run("cpu+apu");
    EXPECT_EQ(apu.transferSeconds, 0.0);
    for (const auto &dev : apu.devices)
        EXPECT_EQ(dev.transferSeconds, 0.0);
}

// XSBench's shared table is a fixed footprint staged once per
// discrete device, independent of that device's item share.
TEST(CoexecTransfers, FixedFootprintStagedOncePerDiscreteDevice)
{
    auto pool = DevicePool::parse("cpu+dgpu");
    ASSERT_TRUE(pool.has_value());
    auto kernel = apps::coex::makeXsbenchCoKernel(0.001,
                                                  Precision::Single);
    ASSERT_GT(kernel.h2dBytesFixed, 0.0);

    ExecOptions opts;
    opts.policy = Policy::StaticRatio;
    opts.functional = false;
    CoExecutor executor(*pool, Precision::Single);
    CoExecResult result = executor.execute(kernel, opts);
    const double table_secs = sim::PcieLink{}.transferSeconds(
        static_cast<u64>(kernel.h2dBytesFixed));
    EXPECT_GE(result.devices[1].transferSeconds, table_secs);
}

TEST(CoexecCoverage, ChunksCoverEveryItemExactlyOnce)
{
    constexpr u64 items = 20000;
    auto hits = std::make_shared<std::vector<std::atomic<int>>>(items);
    CoKernel kernel = syntheticKernel(items, hits);

    for (Policy policy : {Policy::StaticRatio, Policy::DynamicChunk,
                          Policy::Adaptive}) {
        for (auto &h : *hits)
            h.store(0, std::memory_order_relaxed);
        auto pool = DevicePool::parse("cpu+dgpu");
        ExecOptions opts;
        opts.policy = policy;
        CoExecutor executor(*pool, Precision::Single);
        CoExecResult result = executor.execute(kernel, opts);

        for (const auto &h : *hits)
            ASSERT_EQ(h.load(), 1) << toString(policy);

        // Partitions are disjoint, in-order over the space.
        u64 assigned = 0;
        for (const Partition &part : result.partitions) {
            EXPECT_EQ(part.begin, assigned);
            EXPECT_GT(part.end, part.begin);
            assigned = part.end;
        }
        EXPECT_EQ(assigned, items);
        u64 dev_items = 0;
        for (const auto &dev : result.devices)
            dev_items += dev.items;
        EXPECT_EQ(dev_items, items);
    }
}

TEST(CoexecDynamic, FixedChunkCountMatchesRequest)
{
    constexpr u64 items = 10000;
    constexpr u64 chunk = 512;
    CoKernel kernel = syntheticKernel(items);
    auto pool = DevicePool::parse("cpu+dgpu");
    ExecOptions opts;
    opts.policy = Policy::DynamicChunk;
    opts.chunkItems = chunk;
    opts.functional = false;
    CoExecutor executor(*pool, Precision::Single);
    CoExecResult result = executor.execute(kernel, opts);

    u64 chunks = 0;
    for (const auto &dev : result.devices)
        chunks += dev.chunks;
    EXPECT_EQ(chunks, (items + chunk - 1) / chunk);
}

TEST(CoexecHc, ParallelDispatchEndToEnd)
{
    constexpr u64 items = 4096;
    auto hits = std::make_shared<std::vector<std::atomic<int>>>(items);
    CoKernel kernel = syntheticKernel(items, hits);
    auto pool = DevicePool::parse("cpu+apu");
    ASSERT_TRUE(pool.has_value());

    CoExecResult result = hc::parallel_dispatch(
        *pool, Precision::Single, kernel, {});
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_EQ(result.items, items);
    double share = 0.0;
    for (const auto &dev : result.devices)
        share += dev.share;
    EXPECT_NEAR(share, 1.0, 1e-9);
    for (const auto &h : *hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(CoexecPredict, SingleDevicePoolTakesEverything)
{
    auto pool = DevicePool::parse("dgpu");
    ASSERT_TRUE(pool.has_value());
    CoKernel kernel = syntheticKernel(5000);
    ExecOptions opts;
    opts.policy = Policy::StaticRatio;
    opts.functional = false;
    CoExecutor executor(*pool, Precision::Single);
    CoExecResult result = executor.execute(kernel, opts);
    ASSERT_EQ(result.devices.size(), 1u);
    EXPECT_DOUBLE_EQ(result.devices[0].share, 1.0);
    EXPECT_EQ(result.devices[0].chunks, 1u);
}

} // namespace
} // namespace hetsim::coexec
