/**
 * @file
 * Tests for the shared device runtime (buffers, transfers, launches).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/workload.hh"
#include "kernelir/tracegen.hh"
#include "obs/metrics.hh"
#include "runtime/context.hh"

namespace hetsim::rt
{
namespace
{

ir::KernelDescriptor
kernelOf(const char *name)
{
    ir::KernelDescriptor desc;
    desc.name = name;
    desc.flopsPerItem = 10;
    ir::MemStream s;
    s.buffer = "data";
    s.bytesPerItemSp = 16;
    s.workingSetBytesSp = 16 * MiB;
    desc.streams.push_back(s);
    return desc;
}

TEST(Runtime, ZeroCopyDeviceSkipsTransfers)
{
    RuntimeContext rt(sim::a10_7850kGpu(), ir::ModelKind::OpenCl,
                      Precision::Single);
    BufferId buf = rt.createBuffer("x", 1 * MiB);
    EXPECT_TRUE(rt.deviceValid(buf)); // unified memory
    EXPECT_EQ(rt.copyToDevice(buf), sim::NoTask);
    EXPECT_DOUBLE_EQ(rt.stats().get("xfer.h2d.bytes"), 0.0);
}

TEST(Runtime, DiscreteGpuChargesPcie)
{
    RuntimeContext rt(sim::radeonR9_280X(), ir::ModelKind::OpenCl,
                      Precision::Single);
    BufferId buf = rt.createBuffer("x", 64 * MiB);
    EXPECT_FALSE(rt.deviceValid(buf));
    sim::TaskId task = rt.copyToDevice(buf);
    EXPECT_NE(task, sim::NoTask);
    EXPECT_TRUE(rt.deviceValid(buf));
    double t = rt.elapsedSeconds();
    // 64 MiB at ~7.9 GB/s effective, plus latency.
    EXPECT_GT(t, 0.005);
    EXPECT_LT(t, 0.05);
    EXPECT_DOUBLE_EQ(rt.stats().get("xfer.h2d.bytes"),
                     static_cast<double>(64 * MiB));
}

TEST(Runtime, ManagedTransfersSlowerForManagedModels)
{
    auto time_of = [](ir::ModelKind kind) {
        RuntimeContext rt(sim::radeonR9_280X(), kind,
                          Precision::Single);
        BufferId buf = rt.createBuffer("x", 256 * MiB);
        rt.copyToDevice(buf);
        return rt.elapsedSeconds();
    };
    double ocl = time_of(ir::ModelKind::OpenCl);
    double amp = time_of(ir::ModelKind::CppAmp);
    double acc = time_of(ir::ModelKind::OpenAcc);
    EXPECT_GT(amp, ocl * 2.0); // pageable path
    EXPECT_GT(acc, ocl * 1.5);
}

TEST(Runtime, EnsureOnDeviceOnlyCopiesWhenStale)
{
    RuntimeContext rt(sim::radeonR9_280X(), ir::ModelKind::CppAmp,
                      Precision::Single);
    BufferId buf = rt.createBuffer("x", 1 * MiB);
    EXPECT_NE(rt.ensureOnDevice(buf), sim::NoTask);
    EXPECT_EQ(rt.ensureOnDevice(buf), sim::NoTask); // already there
    rt.markHostDirty(buf);
    EXPECT_NE(rt.ensureOnDevice(buf), sim::NoTask);
    EXPECT_DOUBLE_EQ(rt.stats().get("xfer.h2d.count"), 2.0);
}

TEST(Runtime, EnsureOnHostAfterKernelWrite)
{
    RuntimeContext rt(sim::radeonR9_280X(), ir::ModelKind::CppAmp,
                      Precision::Single);
    BufferId buf = rt.createBuffer("x", 1 * MiB);
    rt.ensureOnDevice(buf);
    EXPECT_EQ(rt.ensureOnHost(buf), sim::NoTask); // host still valid
    rt.markDeviceDirty(buf);
    EXPECT_FALSE(rt.hostValid(buf));
    EXPECT_NE(rt.ensureOnHost(buf), sim::NoTask);
    EXPECT_TRUE(rt.hostValid(buf));
}

TEST(Runtime, LaunchRunsBodyAndRecords)
{
    RuntimeContext rt(sim::a10_7850kCpu(), ir::ModelKind::OpenMp,
                      Precision::Single);
    u64 sum = 0;
    std::mutex mtx;
    rt.launch(kernelOf("k"), 1000, {}, [&](u64 b, u64 e) {
        std::lock_guard<std::mutex> lock(mtx);
        sum += e - b;
    });
    EXPECT_EQ(sum, 1000u);
    ASSERT_EQ(rt.records().size(), 1u);
    EXPECT_EQ(rt.records()[0].name, "k");
    EXPECT_EQ(rt.records()[0].items, 1000u);
    EXPECT_GT(rt.records()[0].timing.seconds, 0.0);
    EXPECT_DOUBLE_EQ(rt.stats().get("kernel.launches"), 1.0);
}

TEST(Runtime, FunctionalExecutionToggle)
{
    RuntimeContext rt(sim::a10_7850kCpu(), ir::ModelKind::OpenMp,
                      Precision::Single);
    rt.setFunctionalExecution(false);
    bool ran = false;
    rt.launch(kernelOf("k"), 100, {}, [&](u64, u64) { ran = true; });
    EXPECT_FALSE(ran);
    EXPECT_EQ(rt.records().size(), 1u); // still timed
}

TEST(Runtime, FrequencyOverrideChangesTiming)
{
    auto secs = [](double core) {
        RuntimeContext rt(sim::radeonR9_280X(), ir::ModelKind::OpenCl,
                          Precision::Single);
        rt.setFreq({core, 1500});
        ir::KernelDescriptor desc = kernelOf("k");
        desc.flopsPerItem = 5000; // compute bound
        rt.launch(desc, 1 << 22, {}, nullptr);
        return rt.elapsedSeconds();
    };
    EXPECT_NEAR(secs(462.5) / secs(925), 2.0, 0.1);
}

TEST(Runtime, QueueOrderRespectsDependencies)
{
    RuntimeContext rt(sim::radeonR9_280X(), ir::ModelKind::OpenCl,
                      Precision::Single);
    BufferId buf = rt.createBuffer("x", 256 * MiB);
    sim::TaskId copy = rt.copyToDevice(buf);
    double copy_done = rt.elapsedSeconds();
    sim::TaskId kernel =
        rt.launch(kernelOf("k"), 1000, {}, nullptr,
                  std::span<const sim::TaskId>(&copy, 1));
    EXPECT_GE(rt.taskFinishSeconds(kernel), copy_done);
}

TEST(Runtime, HostWorkAccounted)
{
    RuntimeContext rt(sim::a10_7850kCpu(), ir::ModelKind::Serial,
                      Precision::Single);
    rt.hostWork(0.25);
    EXPECT_DOUBLE_EQ(rt.stats().get("host.seconds"), 0.25);
    EXPECT_DOUBLE_EQ(rt.elapsedSeconds(), 0.25);
}

TEST(Runtime, AggregateCountersComposeAcrossLaunches)
{
    RuntimeContext rt(sim::radeonR9_280X(), ir::ModelKind::OpenCl,
                      Precision::Single);
    rt.setFunctionalExecution(false);
    for (int i = 0; i < 5; ++i)
        rt.launch(kernelOf("k"), 1000, {}, nullptr);
    EXPECT_DOUBLE_EQ(rt.stats().get("kernel.launches"), 5.0);
    EXPECT_GT(rt.aggregateLlcMissRatio(), 0.0);
    EXPECT_GT(rt.aggregateIpc(), 0.0);
}

TEST(RuntimeCounters, StatsAndMetricsAgree)
{
    // LULESH under OpenACC on the discrete GPU touches every runtime
    // counter: buffers, both transfer directions, launches and host
    // work.
    obs::Metrics &metrics = obs::Metrics::global();
    metrics.clear();
    metrics.setEnabled(true);
    core::WorkloadConfig cfg;
    cfg.functional = false;
    cfg.scale = 0.05;
    const core::RunResult result =
        core::appByName("lulesh")->run[static_cast<int>(
            ir::ModelKind::OpenAcc)](sim::radeonR9_280X(), cfg);
    metrics.setEnabled(false);

    std::ostringstream dump;
    result.stats.dump(dump);
    std::istringstream lines(dump.str());
    std::string name;
    double value = 0.0;
    int shared = 0;
    while (lines >> name >> value) {
        if (name.rfind("buffers.", 0) == 0) {
            EXPECT_EQ(metrics.counterValue(name), 0.0) << name;
            continue;
        }
        EXPECT_EQ(metrics.counterValue(name), result.stats.get(name))
            << name;
        ++shared;
    }
    for (const char *counter :
         {"kernel.launches", "kernel.seconds",
          "kernel.launch_overhead_seconds", "xfer.h2d.count",
          "xfer.d2h.count", "host.seconds"})
        EXPECT_GT(result.stats.get(counter), 0.0) << counter;
    EXPECT_GT(result.stats.get("buffers.created"), 0.0);
    EXPECT_GE(shared, 9);
    EXPECT_GT(metrics.counterValue("kernel.items"), 0.0);
    EXPECT_EQ(result.stats.get("kernel.items"), 0.0);
    metrics.clear();
}

TEST(RuntimeDeath, BarrierKernelRejectedByOpenAcc)
{
    RuntimeContext rt(sim::radeonR9_280X(), ir::ModelKind::OpenAcc,
                      Precision::Single);
    ir::KernelDescriptor desc = kernelOf("needs_sync");
    desc.loop.needsBarriers = true;
    EXPECT_EXIT(rt.launch(desc, 100, {}, nullptr),
                testing::ExitedWithCode(1), "barriers");
}

TEST(RuntimeDeath, OversizedBufferRejectedOnDiscreteGpu)
{
    RuntimeContext rt(sim::radeonR9_280X(), ir::ModelKind::OpenCl,
                      Precision::Single);
    // The paper hit exactly this: the 5 GB XSBench table does not fit
    // the 3 GB discrete GPU.
    EXPECT_EXIT(rt.createBuffer("huge", 5 * GiB),
                testing::ExitedWithCode(1), "exceeds device memory");
}

TEST(RuntimeDeath, ZeroItemLaunchRejected)
{
    RuntimeContext rt(sim::radeonR9_280X(), ir::ModelKind::OpenCl,
                      Precision::Single);
    EXPECT_EXIT(rt.launch(kernelOf("k"), 0, {}, nullptr),
                testing::ExitedWithCode(1), "zero items");
}

} // namespace
} // namespace hetsim::rt
