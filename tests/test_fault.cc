/**
 * @file
 * Tests for the fault-injection subsystem (src/fault) and the
 * recovery machinery it drives in the co-execution scheduler: seed-reproducible schedules, timeline-accounted retries,
 * straggler rescue, graceful degradation, and the regressions for the
 * error paths that used to panic()/fatal().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "apps/coexec_kernels.hh"
#include "coexec/coexec.hh"
#include "coexec/scheduler.hh"
#include "fault/fault.hh"

namespace hetsim
{
namespace
{

using coexec::CoExecResult;
using coexec::CoKernel;
using coexec::DevicePool;
using coexec::ExecOptions;
using coexec::Policy;
using fault::FaultConfig;
using fault::FaultPlan;

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

// --- Spec parsing and helpers ------------------------------------------

TEST(FaultSpec, ParsesKindRatePairs)
{
    auto cfg =
        fault::parseFaultSpec("transfer:0.2,launch:0.1,stall:0.05");
    ASSERT_TRUE(cfg.has_value());
    EXPECT_DOUBLE_EQ(cfg->transferFailRate, 0.2);
    EXPECT_DOUBLE_EQ(cfg->launchFailRate, 0.1);
    EXPECT_DOUBLE_EQ(cfg->stallRate, 0.05);
    EXPECT_TRUE(cfg->any());

    auto one = fault::parseFaultSpec("stall:1");
    ASSERT_TRUE(one.has_value());
    EXPECT_DOUBLE_EQ(one->stallRate, 1.0);
    EXPECT_DOUBLE_EQ(one->transferFailRate, 0.0);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"", "transfer", "transfer:", "transfer:1.5",
          "transfer:-0.1", "transfer:0.1,", "bogus:0.1",
          "transfer:0.1x", ",transfer:0.1", "transfer:0.1,,stall:1"}) {
        EXPECT_FALSE(fault::parseFaultSpec(bad).has_value()) << bad;
    }
}

TEST(FaultSpec, RejectsNonFiniteRates)
{
    for (const char *bad : {"transfer:nan", "launch:inf", "stall:-inf",
                            "transfer:0.1,stall:nan"}) {
        EXPECT_FALSE(fault::parseFaultSpec(bad).has_value()) << bad;
    }
}

TEST(FaultBackoff, ExponentialAndCapped)
{
    EXPECT_DOUBLE_EQ(fault::backoffSeconds(0, 1e-3), 0.0);
    EXPECT_DOUBLE_EQ(fault::backoffSeconds(1, 1e-3), 1e-3);
    EXPECT_DOUBLE_EQ(fault::backoffSeconds(2, 1e-3), 2e-3);
    EXPECT_DOUBLE_EQ(fault::backoffSeconds(3, 1e-3), 4e-3);
    // Capped at 2^16 periods, even for absurd attempt numbers.
    EXPECT_DOUBLE_EQ(fault::backoffSeconds(1000, 1e-3),
                     fault::backoffSeconds(17, 1e-3));
    EXPECT_DOUBLE_EQ(fault::backoffSeconds(5, 0.0), 0.0);
}

TEST(FaultMatch, DeviceAliases)
{
    const sim::DeviceSpec cpu = sim::a10_7850kCpu();
    const sim::DeviceSpec apu = sim::a10_7850kGpu();
    const sim::DeviceSpec dgpu = sim::radeonR9_280X();

    EXPECT_TRUE(fault::matchesDevice(cpu, "cpu"));
    EXPECT_FALSE(fault::matchesDevice(cpu, "gpu"));
    EXPECT_TRUE(fault::matchesDevice(dgpu, "gpu"));
    EXPECT_TRUE(fault::matchesDevice(dgpu, "dgpu"));
    EXPECT_FALSE(fault::matchesDevice(dgpu, "apu"));
    EXPECT_TRUE(fault::matchesDevice(apu, "gpu"));
    EXPECT_TRUE(fault::matchesDevice(apu, "apu"));
    EXPECT_TRUE(fault::matchesDevice(apu, "igpu"));
    // Spec names match case-insensitively; empty matches nothing.
    EXPECT_TRUE(fault::matchesDevice(dgpu, "amd radeon r9 280x"));
    EXPECT_FALSE(fault::matchesDevice(dgpu, ""));
}

// --- FaultPlan determinism ---------------------------------------------

TEST(FaultPlan_, DefaultConstructedIsInert)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    EXPECT_FALSE(plan.failTransfer("x"));
    EXPECT_FALSE(plan.failLaunch("x"));
    EXPECT_FALSE(plan.stallDevice("x"));
    EXPECT_FALSE(plan.isDead("x"));
    EXPECT_TRUE(plan.schedule().empty());
}

TEST(FaultPlan_, SameSeedSameSchedule)
{
    FaultConfig cfg;
    cfg.transferFailRate = 0.4;
    cfg.launchFailRate = 0.2;
    cfg.seed = 1234;

    auto drive = [&](FaultPlan &plan) {
        for (int i = 0; i < 200; ++i) {
            plan.failTransfer("devA");
            plan.failLaunch("devB");
        }
    };
    FaultPlan a(cfg), b(cfg);
    drive(a);
    drive(b);
    ASSERT_FALSE(a.schedule().empty());
    ASSERT_EQ(a.schedule().size(), b.schedule().size());
    for (size_t i = 0; i < a.schedule().size(); ++i)
        EXPECT_TRUE(a.schedule()[i] == b.schedule()[i]) << i;
}

TEST(FaultPlan_, DifferentSeedDifferentSchedule)
{
    FaultConfig cfg;
    cfg.transferFailRate = 0.5;
    auto fires = [](u64 seed) {
        FaultConfig c;
        c.transferFailRate = 0.5;
        c.seed = seed;
        FaultPlan plan(c);
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i)
            out.push_back(plan.failTransfer("d"));
        return out;
    };
    EXPECT_NE(fires(1), fires(2));
    EXPECT_EQ(fires(7), fires(7));
}

TEST(FaultPlan_, ZeroRateClassesConsumeNoRandomness)
{
    // Adding a zero-rate class must not shift the transfer schedule.
    auto schedule = [](double launch_rate) {
        FaultConfig c;
        c.transferFailRate = 0.5;
        c.launchFailRate = launch_rate;
        c.seed = 99;
        FaultPlan plan(c);
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i) {
            plan.failLaunch("d"); // zero-rate: must not draw
            out.push_back(plan.failTransfer("d"));
        }
        return out;
    };
    EXPECT_EQ(schedule(0.0), schedule(0.0));
}

TEST(FaultPlan_, HealthStateMachine)
{
    FaultConfig cfg;
    cfg.transferFailRate = 0.5;
    FaultPlan plan(cfg);
    EXPECT_FALSE(plan.isDead("d"));
    plan.markDead("d");
    EXPECT_TRUE(plan.isDead("d"));
    ASSERT_EQ(plan.schedule().size(), 1u);
    EXPECT_EQ(plan.schedule()[0].kind, fault::FaultKind::DeviceDeath);
    // Dead is sticky: a second markDead records no second death event.
    plan.markDead("d");
    EXPECT_TRUE(plan.isDead("d"));
    EXPECT_EQ(plan.schedule().size(), 1u);
}

// --- Co-execution under faults -----------------------------------------

TEST(CoexecFault, SameSeedReproducesIdenticalFaultSchedule)
{
    auto run = [](u64 seed) {
        auto pool = DevicePool::parse("cpu+dgpu");
        FaultConfig cfg;
        cfg.transferFailRate = 0.3;
        cfg.launchFailRate = 0.1;
        cfg.seed = seed;
        FaultPlan plan(cfg);
        ExecOptions opts;
        opts.policy = Policy::Adaptive;
        opts.functional = false;
        opts.faults = &plan;
        coexec::CoExecutor executor(*pool, Precision::Single);
        CoExecResult result =
            executor.execute(syntheticKernel(50000), opts);
        EXPECT_TRUE(result.ok) << result.error;
        return plan.schedule();
    };
    const auto a = run(77);
    const auto b = run(77);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i] == b[i]) << i;
}

TEST(CoexecFault, TransferRetriesCostSimulatedTime)
{
    auto pool = DevicePool::parse("cpu+dgpu");
    CoKernel kernel = syntheticKernel(50000);

    ExecOptions clean;
    clean.policy = Policy::DynamicChunk;
    clean.chunkItems = 4096;
    clean.functional = false;
    coexec::CoExecutor executor(*pool, Precision::Single);
    const double clean_secs = executor.execute(kernel, clean).seconds;

    FaultConfig cfg;
    cfg.transferFailRate = 0.4;
    cfg.seed = 5;
    FaultPlan plan(cfg);
    ExecOptions faulty = clean;
    faulty.faults = &plan;
    CoExecResult result = executor.execute(kernel, faulty);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_GT(result.transferRetries, 0u);
    EXPECT_EQ(result.faultsInjected, plan.schedule().size());
    // Every failed attempt occupies the DMA engine for its full
    // duration plus a backoff window, so recovery is visible in the
    // merged makespan.
    EXPECT_GT(result.seconds, clean_secs);
}

TEST(CoexecFault, FailDeviceDegradesGracefullyBitwiseCorrect)
{
    constexpr u64 items = 30000;
    auto hits = std::make_shared<std::vector<std::atomic<int>>>(items);
    CoKernel kernel = syntheticKernel(items, hits);

    auto pool = DevicePool::parse("cpu+dgpu");
    FaultConfig cfg;
    cfg.failDevice = "gpu";
    FaultPlan plan(cfg);
    ExecOptions opts;
    opts.policy = Policy::Adaptive;
    opts.functional = true;
    opts.faults = &plan;
    coexec::CoExecutor executor(*pool, Precision::Single);
    CoExecResult result = executor.execute(kernel, opts);

    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GE(result.degradations, 1u);
    EXPECT_GE(result.chunkRescues, 1u);
    ASSERT_EQ(result.deadDevices.size(), 1u);
    EXPECT_EQ(result.deadDevices[0], pool->spec(1).name);
    EXPECT_TRUE(plan.isDead(pool->spec(1).name));

    // Exactly-once item coverage despite the rescue: bitwise-correct
    // functional results relative to any fault-free run.
    for (const auto &h : *hits)
        ASSERT_EQ(h.load(), 1);
    u64 covered = 0;
    for (const auto &dev : result.devices)
        covered += dev.items;
    EXPECT_EQ(covered, items);
}

TEST(CoexecFault, FailDeviceChecksumMatchesCpuOnly)
{
    auto run = [](const char *pool_name, const char *fail) {
        auto pool = DevicePool::parse(pool_name);
        auto kernel = apps::coex::makeReadmemCoKernel(
            0.05, Precision::Single);
        FaultConfig cfg;
        FaultPlan plan(cfg);
        ExecOptions opts;
        opts.policy = Policy::Adaptive;
        opts.functional = true;
        if (fail) {
            cfg.failDevice = fail;
            plan = FaultPlan(cfg);
            opts.faults = &plan;
        }
        coexec::CoExecutor executor(*pool, Precision::Single);
        CoExecResult result = executor.execute(kernel, opts);
        EXPECT_TRUE(result.ok) << result.error;
        EXPECT_TRUE(result.validated);
        return result.checksum;
    };
    // A pool that loses its GPU mid-run computes the same checksum as
    // a CPU-only pool (and validates against the serial core).
    EXPECT_DOUBLE_EQ(run("cpu+dgpu", "gpu"), run("cpu", nullptr));
}

TEST(CoexecFault, FailDeviceByPresetSpellingKillsThatPreset)
{
    auto pool = DevicePool::parse("cpu+hd7950");
    ASSERT_TRUE(pool.has_value());
    auto kernel =
        apps::coex::makeReadmemCoKernel(0.05, Precision::Single);
    FaultConfig cfg;
    cfg.failDevice = "hd7950";
    FaultPlan plan(cfg);
    ExecOptions opts;
    opts.functional = true;
    opts.faults = &plan;
    coexec::CoExecutor executor(*pool, Precision::Single);
    const CoExecResult result = executor.execute(kernel, opts);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.validated);
    ASSERT_EQ(result.deadDevices.size(), 1u);
    EXPECT_EQ(result.deadDevices[0], "AMD Radeon HD 7950");
    EXPECT_EQ(result.faultsInjected, 1u);
}

TEST(CoexecFault, StallWatchdogRescuesChunk)
{
    FaultConfig cfg;
    cfg.stallRate = 1.0; // first chunk of some device stalls
    cfg.failDevice = "";
    auto pool = DevicePool::parse("cpu+dgpu");
    FaultPlan plan(cfg);
    ExecOptions opts;
    opts.policy = Policy::Adaptive;
    opts.functional = false;
    opts.faults = &plan;
    coexec::CoExecutor executor(*pool, Precision::Single);
    CoExecResult result = executor.execute(syntheticKernel(20000), opts);
    // With stall rate 1.0 every chunk stalls, so both devices die and
    // the launch reports a structured error instead of aborting
    // (regression: this used to be the "items unassigned" panic).
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("unassigned"), std::string::npos);
    EXPECT_EQ(result.deadDevices.size(), 2u);
}

TEST(CoexecFault, AllDevicesDeadReturnsStructuredError)
{
    // Single-device pool whose only device is told to die: after its
    // first chunk the pool is empty and the executor must report a
    // recoverable error, not panic.
    auto pool = DevicePool::parse("cpu");
    FaultConfig cfg;
    cfg.failDevice = "cpu";
    FaultPlan plan(cfg);
    ExecOptions opts;
    opts.policy = Policy::Adaptive;
    opts.functional = false;
    opts.faults = &plan;
    coexec::CoExecutor executor(*pool, Precision::Single);
    CoExecResult result = executor.execute(syntheticKernel(50000), opts);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());
    EXPECT_EQ(result.degradations, 0u);
    ASSERT_EQ(result.deadDevices.size(), 1u);
}

// Regression (satellite 1): an empty device pool used to panic in the
// DevicePool constructor; now it is representable and execute()
// reports it.
TEST(CoexecFault, EmptyPoolReturnsStructuredError)
{
    DevicePool empty((std::vector<sim::DeviceSpec>()));
    coexec::CoExecutor executor(empty, Precision::Single);
    CoExecResult result =
        executor.execute(syntheticKernel(100), ExecOptions{});
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("empty"), std::string::npos);
}

TEST(CoexecFault, ZeroItemsReturnsStructuredError)
{
    auto pool = DevicePool::parse("cpu+dgpu");
    coexec::CoExecutor executor(*pool, Precision::Single);
    CoExecResult result =
        executor.execute(syntheticKernel(0), ExecOptions{});
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("zero items"), std::string::npos);
}

TEST(CoexecFault, FaultFreeRunReportsNoFaultActivity)
{
    auto pool = DevicePool::parse("cpu+dgpu");
    coexec::CoExecutor executor(*pool, Precision::Single);
    CoExecResult result =
        executor.execute(syntheticKernel(10000), ExecOptions{});
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.faultsInjected, 0u);
    EXPECT_EQ(result.transferRetries, 0u);
    EXPECT_EQ(result.launchRetries, 0u);
    EXPECT_EQ(result.chunkRescues, 0u);
    EXPECT_EQ(result.degradations, 0u);
    EXPECT_TRUE(result.deadDevices.empty());
}

// Regression (satellite 4): a single tiny completed chunk used to make
// DeviceState::throughput() divide by near-zero busySeconds and
// explode the adaptive scheduler's rate estimate.
TEST(SchedulerClamp, ThroughputFallsBackUnderMinimumWindow)
{
    coexec::DeviceState st;
    st.predictedItemsPerSec = 100.0;
    st.chunksDone = 1;
    st.itemsDone = 1;
    st.busySeconds = 1e-12;
    EXPECT_DOUBLE_EQ(st.throughput(), 100.0);

    // Too few items: still the prediction.
    st.busySeconds = 1.0;
    st.itemsDone = coexec::DeviceState::kMinObservedItems - 1;
    EXPECT_DOUBLE_EQ(st.throughput(), 100.0);

    // Past both floors: the observed rate wins.
    st.itemsDone = 1000;
    EXPECT_DOUBLE_EQ(st.throughput(), 1000.0);

    // No chunks at all: the prediction.
    coexec::DeviceState fresh;
    fresh.predictedItemsPerSec = 7.0;
    EXPECT_DOUBLE_EQ(fresh.throughput(), 7.0);
}

} // namespace
} // namespace hetsim
