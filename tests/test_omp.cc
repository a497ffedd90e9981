/**
 * @file
 * Tests for the OpenMP target-offload frontend (implicit tofrom maps,
 * target data environments, nowait/taskwait, map-clause misuse).
 */

#include <gtest/gtest.h>

#include "omp/omp.hh"

namespace hetsim::omp
{
namespace
{

ir::KernelDescriptor
loopKernel(const char *name = "omp_loop")
{
    ir::KernelDescriptor desc;
    desc.name = name;
    desc.flopsPerItem = 2;
    ir::MemStream s;
    s.buffer = "io";
    s.bytesPerItemSp = 8;
    s.workingSetBytesSp = 4 * MiB;
    desc.streams.push_back(s);
    return desc;
}

double
count(const TargetRuntime &rt, const char *key)
{
    return rt.runtime().stats().get(key);
}

TEST(Omp, ImplicitTofromMapsReadsAndWrites)
{
    // Without a data environment every array the region references is
    // mapped tofrom: staged in AND copied back, read-only ones too.
    TargetRuntime rt(sim::DeviceType::DiscreteGpu, Precision::Single);
    std::vector<float> a(1 << 16, 1.0f), b(1 << 16, 2.0f), c(1 << 16);
    rt.declare(a.data(), a.size() * 4, "a");
    rt.declare(b.data(), b.size() * 4, "b");
    rt.declare(c.data(), c.size() * 4, "c");
    for (int iter = 0; iter < 2; ++iter) {
        // a is both read and written: mapped once, not twice.
        targetLoop(rt, loopKernel(), c.size(), ForClauses{},
                   {a.data(), b.data()}, {c.data(), a.data()},
                   [&](u64 i) { c[i] = a[i] + b[i]; });
    }
    EXPECT_FLOAT_EQ(c[7], 3.0f);
    EXPECT_DOUBLE_EQ(count(rt, "xfer.h2d.count"), 6.0);
    EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 6.0);
    EXPECT_FALSE(rt.present(a.data()));
}

TEST(Omp, TargetDataHoistsTransfers)
{
    TargetRuntime rt(sim::DeviceType::DiscreteGpu, Precision::Single);
    std::vector<float> in(1 << 18, 1.0f), out(1 << 18);
    rt.declare(in.data(), in.size() * 4, "in");
    rt.declare(out.data(), out.size() * 4, "out");
    {
        TargetData data(rt, MapTo{in.data()}, MapFrom{out.data()});
        EXPECT_TRUE(rt.present(in.data()));
        EXPECT_TRUE(rt.present(out.data()));
        for (int iter = 0; iter < 5; ++iter) {
            targetLoop(rt, loopKernel(), in.size(), ForClauses{},
                       {in.data()}, {out.data()}, [](u64) {});
        }
        EXPECT_DOUBLE_EQ(count(rt, "xfer.h2d.count"), 1.0); // entry
        EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 0.0);
    }
    EXPECT_FALSE(rt.present(in.data()));
    EXPECT_FALSE(rt.present(out.data()));
    EXPECT_DOUBLE_EQ(count(rt, "xfer.h2d.count"), 1.0);
    EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 1.0); // exit
}

TEST(Omp, MapAllocAllocatesWithoutTransfer)
{
    TargetRuntime rt(sim::DeviceType::DiscreteGpu, Precision::Single);
    std::vector<float> scratch(1 << 18);
    rt.declare(scratch.data(), scratch.size() * 4, "scratch");
    {
        TargetData data(rt, MapTo{}, MapFrom{},
                        MapAlloc{scratch.data()});
        EXPECT_TRUE(rt.present(scratch.data()));
        targetLoop(rt, loopKernel(), scratch.size(), ForClauses{},
                   {scratch.data()}, {scratch.data()}, [](u64) {});
    }
    EXPECT_FALSE(rt.present(scratch.data()));
    EXPECT_DOUBLE_EQ(count(rt, "xfer.h2d.count"), 0.0);
    EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 0.0);
}

TEST(Omp, NestedDataEnvironmentsStayPresentUntilOutermostExit)
{
    TargetRuntime rt(sim::DeviceType::DiscreteGpu, Precision::Single);
    std::vector<float> field(1 << 16);
    rt.declare(field.data(), field.size() * 4, "field");
    {
        TargetData outer(rt, MapTo{field.data()});
        {
            TargetData inner(rt, MapTo{}, MapFrom{field.data()});
        }
        // The inner exit copied back but the outer map(to:) holds it.
        EXPECT_TRUE(rt.present(field.data()));
        EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 1.0);
    }
    EXPECT_FALSE(rt.present(field.data()));
    EXPECT_DOUBLE_EQ(count(rt, "xfer.h2d.count"), 1.0);
}

TEST(Omp, ZeroCopyDeviceMovesNothing)
{
    TargetRuntime rt(sim::DeviceType::IntegratedGpu, Precision::Single);
    std::vector<float> data(1 << 16, 1.0f);
    rt.declare(data.data(), data.size() * 4, "data");
    targetLoop(rt, loopKernel(), data.size(), ForClauses{},
               {data.data()}, {data.data()},
               [&](u64 i) { data[i] *= 3.0f; });
    EXPECT_FLOAT_EQ(data[11], 3.0f);
    EXPECT_DOUBLE_EQ(count(rt, "xfer.h2d.count"), 0.0);
    EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 0.0);
    EXPECT_DOUBLE_EQ(count(rt, "kernel.launches"), 1.0);
}

TEST(Omp, ClausesReachTheCompiler)
{
    TargetRuntime rt(sim::DeviceType::DiscreteGpu, Precision::Single);
    ForClauses clauses;
    clauses.threadLimit = 128;
    targetLoop(rt, loopKernel(), 4096, clauses, {}, {}, [](u64) {});
    EXPECT_EQ(rt.runtime().records().back().profile.workgroupSize,
              128u);
}

TEST(OmpNowait, TaskwaitCoalescesCopyBacks)
{
    TargetRuntime rt(sim::DeviceType::DiscreteGpu, Precision::Single);
    std::vector<float> field(1 << 18, 0.0f);
    rt.declare(field.data(), field.size() * 4, "field");
    ForClauses clauses;
    clauses.nowait = true;
    for (int i = 0; i < 4; ++i) {
        targetLoop(rt, loopKernel("omp_nowait"), field.size(), clauses,
                   {}, {field.data()}, [](u64) {});
    }
    // tofrom still stages in per region; the copy-backs wait...
    EXPECT_DOUBLE_EQ(count(rt, "xfer.h2d.count"), 4.0);
    EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 0.0);
    taskwait(rt);
    // ...and coalesce into one transfer.
    EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 1.0);
    taskwait(rt); // nothing left pending
    EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 1.0);
}

TEST(OmpNowait, TaskwaitRespectsDataEnvironments)
{
    TargetRuntime rt(sim::DeviceType::DiscreteGpu, Precision::Single);
    std::vector<float> field(1 << 18, 0.0f);
    rt.declare(field.data(), field.size() * 4, "field");
    ForClauses clauses;
    clauses.nowait = true;
    {
        TargetData data(rt, MapTo{field.data()}, MapFrom{field.data()});
        targetLoop(rt, loopKernel(), field.size(), clauses, {},
                   {field.data()}, [](u64) {});
        taskwait(rt);
        EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 0.0);
    }
    EXPECT_DOUBLE_EQ(count(rt, "xfer.d2h.count"), 1.0);
}

TEST(OmpDeath, UndeclaredPointerRejected)
{
    TargetRuntime rt(sim::DeviceType::DiscreteGpu, Precision::Single);
    int dummy = 0;
    EXPECT_EXIT(targetLoop(rt, loopKernel(), 16, ForClauses{}, {&dummy},
                           {}, [](u64) {}),
                testing::ExitedWithCode(1), "never declared");
}

TEST(OmpDeath, RedeclareDifferentSizeRejected)
{
    TargetRuntime rt(sim::DeviceType::DiscreteGpu, Precision::Single);
    std::vector<float> data(64);
    rt.declare(data.data(), 256, "d");
    rt.declare(data.data(), 256, "d"); // same size: fine
    EXPECT_EXIT(rt.declare(data.data(), 128, "d"),
                testing::ExitedWithCode(1), "re-declared");
}

} // namespace
} // namespace hetsim::omp
