/**
 * @file
 * Tests for the experiment harness (speedups, sweeps, boundedness)
 * and the app table it runs.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/harness.hh"
#include "core/sloc.hh"
#include "core/workload.hh"
#include "kernelir/captable.hh"

namespace hetsim::core
{
namespace
{

TEST(Harness, SpeedupAgainstOpenMpBaseline)
{
    auto wl = makeReadMem();
    Harness harness(*wl, 0.05, false);
    SpeedupPoint point = harness.speedup(sim::radeonR9_280X(),
                                         ModelKind::OpenCl,
                                         Precision::Single);
    EXPECT_GT(point.baselineSeconds, 0.0);
    EXPECT_GT(point.speedup, 1.0);
    EXPECT_NEAR(point.speedup, point.baselineSeconds / point.seconds,
                1e-12);
}

TEST(Harness, SpeedupsCoverDeviceModelsAndPrecisions)
{
    auto wl = makeReadMem();
    Harness harness(*wl, 0.05, false);
    auto points = harness.speedups(sim::a10_7850kGpu());
    // 6 device models (OCL, AMP, ACC, HC, OMP target, CUDA) x SP/DP.
    EXPECT_EQ(points.size(), 12u);
    for (const auto &p : points) {
        EXPECT_NE(p.model, ModelKind::Serial);
        EXPECT_NE(p.model, ModelKind::OpenMp);
        EXPECT_GT(p.speedup, 0.0);
    }
}

TEST(Harness, FreqSweepShapeAndNormalization)
{
    auto wl = makeReadMem();
    Harness harness(*wl, 0.05, false);
    std::vector<double> cores{200, 600, 1000};
    std::vector<double> mems{480, 1250};
    auto rows = harness.freqSweep(sim::radeonR9_280X(),
                                  ModelKind::OpenCl, Precision::Single,
                                  cores, mems);
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[0].size(), 3u);
    // Paper plot convention: slowest point = 0.5.
    EXPECT_DOUBLE_EQ(rows[0][0].normalizedPerf, 0.5);
    // Performance never decreases along either axis.
    EXPECT_GE(rows[0][2].normalizedPerf, rows[0][0].normalizedPerf);
    EXPECT_GE(rows[1][0].normalizedPerf, rows[0][0].normalizedPerf);
}

TEST(Harness, ClassifyBoundedness)
{
    EXPECT_EQ(classifyBoundedness(3.0, 1.1), "Compute");
    EXPECT_EQ(classifyBoundedness(1.1, 3.0), "Memory");
    EXPECT_EQ(classifyBoundedness(1.8, 2.0), "Balanced");
    EXPECT_EQ(classifyBoundedness(2.0, 1.8), "Balanced");
}

TEST(Harness, CharacteristicsProducesTableIRow)
{
    auto wl = makeReadMem();
    Harness harness(*wl, 0.05, false);
    auto chars = harness.characteristics(sim::radeonR9_280X(),
                                         Precision::Single);
    EXPECT_EQ(chars.application, "read-benchmark");
    EXPECT_EQ(chars.kernels, 1);
    EXPECT_GT(chars.llcMissRatio, 0.0);
    EXPECT_LE(chars.llcMissRatio, 1.0);
    EXPECT_GT(chars.ipc, 0.0);
    EXPECT_FALSE(chars.boundedness.empty());
}

TEST(Harness, KernelOnlyComparisonExcludesTransfers)
{
    // readmem compares kernel time only: APU and dGPU OpenCL runs
    // both report pure kernel time even though the dGPU staged data.
    auto wl = makeReadMem();
    Harness harness(*wl, 0.2, false);
    auto result = harness.runAt(sim::radeonR9_280X(),
                                ModelKind::OpenCl, Precision::Single,
                                {0, 0});
    EXPECT_GT(result.transferSeconds, 0.0);
    SpeedupPoint point = harness.speedup(sim::radeonR9_280X(),
                                         ModelKind::OpenCl,
                                         Precision::Single);
    EXPECT_LT(point.seconds, result.seconds); // transfers excluded
}

TEST(AppTable, RowsInPaperOrder)
{
    std::vector<std::string> aliases, kernelOnly;
    for (const AppEntry &row : appTable()) {
        aliases.emplace_back(row.alias);
        if (row.kernelOnly)
            kernelOnly.emplace_back(row.alias);
    }
    EXPECT_EQ(aliases, (std::vector<std::string>{"readmem", "lulesh",
                                                 "comd", "xsbench",
                                                 "minife"}));
    EXPECT_EQ(kernelOnly, std::vector<std::string>{"readmem"});
}

TEST(AppTable, SlocApplicationsAreTheDisplayColumn)
{
    std::vector<std::string> display;
    for (const AppEntry &row : appTable())
        display.emplace_back(row.display);
    EXPECT_EQ(display, (std::vector<std::string>{"read-benchmark",
                                                 "LULESH", "CoMD",
                                                 "XSBench", "miniFE"}));
    EXPECT_EQ(SlocManifest::applications(), display);
}

TEST(AppTable, EveryRowHasOneRunnerPerModel)
{
    for (const AppEntry &row : appTable()) {
        ASSERT_EQ(std::size(row.run), ir::backendTable().size())
            << row.alias;
        for (AppRunner runner : row.run)
            EXPECT_NE(runner, nullptr) << row.alias;
    }
}

TEST(AppTable, CoKernelsForReadmemXsbenchMinifeOnly)
{
    std::set<std::string> withCoKernel;
    for (const AppEntry &row : appTable()) {
        if (row.coKernel)
            withCoKernel.insert(row.alias);
    }
    EXPECT_EQ(withCoKernel, (std::set<std::string>{"minife", "readmem",
                                                   "xsbench"}));
}

} // namespace
} // namespace hetsim::core
