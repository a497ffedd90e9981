/**
 * @file
 * Tests for the read-memory micro-benchmark across all six
 * programming models.
 */

#include <gtest/gtest.h>

#include "apps/readmem/readmem_core.hh"
#include "core/workload.hh"
#include "kernelir/captable.hh"

namespace hetsim
{
namespace
{

using core::ModelKind;

TEST(ReadMemCore, ReferenceMatchesDefinition)
{
    apps::readmem::Problem<float> prob(0.01);
    auto ref = prob.reference();
    ASSERT_EQ(ref.size(), prob.items());
    // Block 0 sums in[0..63].
    float expect = 0.0f;
    for (int i = 0; i < 64; ++i)
        expect += prob.in[i];
    EXPECT_FLOAT_EQ(ref[0], expect);
}

TEST(ReadMemCore, InputMatchesDefinition)
{
    // 1e-6 gives one block of 64 elements, less than the 97-long period.
    for (double scale : {0.01, 1e-6}) {
        SCOPED_TRACE(scale);
        apps::readmem::Problem<float> prob(scale);
        ASSERT_EQ(prob.in.size(), prob.elements);
        if (scale < 0.001) {
            EXPECT_EQ(prob.elements, 64u);
        }
        for (u64 i = 0; i < prob.elements; ++i)
            ASSERT_EQ(prob.in[i], float((i % 97) * 0.125)) << "i " << i;
    }
}

TEST(ReadMemCore, DescriptorShape)
{
    apps::readmem::Problem<float> prob(0.01);
    auto desc = prob.descriptor();
    EXPECT_EQ(desc.name, "read_mem");
    EXPECT_DOUBLE_EQ(desc.flopsPerItem, 64.0);
    ASSERT_EQ(desc.streams.size(), 2u);
    EXPECT_DOUBLE_EQ(desc.streams[0].bytesPerItemSp, 256.0);
}

class ReadMemModels
    : public testing::TestWithParam<std::tuple<ModelKind, Precision>>
{
};

TEST_P(ReadMemModels, ValidatesAgainstSerial)
{
    auto [model, prec] = GetParam();
    auto wl = core::makeReadMem();
    core::WorkloadConfig cfg;
    cfg.scale = 0.02;
    cfg.precision = prec;
    cfg.functional = true;
    auto result = wl->run(model, sim::radeonR9_280X(), cfg);
    EXPECT_TRUE(result.validated) << ir::displayName(model);
    EXPECT_GT(result.checksum, 0.0);
    EXPECT_GT(result.kernelSeconds, 0.0);
    EXPECT_EQ(result.uniqueKernels, 1);
}

INSTANTIATE_TEST_SUITE_P(
    All, ReadMemModels,
    testing::Combine(testing::Values(ModelKind::Serial,
                                     ModelKind::OpenMp,
                                     ModelKind::OpenCl,
                                     ModelKind::CppAmp,
                                     ModelKind::OpenAcc,
                                     ModelKind::Hc),
                     testing::Values(Precision::Single,
                                     Precision::Double)));

TEST(ReadMem, ChecksumIdenticalAcrossModels)
{
    auto wl = core::makeReadMem();
    core::WorkloadConfig cfg;
    cfg.scale = 0.02;
    double expect = 0.0;
    bool first = true;
    for (const ir::BackendCaps &row : ir::backendTable()) {
        const ModelKind model = row.kind;
        auto result = wl->run(model, sim::a10_7850kGpu(), cfg);
        if (first) {
            expect = result.checksum;
            first = false;
        } else {
            EXPECT_DOUBLE_EQ(result.checksum, expect)
                << ir::displayName(model);
        }
    }
}

TEST(ReadMem, KernelOnlyComparisonFlagged)
{
    auto wl = core::makeReadMem();
    EXPECT_TRUE(wl->kernelOnlyComparison());
}

TEST(ReadMem, ExplicitModelsPayTransfersOnDiscreteGpu)
{
    auto wl = core::makeReadMem();
    core::WorkloadConfig cfg;
    cfg.scale = 0.25;
    cfg.functional = false;
    auto dgpu = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    auto apu = wl->run(ModelKind::OpenCl, sim::a10_7850kGpu(), cfg);
    EXPECT_GT(dgpu.transferSeconds, 0.0);
    EXPECT_DOUBLE_EQ(apu.transferSeconds, 0.0);
}

} // namespace
} // namespace hetsim
