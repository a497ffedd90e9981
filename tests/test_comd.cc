/**
 * @file
 * Tests for the CoMD proxy application.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "apps/comd/comd_core.hh"
#include "comd_full_walk.hh"
#include "core/workload.hh"

namespace hetsim
{
namespace
{

using core::ModelKind;

TEST(ComdCore, LatticeAndCells)
{
    apps::comd::Problem<double> prob(6, 2);
    EXPECT_EQ(prob.numAtoms, 4u * 6 * 6 * 6);
    EXPECT_GE(prob.cellLen, prob.ps.cutoff); // cells cover the cutoff
    // Every atom binned exactly once.
    EXPECT_EQ(prob.cellAtoms.size(), prob.numAtoms);
    EXPECT_EQ(prob.cellStart.back(), prob.numAtoms);
}

TEST(ComdCore, InitialMomentumIsZero)
{
    apps::comd::Problem<double> prob(6, 2);
    double px = 0, py = 0, pz = 0;
    for (u64 i = 0; i < prob.numAtoms; ++i) {
        px += prob.vx[i];
        py += prob.vy[i];
        pz += prob.vz[i];
    }
    EXPECT_NEAR(px, 0.0, 1e-9);
    EXPECT_NEAR(py, 0.0, 1e-9);
    EXPECT_NEAR(pz, 0.0, 1e-9);
}

TEST(ComdCore, LatticeForcesNearlyCancel)
{
    // On a perfect fcc lattice the LJ forces on interior atoms cancel
    // by symmetry.
    apps::comd::Problem<double> prob(6, 2);
    double max_f = 0.0;
    for (u64 i = 0; i < prob.numAtoms; ++i) {
        max_f = std::max(max_f, std::fabs(double(prob.fx[i])));
    }
    EXPECT_LT(max_f, 1e-6);
}

TEST(ComdCore, EnergyApproximatelyConserved)
{
    apps::comd::Problem<double> prob(6, 20);
    double e0 = prob.checksum();
    runReference(prob);
    double e1 = prob.checksum();
    EXPECT_TRUE(prob.finite());
    // Velocity Verlet with a small dt: drift well under 1%.
    EXPECT_NEAR(e1, e0, std::fabs(e0) * 0.01 + 1e-6);
}

TEST(ComdCore, ForceDescriptorTraits)
{
    apps::comd::Problem<float> prob(6, 2);
    auto desc = prob.forceDescriptor();
    EXPECT_TRUE(desc.loop.divergentControlFlow);
    EXPECT_TRUE(desc.loop.variableTripCount);
    EXPECT_TRUE(desc.loop.indirectAddressing);
    EXPECT_TRUE(desc.loop.tileable);
    EXPECT_GT(desc.flopsPerItem, 1000.0);
}

/** The LJ force of every atom through the unpruned walk. */
template <typename Real>
void
fullWalkForceLj(apps::comd::Problem<Real> &prob)
{
    const apps::comd::Params &ps = prob.ps;
    const double rcut2 = ps.cutoff * ps.cutoff;
    const double s6 = std::pow(ps.sigma, 6.0);
    const double shift =
        4.0 * ps.epsilon *
        (s6 * s6 / std::pow(rcut2, 6.0 / 2.0) / std::pow(rcut2, 3.0) -
         s6 / std::pow(rcut2, 3.0));
    for (u64 i = 0; i < prob.numAtoms; ++i) {
        double fxa = 0.0, fya = 0.0, fza = 0.0, ea = 0.0;
        apps::comd::testing::forEachCandidate(
            prob, i,
            [&](u32, double r2, double ddx, double ddy, double ddz) {
                double inv2 = 1.0 / r2;
                double inv6 = inv2 * inv2 * inv2 * s6;
                double lj =
                    24.0 * ps.epsilon * inv2 * (2.0 * inv6 * inv6 - inv6);
                fxa += lj * ddx;
                fya += lj * ddy;
                fza += lj * ddz;
                ea += 0.5 * (4.0 * ps.epsilon * (inv6 * inv6 - inv6) -
                             shift);
            });
        prob.fx[i] = static_cast<Real>(fxa);
        prob.fy[i] = static_cast<Real>(fya);
        prob.fz[i] = static_cast<Real>(fza);
        prob.ePot[i] = static_cast<Real>(ea);
    }
}

/** @return whether two problems hold bitwise the same forces and ePot. */
template <typename Real>
bool
sameForces(const apps::comd::Problem<Real> &a,
           const apps::comd::Problem<Real> &b)
{
    using apps::comd::testing::sameBits;
    return sameBits(a.fx, b.fx) && sameBits(a.fy, b.fy) &&
           sameBits(a.fz, b.fz) && sameBits(a.ePot, b.ePot);
}

/** computeForceLj() over every atom, called the way @p calls says. */
template <typename Real>
void
forceLj(apps::comd::Problem<Real> &prob, apps::comd::testing::Calls calls)
{
    apps::comd::testing::callOver(
        prob.numAtoms, calls,
        [&prob](u64 b, u64 e) { prob.computeForceLj(b, e); });
}

template <typename Real>
void
expectPrunedWalkEqualsFullWalk()
{
    using namespace apps::comd::testing;
    using Problem = apps::comd::Problem<Real>;
    // 6 unit cells give 3 link cells per edge, 8 give 4.
    for (int cells : {6, 8}) {
        Problem full = lattice<Real>(cells);
        std::vector<Problem> ports(std::size(allCalls), full);
        fullWalkForceLj(full);
        for (size_t c = 0; c < ports.size(); ++c) {
            forceLj(ports[c], allCalls[c]);
            EXPECT_TRUE(sameForces(full, ports[c])) << "lattice " << cells;
        }
        for (int s = 0; s < checkedSteps; ++s) {
            step(full, s, fullWalkForceLj<Real>);
            for (size_t c = 0; c < ports.size(); ++c) {
                step(ports[c], s,
                     [c](Problem &p) { forceLj(p, allCalls[c]); });
                ASSERT_TRUE(sameForces(full, ports[c]))
                    << "lattice " << cells << " step " << s << " calls "
                    << c;
                ASSERT_TRUE(sameBits(full.rx, ports[c].rx));
            }
        }
    }

    // Pairs within a few ulps of the cutoff, and of the cutoff plus the
    // walk's relative margin, across the periodic boundary on each axis.
    const double rcut = apps::comd::Params{}.cutoff;
    for (int cells : {6, 8})
        for (int axis = 0; axis < 3; ++axis)
            for (double sep : {rcut, rcut * std::sqrt(1.0 + 1e-9)}) {
                Problem full = nearCutoff<Real>(cells, axis, sep);
                const Real *r[3] = {full.rx.data(), full.ry.data(),
                                    full.rz.data()};
                int inside = 0;
                for (int k = 0; k < nearCutoffPairs; ++k) {
                    const double d = apps::comd::minImage(
                        double(r[axis][2 * k]) - r[axis][2 * k + 1],
                        full.boxLen);
                    inside += d * d <= sep * sep;
                }
                ASSERT_GT(inside, 0);
                ASSERT_LT(inside, nearCutoffPairs);
                std::vector<Problem> ports(std::size(allCalls), full);
                fullWalkForceLj(full);
                for (size_t c = 0; c < ports.size(); ++c) {
                    forceLj(ports[c], allCalls[c]);
                    EXPECT_TRUE(sameForces(full, ports[c]))
                        << "near cutoff " << cells << " axis " << axis
                        << " sep " << sep << " calls " << c;
                }
            }
}

TEST(ComdCore, PrunedWalkEqualsFullWalk)
{
    expectPrunedWalkEqualsFullWalk<float>();
    expectPrunedWalkEqualsFullWalk<double>();
}

class ComdModels
    : public testing::TestWithParam<std::tuple<ModelKind, Precision>>
{
};

TEST_P(ComdModels, ValidatesAgainstSerial)
{
    auto [model, prec] = GetParam();
    auto wl = core::makeComd();
    core::WorkloadConfig cfg;
    cfg.scale = 0.1; // 6^3 unit cells, 10 steps
    cfg.precision = prec;
    cfg.functional = true;
    auto result = wl->run(model, sim::radeonR9_280X(), cfg);
    EXPECT_TRUE(result.validated) << ir::displayName(model);
    EXPECT_EQ(result.uniqueKernels, 3); // Table I: "3 (LJ)"
}

INSTANTIATE_TEST_SUITE_P(
    All, ComdModels,
    testing::Combine(testing::Values(ModelKind::Serial,
                                     ModelKind::OpenMp,
                                     ModelKind::OpenCl,
                                     ModelKind::CppAmp,
                                     ModelKind::OpenAcc,
                                     ModelKind::Hc),
                     testing::Values(Precision::Single,
                                     Precision::Double)));

TEST(Comd, RebuildCostsTransfersOnDiscreteGpu)
{
    auto wl = core::makeComd();
    core::WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.functional = false;
    auto dgpu = wl->run(ModelKind::OpenCl, sim::radeonR9_280X(), cfg);
    auto apu = wl->run(ModelKind::OpenCl, sim::a10_7850kGpu(), cfg);
    EXPECT_GT(dgpu.transferSeconds, 0.0);
    EXPECT_DOUBLE_EQ(apu.transferSeconds, 0.0);
    EXPECT_GT(dgpu.hostSeconds, 0.0); // rebuild runs on the host
}

TEST(Comd, DoublePrecisionMuchSlowerOnApu)
{
    // 1/16 DP rate on the APU GPU (paper Sec. VI-A).
    auto wl = core::makeComd();
    core::WorkloadConfig cfg;
    cfg.scale = 0.1;
    cfg.functional = false;
    auto sp = wl->run(ModelKind::OpenCl, sim::a10_7850kGpu(), cfg);
    cfg.precision = Precision::Double;
    auto dp = wl->run(ModelKind::OpenCl, sim::a10_7850kGpu(), cfg);
    EXPECT_GT(dp.kernelSeconds, sp.kernelSeconds * 4);
}

} // namespace
} // namespace hetsim
