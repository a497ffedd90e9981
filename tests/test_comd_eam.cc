/**
 * @file
 * Tests for the EAM potential extension of CoMD (the five-kernel
 * variant behind Table I's "3 (LJ)" annotation).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/comd/comd_eam.hh"
#include "comd_full_walk.hh"

namespace hetsim::apps::comd
{
namespace
{

TEST(EamTables, ShapesAndMonotonicity)
{
    EamTables tables(2.5);
    // Pair potential and density decay with distance and vanish at
    // the cutoff.
    EXPECT_GT(tables.radial(tables.phi, 0.8),
              tables.radial(tables.phi, 1.5));
    EXPECT_NEAR(tables.radial(tables.phi, 2.49), 0.0, 1e-3);
    EXPECT_NEAR(tables.radial(tables.rho, 2.49), 0.0, 1e-3);
    // Embedding F(rho) = -sqrt(rho): negative, decreasing.
    EXPECT_LT(tables.embedding(tables.fEmbed, 1.0), 0.0);
    EXPECT_LT(tables.embedding(tables.fEmbed, 2.0),
              tables.embedding(tables.fEmbed, 1.0));
    EXPECT_NEAR(tables.embedding(tables.fEmbed, 1.0), -1.0, 0.01);
    EXPECT_NEAR(tables.embedding(tables.dfEmbed, 1.0), -0.5, 0.01);
}

TEST(EamState, LatticeForcesCancelAndEnergyIsCohesive)
{
    Problem<double> prob(6, 2, /*compute_initial_forces=*/false);
    EamState<double> eam(prob);
    eam.densityKernel(prob, 0, prob.numAtoms);
    eam.embedKernel(prob, 0, prob.numAtoms);
    eam.forceKernel(prob, 0, prob.numAtoms);

    double max_f = 0.0;
    for (u64 i = 0; i < prob.numAtoms; ++i)
        max_f = std::max(max_f, std::fabs(prob.fx[i]));
    // Perfect fcc lattice: net forces cancel by symmetry.
    EXPECT_LT(max_f, 1e-6);
    // Cohesion: embedding makes the total energy negative.
    EXPECT_LT(eam.potentialEnergy(prob), 0.0);
    // Every atom sees a positive host density.
    for (u64 i = 0; i < prob.numAtoms; ++i)
        ASSERT_GT(eam.rhoBar[i], 0.0);
}

TEST(EamState, EnergyApproximatelyConservedOverSteps)
{
    Problem<double> prob(5, 20, false);
    EamState<double> eam(prob);
    eam.densityKernel(prob, 0, prob.numAtoms);
    eam.embedKernel(prob, 0, prob.numAtoms);
    eam.forceKernel(prob, 0, prob.numAtoms);
    double e0 = prob.kineticEnergy() + eam.potentialEnergy(prob);
    runReferenceEam(prob, eam);
    double e1 = prob.kineticEnergy() + eam.potentialEnergy(prob);
    EXPECT_TRUE(prob.finite());
    EXPECT_NEAR(e1, e0, std::fabs(e0) * 0.02 + 1e-6);
}

TEST(EamState, FiveKernelStructure)
{
    // LJ offloads 3 kernels; EAM replaces the force kernel with
    // three (density, embed, force), for five distinct kernels.
    Problem<float> prob(6, 2, false);
    EamState<float> eam(prob);
    std::set<std::string> names{
        prob.advanceVelocityDescriptor().name,
        prob.advancePositionDescriptor().name,
        eam.densityDescriptor(prob).name,
        eam.embedDescriptor(prob).name,
        eam.forceDescriptor(prob).name,
    };
    EXPECT_EQ(names.size(), 5u);
}

TEST(EamState, DescriptorsCostMoreThanLj)
{
    Problem<float> prob(6, 2, false);
    EamState<float> eam(prob);
    auto lj = prob.forceDescriptor();
    auto density = eam.densityDescriptor(prob);
    EXPECT_GT(density.flopsPerItem, lj.flopsPerItem);
    EXPECT_GT(density.streams.size(), lj.streams.size());
    // The embedding pass is a cheap streaming kernel.
    EXPECT_LT(eam.embedDescriptor(prob).flopsPerItem, 20.0);
}

/** The three EAM passes over every atom through the unpruned walk. */
template <typename Real>
void
fullWalkEam(Problem<Real> &prob, EamState<Real> &eam)
{
    const EamTables &tables = eam.tables;
    for (u64 i = 0; i < prob.numAtoms; ++i) {
        double fx = 0.0, fy = 0.0, fz = 0.0;
        double e_pair = 0.0, rho_sum = 0.0;
        testing::forEachCandidate(
            prob, i, [&](u32, double r2, double dx, double dy, double dz) {
                double r = std::sqrt(r2);
                double dphi_r = tables.radial(tables.dphi, r);
                double scale = -dphi_r / r;
                fx += scale * dx;
                fy += scale * dy;
                fz += scale * dz;
                e_pair += 0.5 * tables.radial(tables.phi, r);
                rho_sum += tables.radial(tables.rho, r);
            });
        prob.fx[i] = static_cast<Real>(fx);
        prob.fy[i] = static_cast<Real>(fy);
        prob.fz[i] = static_cast<Real>(fz);
        prob.ePot[i] = static_cast<Real>(e_pair);
        eam.rhoBar[i] = static_cast<Real>(rho_sum);
    }
    eam.embedKernel(prob, 0, prob.numAtoms);
    for (u64 i = 0; i < prob.numAtoms; ++i) {
        double fx = 0.0, fy = 0.0, fz = 0.0;
        double dfi = static_cast<double>(eam.dfEmbedAtom[i]);
        testing::forEachCandidate(
            prob, i,
            [&](u32 j, double r2, double dx, double dy, double dz) {
                double r = std::sqrt(r2);
                double drho_r = tables.radial(tables.drho_dr, r);
                double dfj = static_cast<double>(eam.dfEmbedAtom[j]);
                double scale = -(dfi + dfj) * drho_r / r;
                fx += scale * dx;
                fy += scale * dy;
                fz += scale * dz;
            });
        prob.fx[i] += static_cast<Real>(fx);
        prob.fy[i] += static_cast<Real>(fy);
        prob.fz[i] += static_cast<Real>(fz);
    }
}

/** A problem and its EAM state, evaluated one way. */
template <typename Real>
struct EamRun
{
    Problem<Real> prob;
    EamState<Real> eam{prob};

    /** Run the three passes, each called the way @p calls says. */
    void
    evaluate(testing::Calls calls)
    {
        const u64 n = prob.numAtoms;
        testing::callOver(n, calls, [this](u64 b, u64 e) {
            eam.densityKernel(prob, b, e);
        });
        testing::callOver(n, calls, [this](u64 b, u64 e) {
            eam.embedKernel(prob, b, e);
        });
        testing::callOver(n, calls, [this](u64 b, u64 e) {
            eam.forceKernel(prob, b, e);
        });
    }

    bool
    operator==(const EamRun &o) const
    {
        using testing::sameBits;
        return sameBits(prob.fx, o.prob.fx) && sameBits(prob.fy, o.prob.fy) &&
               sameBits(prob.fz, o.prob.fz) &&
               sameBits(prob.ePot, o.prob.ePot) &&
               sameBits(eam.rhoBar, o.eam.rhoBar) &&
               sameBits(eam.dfEmbedAtom, o.eam.dfEmbedAtom) &&
               sameBits(eam.eEmbed, o.eam.eEmbed);
    }
};

template <typename Real>
void
expectPrunedEamEqualsFullWalk()
{
    using namespace testing;
    // Lattices of 3 and 4 link cells per edge over two cell rebuilds.
    for (int cells : {6, 8}) {
        EamRun<Real> full{lattice<Real>(cells)};
        std::vector<EamRun<Real>> ports(std::size(allCalls),
                                        EamRun<Real>{full.prob});
        fullWalkEam(full.prob, full.eam);
        for (size_t c = 0; c < ports.size(); ++c) {
            ports[c].evaluate(allCalls[c]);
            EXPECT_TRUE(ports[c] == full) << "lattice " << cells;
        }
        for (int s = 0; s < checkedSteps; ++s) {
            step(full.prob, s, [&full](Problem<Real> &p) {
                fullWalkEam(p, full.eam);
            });
            for (size_t c = 0; c < ports.size(); ++c) {
                EamRun<Real> &port = ports[c];
                step(port.prob, s, [&port, c](Problem<Real> &) {
                    port.evaluate(allCalls[c]);
                });
                ASSERT_TRUE(port == full)
                    << "lattice " << cells << " step " << s << " calls "
                    << c;
            }
        }
    }
    // Pairs within ulps of the cutoff across the boundary, at 3 cells
    // per edge: the LJ check covers 4, through the same walk.
    const double rcut = Params{}.cutoff;
    for (int axis = 0; axis < 3; ++axis)
        for (double sep : {rcut, rcut * std::sqrt(1.0 + 1e-9)}) {
            EamRun<Real> full{nearCutoff<Real>(6, axis, sep)};
            std::vector<EamRun<Real>> ports(std::size(allCalls),
                                            EamRun<Real>{full.prob});
            fullWalkEam(full.prob, full.eam);
            for (size_t c = 0; c < ports.size(); ++c) {
                ports[c].evaluate(allCalls[c]);
                EXPECT_TRUE(ports[c] == full) << "near cutoff axis " << axis
                                              << " sep " << sep << " calls "
                                              << c;
            }
        }
}

TEST(EamState, PrunedWalkEqualsFullWalk)
{
    expectPrunedEamEqualsFullWalk<float>();
    expectPrunedEamEqualsFullWalk<double>();
}

} // namespace
} // namespace hetsim::apps::comd
