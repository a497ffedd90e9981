#include "comd_eam.hh"

#include <cmath>

namespace hetsim::apps::comd
{

EamTables::EamTables(double cutoff_, int points) : cutoff(cutoff_)
{
    dr = cutoff / points;
    drho = 4.0 / points; // rhobar rarely exceeds ~4 on fcc at rho*~1

    phi.resize(points + 1);
    dphi.resize(points + 1);
    rho.resize(points + 1);
    drho_dr.resize(points + 1);
    fEmbed.resize(points + 1);
    dfEmbed.resize(points + 1);

    // Johnson-style analytic forms, smoothly cut at rcut.
    auto smooth = [&](double r) {
        double t = r / cutoff;
        return t < 1.0 ? (1.0 - t * t) * (1.0 - t * t) : 0.0;
    };
    for (int k = 0; k <= points; ++k) {
        double r = std::max(k * dr, 0.3);
        phi[static_cast<size_t>(k)] =
            0.5 * std::exp(-2.0 * (r - 1.0)) * smooth(r);
        rho[static_cast<size_t>(k)] =
            std::exp(-1.5 * (r - 1.0)) * smooth(r);
    }
    for (int k = 0; k <= points; ++k) {
        size_t i = static_cast<size_t>(k);
        size_t hi = std::min<size_t>(i + 1, points);
        size_t lo = i > 0 ? i - 1 : 0;
        double span = (hi - lo) * dr;
        dphi[i] = (phi[hi] - phi[lo]) / span;
        drho_dr[i] = (rho[hi] - rho[lo]) / span;
    }
    for (int k = 0; k <= points; ++k) {
        double rb = k * drho;
        // F(rho) = -sqrt(rho): the canonical embedding form.
        fEmbed[static_cast<size_t>(k)] = -std::sqrt(rb);
        dfEmbed[static_cast<size_t>(k)] =
            rb > 1e-9 ? -0.5 / std::sqrt(rb) : 0.0;
    }
}

template <typename Real>
void
EamState<Real>::densityKernel(Problem<Real> &prob, u64 begin, u64 end)
{
    const NeighborWalk<Real> walk(prob, begin, end);
    for (u64 i = begin; i < end; ++i) {
        double fx = 0.0, fy = 0.0, fz = 0.0;
        double e_pair = 0.0, rho_sum = 0.0;
        walk.forEach(i, [&](u32, double r2, double dx, double dy,
                            double dz) {
            double r = std::sqrt(r2);
            double scale = -tables.radial(tables.dphi, r) / r;
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
        rhoBar[i] = static_cast<Real>(rho_sum);
    }
}

template <typename Real>
void
EamState<Real>::embedKernel(Problem<Real> &prob, u64 begin, u64 end)
{
    (void)prob;
    for (u64 i = begin; i < end; ++i) {
        double rb = static_cast<double>(rhoBar[i]);
        eEmbed[i] = static_cast<Real>(
            tables.embedding(tables.fEmbed, rb));
        dfEmbedAtom[i] = static_cast<Real>(
            tables.embedding(tables.dfEmbed, rb));
    }
}

template <typename Real>
void
EamState<Real>::forceKernel(Problem<Real> &prob, u64 begin, u64 end)
{
    const NeighborWalk<Real> walk(prob, begin, end);
    for (u64 i = begin; i < end; ++i) {
        double fx = 0.0, fy = 0.0, fz = 0.0;
        double dfi = static_cast<double>(dfEmbedAtom[i]);
        walk.forEach(
            i, [&](u32 j, double r2, double dx, double dy, double dz) {
                double r = std::sqrt(r2);
                double drho_r = tables.radial(tables.drho_dr, r);
                double dfj = static_cast<double>(dfEmbedAtom[j]);
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

template <typename Real>
double
EamState<Real>::potentialEnergy(const Problem<Real> &prob) const
{
    double total = 0.0;
    for (u64 i = 0; i < prob.numAtoms; ++i) {
        total += static_cast<double>(prob.ePot[i]) +
                 static_cast<double>(eEmbed[i]);
    }
    return total;
}

template <typename Real>
ir::KernelDescriptor
EamState<Real>::densityDescriptor(const Problem<Real> &prob) const
{
    // Same neighborhood scan as the LJ kernel plus two radial table
    // lookups per candidate (small, L2-resident tables).
    ir::KernelDescriptor desc = prob.forceDescriptor();
    desc.name = "eam_density";
    double atoms_per_cell =
        static_cast<double>(prob.numAtoms) /
        (static_cast<double>(prob.cellsPerDim) * prob.cellsPerDim *
         prob.cellsPerDim);
    double candidates = 27.0 * atoms_per_cell;
    desc.flopsPerItem += candidates * 4.0; // interpolation math
    ir::MemStream table_lookups;
    table_lookups.buffer = "eam-tables";
    table_lookups.bytesPerItemSp = candidates * 16.0;
    table_lookups.pattern = sim::AccessPattern::Gather;
    table_lookups.workingSetBytesSp = tables.phi.size() * 4 * 4;
    desc.streams.push_back(std::move(table_lookups));
    // Output: forces + ePot + rhoBar.
    desc.streams.back().scalesWithPrecision = true;
    return desc;
}

template <typename Real>
ir::KernelDescriptor
EamState<Real>::embedDescriptor(const Problem<Real> &prob) const
{
    ir::KernelDescriptor desc;
    desc.name = "eam_embed";
    desc.flopsPerItem = 8;
    desc.intOpsPerItem = 6;
    ir::MemStream io;
    io.buffer = "embed-io";
    io.bytesPerItemSp = 12; // rhoBar in; F, F' out
    io.pattern = sim::AccessPattern::Sequential;
    io.workingSetBytesSp = prob.numAtoms * 12;
    desc.streams.push_back(io);
    ir::MemStream table;
    table.buffer = "embed-table";
    table.bytesPerItemSp = 8;
    table.pattern = sim::AccessPattern::Gather;
    table.workingSetBytesSp = tables.fEmbed.size() * 4 * 2;
    desc.streams.push_back(table);
    return desc;
}

template <typename Real>
ir::KernelDescriptor
EamState<Real>::forceDescriptor(const Problem<Real> &prob) const
{
    ir::KernelDescriptor desc = prob.forceDescriptor();
    desc.name = "eam_force";
    // The second pass also gathers the neighbors' F' values.
    double atoms_per_cell =
        static_cast<double>(prob.numAtoms) /
        (static_cast<double>(prob.cellsPerDim) * prob.cellsPerDim *
         prob.cellsPerDim);
    double candidates = 27.0 * atoms_per_cell;
    ir::MemStream dfj;
    dfj.buffer = "df-embed-gather";
    dfj.bytesPerItemSp = candidates * 4.0;
    dfj.pattern = sim::AccessPattern::Gather;
    dfj.workingSetBytesSp = prob.numAtoms * 4;
    desc.streams.push_back(std::move(dfj));
    return desc;
}

template <typename Real>
void
runReferenceEam(Problem<Real> &prob, EamState<Real> &eam)
{
    // Initial forces under EAM.
    eam.densityKernel(prob, 0, prob.numAtoms);
    eam.embedKernel(prob, 0, prob.numAtoms);
    eam.forceKernel(prob, 0, prob.numAtoms);
    for (int step = 0; step < prob.steps; ++step) {
        prob.advanceVelocity(0, prob.numAtoms);
        prob.advancePosition(0, prob.numAtoms);
        if ((step + 1) % prob.ps.rebuildInterval == 0)
            prob.buildCells();
        eam.densityKernel(prob, 0, prob.numAtoms);
        eam.embedKernel(prob, 0, prob.numAtoms);
        eam.forceKernel(prob, 0, prob.numAtoms);
        prob.advanceVelocity(0, prob.numAtoms);
    }
}

template struct EamState<float>;
template struct EamState<double>;
template void runReferenceEam<float>(Problem<float> &,
                                     EamState<float> &);
template void runReferenceEam<double>(Problem<double> &,
                                      EamState<double> &);

} // namespace hetsim::apps::comd
