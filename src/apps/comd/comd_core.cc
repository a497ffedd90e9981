#include "comd_core.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace hetsim::apps::comd
{

namespace
{

/**
 * The state of a Problem of @p unit_cells right after its first force
 * evaluation, from a memo with one slot per precision.
 */
template <typename Real>
std::shared_ptr<const Problem<Real>>
initialState(int unit_cells)
{
    static LatestSlot<Problem<Real>> slot;
    return slot.get(
        [unit_cells](const Problem<Real> &init) {
            return init.unitCells == unit_cells;
        },
        [unit_cells] {
            auto init = std::make_shared<Problem<Real>>(unit_cells, 0,
                                                        false);
            init->computeForceLj(0, init->numAtoms);
            return init;
        });
}

} // namespace

template <typename Real>
Problem<Real>::Problem(int unit_cells, int steps_,
                       bool compute_initial_forces)
    : unitCells(unit_cells), steps(steps_)
{
    if (unitCells < 3)
        fatal("CoMD: need at least 3 unit cells per edge");
    if (compute_initial_forces) {
        // The memo's problem was built below and then ran the first
        // force evaluation, so its copy is bitwise this one's state.
        *this = *initialState<Real>(unit_cells);
        steps = steps_;
        return;
    }

    numAtoms = 4ull * unitCells * unitCells * unitCells;
    boxLen = ps.lattice * unitCells;
    cellLen = ps.cutoff * ps.cellMargin;
    cellsPerDim = std::max(3, static_cast<int>(boxLen / cellLen));
    cellLen = boxLen / cellsPerDim;

    rx.resize(numAtoms); ry.resize(numAtoms); rz.resize(numAtoms);
    vx.resize(numAtoms); vy.resize(numAtoms); vz.resize(numAtoms);
    fx.assign(numAtoms, Real(0));
    fy.assign(numAtoms, Real(0));
    fz.assign(numAtoms, Real(0));
    ePot.assign(numAtoms, Real(0));

    // fcc lattice: 4 atoms per unit cell.
    static const double basis[4][3] = {{0.25, 0.25, 0.25},
                                       {0.75, 0.75, 0.25},
                                       {0.25, 0.75, 0.75},
                                       {0.75, 0.25, 0.75}};
    u64 a = 0;
    for (int k = 0; k < unitCells; ++k)
        for (int j = 0; j < unitCells; ++j)
            for (int i = 0; i < unitCells; ++i)
                for (const auto &b : basis) {
                    rx[a] = static_cast<Real>((i + b[0]) * ps.lattice);
                    ry[a] = static_cast<Real>((j + b[1]) * ps.lattice);
                    rz[a] = static_cast<Real>((k + b[2]) * ps.lattice);
                    ++a;
                }

    // Maxwell-ish initial velocities, zero total momentum.
    Rng rng(0xC03Dull);
    double vscale = std::sqrt(ps.initTemp / ps.mass);
    double mx = 0.0, my = 0.0, mz = 0.0;
    for (u64 i = 0; i < numAtoms; ++i) {
        vx[i] = static_cast<Real>(vscale * (rng.uniform() - 0.5));
        vy[i] = static_cast<Real>(vscale * (rng.uniform() - 0.5));
        vz[i] = static_cast<Real>(vscale * (rng.uniform() - 0.5));
        mx += vx[i]; my += vy[i]; mz += vz[i];
    }
    for (u64 i = 0; i < numAtoms; ++i) {
        vx[i] -= static_cast<Real>(mx / double(numAtoms));
        vy[i] -= static_cast<Real>(my / double(numAtoms));
        vz[i] -= static_cast<Real>(mz / double(numAtoms));
    }

    buildCells();
}

template <typename Real>
int
Problem<Real>::cellIndexOf(double x, double y, double z) const
{
    auto bin = [this](double r) {
        int c = static_cast<int>(r / cellLen);
        return std::clamp(c, 0, cellsPerDim - 1);
    };
    return bin(x) +
           cellsPerDim * (bin(y) + cellsPerDim * bin(z));
}

template <typename Real>
void
Problem<Real>::buildCells()
{
    const u64 ncells =
        static_cast<u64>(cellsPerDim) * cellsPerDim * cellsPerDim;
    std::vector<u32> counts(ncells, 0);
    for (u64 i = 0; i < numAtoms; ++i)
        ++counts[cellIndexOf(rx[i], ry[i], rz[i])];
    cellStart.assign(ncells + 1, 0);
    for (u64 c = 0; c < ncells; ++c)
        cellStart[c + 1] = cellStart[c] + counts[c];
    cellAtoms.resize(numAtoms);
    std::vector<u32> fill(ncells, 0);
    for (u64 i = 0; i < numAtoms; ++i) {
        u32 c = static_cast<u32>(cellIndexOf(rx[i], ry[i], rz[i]));
        cellAtoms[cellStart[c] + fill[c]++] = static_cast<u32>(i);
    }
}

template <typename Real>
void
Problem<Real>::advanceVelocity(u64 begin, u64 end)
{
    const Real s = static_cast<Real>(0.5 * ps.dt / ps.mass);
    for (u64 i = begin; i < end; ++i) {
        vx[i] += s * fx[i];
        vy[i] += s * fy[i];
        vz[i] += s * fz[i];
    }
}

template <typename Real>
void
Problem<Real>::advancePosition(u64 begin, u64 end)
{
    const Real dt = static_cast<Real>(ps.dt);
    const Real box = static_cast<Real>(boxLen);
    for (u64 i = begin; i < end; ++i) {
        Real x = rx[i] + vx[i] * dt;
        Real y = ry[i] + vy[i] * dt;
        Real z = rz[i] + vz[i] * dt;
        // Periodic wrap.
        if (x < Real(0)) x += box; else if (x >= box) x -= box;
        if (y < Real(0)) y += box; else if (y >= box) y -= box;
        if (z < Real(0)) z += box; else if (z >= box) z -= box;
        rx[i] = x; ry[i] = y; rz[i] = z;
    }
}

template <typename Real>
NeighborWalk<Real>::NeighborWalk(const Problem<Real> &prob_, u64 begin,
                                 u64 end)
    : prob(prob_), rcut2(prob_.ps.cutoff * prob_.ps.cutoff)
{
    const u64 ncells = prob.cellStart.size() - 1;
    if (end - begin < ncells)
        return;
    constexpr double inf = std::numeric_limits<double>::infinity();
    boxes.assign(ncells, CellBox{{inf, inf, inf}, {-inf, -inf, -inf}});
    for (u64 c = 0; c < ncells; ++c) {
        CellBox &box = boxes[c];
        for (u32 s = prob.cellStart[c]; s < prob.cellStart[c + 1]; ++s) {
            const u32 j = prob.cellAtoms[s];
            const double r[3] = {prob.rx[j], prob.ry[j], prob.rz[j]};
            for (int a = 0; a < 3; ++a) {
                // A NaN coordinate opens the axis: its pairs reach the
                // callback's arithmetic as they always did.
                const bool nan = std::isnan(r[a]);
                box.lo[a] = nan ? -inf : std::min(box.lo[a], r[a]);
                box.hi[a] = nan ? inf : std::max(box.hi[a], r[a]);
            }
        }
    }
}

template <typename Real>
bool
NeighborWalk<Real>::beyondCutoff(double xi, double yi, double zi,
                                 u32 cell) const
{
    const CellBox &box = boxes[cell];
    if (box.lo[0] > box.hi[0])
        return true; // empty cell
    const double len = prob.boxLen;
    // Lower bound of |minImage(x - xj)| over xj in [lo, hi] (see the
    // class comment).
    auto gap = [len](double x, double lo, double hi) {
        const double dlo = x - hi, dhi = x - lo;
        auto holds = [dlo, dhi](double zero) {
            return dlo <= zero && zero <= dhi;
        };
        if (holds(0.0) || holds(len) || holds(-len))
            return 0.0;
        return std::min(std::fabs(minImage(dlo, len)),
                        std::fabs(minImage(dhi, len)));
    };
    const double gx = gap(xi, box.lo[0], box.hi[0]);
    const double gy = gap(yi, box.lo[1], box.hi[1]);
    const double gz = gap(zi, box.lo[2], box.hi[2]);
    return gx * gx + gy * gy + gz * gz > rcut2 * (1.0 + 1e-9);
}

template <typename Real>
void
Problem<Real>::computeForceLj(u64 begin, u64 end)
{
    const double rcut2 = ps.cutoff * ps.cutoff;
    const double s6 = std::pow(ps.sigma, 6.0);
    // LJ potential shift so e(rcut) = 0.
    const double shift =
        4.0 * ps.epsilon *
        (s6 * s6 / std::pow(rcut2, 6.0 / 2.0) / std::pow(rcut2, 3.0) -
         s6 / std::pow(rcut2, 3.0));
    const NeighborWalk<Real> walk(*this, begin, end);

    for (u64 i = begin; i < end; ++i) {
        double fxa = 0.0, fya = 0.0, fza = 0.0, ea = 0.0;
        walk.forEach(i, [&](u32, double r2, double ddx, double ddy,
                            double ddz) {
            double inv2 = 1.0 / r2;
            double inv6 = inv2 * inv2 * inv2 * s6;
            double lj = 24.0 * ps.epsilon * inv2 * (2.0 * inv6 * inv6 - inv6);
            fxa += lj * ddx;
            fya += lj * ddy;
            fza += lj * ddz;
            ea += 0.5 * (4.0 * ps.epsilon * (inv6 * inv6 - inv6) - shift);
        });
        fx[i] = static_cast<Real>(fxa);
        fy[i] = static_cast<Real>(fya);
        fz[i] = static_cast<Real>(fza);
        ePot[i] = static_cast<Real>(ea);
    }
}

template <typename Real>
double
Problem<Real>::kineticEnergy() const
{
    double ke = 0.0;
    for (u64 i = 0; i < numAtoms; ++i) {
        double v2 = double(vx[i]) * vx[i] + double(vy[i]) * vy[i] +
                    double(vz[i]) * vz[i];
        ke += 0.5 * ps.mass * v2;
    }
    return ke;
}

template <typename Real>
double
Problem<Real>::potentialEnergy() const
{
    double pe = 0.0;
    for (u64 i = 0; i < numAtoms; ++i)
        pe += static_cast<double>(ePot[i]);
    return pe;
}

template <typename Real>
bool
Problem<Real>::finite() const
{
    for (u64 i = 0; i < numAtoms; ++i) {
        if (!std::isfinite(double(rx[i])) ||
            !std::isfinite(double(vx[i])) ||
            !std::isfinite(double(ePot[i])))
            return false;
    }
    return true;
}

template <typename Real>
double
Problem<Real>::rebuildHostSeconds() const
{
    // Two O(N) passes over the atoms on one core.
    return static_cast<double>(numAtoms) * 6.0 / 1e9;
}

template <typename Real>
ir::KernelDescriptor
Problem<Real>::forceDescriptor() const
{
    // Average candidates scanned per atom.
    double atoms_per_cell =
        static_cast<double>(numAtoms) /
        (static_cast<double>(cellsPerDim) * cellsPerDim * cellsPerDim);
    double candidates = 27.0 * atoms_per_cell;

    ir::KernelDescriptor desc;
    desc.name = "compute_force_lj";
    desc.flopsPerItem = candidates * 10.0 + 60.0 * 14.0;
    desc.intOpsPerItem = candidates * 3.0 + 80.0;
    desc.loop.divergentControlFlow = true; // cutoff test
    desc.loop.variableTripCount = true;    // per-cell occupancy
    desc.loop.indirectAddressing = true;   // cellAtoms gather
    desc.loop.tileable = true;             // the paper's AMP tiling
    desc.ldsBytesPerItemIfUsed = candidates * 1.5; // staged cell atoms
    desc.barriersPerItem = 2.0 / 64.0;
    desc.preferredWorkgroup = 64;

    ir::MemStream pos;
    pos.buffer = "positions";
    pos.bytesPerItemSp = candidates * 12.0;
    pos.pattern = sim::AccessPattern::Gather;
    pos.workingSetBytesSp = numAtoms * 12;
    const std::vector<u32> *cs = &cellStart;
    const std::vector<u32> *ca = &cellAtoms;
    const int cd = cellsPerDim;
    // Trace: replay the candidate scan for consecutive atoms (atom
    // order), probing the positions of every candidate.
    pos.trace = [cs, ca, cd](sim::SetAssocCache &cache, Rng &) {
        u64 probes = 0;
        const u64 max_probes = ir::defaultTraceProbes;
        ir::TraceBatcher batch(cache);
        for (u64 cell = 0; cell < u64(cd) * cd * cd && probes < max_probes;
             ++cell) {
            int ci = static_cast<int>(cell % cd);
            int cj = static_cast<int>((cell / cd) % cd);
            int ck = static_cast<int>(cell / (u64(cd) * cd));
            u64 atoms_here = (*cs)[cell + 1] - (*cs)[cell];
            for (u64 a = 0; a < atoms_here; ++a) {
                for (int dz = -1; dz <= 1; ++dz)
                    for (int dy = -1; dy <= 1; ++dy)
                        for (int dx = -1; dx <= 1; ++dx) {
                            int nx = (ci + dx + cd) % cd;
                            int ny = (cj + dy + cd) % cd;
                            int nz = (ck + dz + cd) % cd;
                            u64 nc = nx + u64(cd) * (ny + u64(cd) * nz);
                            for (u32 s = (*cs)[nc]; s < (*cs)[nc + 1];
                                 ++s) {
                                // AoS r[atom] = {x, y, z}: one probe
                                // per coordinate element.
                                Addr base = u64((*ca)[s]) * 3 *
                                            sizeof(Real);
                                batch.push(base);
                                batch.push(base + sizeof(Real));
                                batch.push(base + 2 * sizeof(Real));
                                probes += 3;
                            }
                        }
            }
        }
    };
    desc.streams.push_back(std::move(pos));

    ir::MemStream cells;
    cells.buffer = "cell-lists";
    cells.bytesPerItemSp = candidates * 4.0 + 27.0 * 8.0;
    cells.scalesWithPrecision = false;
    cells.pattern = sim::AccessPattern::Sequential;
    cells.workingSetBytesSp = numAtoms * 4;
    // The 27 neighborhoods around consecutive atoms re-read the same
    // cell lists; replay the scan so the cache model sees the reuse.
    cells.trace = [cs, cd](sim::SetAssocCache &cache, Rng &) {
        u64 probes = 0;
        const u64 max_probes = ir::defaultTraceProbes;
        ir::TraceBatcher batch(cache);
        for (u64 cell = 0;
             cell < u64(cd) * cd * cd && probes < max_probes; ++cell) {
            int ci = static_cast<int>(cell % cd);
            int cj = static_cast<int>((cell / cd) % cd);
            int ck = static_cast<int>(cell / (u64(cd) * cd));
            u64 atoms_here = (*cs)[cell + 1] - (*cs)[cell];
            for (u64 a = 0; a < atoms_here; ++a) {
                for (int dz = -1; dz <= 1; ++dz)
                    for (int dy = -1; dy <= 1; ++dy)
                        for (int dx = -1; dx <= 1; ++dx) {
                            int nx = (ci + dx + cd) % cd;
                            int ny = (cj + dy + cd) % cd;
                            int nz = (ck + dz + cd) % cd;
                            u64 nc = nx + u64(cd) * (ny + u64(cd) * nz);
                            for (u32 s = (*cs)[nc]; s < (*cs)[nc + 1];
                                 ++s, ++probes)
                                batch.push(u64(s) * 4);
                        }
            }
        }
    };
    desc.streams.push_back(std::move(cells));

    ir::MemStream out;
    out.buffer = "forces";
    out.bytesPerItemSp = 16.0;
    out.pattern = sim::AccessPattern::Sequential;
    out.workingSetBytesSp = numAtoms * 16;
    desc.streams.push_back(std::move(out));
    return desc;
}

template <typename Real>
ir::KernelDescriptor
Problem<Real>::advanceVelocityDescriptor() const
{
    ir::KernelDescriptor desc;
    desc.name = "advance_velocity";
    desc.flopsPerItem = 9;
    desc.intOpsPerItem = 2;
    ir::MemStream io;
    io.buffer = "vel+force";
    io.bytesPerItemSp = 48; // read f, read+write v
    io.pattern = sim::AccessPattern::Sequential;
    io.workingSetBytesSp = numAtoms * 24;
    desc.streams = {io};
    return desc;
}

template <typename Real>
ir::KernelDescriptor
Problem<Real>::advancePositionDescriptor() const
{
    ir::KernelDescriptor desc;
    desc.name = "advance_position";
    desc.flopsPerItem = 12;
    desc.intOpsPerItem = 2;
    desc.loop.divergentControlFlow = true; // periodic wrap
    ir::MemStream io;
    io.buffer = "pos+vel";
    io.bytesPerItemSp = 48;
    io.pattern = sim::AccessPattern::Sequential;
    io.workingSetBytesSp = numAtoms * 24;
    desc.streams = {io};
    return desc;
}

namespace
{

/** @return whether @p a and @p b hold the same bytes. */
template <typename T>
bool
sameBits(T a, T b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/** @return whether @p a and @p b hold the same elements, bitwise. */
template <typename T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/** @return whether runReference() reads the same bits from @p a and @p b. */
template <typename Real>
bool
sameInput(const Problem<Real> &a, const Problem<Real> &b)
{
    const Params &p = a.ps, &q = b.ps;
    return a.steps == b.steps && a.unitCells == b.unitCells &&
           a.numAtoms == b.numAtoms && a.cellsPerDim == b.cellsPerDim &&
           sameBits(a.boxLen, b.boxLen) && sameBits(a.cellLen, b.cellLen) &&
           sameBits(p.sigma, q.sigma) && sameBits(p.epsilon, q.epsilon) &&
           sameBits(p.mass, q.mass) && sameBits(p.cutoff, q.cutoff) &&
           sameBits(p.cellMargin, q.cellMargin) &&
           sameBits(p.lattice, q.lattice) && sameBits(p.dt, q.dt) &&
           sameBits(p.initTemp, q.initTemp) &&
           p.rebuildInterval == q.rebuildInterval &&
           sameBytes(a.rx, b.rx) && sameBytes(a.ry, b.ry) &&
           sameBytes(a.rz, b.rz) && sameBytes(a.vx, b.vx) &&
           sameBytes(a.vy, b.vy) && sameBytes(a.vz, b.vz) &&
           sameBytes(a.fx, b.fx) && sameBytes(a.fy, b.fy) &&
           sameBytes(a.fz, b.fz) && sameBytes(a.ePot, b.ePot) &&
           sameBytes(a.cellStart, b.cellStart) &&
           sameBytes(a.cellAtoms, b.cellAtoms);
}

/** One reference run: the problem before and after its steps. */
template <typename Real>
struct Stepped
{
    Problem<Real> input;
    Problem<Real> output;
};

} // namespace

template <typename Real>
void
runReference(Problem<Real> &prob)
{
    static LatestSlot<Stepped<Real>> slot;
    bool computed = false;
    auto memo = slot.get(
        [&prob](const Stepped<Real> &m) { return sameInput(m.input, prob); },
        [&prob, &computed] {
            Problem<Real> input = prob;
            for (int step = 0; step < prob.steps; ++step) {
                prob.advanceVelocity(0, prob.numAtoms);
                prob.advancePosition(0, prob.numAtoms);
                if ((step + 1) % prob.ps.rebuildInterval == 0)
                    prob.buildCells();
                prob.computeForceLj(0, prob.numAtoms);
                prob.advanceVelocity(0, prob.numAtoms);
            }
            computed = true;
            return std::make_shared<const Stepped<Real>>(
                Stepped<Real>{std::move(input), prob});
        });
    if (!computed)
        prob = memo->output;
}

template void runReference<float>(Problem<float> &);
template void runReference<double>(Problem<double> &);

template struct Problem<float>;
template struct Problem<double>;
template class NeighborWalk<float>;
template class NeighborWalk<double>;

} // namespace hetsim::apps::comd
