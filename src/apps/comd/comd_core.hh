/**
 * @file
 * CoMD proxy application - Lennard-Jones molecular dynamics with link
 * cells and velocity Verlet integration.
 *
 * The paper runs CoMD at -x 60 -y 60 -z 60 (4 atoms per fcc unit
 * cell = 864,000 atoms) with the LJ potential, which offloads three
 * kernels: ComputeForceLJ, AdvanceVelocity and AdvancePosition
 * (Table I: "3 (LJ)").  Atoms are binned into link cells of at least
 * the cutoff radius (with a safety margin so the bins are rebuilt
 * only periodically); the force kernel scans the 27 surrounding cells
 * - the divergent, variable-trip-count gather loop whose vectorization
 * separates the programming models in the paper.
 */

#ifndef HETSIM_APPS_COMD_COMD_CORE_HH
#define HETSIM_APPS_COMD_COMD_CORE_HH

#include <vector>

#include "apps/appsupport.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "kernelir/kernel.hh"
#include "kernelir/tracegen.hh"

namespace hetsim::apps::comd
{

/** Unit cells per edge at scale 1.0 (the paper's -x/-y/-z 60). */
constexpr int baseCells = 60;
/** Time steps at scale 1.0 (CoMD default -N 100). */
constexpr int baseSteps = 100;

/** LJ / lattice parameters (reduced units). */
struct Params
{
    double sigma = 1.0;
    double epsilon = 1.0;
    double mass = 1.0;
    double cutoff = 2.5;       ///< LJ cutoff, in sigma
    double cellMargin = 1.10;  ///< link-cell safety margin
    double lattice = 1.7;      ///< fcc lattice constant
    double dt = 0.004;
    double initTemp = 0.1;
    int rebuildInterval = 10;  ///< steps between link-cell rebuilds
};

/** Problem state of one CoMD run. */
template <typename Real>
struct Problem
{
    int unitCells = 0; ///< fcc unit cells per edge
    int steps = 0;
    Params ps;

    u64 numAtoms = 0;
    double boxLen = 0.0;   ///< cubic box edge
    int cellsPerDim = 0;
    double cellLen = 0.0;

    // Atom state (SoA).
    std::vector<Real> rx, ry, rz;
    std::vector<Real> vx, vy, vz;
    std::vector<Real> fx, fy, fz;
    std::vector<Real> ePot; ///< per-atom potential energy

    // Link cells (CSR: atoms sorted by cell).
    std::vector<u32> cellStart; ///< cellsPerDim^3 + 1
    std::vector<u32> cellAtoms; ///< atom ids, cell-major

    /**
     * @param unit_cells fcc unit cells per edge.
     * @param steps      time steps.
     * @param compute_initial_forces run the first force evaluation
     *        (skip for timing-only runs; the timing model does not
     *        depend on atom state).  The state after it comes from a
     *        memo with one slot per precision, keyed by @p unit_cells.
     */
    Problem(int unit_cells, int steps,
            bool compute_initial_forces = true);

    /** (Re)build the link-cell bins from current positions. */
    void buildCells();

    // --- The three LJ kernels -------------------------------------------
    /** v += (f/m) * dt/2 over atoms [begin, end). */
    void advanceVelocity(u64 begin, u64 end);
    /** r += v * dt (with periodic wrap) over atoms [begin, end). */
    void advancePosition(u64 begin, u64 end);
    /** LJ force + potential over atoms [begin, end). */
    void computeForceLj(u64 begin, u64 end);

    /** Total kinetic energy. */
    double kineticEnergy() const;
    /** Total potential energy (sum of ePot). */
    double potentialEnergy() const;
    /** Figure of merit. */
    double
    checksum() const
    {
        return kineticEnergy() + potentialEnergy();
    }

    /** @return true when atom state is finite. */
    bool finite() const;

    // Kernel descriptors.
    ir::KernelDescriptor forceDescriptor() const;
    ir::KernelDescriptor advanceVelocityDescriptor() const;
    ir::KernelDescriptor advancePositionDescriptor() const;

    /** Seconds of host work per link-cell rebuild (timing model). */
    double rebuildHostSeconds() const;

  private:
    int cellIndexOf(double x, double y, double z) const;
};

extern template struct Problem<float>;
extern template struct Problem<double>;

/** Minimum-image component of a separation @p d in a box of @p box. */
inline double
minImage(double d, double box)
{
    if (d > 0.5 * box)
        d -= box;
    else if (d < -0.5 * box)
        d += box;
    return d;
}

/**
 * The neighbour walk of a CoMD problem: the pairs within the cutoff,
 * found through the 27 link cells around each atom.  The LJ force and
 * both EAM passes run it with a per-pair callback.
 *
 * It skips a neighbour cell whose atoms all lie beyond the cutoff.
 * For each cell it keeps the per-axis interval [lo, hi] of its atoms'
 * current coordinates.  Per axis the walk's |minImage(xi - xj)| is a
 * tent in d = xi - xj, zero at 0 and +-boxLen, so over the interval
 * its minimum is 0 when d's range holds a zero and is at an endpoint
 * otherwise.  IEEE rounding is monotone, so xi - lo and xi - hi
 * bound every computed d of the cell, and the same expressions on the
 * endpoints bound every computed |minImage| and hence r2 from below.
 * A cell is skipped only when that bound exceeds rcut2 by a relative
 * margin (against FMA contraction), so each skipped pair would have
 * failed the cutoff test: the surviving pairs, their order and their
 * arithmetic are unchanged, and so are the results, bit for bit.
 */
template <typename Real>
class NeighborWalk
{
  public:
    /**
     * Walk the neighbours of atoms [@p begin, @p end).  The cell
     * bounds cost one pass over every atom, so they are built only
     * when the range holds at least one atom per cell; a one-atom
     * call walks every candidate.
     */
    NeighborWalk(const Problem<Real> &prob, u64 begin, u64 end);

    /**
     * Call @p fn (j, r2, dx, dy, dz) for every atom j != @p i with
     * 1e-12 <= r2 <= rcut2, where (dx, dy, dz) is the minimum image of
     * r_i - r_j, in cell order and cell-list order.
     */
    template <typename Fn>
    void
    forEach(u64 i, Fn &&fn) const
    {
        const Problem<Real> &p = prob;
        const int cd = p.cellsPerDim;
        const double xi = p.rx[i], yi = p.ry[i], zi = p.rz[i];
        const int ci = static_cast<int>(xi / p.cellLen) % cd;
        const int cj = static_cast<int>(yi / p.cellLen) % cd;
        const int ck = static_cast<int>(zi / p.cellLen) % cd;

        for (int dz = -1; dz <= 1; ++dz)
            for (int dy = -1; dy <= 1; ++dy)
                for (int dx = -1; dx <= 1; ++dx) {
                    int nx = (ci + dx + cd) % cd;
                    int ny = (cj + dy + cd) % cd;
                    int nz = (ck + dz + cd) % cd;
                    u32 cell = static_cast<u32>(nx + cd * (ny + cd * nz));
                    if (!boxes.empty() && beyondCutoff(xi, yi, zi, cell))
                        continue;
                    for (u32 s = p.cellStart[cell];
                         s < p.cellStart[cell + 1]; ++s) {
                        u32 j = p.cellAtoms[s];
                        if (j == i)
                            continue;
                        double ddx = minImage(xi - p.rx[j], p.boxLen);
                        double ddy = minImage(yi - p.ry[j], p.boxLen);
                        double ddz = minImage(zi - p.rz[j], p.boxLen);
                        double r2 = ddx * ddx + ddy * ddy + ddz * ddz;
                        if (r2 > rcut2 || r2 < 1e-12)
                            continue;
                        fn(j, r2, ddx, ddy, ddz);
                    }
                }
    }

  private:
    /** Per-axis bounds of one cell's atom coordinates. */
    struct CellBox
    {
        double lo[3], hi[3];
    };

    /** @return whether every atom of @p cell is beyond the cutoff. */
    bool beyondCutoff(double xi, double yi, double zi, u32 cell) const;

    const Problem<Real> &prob;
    double rcut2;
    std::vector<CellBox> boxes; ///< per cell; empty: no pruning
};

extern template class NeighborWalk<float>;
extern template class NeighborWalk<double>;

/** Unit cells per edge for a scale factor. */
inline int
scaledCells(double scale)
{
    return std::max(6, static_cast<int>(baseCells * scale + 0.5));
}

/** Steps for a scale factor. */
inline int
scaledSteps(double scale)
{
    return std::max(2, static_cast<int>(baseSteps * scale + 0.5));
}

/**
 * Serial reference: run the whole simulation in place.  The final
 * state comes from a memo with one slot per precision, keyed by the
 * steps and the input state: it is taken only when every field and
 * array of @p prob is bitwise equal to the memoized input.
 */
template <typename Real>
void runReference(Problem<Real> &prob);

extern template void runReference<float>(Problem<float> &);
extern template void runReference<double>(Problem<double> &);

/** Compare atom state of two problems. */
template <typename Real>
bool
sameState(const Problem<Real> &a, const Problem<Real> &b)
{
    return almostEqual<Real>(a.rx, b.rx) && almostEqual<Real>(a.ry, b.ry)
        && almostEqual<Real>(a.rz, b.rz) && almostEqual<Real>(a.vx, b.vx)
        && almostEqual<Real>(a.ePot, b.ePot);
}

} // namespace hetsim::apps::comd

#endif // HETSIM_APPS_COMD_COMD_CORE_HH
