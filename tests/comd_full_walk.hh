/**
 * @file
 * Test helpers for the CoMD neighbour walk: the unpruned walk it must
 * match, the ways a port calls a kernel, and problems whose pairs sit
 * within a few ulps of the cutoff across the periodic boundary.
 */

#ifndef HETSIM_TESTS_COMD_FULL_WALK_HH
#define HETSIM_TESTS_COMD_FULL_WALK_HH

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "apps/comd/comd_core.hh"

namespace hetsim::apps::comd::testing
{

/**
 * Call @p fn (j, r2, dx, dy, dz) for every candidate pair of atom @p i
 * through its 27 link cells, testing every atom of every cell: the walk
 * as it was before the cell bounds.
 */
template <typename Real, typename Fn>
void
forEachCandidate(const Problem<Real> &prob, u64 i, Fn &&fn)
{
    const int cd = prob.cellsPerDim;
    const double xi = prob.rx[i], yi = prob.ry[i], zi = prob.rz[i];
    const int ci = static_cast<int>(xi / prob.cellLen) % cd;
    const int cj = static_cast<int>(yi / prob.cellLen) % cd;
    const int ck = static_cast<int>(zi / prob.cellLen) % cd;
    const double rcut2 = prob.ps.cutoff * prob.ps.cutoff;
    const double box = prob.boxLen;

    for (int dz = -1; dz <= 1; ++dz)
        for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx) {
                int nx = (ci + dx + cd) % cd;
                int ny = (cj + dy + cd) % cd;
                int nz = (ck + dz + cd) % cd;
                u32 cell = static_cast<u32>(nx + cd * (ny + cd * nz));
                for (u32 s = prob.cellStart[cell];
                     s < prob.cellStart[cell + 1]; ++s) {
                    u32 j = prob.cellAtoms[s];
                    if (j == i)
                        continue;
                    double ddx = xi - prob.rx[j];
                    double ddy = yi - prob.ry[j];
                    double ddz = zi - prob.rz[j];
                    if (ddx > 0.5 * box) ddx -= box;
                    else if (ddx < -0.5 * box) ddx += box;
                    if (ddy > 0.5 * box) ddy -= box;
                    else if (ddy < -0.5 * box) ddy += box;
                    if (ddz > 0.5 * box) ddz -= box;
                    else if (ddz < -0.5 * box) ddz += box;
                    double r2 = ddx * ddx + ddy * ddy + ddz * ddz;
                    if (r2 > rcut2 || r2 < 1e-12)
                        continue;
                    fn(j, r2, ddx, ddy, ddz);
                }
            }
}

/** How a port covers atoms [0, n) with a kernel's range calls. */
enum class Calls
{
    Range,   ///< one call over every atom
    Chunks,  ///< calls of 100 atoms
    OneAtom, ///< one call per atom, as the acc, amp and omptarget ports
};

constexpr Calls allCalls[] = {Calls::Range, Calls::Chunks, Calls::OneAtom};

/** Run @p kernel (begin, end) over [0, @p n) the way @p calls says. */
template <typename Kernel>
void
callOver(u64 n, Calls calls, Kernel &&kernel)
{
    const u64 step =
        calls == Calls::Range ? n : calls == Calls::Chunks ? 100 : 1;
    for (u64 b = 0; b < n; b += step)
        kernel(b, std::min(n, b + step));
}

/** @return whether @p a and @p b hold the same elements, bitwise. */
template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/** Steps of a stepped check: with rebuildInterval = 4 the cells are
 *  rebuilt twice. */
constexpr int checkedSteps = 9;

/** A lattice of @p unit_cells that rebuilds its cells every 4 steps. */
template <typename Real>
Problem<Real>
lattice(int unit_cells)
{
    Problem<Real> prob(unit_cells, 0, false);
    prob.ps.rebuildInterval = 4;
    return prob;
}

/** One velocity-Verlet step with @p force as the force evaluation. */
template <typename Real, typename Force>
void
step(Problem<Real> &prob, int index, Force &&force)
{
    prob.advanceVelocity(0, prob.numAtoms);
    prob.advancePosition(0, prob.numAtoms);
    if ((index + 1) % prob.ps.rebuildInterval == 0)
        prob.buildCells();
    force(prob);
    prob.advanceVelocity(0, prob.numAtoms);
}

/** Pairs a nearCutoff() problem places across the boundary. */
constexpr int nearCutoffPairs = 7;

/**
 * A problem of @p unit_cells whose atoms the test placed: seven pairs
 * along @p axis, each across the periodic boundary and alone in its
 * two link cells, at minimum-image separations of -3 to +3 ulps (of the
 * far atom's coordinate) around @p sep; the other atoms sit on a grid
 * in the link cells between the pairs' two layers.  Atoms 2k and
 * 2k + 1 form pair k.
 */
template <typename Real>
Problem<Real>
nearCutoff(int unit_cells, int axis, double sep)
{
    Problem<Real> prob(unit_cells, 0, false);
    const double len = prob.cellLen, box = prob.boxLen;
    u64 atom = 0;
    auto place = [&](Real u, double v, double w) {
        Real *axes[3] = {&prob.rx[atom], &prob.ry[atom], &prob.rz[atom]};
        *axes[axis] = u;
        *axes[(axis + 1) % 3] = static_cast<Real>(v);
        *axes[(axis + 2) % 3] = static_cast<Real>(w);
        ++atom;
    };
    const Real near = static_cast<Real>(0.05);
    for (int k = 0; k < nearCutoffPairs; ++k) {
        const double v = (k % 3 + 0.5) * len, w = (k / 3 + 0.5) * len;
        Real far = static_cast<Real>(near + box - sep);
        for (int ulp = k - nearCutoffPairs / 2; ulp < 0; ++ulp)
            far = std::nextafter(far, Real(0));
        for (int ulp = k - nearCutoffPairs / 2; ulp > 0; --ulp)
            far = std::nextafter(far, Real(2 * box));
        place(near, v, w);
        place(far, v, w);
    }
    // An n x n x m grid filling the layers of cells 1 .. cd - 2.
    const u64 filler = prob.numAtoms - atom;
    const double depth = box - 2 * len;
    auto layers = [depth, box](u64 n) {
        return std::max<u64>(1, static_cast<u64>(n * depth / box));
    };
    u64 n = 1;
    while (n * n * layers(n) < filler)
        ++n;
    const u64 m = layers(n);
    for (u64 f = 0; f < filler; ++f) {
        const double u = len + (f / (n * n) + 0.5) * depth / m;
        const double v = (f % n + 0.5) * box / n;
        const double w = (f / n % n + 0.5) * box / n;
        place(static_cast<Real>(u), v, w);
    }
    prob.buildCells();
    return prob;
}

} // namespace hetsim::apps::comd::testing

#endif // HETSIM_TESTS_COMD_FULL_WALK_HH
