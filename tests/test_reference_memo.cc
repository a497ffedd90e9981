/**
 * @file
 * Tests for the memoized serial references of CoMD and XSBench: a
 * memo hit must leave a problem bitwise equal to running the kernels
 * by hand, a changed input must not take the hit, and concurrent cold
 * misses must agree.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "apps/comd/comd_core.hh"
#include "apps/xsbench/xsbench_core.hh"

namespace hetsim
{
namespace
{

template <typename V>
bool
sameBytes(const V &a, const V &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(a[0])) == 0);
}

// --- CoMD ----------------------------------------------------------------

using apps::comd::Problem;

/** Every array of two CoMD problems is bitwise equal. */
template <typename Real>
void
expectSameState(const Problem<Real> &a, const Problem<Real> &b)
{
    EXPECT_TRUE(sameBytes(a.rx, b.rx));
    EXPECT_TRUE(sameBytes(a.ry, b.ry));
    EXPECT_TRUE(sameBytes(a.rz, b.rz));
    EXPECT_TRUE(sameBytes(a.vx, b.vx));
    EXPECT_TRUE(sameBytes(a.vy, b.vy));
    EXPECT_TRUE(sameBytes(a.vz, b.vz));
    EXPECT_TRUE(sameBytes(a.fx, b.fx));
    EXPECT_TRUE(sameBytes(a.fy, b.fy));
    EXPECT_TRUE(sameBytes(a.fz, b.fz));
    EXPECT_TRUE(sameBytes(a.ePot, b.ePot));
    EXPECT_TRUE(sameBytes(a.cellStart, b.cellStart));
    EXPECT_TRUE(sameBytes(a.cellAtoms, b.cellAtoms));
}

/** A problem whose first force evaluation ran by hand. */
template <typename Real>
Problem<Real>
byHand(int unit_cells, int steps)
{
    Problem<Real> prob(unit_cells, steps, false);
    prob.computeForceLj(0, prob.numAtoms);
    return prob;
}

/** The reference's time steps, by hand. */
template <typename Real>
void
stepByHand(Problem<Real> &prob)
{
    for (int step = 0; step < prob.steps; ++step) {
        prob.advanceVelocity(0, prob.numAtoms);
        prob.advancePosition(0, prob.numAtoms);
        if ((step + 1) % prob.ps.rebuildInterval == 0)
            prob.buildCells();
        prob.computeForceLj(0, prob.numAtoms);
        prob.advanceVelocity(0, prob.numAtoms);
    }
}

// 12 steps cross one link-cell rebuild.
constexpr int kCells = 5, kSteps = 12;

template <typename Real>
void
expectComdHitMatchesHand()
{
    Problem<Real> hand = byHand<Real>(kCells, kSteps);
    Problem<Real> fresh(kCells, kSteps);
    expectSameState(fresh, hand); // the memoized initial state

    stepByHand(hand);
    Problem<Real> first(kCells, kSteps);
    runReference(first); // fills the memo
    Problem<Real> second(kCells, kSteps);
    runReference(second); // takes the hit
    expectSameState(first, hand);
    expectSameState(second, hand);
    EXPECT_EQ(std::bit_cast<u64>(second.checksum()),
              std::bit_cast<u64>(hand.checksum()));
}

TEST(ReferenceMemo, ComdHitIsBitwiseEqualToSteppingByHand)
{
    expectComdHitMatchesHand<float>();
    expectComdHitMatchesHand<double>();
}

TEST(ReferenceMemo, ComdChangedInputMissesTheHit)
{
    Problem<double> warm(kCells, kSteps);
    runReference(warm);

    // One extra kernel before the reference.
    Problem<double> kicked(kCells, kSteps);
    kicked.advanceVelocity(0, kicked.numAtoms);
    Problem<double> kicked_hand = byHand<double>(kCells, kSteps);
    kicked_hand.advanceVelocity(0, kicked_hand.numAtoms);

    // One force written directly, as the EAM kernels do.
    Problem<double> pushed(kCells, kSteps);
    pushed.fx[0] += 1.0;
    Problem<double> pushed_hand = byHand<double>(kCells, kSteps);
    pushed_hand.fx[0] += 1.0;

    // No first force evaluation at all.
    Problem<double> cold(kCells, kSteps, false);
    Problem<double> cold_hand(kCells, kSteps, false);

    for (auto [prob, hand] : {std::pair{&kicked, &kicked_hand},
                              std::pair{&pushed, &pushed_hand},
                              std::pair{&cold, &cold_hand}}) {
        runReference(*prob);
        stepByHand(*hand);
        expectSameState(*prob, *hand);
        EXPECT_FALSE(sameBytes(prob->vx, warm.vx));
    }

    // Another step count is another key.
    Problem<double> longer(kCells, kSteps + 1);
    runReference(longer);
    Problem<double> longer_hand = byHand<double>(kCells, kSteps + 1);
    stepByHand(longer_hand);
    expectSameState(longer, longer_hand);
}

TEST(ReferenceMemo, ComdConcurrentColdMissGivesEqualStates)
{
    // A size no other test uses, so both memos start cold.
    constexpr int cells = 4, threads = 4;
    std::vector<Problem<float>> got;
    for (int t = 0; t < threads; ++t)
        got.emplace_back(cells, kSteps, false);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            got[t] = Problem<float>(cells, kSteps);
            runReference(got[t]);
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    Problem<float> hand = byHand<float>(cells, kSteps);
    stepByHand(hand);
    for (const Problem<float> &prob : got)
        expectSameState(prob, hand);
}

// --- XSBench -------------------------------------------------------------

/** Results bytes and checksum bits are those of @p hand. */
template <typename Real>
void
expectSameResults(const apps::xsbench::Problem<Real> &prob,
                  const apps::xsbench::Problem<Real> &hand)
{
    EXPECT_TRUE(sameBytes(prob.results, hand.results));
    EXPECT_EQ(std::bit_cast<u64>(prob.checksum()),
              std::bit_cast<u64>(hand.checksum()));
    EXPECT_EQ(prob.finite(), hand.finite());
}

template <typename Real>
void
expectXsbenchHitMatchesHand()
{
    using apps::xsbench::Problem;
    constexpr int G = 320;
    constexpr u64 lookups = 5000;
    Problem<Real> hand(G, lookups);
    hand.macroXsLookup(0, lookups);

    Problem<Real> first(G, lookups);
    runReference(first); // fills the memo
    Problem<Real> second(G, lookups);
    runReference(second); // takes the hit
    expectSameResults(first, hand);
    expectSameResults(second, hand);

    // A shape of another size evicts this one from its slot; a new
    // problem then gets a fresh shape, whose union index the hit
    // must write for later lookups.
    { Problem<Real> other(G + 1, lookups); }
    Problem<Real> third(G, lookups);
    EXPECT_NE(third.shape, first.shape);
    runReference(third);
    expectSameResults(third, hand);
    third.macroXsLookup(100, 200);
    second.macroXsLookup(100, 200);
    expectSameResults(third, hand);
    expectSameResults(second, hand);
}

TEST(ReferenceMemo, XsbenchHitEqualsLookupsByHand)
{
    expectXsbenchHitMatchesHand<float>();
    expectXsbenchHitMatchesHand<double>();
}

TEST(ReferenceMemo, XsbenchConcurrentColdMissGivesEqualResults)
{
    using apps::xsbench::Problem;
    // A size no other test uses, so the shape and results memos start
    // cold, and the union index is first written under contention.
    constexpr int G = 272, threads = 4;
    constexpr u64 lookups = 4000;
    std::vector<std::unique_ptr<Problem<double>>> got(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            got[t] = std::make_unique<Problem<double>>(G, lookups);
            runReference(*got[t]);
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    Problem<double> hand(G, lookups);
    hand.macroXsLookup(0, lookups);
    for (const auto &prob : got)
        expectSameResults(*prob, hand);
}

} // namespace
} // namespace hetsim
