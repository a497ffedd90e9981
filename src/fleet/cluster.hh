/**
 * @file
 * hetsim::fleet - the cluster scheduler.
 *
 * A Cluster tracks one availability horizon per node and places jobs
 * under one of three policies behind a single interface:
 *
 *  - least-loaded: the node with the earliest availability (lowest
 *    index on ties) - exactly the list schedule the serving layer's
 *    virtual cluster has always used, now shared;
 *  - first-fit:    the lowest-index node already idle at the job's
 *    arrival, falling back to the least-loaded busy node - or, when
 *    every alive node is idle but none is free yet, the least-loaded
 *    idle one;
 *  - locality:     each job names a *home* node holding its input
 *    data; the scheduler compares finishing at home (no transfer)
 *    against the least-loaded node (paying the fabric transfer) and
 *    takes the earlier finish, preferring home on ties.
 *
 * Placement is O(log nodes) per job on a tournament tree: one leaf
 * per node (padded to a power of two) holding the bit pattern of its
 * availability as a u64 key, and one (key, winner) pair per inner
 * node.  Availabilities are >= +0.0, so their bit patterns order like
 * the doubles; dead and idle nodes and the padding leaves hold a
 * sentinel above +inf.  Updating a leaf walks its fixed path to the
 * root, carrying the winner in registers, reading only the siblings
 * and selecting with a mask instead of a branch (a tie keeps the
 * lower index), so a million jobs over a thousand nodes schedule in
 * a few tens of milliseconds.  First-fit keeps its idle nodes in a
 * bitset.  Every decision is a pure function of the placement
 * sequence: ties break on the lowest node index, doubles compare
 * exactly, and no host state leaks in, so a schedule is
 * bit-reproducible anywhere.  Committed costs must be non-negative
 * and not NaN (commit() and placeGang() fatal otherwise): that keeps
 * availabilities non-decreasing and the key order exact.
 *
 * Gang placement (multi-node jobs) picks the k least-loaded alive
 * nodes, synchronizes them at the latest member availability, and
 * commits the same [start, start+cost] interval to each - the caller
 * prices the collective (halo/all-reduce) portion of the cost via
 * sim/network.hh.
 */

#ifndef HETSIM_FLEET_CLUSTER_HH
#define HETSIM_FLEET_CLUSTER_HH

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace hetsim::fleet
{

/** Placement policy of a cluster scheduler. */
enum class Policy : u8
{
    FirstFit,    ///< lowest-index idle node, else least-loaded
    LeastLoaded, ///< earliest-available node (lowest index on ties)
    Locality,    ///< home node vs least-loaded, earlier finish wins
};

/** @return CLI identifier, e.g. "least-loaded". */
const char *toString(Policy policy);

/** @return the policy for a CLI alias, if valid. */
std::optional<Policy> policyByName(const std::string &name);

/** Outcome of one placement. */
struct Placement
{
    u32 node = 0;
    double start = 0.0;
    /** Whether the job landed away from its home node (pays the
     *  fabric transfer). */
    bool offHome = false;
};

/** Availability tracker + placement policies (see file comment). */
class Cluster
{
  public:
    /** Sentinel: the job has no home node (no locality preference). */
    static constexpr u32 kNoHome = 0xffffffffu;

    Cluster(u32 nodes, Policy policy)
        : pol(policy), availv(nodes, 0.0), deadv(nodes, false),
          idleBits((nodes + 63) / 64, 0),
          leaves(std::bit_ceil(std::max<u32>(nodes, 1))),
          tree(2 * static_cast<size_t>(leaves)), aliveN(nodes)
    {
        for (u32 i = 0; i < leaves; ++i)
            tree[leaves + i] = Slot{i < nodes ? keyOf(0.0) : kAbsent, i};
        for (size_t pos = leaves - 1; pos >= 1; --pos) {
            const Slot &left = tree[2 * pos];
            const Slot &right = tree[2 * pos + 1];
            tree[pos] = right.key < left.key ? right : left;
        }
    }

    u32 size() const { return static_cast<u32>(availv.size()); }
    u32 aliveCount() const { return aliveN; }
    bool alive(u32 node) const { return !deadv[node]; }
    double avail(u32 node) const { return availv[node]; }

    /** @return the latest availability over all nodes (the schedule
     *  estimate's makespan). */
    double
    makespan() const
    {
        double latest = 0.0;
        for (double a : availv)
            latest = std::max(latest, a);
        return latest;
    }

    /** Remove @p node from service; placed work is not revoked. */
    void
    markDead(u32 node)
    {
        if (deadv[node])
            return;
        deadv[node] = true;
        --aliveN;
        clearIdle(node);
        setKey(node, kAbsent);
    }

    /**
     * Place one job arriving at @p arrival.  @p costOf maps a
     * candidate node to its service seconds (device kind and perf
     * differ per node); @p transferSeconds is added to the committed
     * cost when the job lands away from @p home.  @return nullopt
     * when every node is dead.
     */
    template <typename CostFn>
    std::optional<Placement>
    place(double arrival, const CostFn &costOf, u32 home = kNoHome,
          double transferSeconds = 0.0)
    {
        if (aliveN == 0)
            return std::nullopt;
        u32 node = 0;
        switch (pol) {
          case Policy::FirstFit: {
            promoteIdle(arrival);
            const u32 first = firstIdle();
            if (first < size() && availv[first] <= arrival)
                node = first;
            else
                node = leastLoaded();
            break;
          }
          case Policy::LeastLoaded:
            node = leastLoaded();
            break;
          case Policy::Locality: {
            node = leastLoaded();
            if (home != kNoHome && home < size() && !deadv[home]) {
                const double homeFinish =
                    std::max(availv[home], arrival) + costOf(home);
                const double awayFinish =
                    std::max(availv[node], arrival) + costOf(node) +
                    transferSeconds;
                if (homeFinish <= awayFinish)
                    node = home;
            }
            break;
          }
        }
        Placement placed;
        placed.node = node;
        placed.offHome = home != kNoHome && node != home;
        double cost = costOf(node);
        if (placed.offHome)
            cost += transferSeconds;
        placed.start = commit(node, arrival, cost);
        return placed;
    }

    /**
     * Place a @p k -node gang job: the k least-loaded alive nodes,
     * synchronized at the latest member availability, each committed
     * for max(costOf(member)) + @p extraCost seconds (the extra part
     * prices the collectives).  Sets @p start and @p cost; @return the
     * member nodes (sorted by index), or an empty vector when fewer
     * than k nodes are alive.
     */
    template <typename CostFn>
    std::vector<u32>
    placeGang(double arrival, u32 k, const CostFn &costOf,
              double extraCost, double &start, double &cost)
    {
        std::vector<u32> members;
        if (k == 0 || k > aliveN)
            return members;
        members.reserve(k);
        start = arrival;
        // Idle nodes (first-fit bookkeeping) are out of the tree; they
        // are the least-loaded by construction.
        for (u32 node = firstIdle(); node < size() && members.size() < k;
             node = nextIdle(node)) {
            members.push_back(node);
            start = std::max(start, availv[node]);
        }
        // Then the tree's winners in (availability, index) order; each
        // leaves the tree until its new availability is committed.
        while (members.size() < k && tree[1].key != kAbsent) {
            const u32 node = static_cast<u32>(tree[1].winner);
            setKey(node, kAbsent);
            members.push_back(node);
            start = std::max(start, availv[node]);
        }
        std::sort(members.begin(), members.end());
        cost = extraCost;
        for (u32 node : members)
            cost = std::max(cost, extraCost + costOf(node));
        checkCost("placeGang", members.front(), cost);
        for (u32 node : members) {
            availv[node] = start + cost;
            clearIdle(node);
            setKey(node, keyOf(availv[node]));
        }
        return members;
    }

    /** Commit @p node from max(availability, @p arrival) for @p cost
     *  seconds.  @return the start time. */
    double
    commit(u32 node, double arrival, double cost)
    {
        checkCost("commit", node, cost);
        const double start = std::max(availv[node], arrival);
        availv[node] = start + cost;
        clearIdle(node);
        setKey(node, deadv[node] ? kAbsent : keyOf(availv[node]));
        return start;
    }

  private:
    /** Tree entry: the smallest key of a subtree and its node index
     *  (the lowest index among equal keys). */
    struct Slot
    {
        u64 key;
        u64 winner;
    };

    /** Key of a node out of the tree (dead, idle or padding): above
     *  every non-negative double's bit pattern, +inf included, and
     *  one below overflow so the tie-break's +1 stays exact. */
    static constexpr u64 kAbsent = 0x7fffffffffffffffULL;

    /** @return the u64 key of availability @p avail >= 0 (+ 0.0 maps
     *  -0.0 onto +0.0's key, as the doubles compare equal). */
    static u64 keyOf(double avail) { return std::bit_cast<u64>(avail + 0.0); }

    static void
    checkCost(const char *what, u32 node, double cost)
    {
        if (!(cost >= 0.0))
            fatal("fleet::Cluster::%s: cost %g on node %u is negative "
                  "or NaN",
                  what, cost, node);
    }

    /** Set @p node's leaf to @p key and replay its path to the root:
     *  at each level the sibling wins on a smaller key, or on an equal
     *  one when it is the left (lower-index) subtree. */
    void
    setKey(u32 node, u64 key)
    {
        size_t pos = leaves + static_cast<size_t>(node);
        u64 wk = key;
        u64 wi = node;
        tree[pos] = Slot{wk, wi};
        while (pos > 1) {
            const Slot &sib = tree[pos ^ 1];
            const u64 take = 0 - static_cast<u64>(sib.key < wk + (pos & 1));
            wk ^= (wk ^ sib.key) & take;
            wi ^= (wi ^ sib.winner) & take;
            pos >>= 1;
            tree[pos] = Slot{wk, wi};
        }
    }

    /** @return the alive non-idle node with the earliest availability
     *  (lowest index on ties); when every alive node is idle, the
     *  earliest idle one. */
    u32
    leastLoaded() const
    {
        if (tree[1].key != kAbsent)
            return static_cast<u32>(tree[1].winner);
        u32 best = firstIdle();
        for (u32 node = nextIdle(best); node < size();
             node = nextIdle(node)) {
            if (availv[node] < availv[best])
                best = node;
        }
        return best;
    }

    /** Move the nodes whose availability passed @p arrival out of the
     *  tree into the idle set (first-fit candidates, by index). */
    void
    promoteIdle(double arrival)
    {
        while (tree[1].key != kAbsent &&
               availv[tree[1].winner] <= arrival) {
            const u32 node = static_cast<u32>(tree[1].winner);
            idleBits[node >> 6] |= 1ULL << (node & 63);
            setKey(node, kAbsent);
        }
    }

    void clearIdle(u32 node) { idleBits[node >> 6] &= ~(1ULL << (node & 63)); }

    /** @return the lowest idle node at or above @p from, or size(). */
    u32
    idleFrom(u32 from) const
    {
        size_t w = from >> 6;
        if (w >= idleBits.size())
            return size();
        u64 bits = idleBits[w] & (~0ULL << (from & 63));
        while (bits == 0) {
            if (++w == idleBits.size())
                return size();
            bits = idleBits[w];
        }
        return static_cast<u32>(w * 64 + std::countr_zero(bits));
    }

    u32 firstIdle() const { return idleFrom(0); }
    u32 nextIdle(u32 node) const { return idleFrom(node + 1); }

    Policy pol;
    std::vector<double> availv;
    std::vector<bool> deadv;
    std::vector<u64> idleBits; ///< first-fit candidates, one bit each
    u32 leaves;                ///< tree leaves: nodes padded to 2^k
    std::vector<Slot> tree;    ///< [1] is the root, [leaves + n] node n
    u32 aliveN;
};

} // namespace hetsim::fleet

#endif // HETSIM_FLEET_CLUSTER_HH
