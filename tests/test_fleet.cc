/**
 * @file
 * Tests of the fleet subsystem: topology JSONL parsing, the network
 * cost model, cluster placement policies, the two-phase deterministic
 * timeline (serial vs sharded bitwise equality), and per-node fault
 * injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/flatjson.hh"
#include "common/rng.hh"
#include "cpu/threadpool.hh"
#include "fault/fault.hh"
#include "fleet/cluster.hh"
#include "fleet/fleet.hh"
#include "fleet/topology.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "sim/network.hh"

namespace hetsim
{
namespace
{

// --- flat JSON (the shared serve/fleet parser) -------------------------

TEST(FlatJson, ParsesScalarsStrictly)
{
    std::string error;
    auto obj = json::parseFlatObject(
        R"({"a": "x", "b": 2.5, "c": true, "d": -3})", error);
    ASSERT_TRUE(obj.has_value()) << error;
    EXPECT_EQ(obj->at("a").kind, json::Value::Kind::String);
    EXPECT_EQ(obj->at("a").text, "x");
    EXPECT_EQ(obj->at("b").kind, json::Value::Kind::Number);
    EXPECT_DOUBLE_EQ(obj->at("b").number, 2.5);
    EXPECT_TRUE(obj->at("c").boolean);
    EXPECT_EQ(obj->at("d").kind, json::Value::Kind::Number);
    EXPECT_EQ(obj->at("d").number, -3.0);
}

TEST(FlatJson, RejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(json::parseFlatObject("[1, 2]", error));
    EXPECT_FALSE(json::parseFlatObject(R"({"a": 1, "a": 2})", error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
    EXPECT_FALSE(json::parseFlatObject(R"({"a": 1} junk)", error));
    EXPECT_FALSE(json::parseFlatObject(R"({"a": {"n": 1}})", error));
    EXPECT_FALSE(json::parseFlatObject(R"({"a": null})", error));
}

TEST(FlatJson, StrictIntegers)
{
    EXPECT_EQ(json::parseU64("42"), 42u);
    EXPECT_FALSE(json::parseU64("-1"));
    EXPECT_FALSE(json::parseU64("3x"));
    EXPECT_FALSE(json::parseU64(""));
}

// --- topology ----------------------------------------------------------

TEST(FleetTopology, ParsesGroupsAndFabric)
{
    std::istringstream is(
        "{\"device\": \"dgpu\", \"count\": 3, \"name\": \"rack0\"}\n"
        "\n"
        "{\"device\": \"apu\", \"count\": 2, \"perf\": 1.5}\n"
        "{\"net_gbs\": 25, \"net_latency_us\": 2, "
        "\"net_efficiency\": 0.95}\n");
    std::string error;
    auto topo = fleet::parseTopology(is, error);
    ASSERT_TRUE(topo.has_value()) << error;
    ASSERT_EQ(topo->size(), 5u);
    EXPECT_EQ(topo->nodes[0].name, "rack0/0");
    EXPECT_EQ(topo->nodes[2].name, "rack0/2");
    EXPECT_EQ(topo->nodes[3].device, "apu");
    EXPECT_DOUBLE_EQ(topo->nodes[3].perf, 1.5);
    EXPECT_DOUBLE_EQ(topo->net.rawGBs, 25.0);
    EXPECT_DOUBLE_EQ(topo->net.latencyUs, 2.0);
    EXPECT_EQ(topo->deviceKinds(),
              (std::vector<std::string>{"dgpu", "apu"}));
}

TEST(FleetTopology, ErrorsCarryLineNumbers)
{
    struct Case
    {
        const char *text;
        const char *needle;
    };
    const Case cases[] = {
        {"{\"device\": \"warp9\"}\n", "line 1: unknown device"},
        {"{\"device\": \"dgpu\"}\n{\"device\": \"cpu\", "
         "\"count\": 0}\n",
         "line 2: \"count\" wants a positive integer"},
        {"{\"device\": \"dgpu\", \"bogus\": 1}\n",
         "line 1: unknown key \"bogus\""},
        {"{\"device\": \"dgpu\"}\n{\"net_gbs\": 10}\n"
         "{\"net_gbs\": 12}\n",
         "line 3: second fabric line"},
        {"{\"device\": \"dgpu\", \"perf\": -1}\n",
         "\"perf\" wants a positive number"},
        {"{\"device\": \"dgpu\"", "line 1:"},
        {"{\"net_efficiency\": 2}\n{\"device\": \"dgpu\"}\n",
         "line 1: \"net_efficiency\" wants a fraction"},
    };
    for (const Case &c : cases) {
        std::istringstream is(c.text);
        std::string error;
        EXPECT_FALSE(fleet::parseTopology(is, error).has_value())
            << c.text;
        EXPECT_NE(error.find(c.needle), std::string::npos)
            << "error was: " << error;
    }
    // A stream with only a fabric line has no nodes.
    std::istringstream is("{\"net_gbs\": 10}\n");
    std::string error;
    EXPECT_FALSE(fleet::parseTopology(is, error).has_value());
    EXPECT_NE(error.find("no nodes"), std::string::npos);
}

TEST(FleetTopology, UnreadablePathFailsLoudly)
{
    std::string error;
    EXPECT_FALSE(
        fleet::loadTopology("/nonexistent/topo.jsonl", error));
    EXPECT_NE(error.find("/nonexistent/topo.jsonl"),
              std::string::npos);
}

TEST(FleetTopology, ScaledRepeatsTheMix)
{
    fleet::Topology topo = fleet::uniformTopology(3, "apu");
    fleet::Topology big = topo.scaled(4);
    ASSERT_EQ(big.size(), 12u);
    EXPECT_EQ(big.nodes[0].name, "apu/0");
    EXPECT_EQ(big.nodes[3].name, "apu/0+1");
    EXPECT_EQ(big.nodes[11].device, "apu");
}

// --- network cost model ------------------------------------------------

TEST(FleetNetwork, AffineTransferModel)
{
    sim::NetLink link;
    link.rawGBs = 10.0;
    link.efficiency = 0.8;
    link.latencyUs = 5.0;
    EXPECT_DOUBLE_EQ(link.transferSeconds(0), 0.0);
    const u64 bytes = 1ull << 30;
    const double expect =
        5e-6 + static_cast<double>(bytes) / (10.0 * GB * 0.8);
    EXPECT_DOUBLE_EQ(link.transferSeconds(bytes), expect);
    // Latency dominates tiny messages.
    EXPECT_GT(link.transferSeconds(1), 5e-6);
    EXPECT_LT(link.transferSeconds(1), 6e-6);
}

TEST(FleetNetwork, CollectiveCosts)
{
    sim::NetLink link;
    const u64 bytes = 1ull << 20;
    // Single-node collectives are free.
    EXPECT_DOUBLE_EQ(sim::haloExchangeSeconds(link, 1, bytes), 0.0);
    EXPECT_DOUBLE_EQ(sim::broadcastSeconds(link, 1, bytes), 0.0);
    EXPECT_DOUBLE_EQ(sim::allReduceSeconds(link, 1, bytes), 0.0);
    // Halo: one overlapped neighbour transfer regardless of ring size.
    EXPECT_DOUBLE_EQ(sim::haloExchangeSeconds(link, 2, bytes),
                     link.transferSeconds(bytes));
    EXPECT_DOUBLE_EQ(sim::haloExchangeSeconds(link, 64, bytes),
                     link.transferSeconds(bytes));
    // Tree collectives: ceil(log2 n) stages.
    EXPECT_DOUBLE_EQ(sim::broadcastSeconds(link, 8, bytes),
                     3.0 * link.transferSeconds(bytes));
    EXPECT_DOUBLE_EQ(sim::allReduceSeconds(link, 9, bytes),
                     4.0 * link.transferSeconds(bytes));
}

// --- cluster scheduler -------------------------------------------------

TEST(FleetCluster, LeastLoadedMatchesLinearScanReference)
{
    // The shared rule must be exactly the serving layer's historical
    // list schedule: earliest-available worker, lowest index on ties.
    const double costs[] = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0,
                            5.0, 3.0, 5.0, 8.0};
    const u32 workers = 3;
    fleet::Cluster cluster(workers, fleet::Policy::LeastLoaded);
    std::vector<double> avail(workers, 0.0);
    for (double cost : costs) {
        size_t w = 0;
        for (size_t i = 1; i < avail.size(); ++i) {
            if (avail[i] < avail[w])
                w = i;
        }
        const auto placed =
            cluster.place(0.0, [&](u32) { return cost; });
        ASSERT_TRUE(placed.has_value());
        EXPECT_EQ(placed->node, w);
        EXPECT_DOUBLE_EQ(placed->start, avail[w]);
        avail[w] += cost;
    }
    EXPECT_DOUBLE_EQ(cluster.makespan(),
                     *std::max_element(avail.begin(), avail.end()));
}

TEST(FleetCluster, FirstFitPrefersLowestIdleIndex)
{
    fleet::Cluster cluster(3, fleet::Policy::FirstFit);
    auto unit = [](u32) { return 1.0; };
    // At t=0 every node is idle: jobs fill 0, 1, 2 in index order.
    EXPECT_EQ(cluster.place(0.0, unit)->node, 0u);
    EXPECT_EQ(cluster.place(0.0, unit)->node, 1u);
    EXPECT_EQ(cluster.place(0.0, unit)->node, 2u);
    // All busy until t=1: falls back to least-loaded.
    EXPECT_EQ(cluster.place(0.5, unit)->node, 0u);
    // At t=1.0, nodes 1 and 2 are idle again; first-fit takes 1.
    EXPECT_EQ(cluster.place(1.0, unit)->node, 1u);
}

TEST(FleetCluster, LocalityWeighsTransferAgainstQueueing)
{
    auto unit = [](u32) { return 1.0; };
    {
        // Home queue is short enough that paying it beats the move.
        fleet::Cluster cluster(2, fleet::Policy::Locality);
        cluster.commit(1, 0.0, 0.4); // node 1 busy until 0.4
        const auto placed = cluster.place(0.0, unit, 1, 0.5);
        EXPECT_EQ(placed->node, 1u);
        EXPECT_FALSE(placed->offHome);
        EXPECT_DOUBLE_EQ(placed->start, 0.4);
    }
    {
        // Home queue longer than the transfer: move the job.
        fleet::Cluster cluster(2, fleet::Policy::Locality);
        cluster.commit(1, 0.0, 2.0); // node 1 busy until 2.0
        const auto placed = cluster.place(0.0, unit, 1, 0.5);
        EXPECT_EQ(placed->node, 0u);
        EXPECT_TRUE(placed->offHome);
    }
}

TEST(FleetCluster, GangPicksDistinctLeastLoaded)
{
    fleet::Cluster cluster(4, fleet::Policy::LeastLoaded);
    cluster.commit(0, 0.0, 5.0); // node 0 is the busy one
    double start = 0.0, cost = 0.0;
    const auto members = cluster.placeGang(
        0.0, 3, [](u32) { return 2.0; }, 0.5, start, cost);
    EXPECT_EQ(members, (std::vector<u32>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(start, 0.0);
    EXPECT_DOUBLE_EQ(cost, 2.5);
    for (u32 node : members)
        EXPECT_DOUBLE_EQ(cluster.avail(node), 2.5);
    // More members than alive nodes: refused.
    cluster.markDead(3);
    const auto none = cluster.placeGang(
        0.0, 4, [](u32) { return 1.0; }, 0.0, start, cost);
    EXPECT_TRUE(none.empty());
}

TEST(FleetCluster, DeadNodesAreNeverPicked)
{
    fleet::Cluster cluster(3, fleet::Policy::LeastLoaded);
    cluster.markDead(0);
    EXPECT_EQ(cluster.aliveCount(), 2u);
    auto unit = [](u32) { return 1.0; };
    for (int i = 0; i < 8; ++i)
        EXPECT_NE(cluster.place(0.0, unit)->node, 0u);
    cluster.markDead(1);
    cluster.markDead(2);
    EXPECT_FALSE(cluster.place(0.0, unit).has_value());
}

TEST(FleetCluster, FirstFitFallbackWhenEveryAliveNodeIsIdle)
{
    // The retry-after-death pattern: the first idle node is not free
    // yet and every alive node is idle, so no busy node is left to
    // fall back to.  The rule is least-loaded over the alive nodes.
    fleet::Cluster cluster(2, fleet::Policy::FirstFit);
    auto unit = [](u32) { return 1.0; };
    EXPECT_EQ(cluster.place(0.0, unit)->node, 0u);
    EXPECT_EQ(cluster.place(0.0, unit)->node, 1u);
    EXPECT_EQ(cluster.place(5.0, unit)->node, 0u); // both go idle
    cluster.markDead(0);
    const auto placed = cluster.place(0.5, unit);
    ASSERT_TRUE(placed.has_value());
    EXPECT_EQ(placed->node, 1u);
    EXPECT_DOUBLE_EQ(placed->start, 1.0);

    // Two idle survivors: the earlier one wins, the lower index on a
    // tie - not simply the first idle node.
    for (const double cost2 : {2.0, 3.0}) {
        const double costs[] = {1.0, 3.0, cost2};
        auto costOf = [&](u32 n) { return costs[n]; };
        fleet::Cluster three(3, fleet::Policy::FirstFit);
        for (u32 n = 0; n < 3; ++n)
            EXPECT_EQ(three.place(0.0, costOf)->node, n);
        EXPECT_EQ(three.place(10.0, costOf)->node, 0u);
        three.markDead(0);
        const auto retried = three.place(0.5, costOf);
        ASSERT_TRUE(retried.has_value());
        EXPECT_EQ(retried->node, cost2 < 3.0 ? 2u : 1u);
        EXPECT_DOUBLE_EQ(retried->start, cost2);
    }
}

TEST(FleetClusterDeath, NegativeOrNaNCostsAreFatal)
{
    // Availabilities must stay >= +0.0 for the tree's key order.
    fleet::Cluster cluster(4, fleet::Policy::LeastLoaded);
    EXPECT_EXIT(cluster.commit(1, 0.0, -1.0),
                testing::ExitedWithCode(1),
                "commit: cost -1 on node 1 is negative or NaN");
    EXPECT_EXIT(cluster.commit(2, 0.0, std::nan("")),
                testing::ExitedWithCode(1), "is negative or NaN");
    double start = 0.0, cost = 0.0;
    EXPECT_EXIT(cluster.placeGang(
                    0.0, 2, [](u32) { return 1.0; }, -5.0, start, cost),
                testing::ExitedWithCode(1),
                "placeGang: cost -4 on node 0 is negative or NaN");
    EXPECT_EXIT(cluster.placeGang(
                    0.0, 2, [](u32) { return std::nan(""); },
                    std::nan(""), start, cost),
                testing::ExitedWithCode(1), "is negative or NaN");
    // -0.0 is not negative.
    EXPECT_DOUBLE_EQ(cluster.commit(3, 0.0, -0.0), 0.0);
    EXPECT_FALSE(std::signbit(cluster.avail(3)));
}

/**
 * Oracle for the differential test: the lazy-heap scheduler the
 * tournament tree replaced, verbatim, except that peekMin() falls back
 * to the least-loaded idle node when the heap holds no valid entry
 * (every alive node idle) instead of reading an empty heap.
 */
class LazyHeapCluster
{
  public:
    static constexpr u32 kNoHome = 0xffffffffu;

    LazyHeapCluster(u32 nodes, fleet::Policy policy)
        : pol(policy), availv(nodes, 0.0), deadv(nodes, false),
          aliveN(nodes)
    {
        for (u32 n = 0; n < nodes; ++n)
            heap.push(Entry{0.0, n});
    }

    u32 aliveCount() const { return aliveN; }
    double avail(u32 node) const { return availv[node]; }

    double
    makespan() const
    {
        double latest = 0.0;
        for (double a : availv)
            latest = std::max(latest, a);
        return latest;
    }

    void
    markDead(u32 node)
    {
        if (deadv[node])
            return;
        deadv[node] = true;
        --aliveN;
        idle.erase(node);
    }

    template <typename CostFn>
    std::optional<fleet::Placement>
    place(double arrival, const CostFn &costOf, u32 home = kNoHome,
          double transferSeconds = 0.0)
    {
        if (aliveN == 0)
            return std::nullopt;
        u32 node = 0;
        switch (pol) {
          case fleet::Policy::FirstFit: {
            promoteIdle(arrival);
            auto it = idle.begin();
            if (it != idle.end() && availv[*it] <= arrival)
                node = *it;
            else
                node = peekMin();
            break;
          }
          case fleet::Policy::LeastLoaded:
            node = peekMin();
            break;
          case fleet::Policy::Locality: {
            node = peekMin();
            if (home != kNoHome && home < availv.size() &&
                !deadv[home]) {
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
        fleet::Placement placed;
        placed.node = node;
        placed.offHome = home != kNoHome && node != home;
        double cost = costOf(node);
        if (placed.offHome)
            cost += transferSeconds;
        placed.start = commit(node, arrival, cost);
        return placed;
    }

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
        for (auto it = idle.begin();
             it != idle.end() && members.size() < k; ++it) {
            members.push_back(*it);
            start = std::max(start, availv[*it]);
        }
        std::set<u32> picked(members.begin(), members.end());
        while (members.size() < k && !heap.empty()) {
            const Entry top = heap.top();
            heap.pop();
            if (deadv[top.node] || availv[top.node] != top.avail ||
                idle.count(top.node) != 0 ||
                picked.count(top.node) != 0)
                continue;
            picked.insert(top.node);
            members.push_back(top.node);
            start = std::max(start, top.avail);
        }
        std::sort(members.begin(), members.end());
        cost = extraCost;
        for (u32 node : members)
            cost = std::max(cost, extraCost + costOf(node));
        for (u32 node : members) {
            availv[node] = start + cost;
            heap.push(Entry{availv[node], node});
            idle.erase(node);
        }
        return members;
    }

    double
    commit(u32 node, double arrival, double cost)
    {
        const double start = std::max(availv[node], arrival);
        availv[node] = start + cost;
        heap.push(Entry{availv[node], node});
        idle.erase(node);
        return start;
    }

  private:
    struct Entry
    {
        double avail;
        u32 node;

        bool
        operator>(const Entry &other) const
        {
            return avail > other.avail ||
                   (avail == other.avail && node > other.node);
        }
    };

    u32
    peekMin()
    {
        while (!heap.empty()) {
            const Entry top = heap.top();
            if (!deadv[top.node] && availv[top.node] == top.avail &&
                idle.count(top.node) == 0)
                return top.node;
            heap.pop();
        }
        u32 best = *idle.begin();
        for (u32 node : idle) {
            if (availv[node] < availv[best])
                best = node;
        }
        return best;
    }

    void
    promoteIdle(double arrival)
    {
        while (!heap.empty() && heap.top().avail <= arrival) {
            const Entry top = heap.top();
            heap.pop();
            if (!deadv[top.node] && availv[top.node] == top.avail)
                idle.insert(top.node);
        }
    }

    fleet::Policy pol;
    std::vector<double> availv;
    std::vector<bool> deadv;
    std::set<u32> idle;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap;
    u32 aliveN;
};

/** Bit pattern of @p v: the differential test compares doubles
 *  exactly, telling -0.0 from +0.0. */
u64
bitsOf(double v)
{
    return std::bit_cast<u64>(v);
}

TEST(FleetCluster, TournamentTreeMatchesLazyHeapOracle)
{
    // Seeded random place / placeGang / commit / markDead sequences
    // on quarter-second grids (so availabilities tie often), with
    // out-of-order ready times like retries; 1, 2, 3, 64 and 1000
    // nodes cover the padding leaves of non-power-of-two trees.
    for (fleet::Policy policy :
         {fleet::Policy::FirstFit, fleet::Policy::LeastLoaded,
          fleet::Policy::Locality}) {
        for (u32 nodes : {1u, 2u, 3u, 64u, 1000u}) {
            SCOPED_TRACE(std::string(fleet::toString(policy)) + " x" +
                         std::to_string(nodes));
            Rng rng(0xc1u + nodes * 7 + static_cast<u32>(policy));
            fleet::Cluster tree(nodes, policy);
            LazyHeapCluster oracle(nodes, policy);
            std::vector<double> nodeCost(nodes);
            for (double &c : nodeCost)
                c = 0.25 * static_cast<double>(rng.below(9));
            const auto costOf = [&](u32 n) { return nodeCost[n]; };
            double clock = 0.0;
            u32 lastPlaced = 0;
            const u32 steps = nodes >= 64 ? 6000 : 1500;
            for (u32 step = 0; step < steps; ++step) {
                const u64 op = rng.below(100);
                double ready = clock;
                if (rng.below(4) == 0)
                    ready += 0.25 * static_cast<double>(rng.below(40));
                else if (rng.below(4) == 0)
                    ready = std::max(
                        0.0, ready - 0.25 * static_cast<double>(
                                             rng.below(20)));
                if (op < 80) {
                    const u32 home = rng.below(4) == 0
                                         ? fleet::Cluster::kNoHome
                                         : static_cast<u32>(
                                               rng.below(nodes));
                    const double transfer =
                        0.25 * static_cast<double>(rng.below(5));
                    const auto got =
                        tree.place(ready, costOf, home, transfer);
                    const auto want =
                        oracle.place(ready, costOf, home, transfer);
                    ASSERT_EQ(got.has_value(), want.has_value());
                    if (got) {
                        lastPlaced = got->node;
                        ASSERT_EQ(got->node, want->node)
                            << "step " << step;
                        ASSERT_EQ(bitsOf(got->start), bitsOf(want->start));
                        ASSERT_EQ(got->offHome, want->offHome);
                    }
                } else if (op < 88) {
                    const u32 k = static_cast<u32>(
                        1 + rng.below(std::min<u32>(nodes, 6) + 1));
                    const double extra =
                        0.25 * static_cast<double>(rng.below(3));
                    double gotStart = -1.0, gotCost = -1.0;
                    double wantStart = -1.0, wantCost = -1.0;
                    const auto got = tree.placeGang(
                        ready, k, costOf, extra, gotStart, gotCost);
                    const auto want = oracle.placeGang(
                        ready, k, costOf, extra, wantStart, wantCost);
                    ASSERT_EQ(got, want) << "step " << step;
                    ASSERT_EQ(bitsOf(gotStart), bitsOf(wantStart));
                    ASSERT_EQ(bitsOf(gotCost), bitsOf(wantCost));
                } else if (op < 97) {
                    // Any node, dead ones included.
                    const u32 node = static_cast<u32>(rng.below(nodes));
                    const double cost =
                        0.25 * static_cast<double>(rng.below(8));
                    ASSERT_EQ(bitsOf(tree.commit(node, ready, cost)),
                              bitsOf(oracle.commit(node, ready, cost)));
                } else if (tree.aliveCount() > std::max(1u, nodes / 2)) {
                    // Deaths stop at half the nodes (the last one
                    // always survives); half of them hit the node just
                    // placed, as simulateFleet's death trigger does.
                    const u32 node =
                        rng.below(2) == 0
                            ? lastPlaced
                            : static_cast<u32>(rng.below(nodes));
                    tree.markDead(node);
                    oracle.markDead(node);
                }
                clock += 0.25 * static_cast<double>(rng.below(3));
                ASSERT_EQ(tree.aliveCount(), oracle.aliveCount());
                ASSERT_EQ(bitsOf(tree.makespan()),
                          bitsOf(oracle.makespan()));
                u32 firstDiff = nodes;
                for (u32 n = 0; n < nodes && firstDiff == nodes; ++n) {
                    if (bitsOf(tree.avail(n)) != bitsOf(oracle.avail(n)))
                        firstDiff = n;
                }
                ASSERT_EQ(firstDiff, nodes) << "step " << step;
            }
        }
    }
}

// --- fleet simulation --------------------------------------------------

fleet::FleetConfig
tinyConfig(u64 jobs)
{
    fleet::FleetConfig cfg;
    cfg.jobs = jobs;
    cfg.seed = 42;
    fleet::JobClass small;
    small.name = "small";
    small.secondsByDevice = {{"dgpu", 0.010}, {"apu", 0.025},
                             {"cpu", 0.040}};
    small.inputBytes = 64ull << 20;
    small.weight = 4.0;
    fleet::JobClass gang;
    gang.name = "gang";
    gang.secondsByDevice = {{"dgpu", 0.030}, {"apu", 0.070},
                            {"cpu", 0.110}};
    gang.inputBytes = 16ull << 20;
    gang.weight = 1.0;
    gang.gangNodes = 4;
    gang.haloIters = 8;
    gang.haloBytesPerNeighbor = 4ull << 20;
    gang.reduceBytes = 1ull << 20;
    cfg.classes = {small, gang};
    return cfg;
}

fleet::Topology
mixedTopology(u32 scale)
{
    std::istringstream is(
        "{\"device\": \"dgpu\", \"count\": 8}\n"
        "{\"device\": \"apu\", \"count\": 4, \"perf\": 1.25}\n"
        "{\"device\": \"cpu\", \"count\": 4}\n");
    std::string error;
    auto topo = fleet::parseTopology(is, error);
    EXPECT_TRUE(topo.has_value()) << error;
    return scale == 1 ? *topo : topo->scaled(scale);
}

TEST(FleetSim, RejectsInvalidConfigs)
{
    const fleet::Topology topo = mixedTopology(1);
    std::string error;
    fleet::FleetConfig cfg = tinyConfig(0);
    EXPECT_FALSE(fleet::simulateFleet(topo, cfg, error));
    EXPECT_NE(error.find("at least one job"), std::string::npos);

    cfg = tinyConfig(10);
    cfg.classes.clear();
    EXPECT_FALSE(fleet::simulateFleet(topo, cfg, error));

    cfg = tinyConfig(10);
    cfg.classes[0].secondsByDevice.erase("cpu");
    EXPECT_FALSE(fleet::simulateFleet(topo, cfg, error));
    EXPECT_NE(error.find("'cpu'"), std::string::npos);

    cfg = tinyConfig(10);
    cfg.classes[1].gangNodes = 64;
    EXPECT_FALSE(fleet::simulateFleet(topo, cfg, error));
    EXPECT_NE(error.find("gangs across"), std::string::npos);
}

TEST(FleetSim, ShardedTimelineIsBitwiseEqualToSerial)
{
    const fleet::Topology topo = mixedTopology(2);
    fleet::FleetConfig cfg = tinyConfig(5000);
    cfg.arrivalRate = 2000.0;
    cfg.nodeFailRate = 0.1;
    cfg.faults.transferFailRate = 0.05;
    cfg.faults.launchFailRate = 0.02;
    cfg.faults.stallRate = 0.01;

    std::string error;
    cfg.serialTimeline = true;
    const auto serial = fleet::simulateFleet(topo, cfg, error);
    ASSERT_TRUE(serial.has_value()) << error;

    cfg.serialTimeline = false;
    for (unsigned workers : {1u, 2u, 7u}) {
        cpu::ThreadPool pool(workers);
        const auto sharded =
            fleet::simulateFleet(topo, cfg, error, &pool);
        ASSERT_TRUE(sharded.has_value()) << error;
        EXPECT_EQ(sharded->digest, serial->digest)
            << "workers=" << workers;
        // Bitwise, not approximate: the merge is deterministic.
        EXPECT_EQ(sharded->makespanSeconds, serial->makespanSeconds);
        EXPECT_EQ(sharded->busySeconds, serial->busySeconds);
        EXPECT_EQ(sharded->netSeconds, serial->netSeconds);
        EXPECT_EQ(sharded->latencyMs.p99, serial->latencyMs.p99);
        EXPECT_EQ(sharded->faultsInjected, serial->faultsInjected);
        EXPECT_EQ(sharded->nodeDeaths, serial->nodeDeaths);
        ASSERT_EQ(sharded->nodes.size(), serial->nodes.size());
        for (size_t n = 0; n < serial->nodes.size(); ++n) {
            EXPECT_EQ(sharded->nodes[n].busySeconds,
                      serial->nodes[n].busySeconds);
            EXPECT_EQ(sharded->nodes[n].finishSeconds,
                      serial->nodes[n].finishSeconds);
        }
    }
}

TEST(FleetSim, PlacementPoliciesAreDeterministicAndDistinct)
{
    const fleet::Topology topo = mixedTopology(1);
    std::string error;
    std::map<fleet::Policy, u64> digests;
    for (fleet::Policy policy :
         {fleet::Policy::FirstFit, fleet::Policy::LeastLoaded,
          fleet::Policy::Locality}) {
        fleet::FleetConfig cfg = tinyConfig(2000);
        cfg.policy = policy;
        // Light load: idle nodes exist at arrival, so first-fit's
        // lowest-index choice diverges from least-loaded's
        // earliest-available one.
        cfg.arrivalRate = 300.0;
        const auto a = fleet::simulateFleet(topo, cfg, error);
        const auto b = fleet::simulateFleet(topo, cfg, error);
        ASSERT_TRUE(a.has_value() && b.has_value()) << error;
        EXPECT_EQ(a->digest, b->digest)
            << fleet::toString(policy);
        digests[policy] = a->digest;
    }
    // The three policies schedule differently.
    EXPECT_NE(digests[fleet::Policy::FirstFit],
              digests[fleet::Policy::LeastLoaded]);
    EXPECT_NE(digests[fleet::Policy::LeastLoaded],
              digests[fleet::Policy::Locality]);
    // Locality keeps more jobs at home than least-loaded.
    fleet::FleetConfig cfg = tinyConfig(2000);
    cfg.arrivalRate = 300.0;
    cfg.policy = fleet::Policy::Locality;
    const auto local = fleet::simulateFleet(topo, cfg, error);
    cfg.policy = fleet::Policy::LeastLoaded;
    const auto balanced = fleet::simulateFleet(topo, cfg, error);
    EXPECT_LT(local->offHome, balanced->offHome);
}

TEST(FleetSim, NetworkCostsAccrueOffHomeOnly)
{
    const fleet::Topology topo = mixedTopology(1);
    fleet::FleetConfig cfg = tinyConfig(500);
    cfg.classes.pop_back(); // single-node class only
    std::string error;
    const auto res = fleet::simulateFleet(topo, cfg, error);
    ASSERT_TRUE(res.has_value()) << error;
    // Every off-home job pays exactly one fault-free transfer.
    const double perTransfer =
        topo.net.transferSeconds(cfg.classes[0].inputBytes);
    EXPECT_NEAR(res->netSeconds,
                static_cast<double>(res->offHome) * perTransfer,
                1e-9);
    EXPECT_GT(res->offHome, 0u);

    // A 1-node fleet has nowhere to move jobs: no fabric time.
    const fleet::Topology solo = fleet::uniformTopology(1, "dgpu");
    fleet::FleetConfig soloCfg = tinyConfig(100);
    soloCfg.classes.pop_back();
    const auto soloRes = fleet::simulateFleet(solo, soloCfg, error);
    ASSERT_TRUE(soloRes.has_value()) << error;
    EXPECT_DOUBLE_EQ(soloRes->netSeconds, 0.0);
    EXPECT_EQ(soloRes->offHome, 0u);
}

TEST(FleetSim, GangJobsPayCollectives)
{
    const fleet::Topology topo = mixedTopology(1);
    fleet::FleetConfig cfg = tinyConfig(400);
    std::string error;
    const auto res = fleet::simulateFleet(topo, cfg, error);
    ASSERT_TRUE(res.has_value()) << error;
    ASSERT_GT(res->gangJobs, 0u);
    // Every gang job pays its halo iterations plus one all-reduce.
    const fleet::JobClass &gang = cfg.classes[1];
    const double perGang =
        static_cast<double>(gang.haloIters) *
            sim::haloExchangeSeconds(topo.net, gang.gangNodes,
                                     gang.haloBytesPerNeighbor) +
        sim::allReduceSeconds(topo.net, gang.gangNodes,
                              gang.reduceBytes);
    EXPECT_NEAR(res->haloSeconds,
                static_cast<double>(res->gangJobs) * perGang, 1e-9);
}

TEST(FleetSim, NodeDeathsRetryTheVictimElsewhere)
{
    const fleet::Topology topo = mixedTopology(1);
    fleet::FleetConfig cfg = tinyConfig(4000);
    cfg.nodeFailRate = 0.5;
    cfg.arrivalRate = 4000.0;
    std::string error;
    const auto res = fleet::simulateFleet(topo, cfg, error);
    ASSERT_TRUE(res.has_value()) << error;
    EXPECT_GT(res->nodeDeaths, 0u);
    EXPECT_GT(res->retries, 0u);
    u64 diedNodes = 0;
    for (const auto &node : res->nodes)
        diedNodes += node.died ? 1 : 0;
    EXPECT_EQ(diedNodes, res->nodeDeaths);
    // The last node standing is immortal.
    EXPECT_LT(diedNodes, res->nodes.size());

    // Even with every node doomed, the campaign completes and is
    // reproducible.
    cfg.nodeFailRate = 1.0;
    const auto a = fleet::simulateFleet(topo, cfg, error);
    const auto b = fleet::simulateFleet(topo, cfg, error);
    ASSERT_TRUE(a.has_value() && b.has_value()) << error;
    EXPECT_EQ(a->digest, b->digest);
}

TEST(FleetSim, EnergyIsTheSameForEveryDeviceSpelling)
{
    // One campaign on R9 280X nodes, spelled two ways: the nodes are
    // the same board, so they must draw the same power.
    auto run = [](const std::string &device) {
        std::istringstream is("{\"device\": \"" + device +
                              "\", \"count\": 4}\n");
        std::string error;
        auto topo = fleet::parseTopology(is, error);
        EXPECT_TRUE(topo.has_value()) << error;
        fleet::FleetConfig cfg = tinyConfig(500);
        for (fleet::JobClass &cls : cfg.classes)
            cls.secondsByDevice = {{device, cls.secondsByDevice["dgpu"]}};
        auto res = fleet::simulateFleet(*topo, cfg, error);
        EXPECT_TRUE(res.has_value()) << error;
        return *res;
    };
    const fleet::FleetResult dgpu = run("dgpu");
    const fleet::FleetResult r9 = run("r9-280x");
    EXPECT_EQ(r9.digest, dgpu.digest);
    EXPECT_EQ(r9.makespanSeconds, dgpu.makespanSeconds);
    EXPECT_GT(dgpu.energyJoules, 0.0);
    EXPECT_EQ(r9.energyJoules, dgpu.energyJoules);
}

TEST(FleetSim, TransientFaultsLengthenTheCampaign)
{
    const fleet::Topology topo = mixedTopology(1);
    fleet::FleetConfig cfg = tinyConfig(2000);
    std::string error;
    const auto clean = fleet::simulateFleet(topo, cfg, error);
    ASSERT_TRUE(clean.has_value()) << error;
    EXPECT_EQ(clean->faultsInjected, 0u);

    cfg.faults.transferFailRate = 0.2;
    cfg.faults.stallRate = 0.05;
    const auto faulty = fleet::simulateFleet(topo, cfg, error);
    ASSERT_TRUE(faulty.has_value()) << error;
    EXPECT_GT(faulty->faultsInjected, 0u);
    EXPECT_GT(faulty->makespanSeconds, clean->makespanSeconds);
    EXPECT_GT(faulty->netSeconds, clean->netSeconds);
    // Per-node fault streams are part of the deterministic contract.
    const auto again = fleet::simulateFleet(topo, cfg, error);
    EXPECT_EQ(again->digest, faulty->digest);
    EXPECT_EQ(again->faultsInjected, faulty->faultsInjected);
}

TEST(FleetSim, SloViolationsAreCounted)
{
    const fleet::Topology topo = mixedTopology(1);
    fleet::FleetConfig cfg = tinyConfig(1000);
    // All jobs at t=0: queueing makes tail latencies long.
    cfg.sloSeconds = 0.001;
    std::string error;
    const auto res = fleet::simulateFleet(topo, cfg, error);
    ASSERT_TRUE(res.has_value()) << error;
    EXPECT_GT(res->sloViolations, 0u);
    EXPECT_LE(res->sloViolations, res->jobs);

    cfg.sloSeconds = 0.0; // no SLO, no violations
    const auto off = fleet::simulateFleet(topo, cfg, error);
    EXPECT_EQ(off->sloViolations, 0u);
}

TEST(FleetSim, EmitsMetricsAndPerNodeTraceTracks)
{
    obs::Metrics &metrics = obs::Metrics::global();
    obs::Tracer &tracer = obs::Tracer::global();
    metrics.clear();
    metrics.setEnabled(true);
    tracer.clear();
    tracer.setEnabled(true);

    const fleet::Topology topo = mixedTopology(1);
    fleet::FleetConfig cfg = tinyConfig(300);
    cfg.nodeFailRate = 0.3;
    cfg.faults.transferFailRate = 0.1;
    std::string error;
    const auto res = fleet::simulateFleet(topo, cfg, error);

    metrics.setEnabled(false);
    tracer.setEnabled(false);
    ASSERT_TRUE(res.has_value()) << error;
    EXPECT_EQ(metrics.counterValue("fleet.jobs"), 300.0);
    EXPECT_EQ(metrics.gaugeValue("fleet.nodes"),
              static_cast<double>(topo.size()));
    EXPECT_EQ(metrics.counterValue("fleet.node_deaths"),
              static_cast<double>(res->nodeDeaths));
    EXPECT_EQ(metrics.counterValue("fleet.faults_injected"),
              static_cast<double>(res->faultsInjected));
    auto hist = metrics.histogram("fleet.latency_ms");
    ASSERT_TRUE(hist.has_value());
    EXPECT_EQ(hist->count, 300u);
    // One trace track per node, named fleet/<node>.  (The global
    // tracer's track registry outlives clear(), so check presence
    // rather than an exact count.)
    const auto names = tracer.trackNames();
    const std::set<std::string> nameSet(names.begin(), names.end());
    for (const auto &node : topo.nodes)
        EXPECT_TRUE(nameSet.count("fleet/" + node.name) != 0)
            << node.name;
    metrics.clear();
    tracer.clear();
}

// --- supporting pieces -------------------------------------------------

TEST(FleetSupport, ShardSeedsDecorrelate)
{
    std::set<u64> seen;
    for (u64 shard = 0; shard < 1000; ++shard)
        seen.insert(fault::shardSeed(42, shard));
    EXPECT_EQ(seen.size(), 1000u);
    EXPECT_NE(fault::shardSeed(42, 0), fault::shardSeed(43, 0));
    EXPECT_EQ(fault::shardSeed(7, 9), fault::shardSeed(7, 9));
}

TEST(FleetSupport, ObserveManyMatchesRepeatedObserve)
{
    obs::Metrics &metrics = obs::Metrics::global();
    metrics.clear();
    metrics.setEnabled(true);
    const std::vector<double> values = {0.5, 5.0, 50.0, 5e6};
    metrics.observeMany("batched", values);
    for (double v : values)
        metrics.observe("single", v);
    metrics.setEnabled(false);
    const auto batched = metrics.histogram("batched");
    const auto single = metrics.histogram("single");
    ASSERT_TRUE(batched.has_value() && single.has_value());
    EXPECT_EQ(batched->count, single->count);
    EXPECT_EQ(batched->counts, single->counts);
    EXPECT_DOUBLE_EQ(batched->sum, single->sum);
    metrics.clear();
}

TEST(FleetSupport, PercentilesNearestRank)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(static_cast<double>(i));
    const Percentiles p = percentiles(values);
    EXPECT_EQ(p.count, 100u);
    EXPECT_DOUBLE_EQ(p.p50, 50.0);
    EXPECT_DOUBLE_EQ(p.p95, 95.0);
    EXPECT_DOUBLE_EQ(p.p99, 99.0);
    EXPECT_DOUBLE_EQ(p.max, 100.0);
    EXPECT_DOUBLE_EQ(p.mean, 50.5);
    EXPECT_EQ(percentiles({}).count, 0u);
}

} // namespace
} // namespace hetsim
