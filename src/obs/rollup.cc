#include "rollup.hh"

#include <algorithm>

namespace hetsim::obs
{

bool
histogramMerge(Histogram &into, const Histogram &from)
{
    if (from.count == 0)
        return into.bounds == from.bounds || from.bounds.empty();
    if (into.count == 0) {
        const bool matched =
            into.bounds.empty() || into.bounds == from.bounds;
        into = from;
        return matched;
    }
    const bool matched = into.bounds == from.bounds;
    if (matched) {
        for (size_t b = 0; b < into.counts.size(); ++b)
            into.counts[b] += from.counts[b];
    }
    into.count += from.count;
    into.sum += from.sum;
    into.min = std::min(into.min, from.min);
    into.max = std::max(into.max, from.max);
    return matched;
}

namespace
{

void
mergeShard(ShardSummary &into, const ShardSummary &from)
{
    into.jobs += from.jobs;
    into.faults += from.faults;
    into.busySeconds += from.busySeconds;
    into.netSeconds += from.netSeconds;
    into.finishSeconds = std::max(into.finishSeconds, from.finishSeconds);
    histogramMerge(into.latencyMs, from.latencyMs);
}

} // namespace

void
Rollup::addShard(const std::string &key, ShardSummary shard)
{
    auto it = byKey.find(key);
    if (it == byKey.end())
        byKey.emplace(key, std::move(shard));
    else
        mergeShard(it->second, shard);
}

void
Rollup::merge(const Rollup &other)
{
    for (const auto &[key, shard] : other.byKey)
        addShard(key, shard);
}

ClusterSummary
Rollup::aggregate() const
{
    ClusterSummary out;
    // std::map iteration is sorted-key order: the fold (and its
    // floating-point sums) is canonical regardless of how the shards
    // were produced or merged.
    for (const auto &[key, shard] : byKey) {
        out.shards += 1;
        out.jobs += shard.jobs;
        out.faults += shard.faults;
        out.busySeconds += shard.busySeconds;
        out.netSeconds += shard.netSeconds;
        out.makespanSeconds =
            std::max(out.makespanSeconds, shard.finishSeconds);
        histogramMerge(out.latencyMs, shard.latencyMs);
    }
    out.latency = histogramPercentiles(out.latencyMs);
    return out;
}

} // namespace hetsim::obs
