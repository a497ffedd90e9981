/**
 * @file
 * hetsim::obs - deterministic per-shard -> cluster metric rollups.
 *
 * A fleet campaign produces one bounded summary per node (jobs, busy
 * seconds, a latency histogram); the Rollup aggregates those into a
 * cluster view without ever holding per-job state.  Two properties
 * make the aggregation fleet-safe:
 *
 *  - merge is associative and order-independent: shards are keyed by
 *    name and disjoint by construction (one writer node per key), so
 *    merging rollups is a map union - merge(merge(a,b),c) and
 *    merge(a,merge(b,c)) hold identical state bit for bit;
 *  - aggregate() folds the shards in sorted key order, so the
 *    cluster totals (floating-point sums included) are byte-identical
 *    no matter how many workers produced the shards or in which
 *    order they were merged.
 *
 * Histograms merge by per-bucket count addition (bounds must match);
 * cluster percentiles come from common/stats at bucket resolution.
 */

#ifndef HETSIM_OBS_ROLLUP_HH
#define HETSIM_OBS_ROLLUP_HH

#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/metrics.hh"

namespace hetsim::obs
{

/**
 * Merge @p from into @p into by per-bucket addition.  The bounds must
 * match; mismatched histograms merge count/sum/min/max only and leave
 * @p into's buckets untouched.  @return whether the bounds matched.
 */
bool histogramMerge(Histogram &into, const Histogram &from);

/** One node's bounded metric summary. */
struct ShardSummary
{
    u64 jobs = 0;
    u64 faults = 0;
    double busySeconds = 0.0;
    double netSeconds = 0.0;
    /** Local clock when the shard finished its last job. */
    double finishSeconds = 0.0;
    Histogram latencyMs;
};

/** Aggregated cluster view of every shard. */
struct ClusterSummary
{
    u64 shards = 0;
    u64 jobs = 0;
    u64 faults = 0;
    double busySeconds = 0.0;
    double netSeconds = 0.0;
    /** max over shard finish times. */
    double makespanSeconds = 0.0;
    Histogram latencyMs;
    Percentiles latency;
};

/** Keyed, mergeable collection of shard summaries. */
class Rollup
{
  public:
    /** Add @p shard under @p key; an existing key merges (summing
     *  counts and histogram buckets). */
    void addShard(const std::string &key, ShardSummary shard);

    /** Map-union merge; equal keys merge their summaries. */
    void merge(const Rollup &other);

    bool empty() const { return byKey.empty(); }
    size_t size() const { return byKey.size(); }
    const std::map<std::string, ShardSummary> &shards() const
    {
        return byKey;
    }

    void clear() { byKey.clear(); }

    /** Fold every shard, in sorted key order, into a cluster view. */
    ClusterSummary aggregate() const;

  private:
    std::map<std::string, ShardSummary> byKey;
};

} // namespace hetsim::obs

#endif // HETSIM_OBS_ROLLUP_HH
