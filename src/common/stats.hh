/**
 * @file
 * A small named-statistics registry, in the spirit of gem5's stats
 * package.  Runtimes register counters (kernel launches, bytes moved,
 * simulated seconds, ...) that the harness dumps after a run.
 */

#ifndef HETSIM_COMMON_STATS_HH
#define HETSIM_COMMON_STATS_HH

#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace hetsim
{

/** Nearest-rank percentile summary of one sample population. */
struct Percentiles
{
    u64 count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/** From this many values on, percentiles() sorts values in
 *  [+0.0, +inf] by a radix sort on their bit patterns (bitwise the
 *  std::sort result); smaller or other inputs take std::sort. */
inline constexpr size_t kPercentilesRadixMin = 768;

/** @return nearest-rank percentiles over @p values (order
 *  irrelevant; the vector is consumed).  An empty vector yields the
 *  all-zero summary. */
Percentiles percentiles(std::vector<double> values);

/**
 * Nearest-rank percentiles reconstructed from fixed bucket counts
 * (the shape obs::Histogram stores): the value reported for a rank is
 * the upper bound of the bucket holding it, clamped to [@p min,
 * @p max] so single-bucket populations still report sane numbers.
 * @p counts holds bounds.size() + 1 slots, the last one counting
 * observations above every bound.  Bucket-resolution summary only -
 * exact sample percentiles need the raw population.  Empty or
 * all-zero @p counts yield the all-zero summary, and an inverted
 * [@p min, @p max] range is reordered instead of hitting undefined
 * std::clamp behavior.
 */
Percentiles percentilesFromBuckets(const std::vector<double> &bounds,
                                   const std::vector<u64> &counts,
                                   double min, double max, double sum);

/** Name-keyed values with transparent lookup by std::string_view. */
using NamedValues = std::map<std::string, double, std::less<>>;

/** @return @p map's value for @p name, inserted at 0 on first use (the
 *  only time a key string is built). */
inline double &
namedSlot(NamedValues &map, std::string_view name)
{
    auto it = map.find(name);
    if (it == map.end())
        it = map.emplace(name, 0.0).first;
    return it->second;
}

/** An ordered collection of named scalar statistics. */
class Stats
{
  public:
    /** Add @p delta to the statistic named @p name (creating it at 0). */
    void
    add(std::string_view name, double delta)
    {
        namedSlot(values, name) += delta;
    }

    /** @return the value of @p name, or 0 if never touched. */
    double
    get(std::string_view name) const
    {
        auto it = values.find(name);
        return it == values.end() ? 0.0 : it->second;
    }

    /** Dump all statistics, one "name value" per line. */
    void dump(std::ostream &os) const;

  private:
    NamedValues values;
};

} // namespace hetsim

#endif // HETSIM_COMMON_STATS_HH
