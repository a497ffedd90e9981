/**
 * @file
 * hetsim::obs - the metrics registry half of the observability
 * subsystem.
 *
 * Three metric kinds, in the Prometheus mold:
 *
 *  - counters:   monotonically accumulated doubles (bytes moved,
 *                kernel launches, simulated seconds per phase);
 *  - gauges:     last-value-wins doubles (per-device idle seconds,
 *                final chunk size);
 *  - histograms: fixed-bucket distributions (co-execution chunk
 *                sizes, per-chunk throughput).
 *
 * Like the Tracer, the registry is disabled by default: every record
 * call returns after one relaxed atomic load, so instrumented hot
 * paths pay nothing when nobody asked for metrics.  Names are
 * string_views looked up through transparent maps, so a key string is
 * built only when a name is first inserted.  Dumps are JSON.
 */

#ifndef HETSIM_OBS_METRICS_HH
#define HETSIM_OBS_METRICS_HH

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace hetsim::obs
{

/** Snapshot of one fixed-bucket histogram. */
struct Histogram
{
    /** Upper bounds of the finite buckets, ascending. */
    std::vector<double> bounds;
    /** Per-bucket counts; counts.size() == bounds.size() + 1, with
     *  the final slot counting observations above every bound. */
    std::vector<u64> counts;
    u64 count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** @return an empty histogram with the given bounds, sorted. */
Histogram makeHistogram(std::vector<double> bounds);

/** Record @p value into @p hist. */
void histogramObserve(Histogram &hist, double value);

/** @return p50/p90/p99 of @p hist at bucket resolution. */
Percentiles histogramPercentiles(const Histogram &hist);

/** Thread-safe registry of named counters, gauges, and histograms. */
class Metrics
{
  public:
    /** Turn recording on or off (off = every record call is a no-op). */
    void setEnabled(bool on) { recording.store(on, std::memory_order_relaxed); }

    /** @return whether metrics are being recorded. */
    bool
    enabled() const
    {
        return recording.load(std::memory_order_relaxed);
    }

    /** Add @p delta to the counter @p name (creating it at 0). */
    void add(std::string_view name, double delta = 1.0);

    /** Set the gauge @p name to @p value. */
    void set(std::string_view name, double value);

    /**
     * Define the histogram @p name with the given ascending finite
     * bucket bounds.  Observations of an undefined histogram define
     * it with default decade bounds (1, 10, ..., 1e9).
     */
    void defineHistogram(std::string_view name,
                         std::vector<double> bounds);

    /** Record @p value into the histogram @p name. */
    void observe(std::string_view name, double value);

    /** Record a whole sample batch into @p name under one lock (bulk
     *  producers like the fleet simulator's per-job latencies). */
    void observeMany(std::string_view name,
                     const std::vector<double> &values);

    /** @return the counter's value, or 0 when never touched. */
    double counterValue(std::string_view name) const;

    /** @return the gauge's value, or 0 when never set. */
    double gaugeValue(std::string_view name) const;

    /** @return a snapshot of the histogram, if it exists. */
    std::optional<Histogram> histogram(std::string_view name) const;

    /** Remove every metric (definitions included). */
    void clear();

    /**
     * Dump all metrics as one JSON object.  Keys are emitted in
     * sorted order (the registry maps are ordered), so metric files
     * diff cleanly across runs; histograms carry p50/p90/p99 summary
     * fields at bucket resolution (common/stats).
     */
    void dumpJson(std::ostream &os) const;

    /** @return the process-wide registry (disabled until configured). */
    static Metrics &global();

  private:
    std::atomic<bool> recording{false};
    mutable std::mutex mtx;
    NamedValues counters;
    NamedValues gauges;
    std::map<std::string, Histogram, std::less<>> histograms;
};

} // namespace hetsim::obs

#endif // HETSIM_OBS_METRICS_HH
