/**
 * @file
 * hetsim::obs - profiling report assembly: per-signature observation
 * records, bottleneck classification, and the self-contained JSON
 * profile report behind `hetsim profile` / `--profile-out`.
 *
 * Observation records are the bridge to a future surrogate-model
 * fitter: every kernel launch contributes one (kernel, device, model,
 * precision, items, clocks, workgroup) signature whose roofline terms
 * are accumulated across launches.  The record stream is emitted as
 * JSONL with a stable schema (one object per line, keys in fixed
 * order - see writeObservationsJsonl) so downstream fitters can
 * consume it without version sniffing.
 *
 * Bottleneck classification combines the critical-path attribution
 * (analyzer.hh) with the accumulated roofline terms: a run dominated
 * by wait segments is queue-bound and one dominated by link segments
 * is transfer-bound, before any kernel-level term is consulted;
 * otherwise the launch-weighted argmax over the observed issue /
 * memory / LDS / latency / launch terms labels the run compute-,
 * memory-, lds-, latency-, or launch-bound.
 *
 * Everything the Profiler stores is keyed and iterated through
 * ordered maps, so reports are byte-identical at any worker count.
 */

#ifndef HETSIM_OBS_PROFILE_HH
#define HETSIM_OBS_PROFILE_HH

#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hh"
#include "obs/analyzer.hh"
#include "obs/flightrec.hh"
#include "obs/rollup.hh"
#include "obs/tracer.hh"

namespace hetsim::obs
{

/**
 * Accumulated roofline observation for one kernel x device x model x
 * precision x size x clocks x workgroup signature.
 */
struct ObsRecord
{
    std::string kernel;
    std::string device;
    /** Programming model ("OpenCL", "OpenMP", ...). */
    std::string model;
    /** Element precision in bits (32 or 64). */
    u32 precisionBits = 32;
    u64 items = 0;
    /** Modeled clocks (the frequency-sweep inputs). */
    double coreMhz = 0.0;
    double memMhz = 0.0;
    u32 workgroup = 0;
    /** Launches folded into this record. */
    u64 launches = 0;
    /** Summed roofline terms across the launches, seconds. */
    double seconds = 0.0;
    /** Count-weighted mean of per-launch seconds (Chan merge, so it
     *  stays bit-exact when every launch times identically). */
    double meanSeconds = 0.0;
    /** Sum of squared deviations from the mean (population variance
     *  is m2Seconds / launches). */
    double m2Seconds = 0.0;
    double issueSeconds = 0.0;
    double memSeconds = 0.0;
    double ldsSeconds = 0.0;
    double latencySeconds = 0.0;
    double launchSeconds = 0.0;
    /** Dominant term label (see dominantTerm); observations()
     *  derives it from the summed terms. */
    std::string bound;
};

/**
 * @return which roofline term dominates: "compute" (issue), "memory",
 * "lds" or "latency", the first of the largest body terms in that
 * order, or "launch" when the launch overhead is strictly larger than
 * every body term.  The one argmax behind per-launch, per-record and
 * surrogate-predicted bound labels.
 */
const char *dominantTerm(double issue, double mem, double lds,
                         double latency, double launch);

/**
 * Process-wide collector of observation records and rollup shards.
 * Signatures live in an ordered map, so the record stream is sorted
 * and byte-stable no matter which thread observed which launch.
 */
class Profiler
{
  public:
    void setEnabled(bool on)
    {
        recording.store(on, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return recording.load(std::memory_order_relaxed);
    }

    /** Fold one launch into its signature's record. */
    void observe(const ObsRecord &rec);

    /** Add one node's rollup shard (fleet aggregation). */
    void addRollupShard(const std::string &key, ShardSummary shard);

    /** @return records sorted by signature, bound labels resolved. */
    std::vector<ObsRecord> observations() const;

    /** @return a copy of the accumulated rollup. */
    Rollup rollupSnapshot() const;

    /** Drop every record and rollup shard. */
    void clear();

    /** @return the process-wide profiler (disabled until enabled). */
    static Profiler &global();

  private:
    using Key = std::tuple<std::string, std::string, std::string, u32,
                           u64, double, double, u32>;

    std::atomic<bool> recording{false};
    mutable std::mutex mtx;
    std::map<Key, ObsRecord> records;
    Rollup shards;
};

/** Everything `--profile-out` serializes. */
struct ProfileReport
{
    TraceAnalysis analysis;
    /** Run-level label: "compute-bound" | "memory-bound" |
     *  "lds-bound" | "latency-bound" | "launch-bound" |
     *  "transfer-bound" | "queue-bound" | "unknown". */
    std::string bottleneck;
    std::vector<ObsRecord> observations;
    bool hasRollup = false;
    ClusterSummary rollup;
    std::vector<FlightRecord> flightRecords;
    u64 flightDropped = 0;
    u64 traceDroppedSpans = 0;
};

/** @return the run-level bottleneck label (see ProfileReport). */
std::string classifyRun(const TraceAnalysis &analysis,
                        const std::vector<ObsRecord> &observations);

/** Assemble a report from the process-wide collectors. */
ProfileReport buildProfile(const Tracer &tracer,
                           const Profiler &profiler,
                           const FlightRecorder &recorder);

/**
 * Serialize the report as one self-contained JSON object, schema
 * "hetsim.profile.v1":
 *
 *   {"schema":"hetsim.profile.v1",
 *    "makespan_seconds":..., "attributed_seconds":...,
 *    "attribution_error_rel":..., "spans_analyzed":...,
 *    "bottleneck":"...",
 *    "attribution":[{"kind","key","phase","seconds","segments"},...],
 *    "critical_path":{"steps":N,"longest":[...<=64 by seconds desc]},
 *    "observations":[<observation record>,...],
 *    "rollup":{...}|null,
 *    "flight_records":[...], "flight_dropped":N,
 *    "trace_dropped_spans":N}
 *
 * Doubles are printed at max precision (round-trip exact), so equal
 * reports are byte-equal files.
 */
void writeProfileJson(std::ostream &os, const ProfileReport &report);

/**
 * Serialize observation records as JSONL, one object per line with
 * keys in fixed order:
 *
 *   {"kernel":str,"device":str,"model":str,"precision_bits":int,
 *    "items":int,"core_mhz":num,"mem_mhz":num,"workgroup":int,
 *    "launches":int,"seconds":num,"mean_seconds":num,
 *    "var_seconds":num,"issue_seconds":num,
 *    "mem_seconds":num,"lds_seconds":num,"latency_seconds":num,
 *    "launch_seconds":num,"bound":str}
 */
void writeObservationsJsonl(std::ostream &os,
                            const std::vector<ObsRecord> &observations);

} // namespace hetsim::obs

#endif // HETSIM_OBS_PROFILE_HH
