/**
 * @file
 * hetsim::obs - critical-path extraction and makespan attribution.
 *
 * The analyzer turns a recorded span timeline into an explanation of
 * where the end-to-end simulated time went.  Spans carry a track
 * ("<device>/<queue>"), a category (phase), and an interval; the span
 * dependency graph is implicit in the intervals: on every in-order
 * simulated queue a span starts exactly when the work gating it
 * finished.  The critical path is therefore recovered by a backward
 * walk from the makespan: starting at the latest finish, repeatedly
 * jump to the span whose finish is closest below the cursor (its
 * gating predecessor), attributing the segment walked over to that
 * span's {device, phase} bucket - or to a *wait* bucket when a gap
 * separates the predecessor's finish from the cursor.  Transfer spans
 * attribute to *link* buckets keyed by the full "<device>/<queue>"
 * track so fabric and DMA queues stay distinguishable.
 *
 * The walk tiles [0, makespan] exactly, so the attribution buckets
 * sum to the end-to-end simulated time up to floating-point rounding
 * of the segment sum (well within 1e-9 relative error), and the walk
 * order is a pure function of the span *values* - the analysis is
 * byte-identical no matter how many workers recorded the spans.
 *
 * Host wall-clock spans (the serve workers' "serve/w<i>" tracks and
 * per-worker-session relabeled device tracks "w<i>/...") are excluded
 * by default: they measure the host, not the simulated machine, and
 * they vary with worker count.  The batch verb contributes its
 * deterministic virtual-cluster timeline ("vcluster/v<i>") instead.
 */

#ifndef HETSIM_OBS_ANALYZER_HH
#define HETSIM_OBS_ANALYZER_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/tracer.hh"

namespace hetsim::obs
{

/** One attributed segment of the backward critical-path walk. */
struct PathStep
{
    std::string track; ///< "(wait)" for gap segments
    std::string name;
    std::string cat;
    /** Attributed segment (a suffix of the span's interval). */
    double startSeconds = 0.0;
    double endSeconds = 0.0;

    double seconds() const { return endSeconds - startSeconds; }
};

/** One {kind, key, phase} share of the makespan. */
struct AttributionBucket
{
    /** "device" | "link" | "wait" */
    std::string kind;
    /** Device name (device/wait) or "<device>/<queue>" track (link). */
    std::string key;
    /** Span category ("compute", "fleet", ...); "wait" for gaps. */
    std::string phase;
    double seconds = 0.0;
    u64 segments = 0;
};

/** Where the simulated time went, for one traced run. */
struct TraceAnalysis
{
    /** Latest span finish across the analyzed spans. */
    double makespanSeconds = 0.0;
    /** Sum of every bucket; == makespan within 1e-9 relative. */
    double attributedSeconds = 0.0;
    /** Sorted by (kind, key, phase). */
    std::vector<AttributionBucket> buckets;
    /** Backward-walk segments, latest first; tiles [0, makespan]. */
    std::vector<PathStep> path;
    u64 spansAnalyzed = 0;

    /** @return bucket-sum error relative to the makespan. */
    double attributionError() const;
    /** @return total seconds of buckets of @p kind. */
    double kindSeconds(const std::string &kind) const;
};

/** @return whether @p track looks like "w<digits>/..." (a per-worker
 *  serving-session relabeled device track). */
bool isWorkerSessionTrack(const std::string &track);

/**
 * Analyze raw events against @p trackNames (indexed by TrackId).
 * Host wall-clock material is left out: spans of category "run" or
 * "serve", tracks under "serve/", and per-worker-session relabeled
 * tracks ("w<digits>/...").
 */
TraceAnalysis analyzeSpans(const std::vector<TraceEvent> &events,
                           const std::vector<std::string> &trackNames);

/** Analyze a tracer's current snapshot. */
TraceAnalysis analyzeTrace(const Tracer &tracer);

} // namespace hetsim::obs

#endif // HETSIM_OBS_ANALYZER_HH
