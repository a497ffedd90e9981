#include "analyzer.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <tuple>

namespace hetsim::obs
{

namespace
{

/** One normalized span, in seconds. */
struct Span
{
    double start = 0.0;
    double end = 0.0;
    const std::string *track = nullptr;
    const std::string *name = nullptr;
    const std::string *cat = nullptr;
};

/** @return the "<device>" prefix of a "<device>/<queue>" track. */
std::string
deviceOfTrack(const std::string &track)
{
    const size_t slash = track.rfind('/');
    return slash == std::string::npos ? track : track.substr(0, slash);
}

} // namespace

bool
isWorkerSessionTrack(const std::string &track)
{
    if (track.size() < 3 || track[0] != 'w' ||
        !std::isdigit(static_cast<unsigned char>(track[1])))
        return false;
    size_t i = 1;
    while (i < track.size() &&
           std::isdigit(static_cast<unsigned char>(track[i])))
        ++i;
    return i < track.size() && track[i] == '/';
}

double
TraceAnalysis::attributionError() const
{
    if (makespanSeconds <= 0.0)
        return 0.0;
    return std::abs(attributedSeconds - makespanSeconds) /
           makespanSeconds;
}

double
TraceAnalysis::kindSeconds(const std::string &kind) const
{
    double total = 0.0;
    for (const AttributionBucket &bucket : buckets) {
        if (bucket.kind == kind)
            total += bucket.seconds;
    }
    return total;
}

TraceAnalysis
analyzeSpans(const std::vector<TraceEvent> &events,
             const std::vector<std::string> &trackNames)
{
    TraceAnalysis out;

    // Callers guarantee event.track < trackNames.size().
    auto excluded = [&](const TraceEvent &event) {
        if (event.cat == "run" || event.cat == "serve")
            return true;
        const std::string &track = trackNames[event.track];
        return track.starts_with("serve/") ||
               isWorkerSessionTrack(track);
    };

    std::vector<Span> spans;
    spans.reserve(events.size());
    for (const TraceEvent &event : events) {
        if (event.kind != TraceEvent::Kind::Span)
            continue;
        if (event.durUs <= 0.0 || event.track >= trackNames.size())
            continue;
        if (excluded(event))
            continue;
        Span span;
        span.start = event.tsUs * 1e-6;
        span.end = (event.tsUs + event.durUs) * 1e-6;
        span.track = &trackNames[event.track];
        span.name = &event.name;
        span.cat = &event.cat;
        if (span.end <= span.start || span.start < 0.0)
            continue;
        spans.push_back(span);
    }
    out.spansAnalyzed = spans.size();
    if (spans.empty())
        return out;

    // Deterministic order regardless of recording order: the walk
    // below is then a pure function of the span values.
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) {
                  return std::tie(a.end, a.start, *a.track, *a.name) <
                         std::tie(b.end, b.start, *b.track, *b.name);
              });
    out.makespanSeconds = spans.back().end;

    // (kind, key, phase) -> bucket; ordered map = sorted output.
    std::map<std::tuple<std::string, std::string, std::string>,
             AttributionBucket>
        buckets;
    auto attribute = [&](const std::string &kind, std::string key,
                         std::string phase, double seconds) {
        auto mapKey = std::make_tuple(kind, key, phase);
        auto it = buckets.find(mapKey);
        if (it == buckets.end()) {
            AttributionBucket bucket;
            bucket.kind = kind;
            bucket.key = std::move(key);
            bucket.phase = std::move(phase);
            it = buckets.emplace(std::move(mapKey), std::move(bucket))
                     .first;
        }
        it->second.seconds += seconds;
        it->second.segments += 1;
    };

    // Backward walk: from the cursor, the gating predecessor is the
    // span with the latest finish at or below it; among equal
    // finishes the earliest start (then track, then name) wins, so
    // one jump covers the longest segment.  A gap between that finish
    // and the cursor is wait time charged to the device that sat
    // waiting (the successor segment's device).
    double cursor = out.makespanSeconds;
    std::string successorDevice = "(end)";
    size_t hi = spans.size(); // spans[0, hi) have end <= prev cursor
    while (cursor > 0.0) {
        // Latest end <= cursor.
        while (hi > 0 && spans[hi - 1].end > cursor)
            --hi;
        if (hi == 0) {
            // Leading gap before the earliest span.
            PathStep step;
            step.track = "(wait)";
            step.name = "wait before " + successorDevice;
            step.cat = "wait";
            step.startSeconds = 0.0;
            step.endSeconds = cursor;
            attribute("wait", successorDevice, "wait",
                      step.seconds());
            out.attributedSeconds += step.seconds();
            out.path.push_back(std::move(step));
            break;
        }
        const double end = spans[hi - 1].end;
        if (end < cursor) {
            // Gap: nothing was running at the cursor.
            PathStep step;
            step.track = "(wait)";
            step.name = "wait before " + successorDevice;
            step.cat = "wait";
            step.startSeconds = end;
            step.endSeconds = cursor;
            attribute("wait", successorDevice, "wait",
                      step.seconds());
            out.attributedSeconds += step.seconds();
            out.path.push_back(std::move(step));
            cursor = end;
            continue;
        }
        // All spans with this exact end form spans[lo, hi); the sort
        // puts the earliest start first.
        size_t lo = hi;
        while (lo > 0 && spans[lo - 1].end == end)
            --lo;
        const Span &pick = spans[lo];
        PathStep step;
        step.track = *pick.track;
        step.name = *pick.name;
        step.cat = *pick.cat;
        step.startSeconds = pick.start;
        step.endSeconds = cursor;
        const std::string device = deviceOfTrack(*pick.track);
        if (*pick.cat == "transfer")
            attribute("link", *pick.track, *pick.cat, step.seconds());
        else
            attribute("device", device, *pick.cat, step.seconds());
        successorDevice = device;
        out.attributedSeconds += step.seconds();
        out.path.push_back(std::move(step));
        cursor = pick.start;
        hi = lo; // every span ending at `end` is behind us now
    }

    out.buckets.reserve(buckets.size());
    for (auto &[key, bucket] : buckets)
        out.buckets.push_back(std::move(bucket));
    return out;
}

TraceAnalysis
analyzeTrace(const Tracer &tracer)
{
    return analyzeSpans(tracer.snapshot(), tracer.trackNames());
}

} // namespace hetsim::obs
