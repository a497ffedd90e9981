#include "profile.hh"

#include <algorithm>
#include <iomanip>
#include <limits>

#include "common/flatjson.hh"

namespace hetsim::obs
{

namespace
{

void
putObsRecord(std::ostream &os, const ObsRecord &rec)
{
    os << "{\"kernel\":";
    json::writeString(os, rec.kernel);
    os << ",\"device\":";
    json::writeString(os, rec.device);
    os << ",\"model\":";
    json::writeString(os, rec.model);
    os << ",\"precision_bits\":" << rec.precisionBits
       << ",\"items\":" << rec.items << ",\"core_mhz\":" << rec.coreMhz
       << ",\"mem_mhz\":" << rec.memMhz
       << ",\"workgroup\":" << rec.workgroup
       << ",\"launches\":" << rec.launches
       << ",\"seconds\":" << rec.seconds
       << ",\"mean_seconds\":" << rec.meanSeconds
       << ",\"var_seconds\":"
       << (rec.launches > 0
               ? rec.m2Seconds / static_cast<double>(rec.launches)
               : 0.0)
       << ",\"issue_seconds\":" << rec.issueSeconds
       << ",\"mem_seconds\":" << rec.memSeconds
       << ",\"lds_seconds\":" << rec.ldsSeconds
       << ",\"latency_seconds\":" << rec.latencySeconds
       << ",\"launch_seconds\":" << rec.launchSeconds << ",\"bound\":";
    json::writeString(os, rec.bound);
    os << '}';
}

void
putHistogram(std::ostream &os, const Histogram &hist)
{
    os << "{\"count\":" << hist.count << ",\"sum\":" << hist.sum
       << ",\"min\":" << hist.min << ",\"max\":" << hist.max
       << ",\"buckets\":[";
    for (size_t b = 0; b < hist.counts.size(); ++b) {
        if (b)
            os << ',';
        os << "{\"le\":";
        if (b < hist.bounds.size())
            os << hist.bounds[b];
        else
            os << "\"+Inf\"";
        os << ",\"count\":" << hist.counts[b] << '}';
    }
    os << "]}";
}

} // namespace

const char *
dominantTerm(double issue, double mem, double lds, double latency,
             double launch)
{
    const char *label = "compute";
    double best = issue;
    if (mem > best) {
        best = mem;
        label = "memory";
    }
    if (lds > best) {
        best = lds;
        label = "lds";
    }
    if (latency > best) {
        best = latency;
        label = "latency";
    }
    if (launch > best)
        label = "launch";
    return label;
}

void
Profiler::observe(const ObsRecord &rec)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    Key key{rec.kernel,  rec.device, rec.model,  rec.precisionBits,
            rec.items,   rec.coreMhz, rec.memMhz, rec.workgroup};
    const double inMean =
        rec.launches > 0
            ? rec.seconds / static_cast<double>(rec.launches)
            : 0.0;
    auto it = records.find(key);
    if (it == records.end()) {
        it = records.emplace(std::move(key), rec).first;
        it->second.meanSeconds = inMean;
        it->second.m2Seconds = rec.m2Seconds;
        return;
    }
    ObsRecord &acc = it->second;
    // Chan's parallel merge keeps the mean bit-exact when every
    // launch of a signature times identically (delta == 0), so the
    // folded mean never depends on observation order.
    const double accN = static_cast<double>(acc.launches);
    const double inN = static_cast<double>(rec.launches);
    const double total = accN + inN;
    if (total > 0.0) {
        const double delta = inMean - acc.meanSeconds;
        acc.m2Seconds += rec.m2Seconds +
                         delta * delta * accN * inN / total;
        acc.meanSeconds += delta * inN / total;
    }
    acc.launches += rec.launches;
    acc.seconds += rec.seconds;
    acc.issueSeconds += rec.issueSeconds;
    acc.memSeconds += rec.memSeconds;
    acc.ldsSeconds += rec.ldsSeconds;
    acc.latencySeconds += rec.latencySeconds;
    acc.launchSeconds += rec.launchSeconds;
}

void
Profiler::addRollupShard(const std::string &key, ShardSummary shard)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    shards.addShard(key, std::move(shard));
}

std::vector<ObsRecord>
Profiler::observations() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::vector<ObsRecord> out;
    out.reserve(records.size());
    for (const auto &[key, rec] : records) {
        out.push_back(rec);
        out.back().bound =
            dominantTerm(rec.issueSeconds, rec.memSeconds, rec.ldsSeconds,
                         rec.latencySeconds, rec.launchSeconds);
    }
    return out;
}

Rollup
Profiler::rollupSnapshot() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return shards;
}

void
Profiler::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    records.clear();
    shards.clear();
}

Profiler &
Profiler::global()
{
    static Profiler profiler;
    return profiler;
}

std::string
classifyRun(const TraceAnalysis &analysis,
            const std::vector<ObsRecord> &observations)
{
    if (analysis.makespanSeconds <= 0.0)
        return "unknown";
    const double device = analysis.kindSeconds("device");
    const double link = analysis.kindSeconds("link");
    const double wait = analysis.kindSeconds("wait");
    // Path-level verdicts first: if the critical path is mostly
    // waiting or mostly moving bytes, no kernel term explains it.
    if (wait >= device && wait >= link)
        return "queue-bound";
    if (link >= device)
        return "transfer-bound";
    // Device-dominated: launch-weighted argmax over roofline terms.
    double issue = 0.0, mem = 0.0, lds = 0.0, latency = 0.0,
           launch = 0.0;
    for (const ObsRecord &rec : observations) {
        issue += rec.issueSeconds;
        mem += rec.memSeconds;
        lds += rec.ldsSeconds;
        latency += rec.latencySeconds;
        launch += rec.launchSeconds;
    }
    const double total = issue + mem + lds + latency + launch;
    if (total <= 0.0)
        return "unknown";
    std::string label = "compute-bound";
    double best = issue;
    if (mem > best) {
        best = mem;
        label = "memory-bound";
    }
    if (lds > best) {
        best = lds;
        label = "lds-bound";
    }
    if (latency > best) {
        best = latency;
        label = "latency-bound";
    }
    if (launch > best)
        label = "launch-bound";
    return label;
}

ProfileReport
buildProfile(const Tracer &tracer, const Profiler &profiler,
             const FlightRecorder &recorder)
{
    ProfileReport report;
    report.analysis = analyzeTrace(tracer);
    report.observations = profiler.observations();
    report.bottleneck = classifyRun(report.analysis, report.observations);
    const Rollup rollup = profiler.rollupSnapshot();
    if (!rollup.empty()) {
        report.hasRollup = true;
        report.rollup = rollup.aggregate();
    }
    report.flightRecords = recorder.snapshot();
    report.flightDropped = recorder.dropped();
    report.traceDroppedSpans = tracer.dropped();
    return report;
}

void
writeProfileJson(std::ostream &os, const ProfileReport &report)
{
    os << std::setprecision(17);
    os << "{\"schema\":\"hetsim.profile.v1\"";
    os << ",\"makespan_seconds\":" << report.analysis.makespanSeconds;
    os << ",\"attributed_seconds\":"
       << report.analysis.attributedSeconds;
    os << ",\"attribution_error_rel\":"
       << report.analysis.attributionError();
    os << ",\"spans_analyzed\":" << report.analysis.spansAnalyzed;
    os << ",\"bottleneck\":";
    json::writeString(os, report.bottleneck);

    os << ",\"attribution\":[";
    bool first = true;
    for (const AttributionBucket &bucket : report.analysis.buckets) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"kind\":";
        json::writeString(os, bucket.kind);
        os << ",\"key\":";
        json::writeString(os, bucket.key);
        os << ",\"phase\":";
        json::writeString(os, bucket.phase);
        os << ",\"seconds\":" << bucket.seconds
           << ",\"segments\":" << bucket.segments << '}';
    }
    os << ']';

    // The full path can be thousands of steps; the report keeps the
    // 64 longest so the file stays self-contained but bounded.
    std::vector<const PathStep *> longest;
    longest.reserve(report.analysis.path.size());
    for (const PathStep &step : report.analysis.path)
        longest.push_back(&step);
    std::stable_sort(longest.begin(), longest.end(),
                     [](const PathStep *a, const PathStep *b) {
                         return a->seconds() > b->seconds();
                     });
    if (longest.size() > 64)
        longest.resize(64);
    os << ",\"critical_path\":{\"steps\":"
       << report.analysis.path.size() << ",\"longest\":[";
    first = true;
    for (const PathStep *step : longest) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"track\":";
        json::writeString(os, step->track);
        os << ",\"name\":";
        json::writeString(os, step->name);
        os << ",\"cat\":";
        json::writeString(os, step->cat);
        os << ",\"start_seconds\":" << step->startSeconds
           << ",\"end_seconds\":" << step->endSeconds << '}';
    }
    os << "]}";

    os << ",\"observations\":[";
    first = true;
    for (const ObsRecord &rec : report.observations) {
        if (!first)
            os << ',';
        first = false;
        putObsRecord(os, rec);
    }
    os << ']';

    os << ",\"rollup\":";
    if (!report.hasRollup) {
        os << "null";
    } else {
        const ClusterSummary &cluster = report.rollup;
        os << "{\"shards\":" << cluster.shards
           << ",\"jobs\":" << cluster.jobs
           << ",\"faults\":" << cluster.faults
           << ",\"busy_seconds\":" << cluster.busySeconds
           << ",\"net_seconds\":" << cluster.netSeconds
           << ",\"makespan_seconds\":" << cluster.makespanSeconds
           << ",\"latency_ms\":{\"p50\":" << cluster.latency.p50
           << ",\"p90\":" << cluster.latency.p90
           << ",\"p99\":" << cluster.latency.p99
           << ",\"mean\":" << cluster.latency.mean
           << ",\"hist\":";
        putHistogram(os, cluster.latencyMs);
        os << "}}";
    }

    os << ",\"flight_records\":[";
    first = true;
    for (const FlightRecord &rec : report.flightRecords) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"job_id\":" << rec.jobId << ",\"kind\":";
        json::writeString(os, rec.kind);
        os << ",\"what\":";
        json::writeString(os, rec.what);
        os << ",\"where\":";
        json::writeString(os, rec.where);
        os << ",\"detail\":";
        json::writeString(os, rec.detail);
        os << ",\"arrival_seconds\":" << rec.arrivalSeconds
           << ",\"start_seconds\":" << rec.startSeconds
           << ",\"finish_seconds\":" << rec.finishSeconds
           << ",\"deadline_ms\":" << rec.deadlineMs
           << ",\"queue_depth\":" << rec.queueDepth
           << ",\"fault_events\":[";
        bool firstFault = true;
        for (const std::string &event : rec.faultEvents) {
            if (!firstFault)
                os << ',';
            firstFault = false;
            json::writeString(os, event);
        }
        os << "],\"spans\":[";
        bool firstSpan = true;
        for (const TraceEvent &span : rec.spans) {
            if (firstSpan)
                firstSpan = false;
            else
                os << ',';
            os << "{\"name\":";
            json::writeString(os, span.name);
            os << ",\"cat\":";
            json::writeString(os, span.cat);
            os << ",\"ts_us\":" << span.tsUs
               << ",\"dur_us\":" << span.durUs << '}';
        }
        os << "]}";
    }
    os << "],\"flight_dropped\":" << report.flightDropped;
    os << ",\"trace_dropped_spans\":" << report.traceDroppedSpans;
    os << "}\n";
}

void
writeObservationsJsonl(std::ostream &os,
                       const std::vector<ObsRecord> &observations)
{
    os << std::setprecision(17);
    for (const ObsRecord &rec : observations) {
        putObsRecord(os, rec);
        os << '\n';
    }
}

} // namespace hetsim::obs
