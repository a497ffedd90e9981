/**
 * @file
 * Tests of the profiling & analysis layer: critical-path extraction
 * on hand-crafted timelines, the attribution-sums-to-makespan
 * invariant, rollup merge associativity, flight-recorder retention
 * rules, and byte-identical profile reports across worker counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/threadpool.hh"
#include "fleet/fleet.hh"
#include "fleet/topology.hh"
#include "obs/analyzer.hh"
#include "obs/flightrec.hh"
#include "obs/profile.hh"
#include "obs/rollup.hh"
#include "obs/tracer.hh"

namespace hetsim
{
namespace
{

/** Find the bucket with the given key triple, or fail the test. */
const obs::AttributionBucket &
bucketOf(const obs::TraceAnalysis &analysis, const std::string &kind,
         const std::string &key, const std::string &phase)
{
    for (const obs::AttributionBucket &bucket : analysis.buckets) {
        if (bucket.kind == kind && bucket.key == key &&
            bucket.phase == phase)
            return bucket;
    }
    ADD_FAILURE() << "missing bucket " << kind << "/" << key << "/"
                  << phase;
    static const obs::AttributionBucket none;
    return none;
}

/** The path must tile [0, makespan] exactly, latest segment first. */
void
expectPathTiles(const obs::TraceAnalysis &analysis)
{
    ASSERT_FALSE(analysis.path.empty());
    EXPECT_DOUBLE_EQ(analysis.path.front().endSeconds,
                     analysis.makespanSeconds);
    for (size_t i = 1; i < analysis.path.size(); ++i) {
        EXPECT_DOUBLE_EQ(analysis.path[i].endSeconds,
                         analysis.path[i - 1].startSeconds)
            << "step " << i;
    }
    EXPECT_DOUBLE_EQ(analysis.path.back().startSeconds, 0.0);
}

// --- dominant-term labels ----------------------------------------------

TEST(ProfileDominantTerm, TiesKeepTheEarlierLabel)
{
    using obs::dominantTerm;
    EXPECT_STREQ(dominantTerm(1, 0, 0, 0, 0), "compute");
    EXPECT_STREQ(dominantTerm(1, 2, 0, 0, 0), "memory");
    EXPECT_STREQ(dominantTerm(1, 2, 3, 0, 0), "lds");
    EXPECT_STREQ(dominantTerm(1, 2, 3, 4, 0), "latency");
    EXPECT_STREQ(dominantTerm(1, 2, 3, 4, 5), "launch");
    // An equal later term does not displace the earlier label.
    EXPECT_STREQ(dominantTerm(2, 2, 2, 2, 0), "compute");
    EXPECT_STREQ(dominantTerm(1, 3, 3, 3, 0), "memory");
    EXPECT_STREQ(dominantTerm(1, 2, 3, 3, 0), "lds");
    // Launch must be strictly larger than every body term to win.
    EXPECT_STREQ(dominantTerm(1, 2, 3, 4, 4), "latency");
    EXPECT_STREQ(dominantTerm(0, 0, 0, 0, 0), "compute");
    EXPECT_STREQ(dominantTerm(0, 0, 0, 0, 1e-12), "launch");
}

// --- critical-path extraction ------------------------------------------

TEST(ProfileAnalyzer, HandCraftedChainAttributesEverySegment)
{
    // k1 [0,1] compute -> h2d [1,1.5] transfer -> 0.5s gap -> k2 [2,3].
    obs::Tracer tracer;
    tracer.setEnabled(true);
    const obs::TrackId compute = tracer.track("gpu0/compute");
    const obs::TrackId dma = tracer.track("gpu0/dma-h2d");
    tracer.span(compute, "k1", "compute", 0.0, 1.0);
    tracer.span(dma, "h2d", "transfer", 1.0, 0.5);
    tracer.span(compute, "k2", "compute", 2.0, 1.0);

    const obs::TraceAnalysis analysis = obs::analyzeTrace(tracer);
    EXPECT_EQ(analysis.spansAnalyzed, 3u);
    EXPECT_DOUBLE_EQ(analysis.makespanSeconds, 3.0);
    EXPECT_DOUBLE_EQ(analysis.attributedSeconds, 3.0);
    EXPECT_LE(analysis.attributionError(), 1e-9);
    ASSERT_EQ(analysis.path.size(), 4u);
    expectPathTiles(analysis);

    ASSERT_EQ(analysis.buckets.size(), 3u);
    const auto &comp =
        bucketOf(analysis, "device", "gpu0", "compute");
    EXPECT_DOUBLE_EQ(comp.seconds, 2.0);
    EXPECT_EQ(comp.segments, 2u);
    const auto &link =
        bucketOf(analysis, "link", "gpu0/dma-h2d", "transfer");
    EXPECT_DOUBLE_EQ(link.seconds, 0.5);
    const auto &wait = bucketOf(analysis, "wait", "gpu0", "wait");
    EXPECT_DOUBLE_EQ(wait.seconds, 0.5);
}

TEST(ProfileAnalyzer, CrossDeviceChainAndTieBreaking)
{
    // Two spans finish at t=1; the earliest-started one wins the
    // walk, so one jump covers the longest segment.
    obs::Tracer tracer;
    tracer.setEnabled(true);
    const obs::TrackId cpu = tracer.track("cpu/compute");
    const obs::TrackId gpu = tracer.track("gpu/compute");
    tracer.span(cpu, "stage0", "compute", 0.0, 1.0);
    tracer.span(gpu, "late", "compute", 0.6, 0.4); // also ends at 1.0
    tracer.span(gpu, "stage1", "compute", 1.0, 2.0);

    const obs::TraceAnalysis analysis = obs::analyzeTrace(tracer);
    EXPECT_DOUBLE_EQ(analysis.makespanSeconds, 3.0);
    ASSERT_EQ(analysis.path.size(), 2u);
    EXPECT_EQ(analysis.path[0].name, "stage1");
    EXPECT_EQ(analysis.path[1].name, "stage0");
    expectPathTiles(analysis);
    EXPECT_DOUBLE_EQ(
        bucketOf(analysis, "device", "gpu", "compute").seconds, 2.0);
    EXPECT_DOUBLE_EQ(
        bucketOf(analysis, "device", "cpu", "compute").seconds, 1.0);
}

TEST(ProfileAnalyzer, LeadingGapBecomesWait)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.span(tracer.track("gpu/compute"), "k", "compute", 2.0, 1.0);

    const obs::TraceAnalysis analysis = obs::analyzeTrace(tracer);
    EXPECT_DOUBLE_EQ(analysis.makespanSeconds, 3.0);
    ASSERT_EQ(analysis.path.size(), 2u);
    EXPECT_EQ(analysis.path[1].cat, "wait");
    EXPECT_DOUBLE_EQ(
        bucketOf(analysis, "wait", "gpu", "wait").seconds, 2.0);
    EXPECT_DOUBLE_EQ(analysis.attributedSeconds, 3.0);
}

TEST(ProfileAnalyzer, HostMaterialIsExcludedByDefault)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.span(tracer.track("gpu/compute"), "k", "compute", 0.0, 1.0);
    // Host wall-clock material: run/serve cats, serve/ and w<i>/
    // tracks.  None of it may leak into the simulated attribution.
    tracer.span(tracer.track("host"), "run", "run", 0.0, 9.0);
    tracer.span(tracer.track("serve/w0"), "job", "queue", 0.0, 9.0);
    tracer.span(tracer.track("w3/gpu/compute"), "k", "compute", 0.0,
                9.0);

    const obs::TraceAnalysis analysis = obs::analyzeTrace(tracer);
    EXPECT_EQ(analysis.spansAnalyzed, 1u);
    EXPECT_DOUBLE_EQ(analysis.makespanSeconds, 1.0);

    EXPECT_TRUE(obs::isWorkerSessionTrack("w0/gpu"));
    EXPECT_TRUE(obs::isWorkerSessionTrack("w17/x"));
    EXPECT_FALSE(obs::isWorkerSessionTrack("w/x"));
    EXPECT_FALSE(obs::isWorkerSessionTrack("w3"));
    EXPECT_FALSE(obs::isWorkerSessionTrack("world/x"));
}

// --- attribution invariant ---------------------------------------------

TEST(ProfileAnalyzer, AttributionSumsToMakespanOnDenseTimelines)
{
    // A deterministic pseudo-random pile of overlapping spans across
    // several tracks; whatever the structure, the walk must tile
    // [0, makespan] and the buckets must sum to it.
    obs::Tracer tracer;
    tracer.setEnabled(true);
    std::vector<obs::TrackId> tracks;
    for (const char *name :
         {"gpu/compute", "gpu/dma-h2d", "gpu/dma-d2h", "cpu/compute",
          "apu/compute"})
        tracks.push_back(tracer.track(name));

    u64 state = 0x9e3779b97f4a7c15ull;
    auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int i = 0; i < 500; ++i) {
        const obs::TrackId track = tracks[next() % tracks.size()];
        const double start = (next() % 10000) * 1e-4;
        const double dur = 1e-4 + (next() % 1000) * 1e-4;
        const bool transfer = track == tracks[1] || track == tracks[2];
        tracer.span(track, "s", transfer ? "transfer" : "compute",
                    start, dur);
    }

    const obs::TraceAnalysis analysis = obs::analyzeTrace(tracer);
    EXPECT_EQ(analysis.spansAnalyzed, 500u);
    EXPECT_LE(analysis.attributionError(), 1e-9);
    expectPathTiles(analysis);

    double bucketSum = 0.0;
    for (const obs::AttributionBucket &bucket : analysis.buckets)
        bucketSum += bucket.seconds;
    EXPECT_NEAR(bucketSum, analysis.makespanSeconds,
                1e-9 * analysis.makespanSeconds);
    EXPECT_DOUBLE_EQ(analysis.kindSeconds("device") +
                         analysis.kindSeconds("link") +
                         analysis.kindSeconds("wait"),
                     analysis.attributedSeconds);
}

TEST(ProfileAnalyzer, EmptyAndDegenerateTimelines)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    obs::TraceAnalysis analysis = obs::analyzeTrace(tracer);
    EXPECT_EQ(analysis.spansAnalyzed, 0u);
    EXPECT_DOUBLE_EQ(analysis.attributionError(), 0.0);

    // Zero-duration and negative-time spans are ignored.
    const obs::TrackId track = tracer.track("gpu/compute");
    tracer.span(track, "zero", "compute", 1.0, 0.0);
    tracer.span(track, "early", "compute", -2.0, 1.0);
    analysis = obs::analyzeTrace(tracer);
    EXPECT_EQ(analysis.spansAnalyzed, 0u);
}

// --- rollup merge ------------------------------------------------------

obs::ShardSummary
shard(u64 jobs, double busy, double finish, double latencyMsSample)
{
    obs::ShardSummary s;
    s.jobs = jobs;
    s.faults = jobs / 2;
    s.busySeconds = busy;
    s.netSeconds = busy * 0.125;
    s.finishSeconds = finish;
    s.latencyMs = obs::makeHistogram({1, 10, 100, 1000});
    obs::histogramObserve(s.latencyMs, latencyMsSample);
    return s;
}

std::string
aggregateFingerprint(obs::Rollup rollup)
{
    const obs::ClusterSummary c = rollup.aggregate();
    std::ostringstream os;
    os.precision(17);
    os << c.shards << " " << c.jobs << " " << c.faults << " "
       << c.busySeconds << " " << c.netSeconds << " "
       << c.makespanSeconds << " " << c.latencyMs.count << " "
       << c.latencyMs.sum << " " << c.latency.p50 << " "
       << c.latency.p99;
    return os.str();
}

TEST(ProfileRollup, MergeIsAssociativeAndOrderIndependent)
{
    obs::Rollup a, b, c;
    a.addShard("node/0", shard(10, 1.5, 2.0, 3.0));
    a.addShard("node/1", shard(7, 0.75, 1.25, 42.0));
    b.addShard("node/2", shard(3, 0.25, 0.5, 950.0));
    b.addShard("node/0", shard(4, 0.5, 2.5, 7.0)); // same key as a's
    c.addShard("node/3", shard(1, 0.125, 0.125, 5000.0));

    // (a + b) + c
    obs::Rollup left = a;
    left.merge(b);
    left.merge(c);
    // a + (b + c)
    obs::Rollup bc = b;
    bc.merge(c);
    obs::Rollup right = a;
    right.merge(bc);
    // reversed arrival order
    obs::Rollup rev = c;
    rev.merge(b);
    rev.merge(a);

    EXPECT_EQ(left.size(), 4u);
    const std::string want = aggregateFingerprint(left);
    EXPECT_EQ(aggregateFingerprint(right), want);
    EXPECT_EQ(aggregateFingerprint(rev), want);

    const obs::ClusterSummary total = left.aggregate();
    EXPECT_EQ(total.jobs, 25u);
    EXPECT_DOUBLE_EQ(total.makespanSeconds, 2.5);
    EXPECT_EQ(total.latencyMs.count, 5u);
}

TEST(ProfileRollup, HistogramMergeHandlesMismatchedBounds)
{
    obs::Histogram a = obs::makeHistogram({1, 10});
    obs::Histogram b = obs::makeHistogram({5, 50});
    obs::histogramObserve(a, 0.5);
    obs::histogramObserve(b, 20.0);
    // Mismatched bounds: count/sum/min/max still merge, buckets do
    // not, and the caller is told.
    EXPECT_FALSE(obs::histogramMerge(a, b));
    EXPECT_EQ(a.count, 2u);
    EXPECT_DOUBLE_EQ(a.sum, 20.5);
    EXPECT_DOUBLE_EQ(a.min, 0.5);
    EXPECT_DOUBLE_EQ(a.max, 20.0);

    // Matched bounds: bucket-exact merge.
    obs::Histogram c = obs::makeHistogram({1, 10});
    obs::histogramObserve(c, 5.0);
    EXPECT_TRUE(obs::histogramMerge(a, c));
    EXPECT_EQ(a.count, 3u);

    // An empty histogram merges into anything.
    obs::Histogram empty = obs::makeHistogram({2, 3});
    EXPECT_FALSE(obs::histogramMerge(a, empty));
    EXPECT_EQ(a.count, 3u);
}

// --- flight recorder ---------------------------------------------------

obs::FlightRecord
flight(u64 jobId, const std::string &kind)
{
    obs::FlightRecord rec;
    rec.jobId = jobId;
    rec.kind = kind;
    rec.what = "app";
    return rec;
}

TEST(ProfileFlightRecorder, RetainsLowestKeysRegardlessOfOrder)
{
    obs::FlightRecorder rec;
    rec.setEnabled(true);
    rec.setCapacity(3);
    // Arrival order is adversarial (descending): the survivors must
    // still be the lowest (jobId, kind) keys.
    for (u64 id : {9u, 7u, 5u, 3u, 1u})
        rec.record(flight(id, "error"));
    const auto kept = rec.snapshot();
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[0].jobId, 1u);
    EXPECT_EQ(kept[1].jobId, 3u);
    EXPECT_EQ(kept[2].jobId, 5u);
    EXPECT_EQ(rec.dropped(), 2u);
}

TEST(ProfileFlightRecorder, LatestOfferWinsForAKey)
{
    obs::FlightRecorder rec;
    rec.setEnabled(true);
    obs::FlightRecord first = flight(1, "slo_miss");
    first.detail = "old";
    obs::FlightRecord second = flight(1, "slo_miss");
    second.detail = "new";
    rec.record(first);
    rec.record(second);
    rec.record(flight(1, "error")); // distinct kind = distinct key
    const auto kept = rec.snapshot();
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].kind, "error");
    EXPECT_EQ(kept[1].kind, "slo_miss");
    EXPECT_EQ(kept[1].detail, "new");
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(ProfileFlightRecorder, DisabledRecorderIgnoresOffers)
{
    obs::FlightRecorder rec;
    rec.record(flight(1, "error"));
    EXPECT_TRUE(rec.snapshot().empty());
    rec.setEnabled(true);
    rec.record(flight(1, "error"));
    EXPECT_EQ(rec.snapshot().size(), 1u);
    rec.clear();
    EXPECT_TRUE(rec.snapshot().empty());
    EXPECT_EQ(rec.dropped(), 0u);
}

// --- run classification ------------------------------------------------

TEST(ProfileClassify, WaitAndLinkDominanceBeatKernelTerms)
{
    obs::TraceAnalysis analysis;
    analysis.makespanSeconds = 10.0;
    auto bucket = [](const char *kind, double seconds) {
        obs::AttributionBucket b;
        b.kind = kind;
        b.key = "x";
        b.phase = "p";
        b.seconds = seconds;
        return b;
    };
    analysis.buckets = {bucket("device", 2.0), bucket("wait", 8.0)};
    EXPECT_EQ(obs::classifyRun(analysis, {}), "queue-bound");

    analysis.buckets = {bucket("device", 3.0), bucket("link", 7.0)};
    EXPECT_EQ(obs::classifyRun(analysis, {}), "transfer-bound");

    // Device-dominant with no observations: no kernel signal.
    analysis.buckets = {bucket("device", 9.0), bucket("link", 1.0)};
    EXPECT_EQ(obs::classifyRun(analysis, {}), "unknown");

    obs::ObsRecord rec;
    rec.launches = 1;
    rec.seconds = 1.0;
    rec.memSeconds = 0.9;
    rec.issueSeconds = 0.1;
    EXPECT_EQ(obs::classifyRun(analysis, {rec}), "memory-bound");
    rec.issueSeconds = 2.0;
    EXPECT_EQ(obs::classifyRun(analysis, {rec}), "compute-bound");
}

// --- byte-identical reports across worker counts -----------------------

fleet::FleetConfig
faultyFleetConfig()
{
    fleet::FleetConfig cfg;
    cfg.jobs = 4000;
    cfg.seed = 42;
    cfg.arrivalRate = 1500.0;
    cfg.sloSeconds = 0.050;
    cfg.nodeFailRate = 0.15;
    cfg.faults.transferFailRate = 0.05;
    cfg.faults.launchFailRate = 0.02;
    fleet::JobClass cls;
    cls.name = "unit";
    cls.secondsByDevice = {{"dgpu", 0.010}, {"apu", 0.020},
                           {"cpu", 0.035}};
    cls.inputBytes = 32ull << 20;
    cfg.classes = {cls};
    return cfg;
}

fleet::Topology
profileTopology()
{
    std::istringstream is("{\"device\": \"dgpu\", \"count\": 6}\n"
                          "{\"device\": \"apu\", \"count\": 3}\n"
                          "{\"device\": \"cpu\", \"count\": 3}\n");
    std::string error;
    auto topo = fleet::parseTopology(is, error);
    EXPECT_TRUE(topo.has_value()) << error;
    return *topo;
}

/** Run one campaign against the global collectors and serialize. */
std::string
profileReportBytes(const fleet::Topology &topo,
                   const fleet::FleetConfig &cfg,
                   cpu::ThreadPool *pool)
{
    obs::Tracer &tracer = obs::Tracer::global();
    obs::Profiler &profiler = obs::Profiler::global();
    obs::FlightRecorder &recorder = obs::FlightRecorder::global();
    tracer.clear();
    tracer.setEnabled(true);
    profiler.clear();
    profiler.setEnabled(true);
    recorder.clear();
    recorder.setEnabled(true);

    std::string error;
    const auto result = fleet::simulateFleet(topo, cfg, error, pool);
    EXPECT_TRUE(result.has_value()) << error;

    const obs::ProfileReport report =
        obs::buildProfile(tracer, profiler, recorder);
    std::ostringstream os;
    obs::writeProfileJson(os, report);

    tracer.setEnabled(false);
    tracer.clear();
    profiler.setEnabled(false);
    profiler.clear();
    recorder.setEnabled(false);
    recorder.clear();
    return os.str();
}

TEST(ProfileDeterminism, ReportIsByteIdenticalAcrossWorkerCounts)
{
    const fleet::Topology topo = profileTopology();
    fleet::FleetConfig cfg = faultyFleetConfig();

    cfg.serialTimeline = true;
    const std::string serial = profileReportBytes(topo, cfg, nullptr);
    ASSERT_FALSE(serial.empty());
    EXPECT_NE(serial.find("\"schema\":\"hetsim.profile.v1\""),
              std::string::npos);
    EXPECT_NE(serial.find("\"flight_records\":["), std::string::npos);
    EXPECT_NE(serial.find("\"rollup\":{"), std::string::npos);

    cfg.serialTimeline = false;
    for (unsigned workers : {1u, 2u, 7u}) {
        cpu::ThreadPool pool(workers);
        const std::string sharded =
            profileReportBytes(topo, cfg, &pool);
        EXPECT_EQ(sharded, serial) << "workers=" << workers;
    }
}

TEST(ProfileDeterminism, TraceSampleIsSeedStableAcrossWorkerCounts)
{
    const fleet::Topology topo = profileTopology();
    fleet::FleetConfig cfg = faultyFleetConfig();
    cfg.traceSampleNodes = 3;

    auto sampledTracks = [&](cpu::ThreadPool *pool) {
        obs::Tracer &tracer = obs::Tracer::global();
        tracer.clear();
        tracer.setEnabled(true);
        std::string error;
        cfg.serialTimeline = pool == nullptr;
        const auto result =
            fleet::simulateFleet(topo, cfg, error, pool);
        EXPECT_TRUE(result.has_value()) << error;
        const auto events = tracer.snapshot();
        const auto names = tracer.trackNames();
        tracer.setEnabled(false);
        tracer.clear();
        std::set<std::string> tracks;
        for (const obs::TraceEvent &event : events) {
            if (event.kind == obs::TraceEvent::Kind::Span &&
                names[event.track].rfind("fleet/", 0) == 0)
                tracks.insert(names[event.track]);
        }
        return tracks;
    };

    const std::set<std::string> serial = sampledTracks(nullptr);
    EXPECT_EQ(serial.size(), 3u);
    for (unsigned workers : {2u, 7u}) {
        cpu::ThreadPool pool(workers);
        EXPECT_EQ(sampledTracks(&pool), serial)
            << "workers=" << workers;
    }
}

TEST(ProfileDeterminism, FleetFlightRecorderCapturesSloMisses)
{
    const fleet::Topology topo = profileTopology();
    fleet::FleetConfig cfg = faultyFleetConfig();
    cfg.serialTimeline = true;

    obs::FlightRecorder &recorder = obs::FlightRecorder::global();
    recorder.clear();
    recorder.setEnabled(true);
    std::string error;
    const auto result = fleet::simulateFleet(topo, cfg, error);
    const auto kept = recorder.snapshot();
    const u64 dropped = recorder.dropped();
    recorder.setEnabled(false);
    recorder.clear();
    ASSERT_TRUE(result.has_value()) << error;

    ASSERT_GT(result->sloViolations, 0u);
    u64 sloMisses = 0, retries = 0;
    for (const obs::FlightRecord &rec : kept) {
        if (rec.kind == "slo_miss") {
            ++sloMisses;
            EXPECT_NE(rec.detail.find("slo"), std::string::npos);
        } else if (rec.kind == "retry_after_node_death") {
            ++retries;
        }
        EXPECT_FALSE(rec.where.empty());
        EXPECT_FALSE(rec.spans.empty());
    }
    // Every record kept is an SLO miss or a post-death retry, and
    // every failed job was offered: kept + dropped covers them all.
    EXPECT_EQ(sloMisses + retries, kept.size());
    EXPECT_GT(sloMisses, 0u);
    EXPECT_LE(kept.size(), 256u);
    EXPECT_EQ(kept.size() + dropped,
              result->sloViolations + result->retries);
}

// --- observation records -----------------------------------------------

TEST(ProfileObservations, SignatureMergeAndJsonlSchema)
{
    obs::Profiler profiler;
    profiler.setEnabled(true);
    obs::ObsRecord rec;
    rec.kernel = "axpy";
    rec.device = "GPU \"X\""; // exercises JSON escaping
    rec.model = "opencl";
    rec.precisionBits = 64;
    rec.items = 1000;
    rec.coreMhz = 925;
    rec.memMhz = 1500;
    rec.workgroup = 64;
    rec.launches = 1;
    rec.seconds = 0.5;
    rec.memSeconds = 0.4;
    rec.issueSeconds = 0.1;
    profiler.observe(rec);
    profiler.observe(rec); // same signature: folds, not duplicates
    rec.items = 2000;      // new signature
    profiler.observe(rec);

    const auto records = profiler.observations();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].items, 1000u);
    EXPECT_EQ(records[0].launches, 2u);
    EXPECT_DOUBLE_EQ(records[0].seconds, 1.0);
    EXPECT_EQ(records[0].bound, "memory");
    EXPECT_EQ(records[1].items, 2000u);

    std::ostringstream os;
    obs::writeObservationsJsonl(os, records);
    const std::string jsonl = os.str();
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
    EXPECT_EQ(jsonl.find("{\"kernel\":\"axpy\",\"device\":"
                         "\"GPU \\\"X\\\"\",\"model\":\"opencl\","
                         "\"precision_bits\":64,\"items\":1000,"),
              0u);
    EXPECT_NE(jsonl.find("\"bound\":\"memory\"}"), std::string::npos);

    // A disabled profiler drops offers; clear() empties it.
    profiler.setEnabled(false);
    profiler.observe(rec);
    EXPECT_EQ(profiler.observations().size(), 2u);
    profiler.clear();
    EXPECT_TRUE(profiler.observations().empty());
}

} // namespace
} // namespace hetsim
