/**
 * @file
 * Tests for the serving layer: JobSpec JSONL parsing, submit-order
 * dequeue, service-deadline preemption, tenant fair share,
 * fault-schedule determinism against standalone runs, and the
 * byte-identical results contract across worker counts.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "serve/server.hh"
#include "serve/stream.hh"

namespace hetsim::serve
{
namespace
{

JobSpec
tinyJob(u64 id, const char *app = "readmem")
{
    JobSpec spec;
    spec.id = id;
    spec.app = app;
    spec.model = "opencl";
    spec.device = "dgpu";
    spec.scale = 0.02;
    return spec;
}

// --- JSONL parsing -----------------------------------------------------

TEST(JobSpecParse, FullLineRoundTrips)
{
    std::string err;
    auto spec = parseJobLine(
        R"({"id": 9, "app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "policy": "dynamic", "scale": 0.5, "dp": true,)"
        R"( "functional": true, "freq": "600:810",)"
        R"( "timing_cache": false, "faults": "transfer:0.2",)"
        R"( "fault_seed": 42, "retry_max": 7,)"
        R"( "service_deadline_ms": 250, "tenant": "acme"})",
        1, err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->id, 9u);
    EXPECT_EQ(spec->app, "xsbench");
    EXPECT_TRUE(spec->coexec());
    EXPECT_EQ(spec->policy, "dynamic");
    EXPECT_DOUBLE_EQ(spec->scale, 0.5);
    EXPECT_TRUE(spec->doublePrecision);
    EXPECT_TRUE(spec->functional);
    EXPECT_DOUBLE_EQ(spec->freq.coreMhz, 600);
    EXPECT_DOUBLE_EQ(spec->freq.memMhz, 810);
    EXPECT_FALSE(spec->timingCache);
    EXPECT_TRUE(spec->faultsGiven);
    EXPECT_DOUBLE_EQ(spec->faultConfig.transferFailRate, 0.2);
    EXPECT_EQ(spec->faultConfig.seed, 42u);
    EXPECT_EQ(spec->faultConfig.retryMax, 7u);
    EXPECT_DOUBLE_EQ(spec->serviceDeadlineMs, 250.0);
    EXPECT_TRUE(spec->serviceDeadlineGiven);
    EXPECT_EQ(spec->tenant, "acme");
}

TEST(JobSpecParse, MalformedLinesCarryTheLineNumber)
{
    const char *bad[] = {
        "not json",
        R"({"app": "readmem",})",
        R"({"app": 7})",
        R"({"unknown_key": 1})",
        R"({"scale": -1})",
        R"({"scale": 0})",
        R"({"freq": "925"})",
        R"({"faults": "meteor:0.5"})",
        R"({"retry_max": 65})",
        R"({"fault_seed": -1})",
        R"({"service_deadline_ms": -5})",
        R"({"app": "readmem"} trailing)",
        R"({"nested": {"x": 1}})",
        R"({"app": "a", "app": "b"})",
    };
    for (const char *line : bad) {
        std::string err;
        auto spec = parseJobLine(line, 7, err);
        EXPECT_FALSE(spec.has_value()) << line;
        EXPECT_NE(err.find("line 7"), std::string::npos)
            << line << " -> " << err;
    }
    // A job has no queue-wait deadline and no priority: the server
    // runs every job it is given, in submit order.
    for (const char *key : {"deadline_ms", "priority"}) {
        std::string err;
        const std::string line = std::string("{\"") + key + "\": 1}";
        EXPECT_FALSE(parseJobLine(line, 7, err).has_value()) << key;
        EXPECT_EQ(err, std::string("line 7: unknown key \"") + key + "\"");
    }
}

TEST(JobSpecParse, NonFiniteFreqIsRejected)
{
    for (const char *freq :
         {"nan:nan", "nan:1500", "925:inf", "-inf:1500"}) {
        std::string err;
        auto spec = parseJobLine(
            std::string("{\"freq\": \"") + freq + "\"}", 3, err);
        EXPECT_FALSE(spec.has_value()) << freq;
        EXPECT_NE(err.find(std::string("\"freq\" wants positive core:mem "
                                       "MHz, got '") +
                           freq + "'"),
                  std::string::npos)
            << err;
    }
}

TEST(JobSpecParse, StreamAssignsLineIdsAndRejectsDuplicates)
{
    std::istringstream ok(R"({"app": "readmem"}

{"app": "minife", "model": "openmp", "device": "cpu"}
)");
    std::string err;
    auto jobs = parseJobs(ok, err);
    ASSERT_TRUE(jobs.has_value()) << err;
    ASSERT_EQ(jobs->size(), 2u);
    // Implicit ids are the 1-based line numbers (blank lines count).
    EXPECT_EQ((*jobs)[0].id, 1u);
    EXPECT_EQ((*jobs)[1].id, 3u);

    std::istringstream dup(R"({"id": 4, "app": "readmem"}
{"id": 4, "app": "minife"}
)");
    auto dup_jobs = parseJobs(dup, err);
    EXPECT_FALSE(dup_jobs.has_value());
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

// --- runJob ------------------------------------------------------------

TEST(ServeRunJob, BadSpecsAreStructuredErrors)
{
    EXPECT_EQ(runJob(tinyJob(1, "doom")).status, JobStatus::Error);

    JobSpec faulty = tinyJob(2);
    faulty.faultConfig.transferFailRate = 0.5;
    faulty.faultsGiven = true;
    // Fault injection rides the co-execution path only.
    auto res = runJob(faulty);
    EXPECT_EQ(res.status, JobStatus::Error);
    EXPECT_NE(res.error.find("co-execution"), std::string::npos);

    JobSpec badModel = tinyJob(3);
    badModel.model = "sycl";
    res = runJob(badModel);
    EXPECT_EQ(res.status, JobStatus::Error);
    EXPECT_EQ(res.error, "unknown model 'sycl'");

    // A problem too large to size throws (std::length_error from a
    // reserve, before any allocation); the job fails alone with the
    // exception's text instead of taking the process down.
    JobSpec huge = tinyJob(4);
    huge.scale = 1e12;
    res = runJob(huge);
    EXPECT_EQ(res.status, JobStatus::Error);
    EXPECT_FALSE(res.error.empty());
    EXPECT_EQ(res.id, 4u);
    EXPECT_EQ(res.app, "readmem");
}

TEST(ServeRunJob, FaultScheduleMatchesStandaloneBitwise)
{
    JobSpec spec;
    spec.id = 1;
    spec.app = "xsbench";
    spec.devices = "cpu+dgpu";
    spec.scale = 0.05;
    spec.faultConfig.transferFailRate = 0.3;
    spec.faultConfig.seed = 42;
    spec.faultsGiven = true;

    // Standalone run on this thread = the `hetsim coexec` path.
    JobResult standalone = runJob(spec);
    ASSERT_EQ(standalone.status, JobStatus::Ok);
    EXPECT_GT(standalone.faultsInjected, 0u);

    // Served run: same spec through a multi-worker server.
    ServerConfig cfg;
    cfg.workers = 4;
    std::string error;
    auto outcome = runBatch({spec}, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    ASSERT_EQ(outcome->results.size(), 1u);
    const JobResult &served = outcome->results[0];
    ASSERT_EQ(served.status, JobStatus::Ok);
    EXPECT_EQ(served.faultScheduleHash, standalone.faultScheduleHash);
    EXPECT_EQ(served.faultsInjected, standalone.faultsInjected);
    // Bit-equal simulated outcome, not merely close.
    EXPECT_EQ(served.simSeconds, standalone.simSeconds);
    EXPECT_EQ(served.checksum, standalone.checksum);
}

// --- Submit-order dequeue --------------------------------------------

TEST(ServeQueue, EveryJobRunsInSubmitOrder)
{
    ServerConfig cfg;
    cfg.workers = 1;
    std::vector<JobSpec> jobs;
    for (u64 id = 5; id >= 1; --id)
        jobs.push_back(tinyJob(id));

    std::string error;
    auto outcome = runBatch(jobs, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    ASSERT_EQ(outcome->results.size(), 5u);
    EXPECT_EQ(outcome->report.submitted, 5u);
    EXPECT_EQ(outcome->report.completed, 5u);
    // Results are id-ordered; serviceSeq records the dequeue order,
    // which is the submit order (ids 5, 4, ..., 1).
    for (size_t i = 0; i < 5; ++i) {
        const JobResult &res = outcome->results[i];
        EXPECT_EQ(res.status, JobStatus::Ok) << res.id;
        EXPECT_EQ(res.worker, 0) << res.id;
        EXPECT_EQ(res.serviceSeq, 4 - i) << res.id;
        EXPECT_EQ(res.queueDepthAtSubmit, 4 - i) << res.id;
    }
}

// --- Config validation -------------------------------------------------

TEST(ServeConfig, ZeroWorkersIsAStructuredError)
{
    ServerConfig cfg;
    cfg.workers = 0;
    auto err = Server::validateConfig(cfg);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("worker"), std::string::npos);

    std::string error;
    EXPECT_FALSE(runBatch({tinyJob(1)}, cfg, error).has_value());
    EXPECT_FALSE(error.empty());

    Server server(cfg);
    EXPECT_TRUE(server.start().has_value());
}

// --- Determinism across worker counts ----------------------------------

TEST(ServeDeterminism, ResultsJsonlIsByteIdenticalAcrossWorkerCounts)
{
    std::vector<JobSpec> jobs;
    jobs.push_back(tinyJob(1));
    JobSpec coex;
    coex.id = 2;
    coex.app = "xsbench";
    coex.devices = "cpu+dgpu";
    coex.scale = 0.05;
    coex.faultConfig.transferFailRate = 0.25;
    coex.faultConfig.seed = 7;
    coex.faultsGiven = true;
    jobs.push_back(coex);
    // The same job twice with the same seed: both copies must
    // serialize identically (ISSUE acceptance).
    JobSpec again = coex;
    again.id = 3;
    jobs.push_back(again);
    JobSpec fn = tinyJob(4, "minife");
    fn.model = "openmp";
    fn.device = "cpu";
    fn.functional = true;
    jobs.push_back(fn);

    auto serialize = [&](u32 workers) {
        ServerConfig cfg;
        cfg.workers = workers;
        std::string error;
        auto outcome = runBatch(jobs, cfg, error);
        EXPECT_TRUE(outcome.has_value()) << error;
        std::ostringstream os;
        writeResultsJsonl(os, outcome->results);
        return os.str();
    };

    const std::string one = serialize(1);
    const std::string four = serialize(4);
    EXPECT_EQ(one, four);
    // Ascending id order, every job terminal.
    EXPECT_LT(one.find("\"id\":1,"), one.find("\"id\":2,"));
    EXPECT_LT(one.find("\"id\":2,"), one.find("\"id\":3,"));
    // The two equal-seed copies produced identical payloads.
    std::istringstream lines(four);
    std::string l1, l2, l3;
    std::getline(lines, l1);
    std::getline(lines, l2);
    std::getline(lines, l3);
    EXPECT_EQ(l2.substr(l2.find("\"status\"")),
              l3.substr(l3.find("\"status\"")));
}

// --- Virtual-cluster accounting ----------------------------------------

TEST(ServeVirtualSchedule, ThroughputScalesWithVirtualWorkers)
{
    std::vector<JobSpec> jobs;
    for (u64 id = 1; id <= 8; ++id)
        jobs.push_back(tinyJob(id));

    auto makespan = [&](u32 workers) {
        ServerConfig cfg;
        cfg.workers = workers;
        std::string error;
        auto outcome = runBatch(jobs, cfg, error);
        EXPECT_TRUE(outcome.has_value()) << error;
        EXPECT_EQ(outcome->report.completed, 8u);
        EXPECT_GT(outcome->report.virtualMakespanSeconds, 0.0);
        return outcome->report.virtualMakespanSeconds;
    };

    const double m1 = makespan(1);
    const double m8 = makespan(8);
    // Eight identical jobs on eight virtual workers: makespan drops
    // by the worker count exactly, deterministically on any host.
    EXPECT_GE(m1 / m8, 3.0);
}

TEST(ServeVirtualSchedule, ListSchedulesInServiceOrder)
{
    std::vector<JobResult> results(3);
    for (size_t i = 0; i < results.size(); ++i) {
        results[i].id = i + 1;
        results[i].worker = 0;
        results[i].serviceSeq = i;
        results[i].simSeconds = 1.0;
    }
    const double makespan2 = applyVirtualSchedule(results, 2);
    EXPECT_DOUBLE_EQ(makespan2, 2.0);
    EXPECT_DOUBLE_EQ(results[0].simQueueWaitSeconds, 0.0);
    EXPECT_DOUBLE_EQ(results[1].simQueueWaitSeconds, 0.0);
    EXPECT_DOUBLE_EQ(results[2].simQueueWaitSeconds, 1.0);
    EXPECT_DOUBLE_EQ(results[2].simFinishSeconds, 2.0);
}

TEST(ServeReport, LatencyPercentilesAreNearestRank)
{
    std::vector<double> values;
    for (int v = 100; v >= 1; --v)
        values.push_back(static_cast<double>(v));
    Percentiles s = percentiles(values);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 50.0);
    EXPECT_DOUBLE_EQ(s.p95, 95.0);
    EXPECT_DOUBLE_EQ(s.p99, 99.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);

    EXPECT_EQ(percentiles({}).count, 0u);
}

// --- Observability -----------------------------------------------------

TEST(ServeObservability, WorkersEmitPerSessionTraceTracks)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);

    std::vector<JobSpec> jobs;
    for (u64 id = 1; id <= 4; ++id)
        jobs.push_back(tinyJob(id));
    ServerConfig cfg;
    cfg.workers = 2;
    std::string error;
    auto outcome = runBatch(jobs, cfg, error);
    tracer.setEnabled(false);
    ASSERT_TRUE(outcome.has_value()) << error;

    bool serveTrack = false;
    bool labelledDevice = false;
    for (const std::string &name : tracer.trackNames()) {
        if (name.rfind("serve/w", 0) == 0)
            serveTrack = true;
        // RuntimeContext resources constructed on a worker session
        // carry the session prefix, e.g. "w0/AMD Radeon .../compute".
        if (name.rfind("w0/", 0) == 0 || name.rfind("w1/", 0) == 0)
            labelledDevice = true;
    }
    tracer.clear();
    EXPECT_TRUE(serveTrack);
    EXPECT_TRUE(labelledDevice);
}

// --- Service-deadline inheritance (explicit 0 vs absent) ---------------

TEST(ServeDeadline, ExplicitZeroServiceDeadlineDoesNotInherit)
{
    std::string err;
    auto zero = parseJobLine(
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02,)"
        R"( "service_deadline_ms": 0})",
        1, err);
    ASSERT_TRUE(zero.has_value()) << err;
    EXPECT_TRUE(zero->serviceDeadlineGiven);

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.defaultServiceDeadlineMs = 0.01;
    Server server(cfg);
    ASSERT_FALSE(server.start().has_value());
    server.submit(*zero);
    JobSpec inherits = tinyJob(2);
    server.submit(inherits);
    server.drain();
    auto results = server.takeResults();
    server.shutdown();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_DOUBLE_EQ(results[0].serviceDeadlineMs, 0.0);
    EXPECT_DOUBLE_EQ(results[1].serviceDeadlineMs, 0.01);
}

// --- Preemption (service deadlines) ------------------------------------

JobSpec
coexJob(u64 id)
{
    JobSpec spec;
    spec.id = id;
    spec.app = "xsbench";
    spec.devices = "cpu+dgpu";
    spec.scale = 0.05;
    return spec;
}

TEST(ServePreemption, SlicesCheckpointAndResumeToCompletion)
{
    const JobSpec spec = coexJob(1);
    const double budget = 2e-3; // simulated seconds per slice

    auto first = runJobSlice(spec, budget, nullptr);
    ASSERT_EQ(first.result.status, JobStatus::Ok)
        << first.result.error;
    ASSERT_TRUE(first.preempted);
    ASSERT_FALSE(first.remaining.empty());
    // Checkpointed ranges are sorted and disjoint.
    for (size_t i = 0; i < first.remaining.size(); ++i) {
        EXPECT_LT(first.remaining[i].first, first.remaining[i].second);
        if (i > 0) {
            EXPECT_LE(first.remaining[i - 1].second,
                      first.remaining[i].first);
        }
    }

    // Drive the continuation chain to completion by hand; the
    // progress guarantee (>= 1 chunk per slice) bounds it.
    std::vector<coexec::ItemRange> remaining = first.remaining;
    u64 slices = 1;
    while (!remaining.empty()) {
        ASSERT_LT(slices, 200u) << "continuation chain diverged";
        auto next = runJobSlice(spec, budget, &remaining);
        ASSERT_EQ(next.result.status, JobStatus::Ok)
            << next.result.error;
        remaining = next.remaining;
        ++slices;
    }
    EXPECT_GT(slices, 1u);

    // The slice sequence is a pure function of (spec, budget).
    auto again = runJobSlice(spec, budget, nullptr);
    EXPECT_EQ(again.result.simSeconds, first.result.simSeconds);
    EXPECT_EQ(again.remaining, first.remaining);
}

TEST(ServePreemption, ServedJobSurvivesPreemptionsDeterministically)
{
    JobSpec spec = coexJob(1);
    spec.serviceDeadlineMs = 2.0; // forces several checkpoints
    spec.faultConfig.transferFailRate = 0.25;
    spec.faultConfig.seed = 11;
    spec.faultsGiven = true;

    auto serialize = [&](u32 workers) {
        ServerConfig cfg;
        cfg.workers = workers;
        std::string error;
        auto outcome = runBatch({spec, tinyJob(2)}, cfg, error);
        EXPECT_TRUE(outcome.has_value()) << error;
        EXPECT_EQ(outcome->results[0].status, JobStatus::Ok);
        EXPECT_GT(outcome->results[0].preemptions, 0u);
        EXPECT_GT(outcome->report.preemptions, 0u);
        std::ostringstream os;
        writeResultsJsonl(os, outcome->results);
        return os.str();
    };
    const std::string one = serialize(1);
    EXPECT_EQ(one, serialize(3));
    EXPECT_NE(one.find("\"preemptions\":"), std::string::npos);
}

TEST(ServePreemption, ExpiresAfterMaxPreemptions)
{
    JobSpec spec = coexJob(1);
    spec.serviceDeadlineMs = 2.0;

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxPreemptions = 0; // first checkpoint already exceeds it
    Server server(cfg);
    ASSERT_FALSE(server.start().has_value());
    server.submit(spec);
    server.drain();
    auto results = server.takeResults();
    server.shutdown();

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Expired);
    EXPECT_NE(results[0].error.find("service deadline"),
              std::string::npos);
    EXPECT_EQ(results[0].preemptions, 1u);
}

TEST(ServePreemption, FunctionalJobsNeverPreempt)
{
    JobSpec spec = coexJob(1);
    spec.functional = true;
    spec.serviceDeadlineMs = 1e-9; // would preempt instantly if read
    auto outcome = runJobSlice(spec, 1e-12, nullptr);
    EXPECT_EQ(outcome.result.status, JobStatus::Ok)
        << outcome.result.error;
    EXPECT_FALSE(outcome.preempted);
    EXPECT_TRUE(outcome.remaining.empty());
}

// --- Multi-tenant fair share -------------------------------------------

TEST(ServeTenants, WeightedFairShareDispatchesHeavyTenantsEarlier)
{
    std::string err;
    ServerConfig cfg;
    cfg.workers = 1;
    ASSERT_TRUE(cfg.tenants.applyWeights("heavy:4,light:1", err))
        << err;

    std::vector<JobSpec> jobs;
    for (u64 i = 0; i < 4; ++i) {
        JobSpec h = tinyJob(2 * i + 1);
        h.tenant = "heavy";
        JobSpec l = tinyJob(2 * i + 2);
        l.tenant = "light";
        jobs.push_back(l); // light submits first each round
        jobs.push_back(h);
    }
    std::string error;
    auto outcome = runBatch(jobs, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;

    ASSERT_EQ(outcome->report.tenants.size(), 2u);
    const auto &heavy = outcome->report.tenants[0];
    const auto &light = outcome->report.tenants[1];
    ASSERT_EQ(heavy.tenant, "heavy");
    ASSERT_EQ(light.tenant, "light");
    EXPECT_DOUBLE_EQ(heavy.weight, 4.0);
    EXPECT_DOUBLE_EQ(light.weight, 1.0);
    EXPECT_EQ(heavy.completed, 4u);
    EXPECT_EQ(light.completed, 4u);
    // The fair-share observable: the weighted-up tenant's jobs
    // dispatch earlier on average despite submitting second.
    EXPECT_LT(heavy.meanServiceSeq, light.meanServiceSeq);
}

// --- Streaming front-end -----------------------------------------------

TEST(ServeStream, EndSentinelStopsIngestionAndEmitsLiveLines)
{
    std::istringstream in(
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02, "tenant": "a"})"
        "\n\n"
        R"({"id": 2, "app": "minife", "model": "openmp",)"
        R"( "device": "cpu", "scale": 0.02})"
        "\n  end  \n"
        "this is not json but it is after end and never read\n");
    std::ostringstream out;
    ServerConfig cfg;
    cfg.workers = 2;
    std::string error;
    auto outcome = runStream(in, out, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    EXPECT_TRUE(outcome->sawEnd);
    EXPECT_EQ(outcome->linesRead, 4u); // incl. blank + sentinel
    ASSERT_EQ(outcome->results.size(), 2u);
    EXPECT_EQ(outcome->results[0].tenant, "a");

    // The live lines are exactly the sorted serialization's lines,
    // possibly reordered (completion order is host-dependent).
    std::ostringstream sorted;
    writeResultsJsonl(sorted, outcome->results);
    std::istringstream live(out.str());
    std::string line;
    size_t lines = 0;
    while (std::getline(live, line)) {
        ++lines;
        EXPECT_NE(sorted.str().find(line + "\n"), std::string::npos)
            << line;
    }
    EXPECT_EQ(lines, 2u);
}

TEST(ServeStream, EofBehavesLikeEnd)
{
    std::istringstream in(
        R"({"id": 7, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02})"
        "\n");
    std::ostringstream out;
    ServerConfig cfg;
    cfg.workers = 1;
    std::string error;
    auto outcome = runStream(in, out, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    EXPECT_FALSE(outcome->sawEnd);
    ASSERT_EQ(outcome->results.size(), 1u);
    EXPECT_EQ(outcome->results[0].status, JobStatus::Ok);
}

TEST(ServeStream, BadLinesAreFatalWithTheLineNumber)
{
    ServerConfig cfg;
    cfg.workers = 1;
    {
        std::istringstream in(
            "{\"id\": 1, \"scale\": 0.02}\nnot json\n");
        std::ostringstream out;
        std::string error;
        EXPECT_FALSE(runStream(in, out, cfg, error).has_value());
        EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    }
    {
        std::istringstream in(
            R"({"id": 3, "app": "readmem", "scale": 0.02})"
            "\n"
            R"({"id": 3, "app": "readmem", "scale": 0.02})"
            "\n");
        std::ostringstream out;
        std::string error;
        EXPECT_FALSE(runStream(in, out, cfg, error).has_value());
        EXPECT_NE(error.find("line 2"), std::string::npos) << error;
        EXPECT_NE(error.find("duplicate job id 3"),
                  std::string::npos)
            << error;
    }
}

TEST(ServeStream, SortedResultsAreByteIdenticalAcrossWorkerCounts)
{
    // The ISSUE acceptance scenario: a two-tenant faulted stream with
    // forced preemption, byte-identical at 1, 2, and 7 workers.
    const std::string feed =
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02, "tenant": "a"})"
        "\n"
        R"({"id": 2, "app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "scale": 0.05, "tenant": "b",)"
        R"( "service_deadline_ms": 2, "faults": "transfer:0.25",)"
        R"( "fault_seed": 11})"
        "\n"
        R"({"id": 3, "app": "minife", "model": "openmp",)"
        R"( "device": "cpu", "scale": 0.02, "tenant": "a"})"
        "\n"
        R"({"id": 4, "app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "scale": 0.05, "tenant": "b",)"
        R"( "service_deadline_ms": 2, "faults": "transfer:0.25",)"
        R"( "fault_seed": 11})"
        "\nend\n";
    auto serialize = [&](u32 workers) {
        std::istringstream in(feed);
        std::ostringstream out;
        ServerConfig cfg;
        cfg.workers = workers;
        std::string err;
        EXPECT_TRUE(
            cfg.tenants.applyWeights("a:2,b:1", err))
            << err;
        std::string error;
        auto outcome = runStream(in, out, cfg, error);
        EXPECT_TRUE(outcome.has_value()) << error;
        EXPECT_GT(outcome->report.preemptions, 0u);
        std::ostringstream sorted;
        writeResultsJsonl(sorted, outcome->results);
        return sorted.str();
    };
    const std::string one = serialize(1);
    EXPECT_EQ(one, serialize(2));
    EXPECT_EQ(one, serialize(7));
    EXPECT_NE(one.find("\"preemptions\":"), std::string::npos);
    // Equal specs (ids 2 and 4) serialized identical payloads.
    std::istringstream lines(one);
    std::string l1, l2, l3, l4;
    std::getline(lines, l1);
    std::getline(lines, l2);
    std::getline(lines, l3);
    std::getline(lines, l4);
    EXPECT_EQ(l2.substr(l2.find("\"status\"")),
              l4.substr(l4.find("\"status\"")));
}

} // namespace
} // namespace hetsim::serve
