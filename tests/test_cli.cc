/**
 * @file
 * Tests for the hetsim CLI driver (parsing + command execution).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flatjson.hh"
#include "obs/flightrec.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/tracer.hh"
#include "serve/jobspec.hh"
#include "tools/cli.hh"

#include "temp_file.hh"

namespace hetsim::cli
{
namespace
{

using test::TempFile;

/** @return the whole contents of the file at @p path. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Parses every line of @p jsonl as one flat JSON object. */
std::vector<json::Object>
jsonlObjects(const std::string &jsonl)
{
    std::vector<json::Object> rows;
    std::istringstream lines(jsonl);
    std::string line, error;
    while (std::getline(lines, line)) {
        auto row = json::parseFlatObject(line, error);
        EXPECT_TRUE(row.has_value()) << error << ": " << line;
        if (row)
            rows.push_back(std::move(*row));
    }
    return rows;
}

/** Spans per registered track in the global tracer's current buffer
 *  (0 for a track with none). */
std::map<std::string, u64>
spansPerTrack()
{
    const obs::Tracer &tracer = obs::Tracer::global();
    const std::vector<std::string> names = tracer.trackNames();
    std::map<std::string, u64> spans;
    for (const std::string &name : names)
        spans[name] = 0;
    for (const obs::TraceEvent &event : tracer.snapshot()) {
        if (event.kind == obs::TraceEvent::Kind::Span)
            ++spans[names[event.track]];
    }
    return spans;
}

/** Keys of the outermost object of @p json, in document order. */
std::vector<std::string>
topLevelKeys(const std::string &json)
{
    std::vector<std::string> keys;
    int depth = 0;
    for (size_t i = 0; i < json.size(); ++i) {
        if (json[i] == '"') {
            const size_t start = ++i;
            for (; json[i] != '"'; ++i)
                i += json[i] == '\\';
            if (depth == 1 && json[i + 1] == ':')
                keys.push_back(json.substr(start, i - start));
        } else if (json[i] == '{' || json[i] == '[') {
            ++depth;
        } else if (json[i] == '}' || json[i] == ']') {
            --depth;
        }
    }
    return keys;
}

/** The hetsim.profile.v1 contract: the schema's top-level keys,
 *  attribution buckets that tile the makespan, a critical path, and
 *  flight records of known kinds only. */
void
expectProfileInvariants(const obs::ProfileReport &report)
{
    std::ostringstream json;
    obs::writeProfileJson(json, report);
    EXPECT_EQ(json.str().rfind("{\"schema\":\"hetsim.profile.v1\"", 0),
              0u);
    const std::vector<std::string> keys = topLevelKeys(json.str());
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()),
              (std::set<std::string>{
                  "schema", "makespan_seconds", "attributed_seconds",
                  "attribution_error_rel", "spans_analyzed",
                  "bottleneck", "attribution", "critical_path",
                  "observations", "rollup", "flight_records",
                  "flight_dropped", "trace_dropped_spans"}));

    const obs::TraceAnalysis &analysis = report.analysis;
    const double makespan = analysis.makespanSeconds;
    EXPECT_GT(makespan, 0.0);
    EXPECT_LE(analysis.attributionError(), 1e-9);
    double total = 0.0;
    for (const obs::AttributionBucket &bucket : analysis.buckets) {
        total += bucket.seconds;
        EXPECT_TRUE(bucket.kind == "device" || bucket.kind == "link" ||
                    bucket.kind == "wait")
            << bucket.kind;
    }
    EXPECT_NEAR(total, makespan, 1e-9 * makespan);
    EXPECT_GE(analysis.spansAnalyzed, 1u);
    EXPECT_FALSE(analysis.path.empty());
    const std::set<std::string> kinds{"error", "expired", "preempted",
                                      "slo_miss",
                                      "retry_after_node_death"};
    for (const obs::FlightRecord &rec : report.flightRecords)
        EXPECT_EQ(kinds.count(rec.kind), 1u) << rec.kind;
}

TEST(CliParse, RunWithAllOptions)
{
    Args args = parse({"run", "--app", "comd", "--model", "amp",
                       "--device", "apu", "--scale", "0.5", "--dp",
                       "--functional", "--freq", "600:810",
                       "--stats"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.command, "run");
    EXPECT_EQ(args.app, "comd");
    EXPECT_EQ(args.model, "amp");
    EXPECT_EQ(args.device, "apu");
    EXPECT_DOUBLE_EQ(args.scale, 0.5);
    EXPECT_TRUE(args.doublePrecision);
    EXPECT_TRUE(args.functional);
    EXPECT_TRUE(args.stats);
    EXPECT_DOUBLE_EQ(args.freq.coreMhz, 600);
    EXPECT_DOUBLE_EQ(args.freq.memMhz, 810);
}

TEST(CliParse, Errors)
{
    EXPECT_FALSE(parse({}).error.empty());
    EXPECT_FALSE(parse({"frobnicate"}).error.empty());
    EXPECT_FALSE(parse({"run", "--scale"}).error.empty());
    EXPECT_FALSE(parse({"run", "--scale", "-1"}).error.empty());
    EXPECT_FALSE(parse({"run", "--freq", "925"}).error.empty());
    EXPECT_FALSE(parse({"run", "--wat"}).error.empty());
}

TEST(CliParse, MalformedFreqIsRejectedNotDefaulted)
{
    // Every one of these used to silently atof() to 0:0 (stock
    // clocks); they must produce a clear error instead.
    for (const char *bad : {"a:b", "925:", ":1500", "925:junk",
                            "9x25:810", "-925:810", "925:-810",
                            "0:810", "925:0"}) {
        Args args = parse({"run", "--freq", bad});
        EXPECT_FALSE(args.error.empty()) << bad;
        EXPECT_NE(args.error.find("--freq"), std::string::npos) << bad;
    }
    // Well-formed values still parse.
    Args ok = parse({"run", "--freq", "925:1500"});
    EXPECT_TRUE(ok.error.empty()) << ok.error;
    EXPECT_DOUBLE_EQ(ok.freq.coreMhz, 925);
    EXPECT_DOUBLE_EQ(ok.freq.memMhz, 1500);
}

TEST(CliParse, CoexecOptions)
{
    Args args = parse({"coexec", "--app", "readmem", "--devices",
                       "cpu+dgpu", "--policy", "adaptive", "--chunk",
                       "256", "--scale", "0.1", "--functional"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.command, "coexec");
    EXPECT_EQ(args.devices, "cpu+dgpu");
    EXPECT_EQ(args.policy, "adaptive");
    EXPECT_EQ(args.chunk, 256u);

    EXPECT_FALSE(parse({"coexec", "--chunk", "nope"}).error.empty());
    EXPECT_FALSE(parse({"coexec", "--chunk", "-4"}).error.empty());
}

TEST(CliParse, FaultFlags)
{
    Args args = parse({"coexec", "--inject-faults",
                       "transfer:0.2,stall:0.1", "--fault-seed", "42",
                       "--retry-max", "7", "--fail-device", "gpu",
                       "--min-chunk", "128"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_TRUE(args.faultsGiven);
    EXPECT_DOUBLE_EQ(args.faultConfig.transferFailRate, 0.2);
    EXPECT_DOUBLE_EQ(args.faultConfig.stallRate, 0.1);
    EXPECT_EQ(args.faultConfig.seed, 42u);
    EXPECT_EQ(args.faultConfig.retryMax, 7u);
    EXPECT_EQ(args.faultConfig.failDevice, "gpu");
    EXPECT_EQ(args.minChunk, 128u);

    // No fault flag given: the campaign stays off.
    EXPECT_FALSE(parse({"coexec"}).faultsGiven);
    // --fault-seed/--retry-max alone configure but do not arm it.
    EXPECT_FALSE(parse({"coexec", "--fault-seed", "9"}).faultsGiven);
}

// Satellite 2: integer flags route through a strict validator;
// negatives, trailing junk, signs, and overflow are all rejected
// instead of being silently truncated.
TEST(CliParse, StrictIntegerFlagsRejectJunk)
{
    struct FlagCase
    {
        const char *flag;
        const char *bad;
    };
    const FlagCase cases[] = {
        {"--chunk", "-5"},       {"--chunk", "0"},
        {"--chunk", "12x"},      {"--chunk", "1.5"},
        {"--chunk", "+3"},       {"--chunk", " 4"},
        {"--min-chunk", "-1"},   {"--min-chunk", "0"},
        {"--min-chunk", "junk"}, {"--fault-seed", "-1"},
        {"--fault-seed", "0x10"},
        {"--fault-seed", "99999999999999999999999"},
        {"--retry-max", "-2"},   {"--retry-max", "65"},
        {"--retry-max", "3x"},
    };
    for (const FlagCase &c : cases) {
        Args args = parse({"coexec", c.flag, c.bad});
        EXPECT_FALSE(args.error.empty()) << c.flag << " " << c.bad;
        EXPECT_NE(args.error.find(c.flag), std::string::npos)
            << c.flag << " " << c.bad;
    }
    // Boundary values that must parse.
    EXPECT_TRUE(parse({"coexec", "--retry-max", "0"}).error.empty());
    EXPECT_TRUE(parse({"coexec", "--fault-seed", "0"}).error.empty());
    EXPECT_TRUE(
        parse({"coexec", "--inject-faults", "transfer:0"}).error
            .empty());
    EXPECT_FALSE(
        parse({"coexec", "--inject-faults", "transfer:0.1,"})
            .error.empty());
    EXPECT_FALSE(parse({"coexec", "--fail-device", ""}).error.empty());
}

/** One flag's pinned parse behaviour. */
struct FlagPin
{
    const char *flag;
    const char *bad;   ///< a rejected value (null: none exists)
    const char *error; ///< exact Args::error for @c bad
    const char *good;  ///< an accepted value (null: boolean flag)
    bool (*set)(const Args &); ///< the field @c good (or the flag) set
};

const FlagPin kFlagPins[] = {
    {"--app", nullptr, nullptr, "comd",
     [](const Args &a) { return a.app == "comd"; }},
    {"--model", nullptr, nullptr, "amp",
     [](const Args &a) { return a.model == "amp"; }},
    {"--device", nullptr, nullptr, "apu",
     [](const Args &a) { return a.device == "apu"; }},
    {"--scale", "-1", "--scale wants a positive number, got '-1'", "0.5",
     [](const Args &a) { return a.scale == 0.5; }},
    {"--devices", nullptr, nullptr, "cpu+apu",
     [](const Args &a) { return a.devices == "cpu+apu" && a.devicesGiven; }},
    {"--backend", "sycl",
     "--backend wants a device backend (opencl, ocl, cppamp, amp, openacc, "
     "acc, hc, omp, omptarget, target, cuda), got 'sycl'",
     "cuda", [](const Args &a) { return a.backend == "cuda"; }},
    {"--power-model", "", "--power-model wants a file path", "w.jsonl",
     [](const Args &a) { return a.powerModel == "w.jsonl"; }},
    {"--energy-out", "", "--energy-out wants a file path", "e.json",
     [](const Args &a) { return a.energyOut == "e.json"; }},
    {"--trace-out", "", "--trace-out wants a file path", "t.json",
     [](const Args &a) { return a.traceOut == "t.json"; }},
    {"--metrics-out", "", "--metrics-out wants a file path", "m.json",
     [](const Args &a) { return a.metricsOut == "m.json"; }},
    {"--profile-out", "", "--profile-out wants a file path", "p.json",
     [](const Args &a) { return a.profileOut == "p.json"; }},
    {"--observations-out", "", "--observations-out wants a file path",
     "o.jsonl", [](const Args &a) { return a.observationsOut == "o.jsonl"; }},
    {"--trace-sample", "0",
     "--trace-sample wants a positive node count, got '0'", "8",
     [](const Args &a) { return a.traceSample == 8; }},
    {"--policy", nullptr, nullptr, "static",
     [](const Args &a) { return a.policy == "static"; }},
    {"--chunk", "0", "--chunk wants a positive item count, got '0'", "256",
     [](const Args &a) { return a.chunk == 256; }},
    {"--min-chunk", "x", "--min-chunk wants a positive item count, got 'x'",
     "64", [](const Args &a) { return a.minChunk == 64; }},
    {"--inject-faults", "transfer",
     "--inject-faults wants kind:rate pairs (transfer|launch|stall, rate "
     "in [0,1]), got 'transfer'",
     "launch:0.25", [](const Args &a) {
         return a.faultConfig.launchFailRate == 0.25 && a.faultsGiven;
     }},
    {"--fault-seed", "-1", "--fault-seed wants an unsigned integer, got '-1'",
     "42", [](const Args &a) { return a.faultConfig.seed == 42; }},
    {"--retry-max", "65",
     "--retry-max wants a retry budget in [0, 64], got '65'", "7",
     [](const Args &a) { return a.faultConfig.retryMax == 7; }},
    {"--fail-device", "", "--fail-device wants a device alias", "gpu",
     [](const Args &a) {
         return a.faultConfig.failDevice == "gpu" && a.faultsGiven;
     }},
    {"--freq", "925", "--freq wants core:mem in positive MHz, got '925'",
     "600:810", [](const Args &a) {
         return a.freq.coreMhz == 600 && a.freq.memMhz == 810;
     }},
    {"--jobs", "", "--jobs wants a file path", "j.jsonl",
     [](const Args &a) { return a.jobs == "j.jsonl"; }},
    {"--results-out", "", "--results-out wants a file path", "r.jsonl",
     [](const Args &a) { return a.resultsOut == "r.jsonl"; }},
    {"--workers", "x", "--workers wants a worker count, got 'x'", "0",
     [](const Args &a) { return a.workers == 0; }},
    {"--shots", "0", "--shots wants a positive job count, got '0'", "4",
     [](const Args &a) { return a.shots == 4; }},
    {"--stream", nullptr, nullptr, nullptr,
     [](const Args &a) { return a.stream; }},
    {"--tenants", "a:0",
     "--tenants: weight '0' for tenant 'a' is not a finite number > 0",
     "a:3,b:1", [](const Args &a) { return a.tenants == "a:3,b:1"; }},
    {"--service-deadline-ms", "soon",
     "--service-deadline-ms wants simulated milliseconds (0 = none), got "
     "'soon'",
     "5", [](const Args &a) { return a.serviceDeadlineMs == 5; }},
    {"--max-preemptions", "-2",
     "--max-preemptions wants a preemption count, got '-2'", "3",
     [](const Args &a) { return a.maxPreemptions == 3; }},
    {"--topology", "", "--topology wants a file path", "c.jsonl",
     [](const Args &a) { return a.topology == "c.jsonl"; }},
    {"--nodes", "3x", "--nodes wants a positive node count, got '3x'", "12",
     [](const Args &a) { return a.nodes == 12; }},
    {"--njobs", "0", "--njobs wants a positive job count, got '0'", "500",
     [](const Args &a) { return a.njobs == 500; }},
    {"--placement", "greedy",
     "--placement wants first-fit, least-loaded, or locality, got 'greedy'",
     "locality", [](const Args &a) { return a.placement == "locality"; }},
    {"--rate", "-5",
     "--rate wants a positive jobs/sec arrival rate, got '-5'", "250",
     [](const Args &a) { return a.rate == 250.0; }},
    {"--slo-ms", "-1", "--slo-ms wants milliseconds (0 = none), got '-1'",
     "40", [](const Args &a) { return a.sloMs == 40; }},
    {"--node-fail-rate", "1.5",
     "--node-fail-rate wants a fraction in [0, 1], got '1.5'", "0.25",
     [](const Args &a) { return a.nodeFailRate == 0.25; }},
    {"--seed", "-2", "--seed wants an unsigned integer, got '-2'", "7",
     [](const Args &a) { return a.seed == 7; }},
    {"--model-in", "", "--model-in wants a file path", "m.json",
     [](const Args &a) { return a.modelIn == "m.json"; }},
    {"--model-out", "", "--model-out wants a file path", "m.json",
     [](const Args &a) { return a.modelOut == "m.json"; }},
    {"--fit", "", "--fit wants an observation JSONL file path", "o.jsonl",
     [](const Args &a) { return a.fitObs == "o.jsonl"; }},
    {"--kernel", "", "--kernel wants a kernel name", "read_mem",
     [](const Args &a) { return a.kernel == "read_mem"; }},
    {"--items", "1.5", "--items wants a positive item count, got '1.5'",
     "4096", [](const Args &a) { return a.items == 4096; }},
    {"--no-surrogate", nullptr, nullptr, nullptr,
     [](const Args &a) { return !a.surrogate; }},
    {"--sweep", nullptr, nullptr, nullptr,
     [](const Args &a) { return a.fleetSweep; }},
    {"--dp", nullptr, nullptr, nullptr,
     [](const Args &a) { return a.doublePrecision; }},
    {"--functional", nullptr, nullptr, nullptr,
     [](const Args &a) { return a.functional; }},
    {"--no-timing-cache", nullptr, nullptr, nullptr,
     [](const Args &a) { return !a.timingCache; }},
    {"--stats", nullptr, nullptr, nullptr,
     [](const Args &a) { return a.stats; }},
    {"--kernels", nullptr, nullptr, nullptr,
     [](const Args &a) { return a.kernels; }},
};

/** Parses `<verb> <flag> [value]` under a verb every flag is valid on. */
Args
parseOne(const FlagPin &pin, const char *value)
{
    const std::string flag = pin.flag;
    std::vector<std::string> argv{flag == "--stream" ? "serve" : "run",
                                  flag};
    if (value != nullptr)
        argv.push_back(value);
    return parse(argv);
}

TEST(CliParse, EveryFlagErrorIsPinned)
{
    EXPECT_EQ(std::size(kFlagPins), 49u);
    const Args defaults;
    for (const FlagPin &pin : kFlagPins) {
        const bool boolean = pin.good == nullptr;
        const Args noValue = parseOne(pin, nullptr);
        if (boolean) {
            EXPECT_EQ(noValue.error, "") << pin.flag;
            EXPECT_TRUE(pin.set(noValue)) << pin.flag;
            EXPECT_FALSE(pin.set(defaults)) << pin.flag;
            continue;
        }
        EXPECT_EQ(noValue.error, std::string(pin.flag) + " needs a value");
        if (pin.bad != nullptr) {
            EXPECT_EQ(parseOne(pin, pin.bad).error, pin.error) << pin.flag;
        }
        const Args good = parseOne(pin, pin.good);
        EXPECT_EQ(good.error, "") << pin.flag;
        EXPECT_TRUE(pin.set(good)) << pin.flag;
        EXPECT_FALSE(pin.set(defaults)) << pin.flag;
    }

    // The command word comes first and must be a verb.
    EXPECT_EQ(parse({}).error, "missing command");
    EXPECT_EQ(parse({"frobnicate"}).error, "unknown command 'frobnicate'");
    EXPECT_EQ(parse({"run", "--wat"}).error, "unknown option '--wat'");
    EXPECT_EQ(parse({"run", "wat"}).error, "unknown option 'wat'");

    // The three cross-flag checks, in the order they run.
    const std::string stream =
        "--stream is a serve-verb flag (hetsim serve --stream < "
        "jobs.jsonl)";
    const std::string energyOut =
        "--energy-out writes one run's energy report; it is a "
        "run/coexec-verb flag";
    const std::string predict =
        "predict needs --fit OBS_JSONL or --model-in FILE";
    EXPECT_EQ(parse({"batch", "--stream"}).error, stream);
    EXPECT_EQ(parse({"serve", "--energy-out", "e.json"}).error, energyOut);
    EXPECT_EQ(parse({"predict"}).error, predict);
    EXPECT_EQ(parse({"predict", "--stream", "--energy-out", "e"}).error,
              stream);
    EXPECT_EQ(parse({"predict", "--energy-out", "e"}).error, energyOut);

    // The serve pool is a fixed --workers N, and serve runs every job
    // it is given: no autoscaler, admission control, quota, queue-wait
    // deadline or predicted admission.
    for (const char *gone :
         {"--autoscale", "--min-workers", "--max-workers", "--queue-cap",
          "--admission", "--deadline-ms", "--quota",
          "--predict-admission"}) {
        const std::string error = "unknown option '" + std::string(gone) + "'";
        EXPECT_EQ(parse({"serve", gone}).error, error);
        std::ostringstream os;
        EXPECT_EQ(execute(parse({"batch", gone, "1"}), os), 2) << gone;
        EXPECT_EQ(os.str().rfind("error: " + error + "\n", 0), 0u)
            << os.str();
    }

    // In-loop errors win over cross-flag ones, and the first in argv
    // order wins among them.
    EXPECT_EQ(parse({"run", "--stream", "--scale", "-1"}).error,
              "--scale wants a positive number, got '-1'");
    EXPECT_EQ(parse({"run", "--scale", "-1", "--chunk", "0"}).error,
              "--scale wants a positive number, got '-1'");
    EXPECT_EQ(parse({"run", "--chunk", "0", "--wat"}).error,
              "--chunk wants a positive item count, got '0'");
    EXPECT_EQ(parse({"run", "--wat", "--chunk", "0"}).error,
              "unknown option '--wat'");

    // A value is the next entry, even one that looks like a flag.
    const Args app = parse({"run", "--app", "--dp"});
    EXPECT_EQ(app.error, "");
    EXPECT_EQ(app.app, "--dp");
    EXPECT_FALSE(app.doublePrecision);

    // A later occurrence overrides an earlier one.
    const Args twice = parse({"run", "--scale", "2", "--scale", "0.25",
                              "--app", "comd", "--app", "lulesh"});
    EXPECT_EQ(twice.error, "");
    EXPECT_EQ(twice.scale, 0.25);
    EXPECT_EQ(twice.app, "lulesh");

    // --inject-faults writes only the three rates.
    const Args faults = parse({"coexec", "--fault-seed", "9", "--retry-max",
                               "3", "--fail-device", "cpu",
                               "--inject-faults", "stall:0.5"});
    EXPECT_EQ(faults.error, "");
    EXPECT_EQ(faults.faultConfig.seed, 9u);
    EXPECT_EQ(faults.faultConfig.retryMax, 3u);
    EXPECT_EQ(faults.faultConfig.failDevice, "cpu");
    EXPECT_EQ(faults.faultConfig.stallRate, 0.5);
    EXPECT_EQ(faults.faultConfig.transferFailRate, 0.0);
}

TEST(CliParse, UsageListsEveryFlag)
{
    std::ostringstream os;
    usage(os);
    const std::string text = os.str();
    // Every "--flag" token: "--" plus the letters and dashes after it.
    std::set<std::string> listed;
    for (size_t at = text.find("--"); at != std::string::npos;
         at = text.find("--", at + 2)) {
        const size_t end = text.find_first_not_of(
            "abcdefghijklmnopqrstuvwxyz-", at + 2);
        listed.insert(text.substr(at, end - at));
    }

    for (const FlagPin &pin : kFlagPins)
        EXPECT_EQ(listed.count(pin.flag), 1u) << pin.flag;
    for (const std::string &flag : listed) {
        const std::string error = parse({"run", flag}).error;
        EXPECT_EQ(error.find("unknown option"), std::string::npos)
            << flag << ": " << error;
    }
}

TEST(CliParse, NonFiniteNumbersAreRejected)
{
    for (const std::string v : {"nan", "inf", "-inf"}) {
        const auto error = [](std::vector<std::string> argv) {
            return parse(argv).error;
        };
        EXPECT_EQ(error({"run", "--scale", v}),
                  "--scale wants a positive number, got '" + v + "'");
        EXPECT_EQ(error({"fleet", "--rate", v}),
                  "--rate wants a positive jobs/sec arrival rate, got '" +
                      v + "'");
        for (const std::string &freq : {v + ":1500", "925:" + v}) {
            EXPECT_EQ(error({"run", "--freq", freq}),
                      "--freq wants core:mem in positive MHz, got '" +
                          freq + "'");
        }
        EXPECT_EQ(error({"fleet", "--node-fail-rate", v}),
                  "--node-fail-rate wants a fraction in [0, 1], got '" + v +
                      "'");
        EXPECT_EQ(error({"coexec", "--inject-faults", "transfer:" + v}),
                  "--inject-faults wants kind:rate pairs "
                  "(transfer|launch|stall, rate in [0,1]), got 'transfer:" +
                      v + "'");
    }
}

TEST(CliExecute, CoexecFailDeviceDegradesAndValidates)
{
    std::ostringstream os;
    Args args = parse({"coexec", "--app", "readmem", "--devices",
                       "cpu+dgpu", "--scale", "0.05", "--functional",
                       "--fail-device", "gpu"});
    ASSERT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(execute(args, os), 0) << os.str();
    EXPECT_NE(os.str().find("degradations"), std::string::npos);
    EXPECT_NE(os.str().find("dead devices"), std::string::npos);
    EXPECT_NE(os.str().find("yes"), std::string::npos);

    // At paper scale with observability on: the degradation reaches
    // the fault counters and the trace's "fault" category.
    std::ostringstream traced;
    ASSERT_EQ(execute(parse({"coexec", "--app", "readmem", "--devices",
                             "cpu+dgpu", "--fail-device", "gpu",
                             "--functional", "--trace-out", "/dev/null",
                             "--metrics-out", "/dev/null"}),
                      traced),
              0)
        << traced.str();
    const obs::Metrics &metrics = obs::Metrics::global();
    EXPECT_GE(metrics.counterValue("fault.degradations"), 1.0);
    EXPECT_GE(metrics.counterValue("fault.dead_devices"), 1.0);
    EXPECT_GE(metrics.counterValue("fault.rescues"), 1.0);
    bool faultEvent = false;
    for (const obs::TraceEvent &event : obs::Tracer::global().snapshot())
        faultEvent = faultEvent || event.cat == "fault";
    EXPECT_TRUE(faultEvent);

    // Seeded random faults are survivable and reproducible: the same
    // seed twice prints the same report, validated.
    auto seeded = [] {
        std::ostringstream out;
        EXPECT_EQ(execute(parse({"coexec", "--app", "readmem",
                                 "--devices", "cpu+dgpu", "--functional",
                                 "--inject-faults",
                                 "transfer:0.3,launch:0.1",
                                 "--fault-seed", "42"}),
                          out),
                  0)
            << out.str();
        return out.str();
    };
    const std::string first = seeded();
    EXPECT_EQ(first, seeded());
    EXPECT_NE(first.find("faults injected"), std::string::npos);
}

TEST(CliExecute, CoexecAllDevicesDeadExitsCleanly)
{
    std::ostringstream os;
    Args args = parse({"coexec", "--app", "readmem", "--devices",
                       "cpu", "--scale", "0.05", "--fail-device",
                       "cpu"});
    ASSERT_TRUE(args.error.empty()) << args.error;
    // Structured error + exit 2, not a panic/abort.
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("error:"), std::string::npos);
}

TEST(CliLookups, Aliases)
{
    EXPECT_NE(core::workloadByName("lulesh"), nullptr);
    EXPECT_EQ(core::workloadByName("nope"), nullptr);
    EXPECT_EQ(core::modelByName("amp"), core::ModelKind::CppAmp);
    EXPECT_EQ(core::modelByName("ocl"), core::ModelKind::OpenCl);
    EXPECT_EQ(core::modelByName("omptarget"), core::ModelKind::OmpTarget);
    EXPECT_EQ(core::modelByName("cuda"), core::ModelKind::Cuda);
    EXPECT_FALSE(core::modelByName("sycl").has_value());
    ASSERT_TRUE(sim::deviceByName("apu").has_value());
    EXPECT_TRUE(sim::deviceByName("apu")->zeroCopy);
    EXPECT_FALSE(sim::deviceByName("fpga").has_value());
}

TEST(CliLookups, NameTablePinsEverySpelling)
{
    using core::ModelKind;
    // Every --model spelling, and only these.
    const std::vector<std::pair<std::string, ModelKind>> models = {
        {"serial", ModelKind::Serial},     {"openmp", ModelKind::OpenMp},
        {"omp", ModelKind::OpenMp},        {"opencl", ModelKind::OpenCl},
        {"ocl", ModelKind::OpenCl},        {"cppamp", ModelKind::CppAmp},
        {"amp", ModelKind::CppAmp},        {"openacc", ModelKind::OpenAcc},
        {"acc", ModelKind::OpenAcc},       {"hc", ModelKind::Hc},
        {"omptarget", ModelKind::OmpTarget},
        {"target", ModelKind::OmpTarget},  {"cuda", ModelKind::Cuda},
    };
    for (const auto &[name, kind] : models)
        EXPECT_EQ(core::modelByName(name), kind) << name;
    for (const char *bad : {"sycl", "", "OpenCL", "ompt"})
        EXPECT_FALSE(core::modelByName(bad).has_value()) << bad;

    // Every --backend / "backend" spelling: device models only, and
    // "omp" means OpenMP target offload here.
    const std::vector<std::pair<std::string, ModelKind>> backends = {
        {"opencl", ModelKind::OpenCl},     {"ocl", ModelKind::OpenCl},
        {"cppamp", ModelKind::CppAmp},     {"amp", ModelKind::CppAmp},
        {"openacc", ModelKind::OpenAcc},   {"acc", ModelKind::OpenAcc},
        {"hc", ModelKind::Hc},             {"omp", ModelKind::OmpTarget},
        {"omptarget", ModelKind::OmpTarget},
        {"target", ModelKind::OmpTarget},  {"cuda", ModelKind::Cuda},
    };
    for (const auto &[name, kind] : backends)
        EXPECT_EQ(serve::backendByName(name), kind) << name;
    for (const char *bad : {"serial", "openmp", "sycl", ""})
        EXPECT_FALSE(serve::backendByName(bad).has_value()) << bad;
    // The listed spellings are exactly the accepted ones, grouped by
    // the model they select.
    std::string listed;
    for (const auto &[name, kind] : backends)
        listed += (listed.empty() ? "" : "|") + name;
    EXPECT_EQ(serve::backendNames("|"), listed);
}

TEST(CliExecute, ListPrintsEveryApp)
{
    // The full table, byte for byte: every app row in paper order with
    // its command line and all eight models.
    const std::string expected =
        "Workloads\n"
        "=========================================================="
        "=====================\n"
        "app                             paper command line        "
        "                                         models\n"
        "----------------------------------------------------------"
        "---------------------\n"
        "readmem  ./read-benchmark (in-house, BLOCKSIZE=64)  serial"
        " openmp opencl cppamp openacc hc omptarget cuda\n"
        "lulesh                      ./LULESH -s 100 -i 100  serial"
        " openmp opencl cppamp openacc hc omptarget cuda\n"
        "comd                      ./CoMD -x 60 -y 60 -z 60  serial"
        " openmp opencl cppamp openacc hc omptarget cuda\n"
        "xsbench                         ./XSBench -s small  serial"
        " openmp opencl cppamp openacc hc omptarget cuda\n"
        "minife            ./miniFE -nx 100 -ny 100 -nz 100  serial"
        " openmp opencl cppamp openacc hc omptarget cuda\n";
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"list"}), os), 0);
    EXPECT_EQ(os.str(), expected);
}

TEST(CliExecute, RunFunctionalValidates)
{
    std::ostringstream os;
    Args args = parse({"run", "--app", "readmem", "--model", "hc",
                       "--device", "dgpu", "--scale", "0.05",
                       "--functional", "--stats"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("validated"), std::string::npos);
    EXPECT_NE(os.str().find("yes"), std::string::npos);
    EXPECT_NE(os.str().find("kernel.launches"), std::string::npos);
}

TEST(CliExecute, CompareListsDeviceModels)
{
    std::ostringstream os;
    Args args = parse({"compare", "--app", "minife", "--device",
                       "apu", "--scale", "0.1"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("OpenCL"), std::string::npos);
    EXPECT_NE(os.str().find("C++ AMP"), std::string::npos);
    EXPECT_NE(os.str().find("HC"), std::string::npos);
}

TEST(CliExecute, SweepPrintsGrid)
{
    std::ostringstream os;
    Args args = parse({"sweep", "--app", "readmem", "--scale", "0.1"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("1000"), std::string::npos);
    EXPECT_NE(os.str().find("0.50"), std::string::npos); // slowest pt
}

TEST(CliExecute, BadNamesReturnError)
{
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"run", "--app", "doom"}), os), 2);
    EXPECT_EQ(execute(parse({"compare", "--device", "fpga"}), os), 2);
    EXPECT_EQ(execute(parse({"coexec", "--devices", "cpu+fpga"}), os),
              2);
    EXPECT_EQ(execute(parse({"coexec", "--policy", "greedy"}), os),
              2);
    EXPECT_EQ(execute(parse({"coexec", "--app", "lulesh"}), os), 2);
}

TEST(CliExecute, CoexecPrintsPerDeviceBreakdown)
{
    std::ostringstream os;
    Args args = parse({"coexec", "--app", "readmem", "--devices",
                       "cpu+dgpu", "--policy", "adaptive", "--scale",
                       "0.02", "--functional"});
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("share"), std::string::npos);
    EXPECT_NE(out.find("pcie (s)"), std::string::npos);
    EXPECT_NE(out.find("idle (s)"), std::string::npos);
    EXPECT_NE(out.find("A10-7850K"), std::string::npos);
    EXPECT_NE(out.find("R9 280X"), std::string::npos);
    EXPECT_NE(out.find("co-exec speedup"), std::string::npos);
    EXPECT_NE(out.find("validated"), std::string::npos);
    EXPECT_NE(out.find("yes"), std::string::npos);

    // Traced at paper scale: every pool device gets a track with at
    // least one span, and the chunk counter reaches the metrics.
    std::ostringstream traced;
    ASSERT_EQ(execute(parse({"coexec", "--app", "readmem", "--devices",
                             "cpu+dgpu", "--trace-out", "/dev/null",
                             "--metrics-out", "/dev/null"}),
                      traced),
              0)
        << traced.str();
    std::map<std::string, u64> deviceSpans;
    for (const auto &[track, spans] : spansPerTrack()) {
        if (track.find('/') != std::string::npos)
            deviceSpans[track.substr(0, track.rfind('/'))] += spans;
    }
    ASSERT_FALSE(deviceSpans.empty());
    for (const auto &[device, spans] : deviceSpans)
        EXPECT_GE(spans, 1u) << device;
    EXPECT_GE(obs::Metrics::global().counterValue("coexec.chunks"), 1.0);
}

TEST(CliParse, ObservabilityFlags)
{
    Args args = parse({"breakdown", "--app", "xsbench", "--device",
                       "dgpu", "--trace-out", "/tmp/t.json",
                       "--metrics-out", "/tmp/m.json"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.command, "breakdown");
    EXPECT_EQ(args.traceOut, "/tmp/t.json");
    EXPECT_EQ(args.metricsOut, "/tmp/m.json");
    EXPECT_FALSE(args.devicesGiven);

    Args coex = parse({"breakdown", "--app", "readmem", "--devices",
                       "cpu+dgpu"});
    EXPECT_TRUE(coex.error.empty()) << coex.error;
    EXPECT_TRUE(coex.devicesGiven);

    EXPECT_FALSE(parse({"run", "--trace-out"}).error.empty());
    EXPECT_FALSE(parse({"run", "--trace-out", ""}).error.empty());
    EXPECT_FALSE(parse({"run", "--metrics-out", ""}).error.empty());
}

TEST(CliParse, ProfilingFlags)
{
    Args args = parse({"profile", "--app", "xsbench", "--device",
                       "dgpu", "--profile-out", "/tmp/p.json",
                       "--observations-out", "/tmp/o.jsonl"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.command, "profile");
    EXPECT_EQ(args.profileOut, "/tmp/p.json");
    EXPECT_EQ(args.observationsOut, "/tmp/o.jsonl");

    Args fleet = parse({"fleet", "--trace-sample", "8"});
    EXPECT_TRUE(fleet.error.empty()) << fleet.error;
    EXPECT_EQ(fleet.traceSample, 8u);

    // Strict validation with line-tested messages.
    Args bad = parse({"run", "--profile-out", ""});
    EXPECT_EQ(bad.error, "--profile-out wants a file path");
    bad = parse({"run", "--observations-out", ""});
    EXPECT_EQ(bad.error, "--observations-out wants a file path");
    bad = parse({"fleet", "--trace-sample", "0"});
    EXPECT_EQ(bad.error,
              "--trace-sample wants a positive node count, got '0'");
    bad = parse({"fleet", "--trace-sample", "nope"});
    EXPECT_EQ(bad.error,
              "--trace-sample wants a positive node count, got "
              "'nope'");
    EXPECT_FALSE(parse({"run", "--profile-out"}).error.empty());
    EXPECT_FALSE(parse({"fleet", "--trace-sample"}).error.empty());
}

TEST(CliExecute, ProfileVerbAttributesTheRun)
{
    std::ostringstream os;
    Args args = parse({"profile", "--app", "xsbench", "--device",
                       "dgpu", "--scale", "0.1"});
    // Exit code 1 would mean an attribution error above 1e-9.
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("makespan attribution"), std::string::npos);
    EXPECT_NE(out.find("bottleneck"), std::string::npos);
    EXPECT_NE(out.find("attribution error"), std::string::npos);
    EXPECT_NE(out.find("observation records"), std::string::npos);

    expectProfileInvariants(obs::buildProfile(
        obs::Tracer::global(), obs::Profiler::global(),
        obs::FlightRecorder::global()));

    // The observation JSONL schema: keys in fixed order on every line,
    // and count-weighted moments whose mean reproduces seconds.
    const std::vector<obs::ObsRecord> observations =
        obs::Profiler::global().observations();
    ASSERT_FALSE(observations.empty());
    std::ostringstream jsonl;
    obs::writeObservationsJsonl(jsonl, observations);
    const std::vector<std::string> order{
        "kernel",          "device",        "model",
        "precision_bits",  "items",         "core_mhz",
        "mem_mhz",         "workgroup",     "launches",
        "seconds",         "mean_seconds",  "var_seconds",
        "issue_seconds",   "mem_seconds",   "lds_seconds",
        "latency_seconds", "launch_seconds", "bound"};
    std::istringstream lines(jsonl.str());
    std::string line;
    while (std::getline(lines, line))
        EXPECT_EQ(topLevelKeys(line), order) << line;
    const std::set<std::string> bounds{"compute", "memory", "lds",
                                       "latency", "launch"};
    for (const json::Object &rec : jsonlObjects(jsonl.str())) {
        const double launches = rec.at("launches").number;
        const double seconds = rec.at("seconds").number;
        EXPECT_GE(launches, 1.0);
        EXPECT_GT(seconds, 0.0);
        EXPECT_NEAR(rec.at("mean_seconds").number * launches, seconds,
                    1e-9 * seconds);
        EXPECT_GE(rec.at("var_seconds").number, 0.0);
        EXPECT_EQ(bounds.count(rec.at("bound").text), 1u);
    }

    // A 2-worker batch of ok jobs, error jobs (faults without a
    // device pool) and co-executions that expire at their first
    // service-deadline preemption: every job that did not finish has
    // its flight record in the profile.
    const char *mix[] = {
        R"("app": "readmem", "model": "opencl", "device": "dgpu")",
        R"("app": "readmem", "model": "opencl", "device": "dgpu",)"
        R"( "faults": "transfer:0.1")",
        R"("app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "service_deadline_ms": 2)",
    };
    std::string text;
    for (int i = 0; i < 12; ++i) {
        text += "{\"id\": " + std::to_string(i + 1) + ", " + mix[i % 3] +
                ", \"scale\": 0.05}\n";
    }
    TempFile jobs(text);
    std::ostringstream batch;
    ASSERT_EQ(execute(parse({"batch", "--jobs", jobs.path(), "--workers",
                             "2", "--max-preemptions", "0",
                             "--profile-out", "/dev/null"}),
                      batch),
              0)
        << batch.str();
    std::set<std::pair<u64, std::string>> recorded;
    for (const obs::FlightRecord &rec :
         obs::FlightRecorder::global().snapshot())
        recorded.emplace(rec.jobId, rec.kind);
    u64 failed = 0;
    for (const json::Object &result : jsonlObjects(batch.str())) {
        const std::string &status = result.at("status").text;
        if (status == "ok")
            continue;
        ++failed;
        EXPECT_EQ(recorded.count({u64(result.at("id").number), status}),
                  1u)
            << result.at("id").text << " " << status;
    }
    EXPECT_EQ(failed, 8u);
}

TEST(CliExecute, BreakdownPhaseSumsMatchMakespan)
{
    for (const char *scale : {"0.1", "1"}) {
        std::ostringstream os;
        Args args = parse({"breakdown", "--app", "xsbench", "--device",
                           "dgpu", "--scale", scale});
        // Exit code 1 would mean a phase-sum error above 1%.
        EXPECT_EQ(execute(args, os), 0) << scale;
        const std::string out = os.str();
        EXPECT_NE(out.find("phase breakdown"), std::string::npos);
        EXPECT_NE(out.find("compute (s)"), std::string::npos);
        EXPECT_NE(out.find("xfer exposed (s)"), std::string::npos);
        EXPECT_NE(out.find("worst phase-sum error"), std::string::npos);
        EXPECT_NE(out.find("R9 280X"), std::string::npos);
    }
}

TEST(CliExecute, BreakdownCoexecModeListsEveryPoolDevice)
{
    std::ostringstream os;
    Args args = parse({"breakdown", "--app", "readmem", "--devices",
                       "cpu+dgpu", "--scale", "0.05"});
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("A10-7850K"), std::string::npos);
    EXPECT_NE(out.find("R9 280X"), std::string::npos);
    EXPECT_NE(out.find("idle (s)"), std::string::npos);
}

TEST(CliExecute, UnwritableObsPathsFailLoudly)
{
    std::ostringstream os;
    Args args = parse({"run", "--app", "readmem", "--scale", "0.05",
                       "--trace-out", "/nonexistent-dir/t.json"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("cannot open trace output"),
              std::string::npos);

    std::ostringstream os2;
    Args args2 = parse({"run", "--app", "readmem", "--scale", "0.05",
                        "--metrics-out", "/nonexistent-dir/m.json"});
    EXPECT_EQ(execute(args2, os2), 2);
    EXPECT_NE(os2.str().find("cannot open metrics output"),
              std::string::npos);
}

// --- Serving layer (batch / serve verbs) -------------------------------

TEST(CliParse, ServeFlagsParseAndValidate)
{
    Args args = parse({"batch", "--jobs", "j.jsonl", "--results-out",
                       "r.jsonl", "--workers", "8"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.jobs, "j.jsonl");
    EXPECT_EQ(args.resultsOut, "r.jsonl");
    EXPECT_EQ(args.workers, 8u);

    Args serve = parse({"serve", "--shots", "4"});
    EXPECT_TRUE(serve.error.empty()) << serve.error;
    EXPECT_EQ(serve.shots, 4u);
}

TEST(CliParse, ServeIntegerFlagsRejectJunk)
{
    struct FlagCase
    {
        const char *flag;
        const char *bad;
    };
    const FlagCase cases[] = {
        {"--workers", "-1"}, {"--workers", "4x"}, {"--workers", "1.5"},
        {"--shots", "0"},    {"--shots", "ten"},  {"--scale", "big"},
        {"--scale", "1x"},
    };
    for (const FlagCase &c : cases) {
        Args args = parse({"serve", c.flag, c.bad});
        EXPECT_FALSE(args.error.empty()) << c.flag << " " << c.bad;
        EXPECT_NE(args.error.find(c.flag), std::string::npos)
            << c.flag << " " << c.bad;
    }
    // --workers 0 parses; the server reports the structured error.
    EXPECT_TRUE(parse({"serve", "--workers", "0"}).error.empty());
}

TEST(CliParse, StreamTenantAndPreemptionFlags)
{
    Args args = parse({"serve", "--stream", "--tenants", "a:3,b:1",
                       "--service-deadline-ms", "5",
                       "--max-preemptions", "3"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_TRUE(args.stream);
    EXPECT_EQ(args.tenants, "a:3,b:1");
    EXPECT_EQ(args.serviceDeadlineMs, 5u);
    EXPECT_EQ(args.maxPreemptions, 3u);

    // --stream belongs to serve only.
    Args wrongVerb = parse({"batch", "--jobs", "j.jsonl", "--stream"});
    EXPECT_FALSE(wrongVerb.error.empty());
    EXPECT_NE(wrongVerb.error.find("--stream"), std::string::npos);

    // Malformed tenant specs are parse-time errors.
    EXPECT_FALSE(parse({"serve", "--tenants", "a:"}).error.empty());
    EXPECT_FALSE(
        parse({"serve", "--tenants", "a:0"}).error.empty());

    // Junk numerics follow the strict-flag convention.
    EXPECT_FALSE(
        parse({"serve", "--service-deadline-ms", "soon"})
            .error.empty());
    EXPECT_FALSE(
        parse({"serve", "--max-preemptions", "-2"}).error.empty());
}

TEST(CliExecute, ServeStreamSpeaksTheLineProtocol)
{
    std::istringstream feed(
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02, "tenant": "a"})"
        "\n"
        R"({"id": 2, "app": "minife", "model": "openmp",)"
        R"( "device": "cpu", "scale": 0.02, "tenant": "b"})"
        "\nend\n");
    std::streambuf *old = std::cin.rdbuf(feed.rdbuf());
    std::ostringstream os;
    Args args = parse({"serve", "--stream", "--workers", "2",
                       "--tenants", "a:2,b:1"});
    const int rc = execute(args, os);
    std::cin.rdbuf(old);
    ASSERT_EQ(rc, 0) << os.str();
    // Two live result lines; without --results-out the stream stays
    // machine-readable (no summary table).
    size_t lines = 0;
    std::istringstream out(os.str());
    std::string line;
    while (std::getline(out, line)) {
        ++lines;
        EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos)
            << line;
    }
    EXPECT_EQ(lines, 2u);
    EXPECT_EQ(os.str().find("serving summary"), std::string::npos);

    // A 50-job two-tenant stream: "hot" floods 40 jobs at weight 1,
    // "cold" submits 10 at weight 4, and the faulted co-executions
    // carry a 10 ms service deadline (forced preemption).
    const char *hot[] = {
        R"("app": "readmem", "model": "opencl", "device": "dgpu")",
        R"("app": "xsbench", "model": "opencl", "device": "apu")",
        R"("app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "faults": "transfer:0.2", "service_deadline_ms": 10,)"
        R"( "fault_seed": )",
        R"("app": "minife", "model": "openmp", "device": "cpu")",
    };
    std::string jobLines;
    for (int i = 0, cursor = 0; i < 50; ++i) {
        std::string job = "{\"id\": " + std::to_string(i + 1) + ", ";
        if (i % 5 == 4) {
            job += R"("app": "readmem", "model": "hc", "device": "apu",)"
                   R"( "tenant": "cold")";
        } else {
            job += hot[cursor % 4];
            if (cursor % 4 == 2)
                job += std::to_string(40 + i);
            job += ", \"tenant\": \"hot\"";
            ++cursor;
        }
        jobLines += job + ", \"scale\": 0.1}\n";
    }
    const std::string stream = jobLines + "end\n";
    auto serveStream = [&](const std::vector<std::string> &flags,
                           const std::string &resultsOut) {
        std::istringstream in(stream);
        std::streambuf *prior = std::cin.rdbuf(in.rdbuf());
        std::vector<std::string> argv{"serve",       "--stream",
                                      "--tenants",   "hot:1,cold:4",
                                      "--max-preemptions", "64",
                                      "--results-out", resultsOut};
        argv.insert(argv.end(), flags.begin(), flags.end());
        std::ostringstream out;
        const int rc = execute(parse(argv), out);
        std::cin.rdbuf(prior);
        EXPECT_EQ(rc, 0) << out.str();
    };
    TempFile four, seven;
    serveStream({"--workers", "4", "--metrics-out", "/dev/null"},
                four.path());
    const obs::Metrics &metrics = obs::Metrics::global();
    EXPECT_EQ(metrics.counterValue("serve.completed"), 50.0);
    EXPECT_GE(metrics.counterValue("serve.preemptions"), 1.0);

    // Byte-identical sorted results at 7 workers.
    serveStream({"--workers", "7"}, seven.path());
    const std::string sorted = readFile(four.path());
    EXPECT_EQ(sorted, readFile(seven.path()));

    // Fair share: the weighted-up cold tenant dispatches earlier on
    // average than the flooding hot tenant.  A live stream's dequeue
    // order depends on how far ingestion is ahead of the workers, so
    // this runs the same jobs as a batch whose queue is full before
    // its one worker starts.
    TempFile jobs(jobLines), batched;
    std::ostringstream batchOut;
    ASSERT_EQ(execute(parse({"batch", "--jobs", jobs.path(), "--workers",
                             "1", "--tenants", "hot:1,cold:4",
                             "--max-preemptions", "64", "--results-out",
                             batched.path(), "--metrics-out",
                             "/dev/null"}),
                      batchOut),
              0)
        << batchOut.str();
    EXPECT_LT(metrics.gaugeValue("serve.tenant.cold.mean_service_seq"),
              metrics.gaugeValue("serve.tenant.hot.mean_service_seq"));
    EXPECT_EQ(readFile(batched.path()), sorted);

    const std::vector<json::Object> results = jsonlObjects(sorted);
    ASSERT_EQ(results.size(), 50u);
    std::map<std::string, u64> perTenant;
    double preempted = 0.0;
    for (size_t i = 0; i < results.size(); ++i) {
        const json::Object &r = results[i];
        EXPECT_EQ(r.at("id").number, double(i + 1));
        EXPECT_EQ(r.at("status").text, "ok");
        ++perTenant[r.at("tenant").text];
        if (r.count("preemptions"))
            preempted += r.at("preemptions").number;
    }
    EXPECT_EQ(perTenant["hot"], 40u);
    EXPECT_EQ(perTenant["cold"], 10u);
    EXPECT_GE(preempted, 1.0);
}

TEST(CliExecute, ServeStreamBadLineFailsWithLineNumber)
{
    std::istringstream feed("not json\n");
    std::streambuf *old = std::cin.rdbuf(feed.rdbuf());
    std::ostringstream os;
    Args args = parse({"serve", "--stream"});
    const int rc = execute(args, os);
    std::cin.rdbuf(old);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(os.str().find("line 1"), std::string::npos)
        << os.str();
}

TEST(CliExecute, BatchWithoutJobsFileIsAnError)
{
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"batch"}), os), 2);
    EXPECT_NE(os.str().find("--jobs"), std::string::npos);
}

TEST(CliExecute, BatchMissingJobsFileFailsLoudly)
{
    std::ostringstream os;
    Args args =
        parse({"batch", "--jobs", "/nonexistent-dir/jobs.jsonl"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("cannot open jobs file"),
              std::string::npos);
    EXPECT_NE(os.str().find("/nonexistent-dir/jobs.jsonl"),
              std::string::npos);
}

TEST(CliExecute, BatchMalformedJobsReportLineNumber)
{
    TempFile jobs(R"({"app": "readmem", "scale": 0.02}
{"app": "readmem", "scale": oops}
)");
    std::ostringstream os;
    Args args = parse({"batch", "--jobs", jobs.path()});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("line 2"), std::string::npos) << os.str();
    EXPECT_NE(os.str().find(jobs.path()), std::string::npos);
}

TEST(CliExecute, BatchEmptyJobsFileIsAnError)
{
    TempFile jobs("\n\n");
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"batch", "--jobs", jobs.path()}), os), 2);
    EXPECT_NE(os.str().find("no jobs"), std::string::npos) << os.str();
}

TEST(CliExecute, BatchUnwritableResultsOutFailsLoudly)
{
    TempFile jobs(R"({"app": "readmem", "scale": 0.02})"
                      "\n");
    std::ostringstream os;
    Args args = parse({"batch", "--jobs", jobs.path(), "--results-out",
                       "/nonexistent-dir/results.jsonl"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("cannot open results output"),
              std::string::npos);
}

TEST(CliExecute, BatchZeroWorkersIsAStructuredError)
{
    TempFile jobs(R"({"app": "readmem", "scale": 0.02})"
                      "\n");
    std::ostringstream os;
    Args args =
        parse({"batch", "--jobs", jobs.path(), "--workers", "0"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("at least one worker"), std::string::npos)
        << os.str();
}

TEST(CliExecute, BatchEmitsOrderedJsonlOnStdout)
{
    TempFile jobs(R"({"id": 2, "app": "readmem", "scale": 0.02}
{"id": 1, "app": "minife", "model": "openmp", "device": "cpu", "scale": 0.02}
)");
    std::ostringstream os;
    Args args = parse({"batch", "--jobs", jobs.path(), "--workers",
                       "2"});
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    // Pure JSONL on stdout, id-ascending regardless of file order.
    EXPECT_EQ(out.rfind("{\"id\":1,", 0), 0u) << out;
    EXPECT_NE(out.find("\n{\"id\":2,"), std::string::npos) << out;
    EXPECT_NE(out.find("\"status\":\"ok\""), std::string::npos);

    // A 50-job mix on 4 workers, faulted co-executions included:
    // every job completes, once, in id order, and the serve counters,
    // histograms and per-worker trace tracks account for all of them.
    const char *mix[] = {
        R"("app": "readmem", "model": "opencl", "device": "dgpu")",
        R"("app": "xsbench", "model": "opencl", "device": "apu")",
        R"("app": "minife", "model": "openmp", "device": "cpu")",
        R"("app": "readmem", "model": "hc", "device": "apu")",
        R"("app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "faults": "transfer:0.2", "fault_seed": )",
    };
    std::string text;
    for (int i = 0; i < 50; ++i) {
        text += "{\"id\": " + std::to_string(i + 1) + ", " + mix[i % 5];
        if (i % 5 == 4)
            text += std::to_string(40 + i);
        text += ", \"scale\": 0.1}\n";
    }
    TempFile mixed(text);
    std::ostringstream batch;
    ASSERT_EQ(execute(parse({"batch", "--jobs", mixed.path(),
                             "--workers", "4", "--trace-out",
                             "/dev/null", "--metrics-out", "/dev/null"}),
                      batch),
              0)
        << batch.str();
    const std::vector<json::Object> results = jsonlObjects(batch.str());
    ASSERT_EQ(results.size(), 50u);
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].at("id").number, double(i + 1));
        EXPECT_EQ(results[i].at("status").text, "ok");
    }
    const obs::Metrics &metrics = obs::Metrics::global();
    EXPECT_EQ(metrics.counterValue("serve.submitted"), 50.0);
    EXPECT_EQ(metrics.counterValue("serve.completed"), 50.0);
    for (const char *name :
         {"host.serve.queue_wait_ms", "host.serve.service_ms"}) {
        auto hist = metrics.histogram(name);
        ASSERT_TRUE(hist.has_value()) << name;
        EXPECT_EQ(hist->count, 50u) << name;
    }
    // The tracer's track registry outlives clear(), so check the four
    // worker tracks by presence rather than by an exact count.
    const std::vector<std::string> names =
        obs::Tracer::global().trackNames();
    for (int w = 0; w < 4; ++w) {
        const std::string worker = "serve/w" + std::to_string(w);
        EXPECT_NE(std::find(names.begin(), names.end(), worker),
                  names.end())
            << worker;
    }
}

TEST(CliExecute, ServeRunsAClosedLoopAndSummarizes)
{
    std::ostringstream os;
    Args args = parse({"serve", "--shots", "6", "--workers", "2",
                       "--scale", "0.02"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("jobs submitted"), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("sim throughput"), std::string::npos);
}

// --- Fleet simulator (fleet verb) --------------------------------------

TEST(CliParse, FleetFlagsParseAndValidate)
{
    Args args = parse({"fleet", "--nodes", "12", "--njobs", "500",
                       "--placement", "locality", "--rate", "250",
                       "--slo-ms", "40", "--node-fail-rate", "0.25",
                       "--seed", "7", "--sweep"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.nodes, 12u);
    EXPECT_EQ(args.njobs, 500u);
    EXPECT_EQ(args.placement, "locality");
    EXPECT_DOUBLE_EQ(args.rate, 250.0);
    EXPECT_EQ(args.sloMs, 40u);
    EXPECT_DOUBLE_EQ(args.nodeFailRate, 0.25);
    EXPECT_EQ(args.seed, 7u);
    EXPECT_TRUE(args.fleetSweep);

    Args topo = parse({"fleet", "--topology", "cluster.jsonl"});
    EXPECT_TRUE(topo.error.empty()) << topo.error;
    EXPECT_EQ(topo.topology, "cluster.jsonl");
    EXPECT_FALSE(topo.fleetSweep);
}

TEST(CliParse, FleetFlagsRejectJunk)
{
    struct FlagCase
    {
        const char *flag;
        const char *bad;
    };
    const FlagCase cases[] = {
        {"--nodes", "0"},          {"--nodes", "3x"},
        {"--njobs", "0"},          {"--njobs", "lots"},
        {"--placement", "greedy"}, {"--rate", "-5"},
        {"--rate", "fast"},        {"--slo-ms", "-1"},
        {"--node-fail-rate", "1.5"},
        {"--node-fail-rate", "often"},
        {"--seed", "-2"},          {"--topology", ""},
    };
    for (const FlagCase &c : cases) {
        Args args = parse({"fleet", c.flag, c.bad});
        EXPECT_FALSE(args.error.empty()) << c.flag << " " << c.bad;
        EXPECT_NE(args.error.find(c.flag), std::string::npos)
            << c.flag << " " << c.bad;
    }
}

TEST(CliExecute, FleetMissingTopologyFileFailsLoudly)
{
    std::ostringstream os;
    Args args = parse(
        {"fleet", "--topology", "/nonexistent-dir/topo.jsonl"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("cannot open topology file"),
              std::string::npos)
        << os.str();
}

TEST(CliExecute, FleetTopologyErrorsCarryPathAndLine)
{
    TempFile topo("{\"device\": \"warp9\"}\n");
    std::ostringstream os;
    Args args = parse({"fleet", "--topology", topo.path()});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find(topo.path()), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("line 1"), std::string::npos);
    EXPECT_NE(os.str().find("unknown device"), std::string::npos);
}

TEST(CliExecute, FleetRunsACapacityTableAndRollup)
{
    std::ostringstream os;
    Args args = parse({"fleet", "--nodes", "4", "--njobs", "200",
                       "--scale", "0.02", "--node-fail-rate", "0.5",
                       "--seed", "3"});
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("Fleet capacity"), std::string::npos) << out;
    EXPECT_NE(out.find("digest"), std::string::npos);
    EXPECT_NE(out.find("0x"), std::string::npos);
    EXPECT_NE(out.find("Per-device-kind rollup"), std::string::npos);
    EXPECT_NE(out.find("dgpu"), std::string::npos);

    // Same invocation, byte-identical report: the whole pipeline -
    // class probe, placement, sharded timelines - is deterministic.
    std::ostringstream os2;
    EXPECT_EQ(execute(args, os2), 0);
    EXPECT_EQ(out, os2.str());

    // A faulted 64-node / 10k-job campaign: node deaths, retries and
    // transient faults are part of the deterministic contract, so the
    // traced run, an untraced rerun and a profiled, trace-sampled
    // rerun print the same report.
    const std::vector<std::string> campaign{
        "fleet",           "--nodes",       "64",
        "--njobs",         "10000",         "--scale",
        "0.05",            "--rate",        "2000",
        "--slo-ms",        "250",           "--node-fail-rate",
        "0.25",            "--inject-faults",
        "transfer:0.1,launch:0.05",         "--seed",
        "42"};
    auto runCampaign = [&](const std::vector<std::string> &flags) {
        std::vector<std::string> argv = campaign;
        argv.insert(argv.end(), flags.begin(), flags.end());
        std::ostringstream report;
        EXPECT_EQ(execute(parse(argv), report), 0) << report.str();
        return report.str();
    };
    const std::string traced = runCampaign(
        {"--trace-out", "/dev/null", "--metrics-out", "/dev/null"});
    const obs::Metrics &metrics = obs::Metrics::global();
    EXPECT_EQ(metrics.counterValue("fleet.jobs"), 10000.0);
    EXPECT_GE(metrics.counterValue("fleet.node_deaths"), 1.0);
    EXPECT_GE(metrics.counterValue("fleet.faults_injected"), 1.0);
    EXPECT_GE(metrics.counterValue("fleet.slo_violations"), 1.0);
    EXPECT_GT(metrics.counterValue("fleet.net_seconds"), 0.0);
    EXPECT_EQ(metrics.gaugeValue("fleet.nodes"), 64.0);
    auto latency = metrics.histogram("fleet.latency_ms");
    ASSERT_TRUE(latency.has_value());
    EXPECT_EQ(latency->count, 10000u);
    u64 nodeTracks = 0;
    for (const auto &[track, spans] : spansPerTrack())
        nodeTracks += spans > 0 && track.rfind("fleet/", 0) == 0;
    EXPECT_EQ(nodeTracks, 64u);
    EXPECT_EQ(runCampaign({}), traced);

    EXPECT_EQ(runCampaign({"--trace-sample", "8", "--profile-out",
                           "/dev/null", "--metrics-out", "/dev/null"}),
              traced);
    const obs::ProfileReport profile =
        obs::buildProfile(obs::Tracer::global(), obs::Profiler::global(),
                          obs::FlightRecorder::global());
    expectProfileInvariants(profile);
    ASSERT_TRUE(profile.hasRollup);
    EXPECT_EQ(profile.rollup.shards, 64u);
    // Node-level executions: gang jobs count once per member.
    EXPECT_GE(profile.rollup.jobs, 10000u);
    EXPECT_EQ(profile.rollup.latencyMs.count, 10000u);
    // Retention accounting: every SLO miss and post-death retry was
    // offered, and kept + dropped covers them all.
    const u64 kept = profile.flightRecords.size();
    EXPECT_GE(kept, 1u);
    EXPECT_LE(kept, 256u);
    EXPECT_EQ(double(kept + profile.flightDropped),
              metrics.counterValue("fleet.slo_violations") +
                  metrics.counterValue("fleet.retries"));

    // Per-node energy folds in node order, so the whole report - the
    // per-device-kind energy rollup included - is the same on 1 and 7
    // workers.
    auto energyCampaign = [](const char *workers) {
        std::ostringstream report;
        EXPECT_EQ(execute(parse({"fleet", "--nodes", "8", "--njobs",
                                 "300", "--scale", "0.05", "--seed",
                                 "42", "--node-fail-rate", "0.2",
                                 "--inject-faults", "transfer:0.1",
                                 "--workers", workers}),
                          report),
                  0);
        return report.str();
    };
    const std::string serial = energyCampaign("1");
    EXPECT_EQ(serial, energyCampaign("7"));
    EXPECT_NE(serial.find("energy J"), std::string::npos);
}

TEST(CliParse, SurrogateFlagValidation)
{
    // Each new flag rejects a missing or malformed operand with a
    // message naming the flag.
    for (const char *flag :
         {"--model-in", "--model-out", "--fit", "--kernel"}) {
        Args missing = parse({"predict", flag});
        EXPECT_FALSE(missing.error.empty()) << flag;
        EXPECT_NE(missing.error.find(flag), std::string::npos)
            << missing.error;
        Args empty = parse({"predict", flag, ""});
        EXPECT_FALSE(empty.error.empty()) << flag;
        EXPECT_NE(empty.error.find(flag), std::string::npos)
            << empty.error;
    }
    for (const char *bad : {"0", "-3", "junk", "1.5"}) {
        Args args = parse({"predict", "--model-in", "m.json",
                           "--items", bad});
        EXPECT_FALSE(args.error.empty()) << bad;
        EXPECT_NE(args.error.find("--items"), std::string::npos) << bad;
    }

    // Semantic cross-flag checks.
    EXPECT_EQ(parse({"predict"}).error,
              "predict needs --fit OBS_JSONL or --model-in FILE");

    Args ok = parse({"predict", "--fit", "obs.jsonl", "--kernel",
                     "read_mem", "--items", "4096", "--model-out",
                     "m.json"});
    EXPECT_TRUE(ok.error.empty()) << ok.error;
    EXPECT_EQ(ok.fitObs, "obs.jsonl");
    EXPECT_EQ(ok.kernel, "read_mem");
    EXPECT_EQ(ok.items, 4096u);
    EXPECT_EQ(ok.modelOut, "m.json");
    EXPECT_TRUE(ok.surrogate);

    Args fleet = parse({"fleet", "--model-in", "m.json",
                        "--no-surrogate"});
    EXPECT_TRUE(fleet.error.empty()) << fleet.error;
    EXPECT_EQ(fleet.modelIn, "m.json");
    EXPECT_FALSE(fleet.surrogate);
}

TEST(CliExecute, PredictFitsServesAndRoundTripsModels)
{
    TempFile obsFile, modelFile, modelFile2;
    const std::string &obsPath = obsFile.path();
    const std::string &modelPath = modelFile.path();
    const std::string &modelPath2 = modelFile2.path();

    // Generate observations from two real runs at different clocks.
    // --observations-out truncates its file, so each run writes its
    // own and the fit reads their concatenation.
    std::string observations;
    for (const char *freq : {"925:1250", "500:1250"}) {
        TempFile runFile;
        const std::string &runPath = runFile.path();
        std::ostringstream os;
        Args run = parse({"run", "--app", "readmem", "--scale", "0.05",
                          "--freq", freq, "--observations-out",
                          runPath});
        ASSERT_TRUE(run.error.empty()) << run.error;
        ASSERT_EQ(execute(run, os), 0) << os.str();
        std::ifstream in(runPath);
        observations.append(std::istreambuf_iterator<char>(in), {});
    }
    EXPECT_NE(observations.find("\"core_mhz\":925,"), std::string::npos);
    EXPECT_NE(observations.find("\"core_mhz\":500,"), std::string::npos);
    std::ofstream(obsPath) << observations;

    std::ostringstream fitOs;
    Args fit = parse({"predict", "--fit", obsPath, "--model-out",
                      modelPath});
    ASSERT_EQ(execute(fit, fitOs), 0) << fitOs.str();
    EXPECT_NE(fitOs.str().find("surrogate model"), std::string::npos);
    EXPECT_NE(fitOs.str().find("read_mem"), std::string::npos);

    // Reload + query a single launch; the anchor row proves the
    // prediction is checked against the exact observed mean.
    std::ostringstream queryOs;
    Args query = parse({"predict", "--model-in", modelPath, "--kernel",
                        "read_mem", "--items", "13107", "--freq",
                        "925:1250", "--model-out", modelPath2});
    ASSERT_EQ(execute(query, queryOs), 0) << queryOs.str();
    EXPECT_NE(queryOs.str().find("predicted"), std::string::npos);

    // Load -> save must reproduce the model file byte for byte.
    std::ifstream f1(modelPath), f2(modelPath2);
    std::stringstream m1, m2;
    m1 << f1.rdbuf();
    m2 << f2.rdbuf();
    EXPECT_FALSE(m1.str().empty());
    EXPECT_EQ(m1.str(), m2.str());

    std::ostringstream badOs;
    Args bad = parse({"predict", "--model-in", "no_such_model.jsonl"});
    EXPECT_EQ(execute(bad, badOs), 2);
    EXPECT_NE(badOs.str().find("no_such_model.jsonl"),
              std::string::npos);

    // Training set: adaptive co-execution observations (many chunk
    // sizes at stock clocks) plus a clock grid for readmem.  Scale 0.1
    // at two clock settings is held out: the fit never sees it.
    auto observe = [](std::vector<std::string> argv) {
        argv.insert(argv.end(), {"--observations-out", "/dev/null"});
        std::ostringstream out;
        EXPECT_EQ(execute(parse(argv), out), 0) << out.str();
        return obs::Profiler::global().observations();
    };
    auto readmem = [](const char *scale, const char *freq) {
        return std::vector<std::string>{
            "run",     "--app",   "readmem", "--model", "opencl",
            "--device", "dgpu",   "--scale", scale,     "--freq",
            freq};
    };
    std::vector<obs::ObsRecord> train = observe(
        {"coexec", "--app", "xsbench", "--policy", "adaptive",
         "--scale", "0.3"});
    for (const char *freq :
         {"400:1250", "500:1250", "925:810", "925:1250"}) {
        for (const char *scale : {"0.05", "0.2"}) {
            const auto records = observe(readmem(scale, freq));
            train.insert(train.end(), records.begin(), records.end());
        }
    }
    std::vector<obs::ObsRecord> held;
    for (const char *freq : {"500:1250", "925:810"}) {
        const auto records = observe(readmem("0.1", freq));
        held.insert(held.end(), records.begin(), records.end());
    }
    std::ostringstream trainJsonl;
    obs::writeObservationsJsonl(trainJsonl, train);
    TempFile trainFile(trainJsonl.str());
    TempFile model;
    std::ostringstream fitted;
    ASSERT_EQ(execute(parse({"predict", "--fit", trainFile.path(),
                             "--model-out", model.path()}),
                      fitted),
              0)
        << fitted.str();

    // The hetsim.model.v1 header counts every record kind it announces.
    const std::vector<json::Object> lines =
        jsonlObjects(readFile(model.path()));
    ASSERT_GE(lines.size(), 2u);
    const json::Object &head = lines[0];
    std::set<std::string> headKeys;
    for (const auto &[key, value] : head)
        headKeys.insert(key);
    EXPECT_EQ(headKeys,
              (std::set<std::string>{"schema", "groups", "refines",
                                     "anchors", "job_costs",
                                     "fit_digest"}));
    EXPECT_EQ(head.at("schema").text, "hetsim.model.v1");
    const std::string &digest = head.at("fit_digest").text;
    EXPECT_EQ(digest.size(), 18u);
    EXPECT_EQ(digest.rfind("0x", 0), 0u);
    EXPECT_EQ(digest.find_first_not_of("0123456789abcdef", 2),
              std::string::npos)
        << digest;
    std::map<std::string, double> counts{
        {"group", 0}, {"refine", 0}, {"anchor", 0}, {"job_cost", 0}};
    for (size_t i = 1; i < lines.size(); ++i) {
        const std::string &kind = lines[i].at("record").text;
        ASSERT_EQ(counts.count(kind), 1u) << kind;
        counts[kind] += 1;
        if (kind == "job_cost")
            continue;
        for (const char *key : {"kernel", "device", "model",
                                 "precision_bits", "workgroup"})
            EXPECT_EQ(lines[i].count(key), 1u) << kind << " " << key;
    }
    EXPECT_EQ(counts["group"], head.at("groups").number);
    EXPECT_EQ(counts["refine"], head.at("refines").number);
    EXPECT_EQ(counts["anchor"], head.at("anchors").number);
    EXPECT_EQ(counts["job_cost"], head.at("job_costs").number);
    EXPECT_GE(counts["group"], 1.0);
    EXPECT_GE(counts["refine"], 1.0);

    // Each held-out configuration, served from the saved model, lands
    // within 5% of what the simulator measured.
    ASSERT_FALSE(held.empty());
    for (const obs::ObsRecord &rec : held) {
        char freq[64];
        std::snprintf(freq, sizeof(freq), "%g:%g", rec.coreMhz,
                      rec.memMhz);
        std::ostringstream served;
        ASSERT_EQ(execute(parse({"predict", "--model-in", model.path(),
                                 "--kernel", rec.kernel, "--device",
                                 "dgpu", "--model", rec.model,
                                 "--items", std::to_string(rec.items),
                                 "--freq", freq}),
                          served),
                  0)
            << served.str();
        const std::string text = served.str();
        const size_t at = text.find("predicted (s)");
        ASSERT_NE(at, std::string::npos) << text;
        const double predicted =
            std::stod(text.substr(at + std::strlen("predicted (s)")));
        EXPECT_LE(std::abs(predicted - rec.meanSeconds) / rec.meanSeconds,
                  0.05)
            << rec.kernel << " n=" << rec.items << " @" << freq;
    }

    // A batch --model-out holds the kernel models fitted from the
    // served jobs' observations, and no job costs: fleet probes are
    // their only source.
    TempFile batchJobs(
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.05})"
        "\n"
        R"({"id": 2, "app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "scale": 0.05})"
        "\n");
    TempFile batchModel, batchResults;
    std::ostringstream batchOs;
    ASSERT_EQ(execute(parse({"batch", "--jobs", batchJobs.path(),
                             "--results-out", batchResults.path(),
                             "--model-out", batchModel.path()}),
                      batchOs),
              0)
        << batchOs.str();
    const std::vector<json::Object> batchLines =
        jsonlObjects(readFile(batchModel.path()));
    ASSERT_GE(batchLines.size(), 2u);
    EXPECT_GE(batchLines[0].at("groups").number, 1.0);
    EXPECT_EQ(batchLines[0].at("job_costs").number, 0.0);
    for (size_t i = 1; i < batchLines.size(); ++i)
        EXPECT_NE(batchLines[i].at("record").text, "job_cost");
}

TEST(CliExecute, FleetSurrogateCostingReproducesProbedRun)
{
    TempFile modelFile;
    const std::string &modelPath = modelFile.path();
    std::vector<std::string> base{"fleet",   "--nodes", "4",
                                  "--njobs", "150",     "--scale",
                                  "0.02",    "--seed",  "7"};

    // Run A probes the simulator and records job costs.
    std::vector<std::string> recordArgs = base;
    recordArgs.insert(recordArgs.end(), {"--model-out", modelPath});
    std::ostringstream recorded;
    ASSERT_EQ(execute(parse(recordArgs), recorded), 0);

    // Run B answers class costing from the model; run C opts out.
    std::vector<std::string> surrogateArgs = base;
    surrogateArgs.insert(surrogateArgs.end(), {"--model-in", modelPath});
    std::vector<std::string> resaveArgs = surrogateArgs;
    TempFile resaved;
    resaveArgs.insert(resaveArgs.end(), {"--model-out", resaved.path()});
    std::ostringstream served;
    ASSERT_EQ(execute(parse(resaveArgs), served), 0);
    // The load/save round trip reproduces the model file byte for byte.
    EXPECT_EQ(readFile(resaved.path()), readFile(modelPath));

    std::vector<std::string> probeArgs = surrogateArgs;
    probeArgs.push_back("--no-surrogate");
    std::ostringstream probed;
    ASSERT_EQ(execute(parse(probeArgs), probed), 0);

    // Identical campaign reports - same class costs, placements, and
    // digests - whether costs came from the model or the simulator.
    EXPECT_EQ(served.str(), probed.str());
    EXPECT_EQ(served.str(), recorded.str());
    EXPECT_NE(served.str().find("digest"), std::string::npos);
}

TEST(CliExecute, FleetRunsFromATopologyFile)
{
    TempFile topo(
        "{\"device\": \"apu\", \"count\": 2, \"name\": \"r0\"}\n"
        "{\"net_gbs\": 25, \"net_latency_us\": 2}\n");
    std::ostringstream os;
    Args args = parse({"fleet", "--topology", topo.path(), "--njobs",
                       "100", "--scale", "0.02", "--placement",
                       "first-fit"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("first-fit"), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("apu"), std::string::npos);
}


// Satellite: strict validation for the energy/backend flags.
TEST(CliParse, EnergyAndBackendFlags)
{
    Args args = parse({"coexec", "--app", "xsbench", "--backend",
                       "cuda", "--power-model", "watts.jsonl",
                       "--energy-out", "energy.json"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.backend, "cuda");
    EXPECT_EQ(args.powerModel, "watts.jsonl");
    EXPECT_EQ(args.energyOut, "energy.json");

    // Every serve-layer alias is accepted.
    for (const char *alias : {"ocl", "amp", "acc", "hc", "omp",
                              "cuda", "omptarget", "target"}) {
        EXPECT_TRUE(
            parse({"coexec", "--backend", alias}).error.empty())
            << alias;
    }

    // Unknown backend names fail at parse time, naming the choices.
    Args bad = parse({"coexec", "--backend", "sycl"});
    EXPECT_FALSE(bad.error.empty());
    EXPECT_NE(bad.error.find("sycl"), std::string::npos) << bad.error;
    EXPECT_NE(bad.error.find("cuda"), std::string::npos) << bad.error;

    // Values are required, not optional.
    EXPECT_FALSE(parse({"coexec", "--backend"}).error.empty());
    EXPECT_FALSE(parse({"run", "--power-model"}).error.empty());
    EXPECT_FALSE(parse({"run", "--energy-out"}).error.empty());

    // --energy-out is a single-run report: run/coexec only.
    Args misplaced = parse({"serve", "--energy-out", "e.json"});
    EXPECT_FALSE(misplaced.error.empty());
    EXPECT_NE(misplaced.error.find("--energy-out"), std::string::npos)
        << misplaced.error;
    EXPECT_TRUE(
        parse({"run", "--energy-out", "e.json"}).error.empty());
    EXPECT_TRUE(
        parse({"coexec", "--energy-out", "e.json"}).error.empty());
    // --power-model is global: any verb may swap the wattage table.
    EXPECT_TRUE(
        parse({"serve", "--power-model", "w.jsonl"}).error.empty());
}

TEST(CliExecute, BackendsDumpsTheCapabilityTable)
{
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"backends"}), os), 0);
    const std::string text = os.str();
    for (const char *name : {"opencl", "cppamp", "openacc", "hc",
                             "omptarget", "cuda"})
        EXPECT_NE(text.find(name), std::string::npos) << name;
    EXPECT_NE(text.find("Trait multipliers"), std::string::npos);
    EXPECT_NE(text.find("Codegen quirks"), std::string::npos);
}

TEST(CliExecute, EnergyOutWritesAReportAndPowerModelOverridesIt)
{
    TempFile energyFile;
    const std::string &energyPath = energyFile.path();
    std::vector<std::string> base{"run",     "--app",  "readmem",
                                  "--model", "cuda",   "--scale",
                                  "0.05",    "--energy-out",
                                  energyPath};

    std::ostringstream os;
    ASSERT_EQ(execute(parse(base), os), 0);
    EXPECT_NE(os.str().find("energy (J)"), std::string::npos)
        << os.str();
    std::ifstream in(energyPath);
    ASSERT_TRUE(in.good());
    std::stringstream report;
    report << in.rdbuf();
    EXPECT_NE(report.str().find("\"bucket_error\""),
              std::string::npos);
    EXPECT_NE(report.str().find("\"buckets\""), std::string::npos);

    // A hotter wattage table changes the reported joules.
    TempFile watts("{\"device\": \"dgpu\", "
                       "\"compute_busy_w\": 2500}\n");
    std::vector<std::string> hot = base;
    hot.insert(hot.end(), {"--power-model", watts.path()});
    std::ostringstream hotOs;
    ASSERT_EQ(execute(parse(hot), hotOs), 0);
    EXPECT_NE(hotOs.str(), os.str());

    // A faulted, functional co-execution under the CUDA-style backend
    // reports its bucket error next to the joules.
    std::ostringstream coexec;
    ASSERT_EQ(execute(parse({"coexec", "--app", "xsbench", "--devices",
                             "cpu+dgpu", "--backend", "cuda",
                             "--functional", "--inject-faults",
                             "transfer:0.2", "--fault-seed", "42",
                             "--scale", "0.05", "--energy-out",
                             energyPath}),
                      coexec),
              0)
        << coexec.str();
    EXPECT_NE(coexec.str().find("energy bucket error"), std::string::npos)
        << coexec.str();
}

TEST(CliExecute, PowerModelErrorsAreLoud)
{
    // Missing file: exit 2 and the path in the message.
    std::ostringstream missing;
    Args args = parse({"run", "--app", "readmem", "--scale", "0.05",
                       "--power-model", "no_such_watts.jsonl"});
    EXPECT_EQ(execute(args, missing), 2);
    EXPECT_NE(missing.str().find("cannot open power model"),
              std::string::npos)
        << missing.str();
    EXPECT_NE(missing.str().find("no_such_watts.jsonl"),
              std::string::npos);

    // Malformed row: exit 2 with path:line context.
    TempFile badWatts("{\"device\": \"dgpu\", "
                          "\"compute_watts\": 9}\n");
    std::ostringstream malformed;
    Args badArgs = parse({"run", "--app", "readmem", "--scale",
                          "0.05", "--power-model", badWatts.path()});
    EXPECT_EQ(execute(badArgs, malformed), 2);
    EXPECT_NE(malformed.str().find("compute_watts"), std::string::npos)
        << malformed.str();
    EXPECT_NE(malformed.str().find(badWatts.path() + ":1"),
              std::string::npos)
        << malformed.str();

    // Unwritable --energy-out path: exit 2, run output still shown.
    std::ostringstream unwritable;
    Args outArgs = parse({"run", "--app", "readmem", "--scale",
                          "0.05", "--energy-out",
                          "/nonexistent-dir/e.json"});
    EXPECT_EQ(execute(outArgs, unwritable), 2);
    EXPECT_NE(unwritable.str().find("cannot open energy output"),
              std::string::npos)
        << unwritable.str();
}

} // namespace
} // namespace hetsim::cli
