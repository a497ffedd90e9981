/**
 * @file
 * Command-line driver for the hetsim workload suite.  usage() is the
 * one listing of its verbs and flags (`hetsim` with no arguments
 * prints it).
 *
 * The parsing and command logic live here (unit-testable); main.cc is
 * a thin wrapper.
 */

#ifndef HETSIM_TOOLS_CLI_HH
#define HETSIM_TOOLS_CLI_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/workload.hh"
#include "fault/fault.hh"
#include "sim/device.hh"

namespace hetsim::cli
{

/** Parsed command line. */
struct Args
{
    /** list | backends | run | compare | sweep | coexec | breakdown |
     *  profile | batch | serve | fleet | predict */
    std::string command;
    std::string app = "readmem";
    std::string model = "opencl";
    std::string device = "dgpu";
    std::string devices = "cpu+dgpu"; ///< coexec pool, '+'-separated
    /** coexec GPU-slot programming model ("" = hc default). */
    std::string backend;
    std::string policy = "adaptive";  ///< coexec scheduling policy
    u64 chunk = 0;                    ///< coexec chunk size (0 = auto)
    u64 minChunk = 0;                 ///< adaptive chunk floor (0 = auto)
    /** Fault campaign assembled from --inject-faults / --fault-seed /
     *  --retry-max / --fail-device. */
    fault::FaultConfig faultConfig;
    /** Whether any fault-injection flag appeared. */
    bool faultsGiven = false;
    double scale = 1.0;
    bool doublePrecision = false;
    bool functional = false;
    bool stats = false;
    bool kernels = false;
    /** Whether --devices appeared (breakdown picks coexec mode). */
    bool devicesGiven = false;
    /** --no-timing-cache: disable kernel-timing memoization (A/B). */
    bool timingCache = true;
    std::string traceOut;   ///< Chrome trace JSON path ("" = off)
    std::string metricsOut; ///< metrics JSON path ("" = off)
    std::string powerModel; ///< power-table JSONL path ("" = built-in)
    std::string energyOut;  ///< energy report JSON path ("" = off)
    std::string profileOut; ///< profile report JSON path ("" = off)
    /** per-signature observation JSONL path ("" = off). */
    std::string observationsOut;
    sim::FreqDomain freq{0.0, 0.0};
    // --- serving layer (batch / serve verbs) ------------------------
    std::string jobs;       ///< JSONL job file (batch)
    std::string resultsOut; ///< results JSONL path ("" = stdout)
    u64 workers = 4;        ///< worker sessions
    u64 shots = 16;         ///< serve: closed-loop job count
    /** serve: --stream reads JobSpec JSONL from stdin incrementally
     *  and emits each result line as the job completes. */
    bool stream = false;
    std::string tenants; ///< fair-share weights, "name:w,..."
    /** Default service deadline in simulated ms (0 = none); running
     *  coexec jobs past it are preempted at chunk boundaries. */
    u64 serviceDeadlineMs = 0;
    u64 maxPreemptions = 16; ///< preemptions before a job expires
    // --- fleet simulator (fleet verb) -------------------------------
    std::string topology;   ///< topology JSONL path ("" = built-in)
    u64 nodes = 64;         ///< built-in topology size (no --topology)
    u64 njobs = 10000;      ///< fleet: jobs to simulate
    std::string placement = "least-loaded"; ///< placement policy
    double rate = 0.0;      ///< arrival rate, jobs/sim-sec (0 = t=0)
    u64 sloMs = 0;          ///< per-job latency SLO, ms (0 = none)
    double nodeFailRate = 0.0; ///< per-node death probability
    u64 seed = 0x5eedULL;   ///< fleet campaign seed
    bool fleetSweep = false; ///< capacity sweep over x{1,2,4,8}
    u64 traceSample = 0;    ///< fleet: traced-node sample (0 = all)
    // --- surrogate models (predict verb; fleet/batch/serve wiring) --
    std::string modelIn;  ///< hetsim.model.v1 file to load ("" = off)
    std::string modelOut; ///< hetsim.model.v1 file to write ("" = off)
    std::string fitObs;   ///< predict: observation JSONL to fit from
    std::string kernel;   ///< predict: kernel name to query
    u64 items = 0;        ///< predict: items per launch (0 = none)
    /** --no-surrogate: ignore loaded models (probe/simulate instead). */
    bool surrogate = true;
    std::string error; ///< non-empty on parse failure
};

/** Parse argv (excluding argv[0]); sets Args::error on failure. */
Args parse(const std::vector<std::string> &argv);

/** Execute a parsed command; output to @p os. @return exit code. */
int execute(const Args &args, std::ostream &os);

/** Print usage. */
void usage(std::ostream &os);

} // namespace hetsim::cli

#endif // HETSIM_TOOLS_CLI_HH
