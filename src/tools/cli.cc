#include "cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <variant>

#include "apps/coexec_kernels.hh"
#include "coexec/coexec.hh"
#include "common/numparse.hh"
#include "common/table.hh"
#include "core/harness.hh"
#include "fleet/costing.hh"
#include "fleet/fleet.hh"
#include "kernelir/captable.hh"
#include "model/surrogate.hh"
#include "obs/crashdump.hh"
#include "obs/flightrec.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/report.hh"
#include "obs/tracer.hh"
#include "power/power.hh"
#include "serve/server.hh"
#include "serve/stream.hh"
#include "serve/tenant.hh"
#include "sim/timing_cache.hh"

namespace hetsim::cli
{

namespace
{

/** @return the app aliases in paper order (only those with a
 *  co-execution kernel when @p coexecOnly), joined by @p sep. */
std::string
appNames(const char *sep, bool coexecOnly)
{
    std::string names;
    for (const core::AppEntry &app : core::appTable()) {
        if (coexecOnly && !app.coKernel)
            continue;
        if (!names.empty())
            names += sep;
        names += app.alias;
    }
    return names;
}

/** @return every --model name in ModelKind order, space-separated. */
std::string
modelNames()
{
    std::string names;
    for (const ir::BackendCaps &row : ir::backendTable()) {
        if (!names.empty())
            names += ' ';
        names += row.name;
    }
    return names;
}

} // namespace

void
usage(std::ostream &os)
{
    os << "hetsim - programming-model study driver (IISWC'15 "
          "reproduction)\n\n"
          "  hetsim list\n"
          "  hetsim backends\n"
          "  hetsim run --app <app> --model <model> --device <dev>\n"
          "             [--scale f] [--dp] [--functional]\n"
          "             [--freq core:mem] [--stats] [--kernels]\n"
          "  hetsim compare --app <app> --device <dev> [--scale f] "
          "[--dp]\n"
          "  hetsim sweep --app <app> [--model m] [--device d]\n"
          "             [--scale f]\n"
          "  hetsim coexec --app <app> --devices <d1+d2[+..]>\n"
          "             [--policy static|dynamic|adaptive]\n"
          "             [--backend "
       << serve::backendNames("|") << "]\n"
          "             [--chunk n] [--min-chunk n] [--scale f] "
          "[--dp] [--functional]\n"
          "             [--inject-faults spec] [--fault-seed n]\n"
          "             [--retry-max n] [--fail-device dev]\n"
          "  hetsim breakdown --app <app> --device <dev> [--model m]\n"
          "             [--devices <d1+d2[+..]>] [--scale f] [--dp]\n"
          "  hetsim profile --app <app> --device <dev> [--model m]\n"
          "             [--devices <d1+d2[+..]>] [--scale f] [--dp]\n"
          "             [--profile-out FILE] [--observations-out "
          "FILE]\n"
          "  hetsim batch --jobs FILE [--results-out FILE] "
          "[--workers n]\n"
          "  hetsim serve --shots n [--workers n] [--scale f]\n"
          "             [--results-out FILE]\n"
          "  hetsim serve --stream [--workers n] [--tenants a:3,b:1]\n"
          "             [--service-deadline-ms n] [--max-preemptions n]\n"
          "             [--results-out FILE]\n"
          "             < jobs.jsonl\n"
          "  hetsim fleet [--topology FILE | --nodes n] [--njobs n]\n"
          "             [--placement first-fit|least-loaded|locality]\n"
          "             [--rate jobs/s] [--slo-ms n] "
          "[--node-fail-rate f]\n"
          "             [--seed n] [--sweep] [--inject-faults spec] "
          "[--scale f]\n"
          "             [--model-in FILE] [--model-out FILE] "
          "[--no-surrogate]\n"
          "  hetsim predict --fit obs.jsonl | --model-in model.json\n"
          "             [--model-out model.json] [--kernel K "
          "--items n]\n"
          "             [--device d] [--model m] [--freq core:mem] "
          "[--dp]\n"
          "             [--sweep] [--devices d1+d2]\n\n"
          "serving layer (batch / serve):\n"
          "  --jobs FILE         JSONL job file, one JSON object per "
          "line; keys:\n"
          "                      id, app, model, device, devices, "
          "policy, scale,\n"
          "                      dp, functional, freq, timing_cache, "
          "faults,\n"
          "                      fault_seed, retry_max, fail_device, "
          "service_deadline_ms,\n"
          "                      tenant\n"
          "  --results-out FILE  results JSONL (default: stdout); "
          "deterministic\n"
          "                      fields only, ordered by job id\n"
          "  --workers N         worker sessions (default 4)\n"
          "  --shots N           serve: closed-loop jobs to generate "
          "(default 16)\n"
          "  --stream            serve: read JobSpec JSONL from stdin "
          "(until a\n"
          "                      bare `end` line or EOF) and emit each "
          "result\n"
          "                      line as its job completes\n"
          "  --tenants S         fair-share weights, name:w pairs "
          "(e.g. a:3,b:1);\n"
          "                      unlisted tenants weigh 1\n"
          "  --service-deadline-ms N\n"
          "                      default *simulated* service budget "
          "per dispatch\n"
          "                      slice; running coexec jobs past it "
          "checkpoint\n"
          "                      at a chunk boundary and re-queue "
          "(0 = none)\n"
          "  --max-preemptions N preemptions a job survives before it "
          "expires\n"
          "                      (default 16)\n\n"
          "fleet simulator (fleet):\n"
          "  --topology FILE     cluster topology JSONL: node groups\n"
          "                      {\"device\": \"dgpu\", \"count\": 32, "
          "\"name\": \"rack0\",\n"
          "                      \"perf\": 1.0} plus at most one "
          "fabric line\n"
          "                      {\"net_gbs\": 12.5, \"net_latency_us\""
          ": 5,\n"
          "                      \"net_efficiency\": 0.9}\n"
          "  --nodes N           built-in mixed topology size when no "
          "--topology\n"
          "                      (half dgpu, quarter apu, quarter cpu; "
          "default 64)\n"
          "  --njobs N           jobs to simulate (default 10000)\n"
          "  --placement P       first-fit | least-loaded (default) | "
          "locality\n"
          "  --rate R            arrival rate in jobs per simulated "
          "second\n"
          "                      (default: all jobs arrive at t=0)\n"
          "  --slo-ms N          per-job end-to-end latency SLO "
          "(0 = none)\n"
          "  --node-fail-rate F  probability each node dies mid-"
          "campaign\n"
          "  --seed N            campaign seed (class draws, homes, "
          "deaths, faults)\n"
          "  --sweep             capacity sweep: rerun at 1x 2x 4x 8x "
          "the topology\n"
          "  --trace-sample K    trace only K seed-sampled nodes "
          "(bounds trace\n"
          "                      memory on large fleets; default: all "
          "nodes)\n\n"
          "observability (any verb):\n"
          "  --trace-out FILE    Chrome trace-event JSON "
          "(chrome://tracing)\n"
          "  --metrics-out FILE  metrics registry dump as JSON\n"
          "  --profile-out FILE  profile report JSON: critical-path "
          "attribution,\n"
          "                      bottleneck label, observation "
          "records, fleet\n"
          "                      rollups, failed-job flight records\n"
          "  --observations-out FILE\n"
          "                      per-signature observation records as "
          "JSONL\n"
          "                      (kernel timing terms for surrogate "
          "fitting)\n\n"
          "fault injection (coexec):\n"
          "  --inject-faults S   comma-separated kind:rate pairs with\n"
          "                      kind in {transfer, launch, stall} and\n"
          "                      rate in [0,1], e.g. "
          "transfer:0.2,stall:0.05\n"
          "  --fault-seed N      fault-schedule seed (default 0x5eed); "
          "equal seeds\n"
          "                      reproduce identical fault schedules\n"
          "  --retry-max N       retries per op before the device is "
          "declared dead\n"
          "                      (default 4)\n"
          "  --fail-device D     kill device D (cpu/gpu/dgpu/apu or "
          "spec name)\n"
          "                      after its first completed chunk; the "
          "pool degrades\n"
          "                      and rescues its work\n\n"
          "energy (any verb):\n"
          "  --power-model FILE  per-device idle/busy wattage JSONL "
          "overriding the\n"
          "                      built-in table; keys: device, "
          "compute_idle_w,\n"
          "                      compute_busy_w, dma_idle_w, "
          "dma_busy_w,\n"
          "                      host_idle_w, host_busy_w (device "
          "\"default\"\n"
          "                      replaces the fallback row)\n"
          "  --energy-out FILE   run/coexec: per-resource energy "
          "buckets as JSON\n"
          "                      (buckets tile makespan x power within "
          "1e-9)\n"
          "  --backend B         coexec/breakdown/predict: device "
          "backend the GPU\n"
          "                      slots compile under (default hc), one "
          "of\n"
          "                      "
       << serve::backendNames("|")
       << "\n"
          "                      NB --backend omp is OpenMP target "
          "offload; --model\n"
          "                      omp is the CPU host model\n"
          "  energy-to-solution columns appear on run/compare/coexec/"
          "batch/\n"
          "  serve/fleet output\n\n"
          "performance (any verb):\n"
          "  --no-timing-cache   disable timing memoization: re-derive "
          "miss ratios and\n"
          "                      kernel timing on every launch (A/B "
          "validation)\n\n"
          "surrogate models (predict; fleet/batch/serve wiring):\n"
          "  --fit FILE          fit closed-form kernel models from "
          "observation\n"
          "                      JSONL (--observations-out output)\n"
          "  --model-in FILE     load a hetsim.model.v1 model file; "
          "fleet costs\n"
          "                      known job classes from its exact "
          "recorded costs\n"
          "                      instead of probing the simulator\n"
          "  --model-out FILE    write fitted models + exact anchors "
          "+ recorded\n"
          "                      job costs as hetsim.model.v1 JSONL\n"
          "  --kernel K --items n\n"
          "                      predict one launch (seconds, "
          "boundedness);\n"
          "                      --sweep prints a frequency sweep, "
          "--devices a+b\n"
          "                      a coexec split ratio\n"
          "  --no-surrogate      ignore loaded models: probe/simulate "
          "every cost\n"
          "                      (A/B escape hatch)\n\n"
          "apps:    " << appNames(" ", false) << "\n"
          "         (coexec: " << appNames(" ", true) << ")\n"
          "models:  " << modelNames() << "\n"
          "devices: dgpu apu cpu hd7950\n";
}

namespace
{

int
cmdList(const Args &, std::ostream &os)
{
    Table table("Workloads");
    table.setHeader({"app", "paper command line", "models"});
    for (const core::AppEntry &app : core::appTable())
        table.addRow({app.alias, app.cmdline, modelNames()});
    table.print(os);
    return 0;
}

/**
 * Dumps the declarative backend capability table (kernelir/captable) -
 * the single source every frontend, the coexec splitter and the serve
 * layer compile against.  Rows follow backendTable()'s fixed ModelKind
 * order and the columns a fixed key order, so the output is stable
 * enough for CI to diff.
 */
int
cmdBackends(const Args &, std::ostream &os)
{
    const auto yn = [](bool v) { return v ? "yes" : "-"; };

    Table caps("Backend capability table (one declarative row per "
               "programming model)");
    caps.setHeader({"backend", "display", "toolchain", "vec", "lds",
                    "sync", "unroll", "hoist", "xfers", "xfer eff",
                    "base eff", "bw eff", "chain eff", "launch us"});
    for (const ir::BackendCaps &row : ir::backendTable()) {
        caps.addRow({row.name, row.display, row.toolchain,
                     yn(row.features.vectorization),
                     yn(row.features.localDataStore),
                     yn(row.features.fineGrainedSync),
                     yn(row.features.explicitUnrolling),
                     yn(row.features.reducedCodeMotion),
                     row.managesTransfers ? "runtime" : "explicit",
                     Table::num(row.transferEfficiency, 3),
                     Table::num(row.baseEfficiency, 3),
                     Table::num(row.bwEfficiency, 3),
                     Table::num(row.chainEfficiency, 3),
                     Table::num(row.launchOverheadUs, 1)});
    }
    caps.print(os);

    Table traits("\nTrait multipliers (SIMD efficiency per loop "
                 "trait; 1.000 = no effect)");
    traits.setHeader({"backend", "divergent", "div untiled",
                      "var trip", "vt untiled", "indirect", "ind x vt",
                      "red lds", "red no-lds", "unroll", "hoist"});
    for (const ir::BackendCaps &row : ir::backendTable()) {
        const ir::TraitMultipliers &t = row.traits;
        traits.addRow({row.name, Table::num(t.divergent, 3),
                       Table::num(t.divergentUntiled, 3),
                       Table::num(t.variableTrip, 3),
                       Table::num(t.variableTripUntiled, 3),
                       Table::num(t.indirect, 3),
                       Table::num(t.indirectVariableTrip, 3),
                       Table::num(t.reductionWithLds, 3),
                       Table::num(t.reductionNoLds, 3),
                       Table::num(t.unrollBonus, 3),
                       Table::num(t.hoistBonus, 3)});
    }
    traits.print(os);

    Table quirks("\nCodegen quirks");
    quirks.setHeader({"backend", "tiling gates vec", "lds-hint warn",
                      "collapse relief", "occ limit", "occ penalty",
                      "note"});
    for (const ir::BackendCaps &row : ir::backendTable()) {
        quirks.addRow({row.name, yn(row.tilingGatesVectorization),
                       yn(row.warnsOnLdsHint),
                       Table::num(row.collapseRelief, 3),
                       row.occupancyWorkgroupLimit > 0
                           ? std::to_string(row.occupancyWorkgroupLimit)
                           : "-",
                       Table::num(row.occupancyPenalty, 3),
                       row.note});
    }
    quirks.print(os);
    return 0;
}

/**
 * Writes one output file through @p write; an empty @p path (flag not
 * given) writes nothing.  A path that cannot be opened or written is
 * loud and returns 2, for every output flag.
 */
template <typename Write>
int
writeOutput(const std::string &path, const char *what, std::ostream &os,
            Write &&write)
{
    if (path.empty())
        return 0;
    std::ofstream out(path);
    if (!out.is_open()) {
        os << "error: cannot open " << what << " output '" << path
           << "': " << std::strerror(errno) << "\n";
        return 2;
    }
    write(out);
    out.flush();
    if (!out) {
        os << "error: failed writing " << what << " output '" << path
           << "'\n";
        return 2;
    }
    return 0;
}

/** Writes the --energy-out report (run/coexec verbs). */
int
writeEnergyOut(const Args &args, const power::EnergyReport &report,
               std::ostream &os)
{
    return writeOutput(args.energyOut, "energy", os,
                       [&](std::ostream &out) {
                           power::writeEnergyJson(out, report);
                       });
}

int
cmdRun(const Args &args, std::ostream &os)
{
    auto wl = core::workloadByName(args.app);
    auto model = core::modelByName(args.model);
    auto device = sim::deviceByName(args.device);
    if (!wl || !model || !device) {
        os << "error: unknown app/model/device\n";
        return 2;
    }
    core::WorkloadConfig cfg;
    cfg.scale = args.scale;
    cfg.functional = args.functional;
    cfg.precision = args.doublePrecision ? Precision::Double
                                         : Precision::Single;
    cfg.freq = args.freq;

    auto result = wl->run(*model, *device, cfg);
    obs::Tracer &tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        tracer.span(tracer.track("run"),
                    args.app + " | " + args.model + " | " + args.device,
                    "run", 0.0, result.seconds);
    }
    Table table(wl->name() + " | " + ir::displayName(*model) + " | " +
                device->name);
    table.setHeader({"metric", "value"});
    table.addRow({"simulated total (s)", Table::num(result.seconds, 6)});
    table.addRow({"kernel time (s)",
                  Table::num(result.kernelSeconds, 6)});
    table.addRow({"staging time (s)",
                  Table::num(result.transferSeconds, 6)});
    table.addRow({"host time (s)", Table::num(result.hostSeconds, 6)});
    table.addRow({"kernel launches",
                  std::to_string(result.kernelLaunches)});
    table.addRow({"distinct kernels",
                  std::to_string(result.uniqueKernels)});
    table.addRow({"LLC miss ratio",
                  Table::num(result.llcMissRatio, 4)});
    table.addRow({"IPC", Table::num(result.ipc, 3)});
    table.addRow({"energy (J)", Table::num(result.energyJoules, 6)});
    table.addRow({"busy energy (J)",
                  Table::num(result.busyJoules, 6)});
    table.addRow({"idle energy (J)",
                  Table::num(result.idleJoules, 6)});
    table.addRow({"checksum", Table::num(result.checksum, 6)});
    if (args.functional) {
        table.addRow({"validated",
                      result.validated ? "yes" : "NO"});
    }
    table.print(os);
    if (args.kernels) {
        Table breakdown("\ntop kernels by simulated time");
        breakdown.setHeader({"kernel", "launches", "time (s)",
                             "share", "IPC", "LLC miss"});
        int shown = 0;
        for (const auto &row : core::kernelBreakdown(result)) {
            if (++shown > 10)
                break;
            breakdown.addRow({row.name, std::to_string(row.launches),
                              Table::num(row.seconds, 6),
                              Table::num(100.0 * row.share, 1) + "%",
                              Table::num(row.ipc, 3),
                              Table::num(row.llcMissRatio, 4)});
        }
        breakdown.print(os);
    }
    if (args.stats) {
        os << "\nraw counters:\n";
        std::ostringstream oss;
        result.stats.dump(oss);
        os << oss.str();
    }
    if (int rc = writeEnergyOut(args, result.energy, os))
        return rc;
    return args.functional && !result.validated ? 1 : 0;
}

int
cmdCompare(const Args &args, std::ostream &os)
{
    auto wl = core::workloadByName(args.app);
    auto device = sim::deviceByName(args.device);
    if (!wl || !device) {
        os << "error: unknown app/device\n";
        return 2;
    }
    Precision prec = args.doublePrecision ? Precision::Double
                                          : Precision::Single;
    core::Harness harness(*wl, args.scale, false);
    Table table(wl->name() + " on " + device->name + " (" +
                toString(prec) + ", vs 4-core OpenMP)");
    table.setHeader({"model", "time (s)", "speedup", "energy (J)"});
    for (const ir::BackendCaps &row : ir::backendTable()) {
        if (row.kind == core::ModelKind::Serial ||
            row.kind == core::ModelKind::OpenMp)
            continue;
        auto point = harness.speedup(*device, row.kind, prec);
        table.addRow({row.display,
                      Table::num(point.seconds, 5),
                      Table::num(point.speedup, 2),
                      Table::num(point.energyJoules, 4)});
    }
    table.print(os);
    return 0;
}

int
cmdSweep(const Args &args, std::ostream &os)
{
    auto wl = core::workloadByName(args.app);
    auto device = sim::deviceByName(args.device);
    auto model = core::modelByName(args.model);
    if (!wl || !device || !model) {
        os << "error: unknown app/model/device\n";
        return 2;
    }
    core::Harness harness(*wl, args.scale, false);
    std::vector<double> cores{200, 400, 600, 800, 1000};
    std::vector<double> mems{480, 810, 1250};
    auto rows = harness.freqSweep(*device, *model, Precision::Single,
                                  cores, mems);
    Table table(wl->name() + ": normalized perf vs core clock (" +
                device->name + ", " + ir::displayName(*model) + ")");
    std::vector<std::string> header{"Mem\\Core"};
    for (double core : cores)
        header.push_back(Table::num(core, 0));
    table.setHeader(header);
    for (size_t m = 0; m < rows.size(); ++m) {
        std::vector<double> vals;
        for (const auto &point : rows[m])
            vals.push_back(point.normalizedPerf);
        table.addRow(Table::num(mems[m], 0), vals, 2);
    }
    table.print(os);
    return 0;
}

/** A co-execution launch as --devices, --policy, --backend, --app,
 *  --scale, --dp, --chunk, --min-chunk and --functional ask for. */
struct CoexecLaunch
{
    coexec::DevicePool pool;
    coexec::CoKernel kernel;
    coexec::ExecOptions opts;
    Precision prec;
};

/**
 * Sets the coexec.<device>.* gauges from one co-executed launch.  Only
 * the verbs that run a single launch call this: a batch or serve run
 * has no one launch they could describe.
 */
void
setCoexecGauges(const coexec::CoExecResult &result)
{
    obs::Metrics &metrics = obs::Metrics::global();
    if (!metrics.enabled())
        return;
    for (const coexec::DeviceReport &dev : result.devices) {
        const std::string prefix = "coexec." + dev.device;
        metrics.set(prefix + ".busy_seconds", dev.busySeconds);
        metrics.set(prefix + ".idle_seconds", dev.idleSeconds);
        metrics.set(prefix + ".transfer_seconds", dev.transferSeconds);
        metrics.set(prefix + ".chunks", static_cast<double>(dev.chunks));
    }
}

/** @return the requested launch, or nullopt with the error printed. */
std::optional<CoexecLaunch>
coexecLaunch(const Args &args, std::ostream &os)
{
    auto pool = coexec::DevicePool::parse(args.devices);
    if (!pool) {
        os << "error: unknown device pool '" << args.devices
           << "' (want e.g. cpu+dgpu or cpu+apu)\n";
        return std::nullopt;
    }
    auto policy = coexec::policyByName(args.policy);
    if (!policy) {
        os << "error: unknown policy '" << args.policy
           << "' (static, dynamic, adaptive)\n";
        return std::nullopt;
    }
    if (!args.backend.empty())
        pool->setGpuModel(*serve::backendByName(args.backend));
    Precision prec = args.doublePrecision ? Precision::Double
                                          : Precision::Single;
    auto kernel = apps::coex::coKernelByName(args.app, args.scale,
                                             prec);
    if (!kernel) {
        os << "error: app '" << args.app
           << "' has no co-execution kernel (" << appNames(", ", true)
           << ")\n";
        return std::nullopt;
    }
    coexec::ExecOptions opts;
    opts.policy = *policy;
    opts.chunkItems = args.chunk;
    opts.minChunkItems = args.minChunk;
    opts.functional = args.functional;
    return CoexecLaunch{std::move(*pool), std::move(*kernel), opts, prec};
}

int
cmdCoexec(const Args &args, std::ostream &os)
{
    auto launch = coexecLaunch(args, os);
    if (!launch)
        return 2;
    auto &[pool, kernel, opts, prec] = *launch;
    // The plan outlives the launch; the solo reference runs below stay
    // fault-free so the speedup baseline is the healthy machine.
    fault::FaultPlan plan(args.faultConfig);
    if (args.faultsGiven)
        opts.faults = &plan;
    coexec::CoExecutor executor(pool, prec);
    auto result = executor.execute(kernel, opts);
    setCoexecGauges(result);
    if (!result.ok) {
        os << "error: " << result.error << "\n";
        return 2;
    }

    obs::Tracer &tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        tracer.span(tracer.track("run"),
                    kernel.name + " | " + pool.name() + " | " +
                        result.policy,
                    "run", 0.0, result.seconds);
    }

    // Best single device of the pool, for the speedup headline.  The
    // reference runs are paused out of the trace/metrics so the
    // emitted timeline holds exactly the requested co-execution.
    const bool was_tracing = tracer.enabled();
    const bool was_metering = obs::Metrics::global().enabled();
    tracer.setEnabled(false);
    obs::Metrics::global().setEnabled(false);
    double best_single = 0.0;
    std::string best_name;
    for (size_t d = 0; d < pool.size(); ++d) {
        coexec::CoExecutor solo(
            coexec::DevicePool({pool.spec(d)}), prec);
        coexec::ExecOptions solo_opts;
        solo_opts.policy = coexec::Policy::StaticRatio;
        solo_opts.functional = false;
        double secs = solo.execute(kernel, solo_opts).seconds;
        if (best_name.empty() || secs < best_single) {
            best_single = secs;
            best_name = pool.spec(d).name;
        }
    }
    tracer.setEnabled(was_tracing);
    obs::Metrics::global().setEnabled(was_metering);

    Table table(kernel.name + " co-executed on " + pool.name() +
                " (" + result.policy + ", " + toString(prec) + ")");
    table.setHeader({"device", "share", "items", "chunks",
                     "kernel (s)", "pcie (s)", "idle (s)",
                     "finish (s)", "energy (J)"});
    for (const auto &dev : result.devices) {
        table.addRow({dev.device,
                      Table::num(100.0 * dev.share, 1) + "%",
                      std::to_string(dev.items),
                      std::to_string(dev.chunks),
                      Table::num(dev.kernelSeconds, 6),
                      Table::num(dev.transferSeconds, 6),
                      Table::num(dev.idleSeconds, 6),
                      Table::num(dev.finishSeconds, 6),
                      Table::num(dev.energyJoules, 6)});
    }
    table.print(os);

    Table summary("\nsummary");
    summary.setHeader({"metric", "value"});
    summary.addRow({"work-items", std::to_string(result.items)});
    summary.addRow({"co-exec time (s)", Table::num(result.seconds, 6)});
    summary.addRow({"pcie staging (s)",
                    Table::num(result.transferSeconds, 6)});
    summary.addRow({"best single device", best_name});
    summary.addRow({"best single time (s)",
                    Table::num(best_single, 6)});
    summary.addRow({"co-exec speedup",
                    Table::num(best_single / result.seconds, 2)});
    summary.addRow({"energy (J)",
                    Table::num(result.energyJoules, 6)});
    summary.addRow({"energy bucket error",
                    Table::num(result.energy.bucketError(), 12)});
    if (args.faultsGiven) {
        summary.addRow({"faults injected",
                        std::to_string(result.faultsInjected)});
        summary.addRow({"transfer retries",
                        std::to_string(result.transferRetries)});
        summary.addRow({"launch retries",
                        std::to_string(result.launchRetries)});
        summary.addRow({"chunk rescues",
                        std::to_string(result.chunkRescues)});
        summary.addRow({"degradations",
                        std::to_string(result.degradations)});
        std::string dead;
        for (const auto &name : result.deadDevices) {
            if (!dead.empty())
                dead += ", ";
            dead += name;
        }
        summary.addRow({"dead devices", dead.empty() ? "none" : dead});
    }
    if (args.functional) {
        summary.addRow({"checksum", Table::num(result.checksum, 6)});
        summary.addRow({"validated", result.validated ? "yes" : "NO"});
    }
    summary.print(os);
    if (int rc = writeEnergyOut(args, result.energy, os))
        return rc;
    return args.functional && !result.validated ? 1 : 0;
}

/**
 * Runs the traced workload for the breakdown verb and returns its
 * end-to-end simulated seconds (negative on error).  With --devices
 * the co-execution path is traced; otherwise a single-device run.
 */
double
runForBreakdown(const Args &args, std::ostream &os, std::string &title)
{
    if (args.devicesGiven) {
        auto launch = coexecLaunch(args, os);
        if (!launch)
            return -1.0;
        auto &[pool, kernel, opts, prec] = *launch;
        opts.functional = false;
        coexec::CoExecutor executor(pool, prec);
        auto result = executor.execute(kernel, opts);
        setCoexecGauges(result);
        if (!result.ok) {
            os << "error: " << result.error << "\n";
            return -1.0;
        }
        title = kernel.name + " | " + pool.name() + " | " +
                result.policy;
        return result.seconds;
    }

    auto wl = core::workloadByName(args.app);
    auto model = core::modelByName(args.model);
    auto device = sim::deviceByName(args.device);
    if (!wl || !model || !device) {
        os << "error: unknown app/model/device\n";
        return -1.0;
    }
    core::WorkloadConfig cfg;
    cfg.scale = args.scale;
    cfg.functional = false;
    cfg.precision = args.doublePrecision ? Precision::Double
                                         : Precision::Single;
    cfg.freq = args.freq;
    auto result = wl->run(*model, *device, cfg);
    title = args.app + " | " + ir::displayName(*model) + " | " +
            device->name;
    return result.seconds;
}

int
cmdBreakdown(const Args &args, std::ostream &os)
{
    std::string title;
    double endToEnd = runForBreakdown(args, os, title);
    if (endToEnd < 0.0)
        return 2;

    auto report = obs::computeBreakdown(obs::Tracer::global());
    if (report.devices.empty()) {
        os << "error: no spans recorded - nothing to break down\n";
        return 2;
    }

    Table table("phase breakdown: " + title);
    table.setHeader({"device", "compute (s)", "overhead (s)",
                     "xfer exposed (s)", "xfer hidden (s)", "idle (s)",
                     "phase sum (s)"});
    for (const auto &dev : report.devices) {
        table.addRow({dev.device,
                      Table::num(dev.computeSeconds, 6),
                      Table::num(dev.overheadSeconds, 6),
                      Table::num(dev.transferSeconds, 6),
                      Table::num(dev.overlappedTransferSeconds, 6),
                      Table::num(dev.idleSeconds, 6),
                      Table::num(dev.phaseSum(), 6)});
    }
    table.print(os);

    Table summary("\nsummary");
    summary.setHeader({"metric", "value"});
    summary.addRow({"end-to-end (s)", Table::num(endToEnd, 6)});
    summary.addRow({"trace makespan (s)",
                    Table::num(report.makespanSeconds, 6)});
    double worst = 0.0;
    for (const auto &dev : report.devices) {
        double err = report.makespanSeconds > 0.0
            ? std::abs(dev.phaseSum() - report.makespanSeconds) /
                  report.makespanSeconds
            : 0.0;
        worst = std::max(worst, err);
    }
    summary.addRow({"worst phase-sum error",
                    Table::num(100.0 * worst, 4) + "%"});
    summary.print(os);
    return worst > 0.01 ? 1 : 0;
}

int
cmdProfile(const Args &args, std::ostream &os)
{
    std::string title;
    double endToEnd = runForBreakdown(args, os, title);
    if (endToEnd < 0.0)
        return 2;

    const obs::ProfileReport report = obs::buildProfile(
        obs::Tracer::global(), obs::Profiler::global(),
        obs::FlightRecorder::global());
    const obs::TraceAnalysis &analysis = report.analysis;
    if (analysis.spansAnalyzed == 0) {
        os << "error: no spans recorded - nothing to profile\n";
        return 2;
    }

    Table table("makespan attribution: " + title);
    table.setHeader({"kind", "key", "phase", "seconds", "share"});
    for (const auto &bucket : analysis.buckets) {
        table.addRow({bucket.kind, bucket.key, bucket.phase,
                      Table::num(bucket.seconds, 6),
                      Table::num(100.0 * bucket.seconds /
                                     analysis.makespanSeconds,
                                 1) +
                          "%"});
    }
    table.print(os);

    Table summary("\nsummary");
    summary.setHeader({"metric", "value"});
    summary.addRow({"makespan (s)",
                    Table::num(analysis.makespanSeconds, 6)});
    summary.addRow({"attributed (s)",
                    Table::num(analysis.attributedSeconds, 6)});
    summary.addRow({"attribution error",
                    Table::num(analysis.attributionError(), 12)});
    summary.addRow({"bottleneck", report.bottleneck});
    summary.addRow({"spans analyzed",
                    std::to_string(analysis.spansAnalyzed)});
    summary.addRow({"critical-path steps",
                    std::to_string(analysis.path.size())});
    summary.addRow({"observation records",
                    std::to_string(report.observations.size())});
    summary.print(os);
    // The attribution tiles [0, makespan] by construction; a larger
    // error means the walk missed time and the report is wrong.
    return analysis.attributionError() > 1e-9 ? 1 : 0;
}

/** Assemble the serving config shared by the batch and serve verbs. */
serve::ServerConfig
serveConfig(const Args &args)
{
    serve::ServerConfig cfg;
    cfg.workers = static_cast<u32>(args.workers);
    cfg.defaultServiceDeadlineMs =
        static_cast<double>(args.serviceDeadlineMs);
    cfg.maxPreemptions = static_cast<u32>(args.maxPreemptions);
    // The spec was validated at parse time; re-application here
    // cannot fail.
    std::string tenant_err;
    if (!args.tenants.empty())
        cfg.tenants.applyWeights(args.tenants, tenant_err);
    return cfg;
}

/**
 * Loads --model-in into @p surrogate.  @return 0, or 2 with the error
 * printed (missing file, wrong schema, malformed record).
 */
int
loadModelIn(const Args &args, model::Surrogate &surrogate,
            std::ostream &os)
{
    if (args.modelIn.empty())
        return 0;
    std::ifstream is(args.modelIn);
    if (!is.is_open()) {
        os << "error: cannot open model file '" << args.modelIn
           << "': " << std::strerror(errno) << "\n";
        return 2;
    }
    std::string error;
    if (!surrogate.load(is, args.modelIn, error)) {
        os << "error: " << error << "\n";
        return 2;
    }
    return 0;
}

/** Writes @p surrogate to --model-out.  @return 0, or 2 on failure. */
int
writeModelOut(const Args &args, const model::Surrogate &surrogate,
              std::ostream &os)
{
    return writeOutput(args.modelOut, "model", os,
                       [&](std::ostream &out) { surrogate.save(out); });
}

/**
 * The --model-out of batch and serve: fits kernel models from the
 * served jobs' observation records into @p surrogate (seeded by
 * --model-in) and writes it.  @return 0, or 2 on failure.
 */
int
writeServeModel(const Args &args, model::Surrogate &surrogate,
                std::ostream &os)
{
    if (args.modelOut.empty())
        return 0;
    surrogate.fitFromObservations(
        obs::Profiler::global().observations());
    return writeModelOut(args, surrogate, os);
}

/** Print the serving summary table shared by batch and serve. */
void
printServeSummary(const serve::ServerReport &report, std::ostream &os)
{
    Table table("serving summary (" + std::to_string(report.workers) +
                " workers)");
    table.setHeader({"metric", "value"});
    table.addRow({"jobs submitted", std::to_string(report.submitted)});
    table.addRow({"ok", std::to_string(report.completed)});
    table.addRow({"error", std::to_string(report.errors)});
    table.addRow({"expired", std::to_string(report.expired)});
    table.addRow({"queue wait p50/p95/p99 (ms)",
                  Table::num(report.queueWaitMs.p50, 2) + " / " +
                      Table::num(report.queueWaitMs.p95, 2) + " / " +
                      Table::num(report.queueWaitMs.p99, 2)});
    table.addRow({"service p50/p95/p99 (ms)",
                  Table::num(report.serviceMs.p50, 2) + " / " +
                      Table::num(report.serviceMs.p95, 2) + " / " +
                      Table::num(report.serviceMs.p99, 2)});
    table.addRow({"host wall (s)", Table::num(report.wallSeconds, 3)});
    table.addRow({"sim busy (s)",
                  Table::num(report.simBusySeconds, 6)});
    table.addRow({"sim energy (J)",
                  Table::num(report.energyJoules, 6)});
    table.addRow({"virtual makespan (s)",
                  Table::num(report.virtualMakespanSeconds, 6)});
    table.addRow({"sim throughput (jobs/s)",
                  Table::num(report.simJobsPerSecond(), 3)});
    if (report.preemptions > 0)
        table.addRow({"preempted slices",
                      std::to_string(report.preemptions)});
    table.print(os);

    // A per-tenant table only when tenancy is actually in play (more
    // than the single anonymous tenant).
    const bool multi_tenant =
        report.tenants.size() > 1 ||
        (report.tenants.size() == 1 && !report.tenants[0].tenant.empty());
    if (multi_tenant) {
        Table tenants("per-tenant fair share");
        tenants.setHeader({"tenant", "weight", "submitted", "ok",
                           "expired", "preempted", "mean svc seq",
                           "energy (J)"});
        for (const auto &t : report.tenants)
            tenants.addRow({t.tenant.empty() ? "-" : t.tenant,
                            Table::num(t.weight, 2),
                            std::to_string(t.submitted),
                            std::to_string(t.completed),
                            std::to_string(t.expired),
                            std::to_string(t.preemptions),
                            Table::num(t.meanServiceSeq, 2),
                            Table::num(t.energyJoules, 6)});
        tenants.print(os);
    }
}

/**
 * Writes the results JSONL to --results-out (or @p os when no path
 * was given).  @return 0, or 2 on an unopenable/unwritable path.
 */
int
writeServeResults(const Args &args,
                  const std::vector<serve::JobResult> &results,
                  std::ostream &os)
{
    if (args.resultsOut.empty()) {
        serve::writeResultsJsonl(os, results);
        return 0;
    }
    return writeOutput(args.resultsOut, "results", os,
                       [&](std::ostream &out) {
                           serve::writeResultsJsonl(out, results);
                       });
}

int
cmdBatch(const Args &args, std::ostream &os)
{
    if (args.jobs.empty()) {
        os << "error: batch needs --jobs FILE (JSONL, one job per "
              "line)\n";
        return 2;
    }
    std::ifstream is(args.jobs);
    if (!is.is_open()) {
        os << "error: cannot open jobs file '" << args.jobs
           << "': " << std::strerror(errno) << "\n";
        return 2;
    }
    std::string parse_error;
    auto jobs = serve::parseJobs(is, parse_error);
    if (!jobs) {
        os << "error: " << args.jobs << ": " << parse_error << "\n";
        return 2;
    }
    if (jobs->empty()) {
        os << "error: " << args.jobs << ": no jobs\n";
        return 2;
    }

    model::Surrogate surrogate;
    if (int model_rc = loadModelIn(args, surrogate, os))
        return model_rc;

    std::string error;
    auto outcome = serve::runBatch(*jobs, serveConfig(args), error);
    if (!outcome) {
        os << "error: " << error << "\n";
        return 2;
    }
    int rc = writeServeResults(args, outcome->results, os);
    if (rc != 0)
        return rc;
    if (int out_rc = writeServeModel(args, surrogate, os))
        return out_rc;
    // With the JSONL going to a file, the summary goes to the
    // console; with JSONL on stdout, stdout stays machine-readable.
    if (!args.resultsOut.empty())
        printServeSummary(outcome->report, os);
    return 0;
}

/**
 * `hetsim serve --stream`: JobSpec JSONL lines arrive on stdin, each
 * result line goes to @p os as its job completes, `end` (or EOF)
 * closes the session.  The sorted deterministic result set lands in
 * --results-out; without it, stdout carries only the live protocol
 * lines so a driving process can parse them.
 */
int
cmdServeStream(const Args &args, std::ostream &os)
{
    model::Surrogate surrogate;
    if (int model_rc = loadModelIn(args, surrogate, os))
        return model_rc;

    std::string error;
    auto outcome =
        serve::runStream(std::cin, os, serveConfig(args), error);
    if (!outcome) {
        os << "error: " << error << "\n";
        return 2;
    }
    if (int out_rc = writeServeModel(args, surrogate, os))
        return out_rc;
    if (!args.resultsOut.empty()) {
        if (int rc = writeServeResults(args, outcome->results, os))
            return rc;
        printServeSummary(outcome->report, os);
    }
    return 0;
}

int
cmdServe(const Args &args, std::ostream &os)
{
    if (args.stream)
        return cmdServeStream(args, os);

    // Closed-loop load generator: a deterministic mixed workload
    // cycling over the experiment grid's cheap corners.
    struct MixEntry
    {
        const char *app;
        const char *model;   ///< "" selects the coexec path
        const char *device;  ///< pool spec for coexec entries
        const char *backend; ///< coexec GPU-slot backend ("" = hc)
    };
    static const MixEntry kMix[] = {
        {"readmem", "opencl", "dgpu", ""},
        {"xsbench", "opencl", "apu", ""},
        {"minife", "openmp", "cpu", ""},
        {"readmem", "cuda", "dgpu", ""},
        {"xsbench", "", "cpu+dgpu", "cuda"},
        {"minife", "omptarget", "dgpu", ""},
        {"readmem", "hc", "apu", ""},
        {"minife", "", "cpu+apu", "omp"},
    };

    std::vector<serve::JobSpec> jobs;
    jobs.reserve(args.shots);
    for (u64 i = 0; i < args.shots; ++i) {
        const MixEntry &mix = kMix[i % std::size(kMix)];
        serve::JobSpec spec;
        spec.id = i + 1;
        spec.app = mix.app;
        if (*mix.model == '\0') {
            spec.devices = mix.device;
            spec.policy = "adaptive";
            spec.backend = mix.backend;
        } else {
            spec.model = mix.model;
            spec.device = mix.device;
        }
        spec.scale = args.scale;
        spec.timingCache = args.timingCache;
        jobs.push_back(std::move(spec));
    }

    model::Surrogate surrogate;
    if (int model_rc = loadModelIn(args, surrogate, os))
        return model_rc;

    serve::ServerConfig cfg = serveConfig(args);
    if (auto err = serve::Server::validateConfig(cfg)) {
        os << "error: " << *err << "\n";
        return 2;
    }
    // Live (not prefilled): jobs arrive while the workers run, so
    // queue-wait latencies behave like a real server's.
    serve::Server server(cfg);
    if (auto err = server.start()) {
        os << "error: " << *err << "\n";
        return 2;
    }
    for (const auto &spec : jobs)
        server.submit(spec);
    server.drain();
    auto report = server.report();
    auto results = server.takeResults();
    server.shutdown();

    printServeSummary(report, os);
    if (int out_rc = writeServeModel(args, surrogate, os))
        return out_rc;
    if (!args.resultsOut.empty())
        return writeServeResults(args, results, os);
    return 0;
}

/** Built-in topology when no --topology file is given: the paper's
 *  device mix as a cluster (half dgpu, quarter apu, quarter cpu). */
fleet::Topology
defaultFleetTopology(u64 nodes)
{
    const u64 dgpu = (nodes + 1) / 2;
    const u64 apu = (nodes - dgpu + 1) / 2;
    const u64 cpu = nodes - dgpu - apu;
    fleet::Topology topo;
    topo.nodes.reserve(nodes);
    auto group = [&](const char *device, u64 count) {
        for (u64 i = 0; i < count; ++i) {
            fleet::NodeSpec node;
            node.name = std::string(device) + "/" + std::to_string(i);
            node.device = device;
            topo.nodes.push_back(std::move(node));
        }
    };
    group("dgpu", dgpu);
    group("apu", apu);
    group("cpu", cpu);
    return topo;
}

/**
 * Costs every (class, device kind) cell: exact job-cost anchors from
 * --model-in first, the real simulator for the rest - a
 * one-job-per-missing-cell batch over the serving layer, so the fleet
 * model's costs are the paper's simulated numbers rather than made-up
 * constants.  Costs depend on --scale, so the surrogate keys carry a
 * scale suffix and a model recorded at one scale never answers for
 * another.  Costing wall time and hit counts go to the metrics
 * registry only: stdout must stay byte-identical between the
 * surrogate and probe paths (`--no-surrogate` A/B).  @return nullopt
 * (with the error printed) when a probe cannot run on some kind.
 */
std::optional<std::vector<fleet::JobClass>>
costFleetClasses(const Args &args, const fleet::Topology &topo,
                 model::Surrogate *surrogate, std::ostream &os)
{
    std::vector<fleet::ClassDef> defs = fleet::paperClassMix();
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), "|scale=%.17g", args.scale);
    for (fleet::ClassDef &def : defs)
        def.costKey = def.name + suffix;

    const auto probe =
        [&args](const std::vector<fleet::ProbeCell> &cells,
                std::string &error)
        -> std::optional<std::vector<double>> {
        std::vector<serve::JobSpec> probes;
        probes.reserve(cells.size());
        u64 id = 0;
        for (const fleet::ProbeCell &cell : cells) {
            serve::JobSpec spec;
            spec.id = ++id;
            spec.app = cell.app;
            spec.model = cell.model;
            spec.device = cell.device;
            spec.scale = args.scale;
            spec.timingCache = args.timingCache;
            probes.push_back(std::move(spec));
        }
        serve::ServerConfig cfg;
        auto outcome = serve::runBatch(probes, cfg, error);
        if (!outcome)
            return std::nullopt;
        std::map<u64, const serve::JobResult *> byId;
        for (const auto &res : outcome->results)
            byId[res.id] = &res;
        std::vector<double> seconds;
        seconds.reserve(cells.size());
        id = 0;
        for (const fleet::ProbeCell &cell : cells) {
            const serve::JobResult *res = byId[++id];
            if (res == nullptr ||
                res->status != serve::JobStatus::Ok) {
                error = cell.app + "/" + cell.model +
                        " cannot run on device '" + cell.device +
                        "'" +
                        (res != nullptr && !res->error.empty()
                             ? ": " + res->error
                             : "");
                return std::nullopt;
            }
            seconds.push_back(res->simSeconds);
        }
        return seconds;
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::string error;
    auto outcome = fleet::costClasses(defs, topo.deviceKinds(),
                                      surrogate, probe, error);
    const double costSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    if (!outcome) {
        os << "error: fleet class probe: " << error << "\n";
        return std::nullopt;
    }
    obs::Metrics::global().add("host.fleet.cost.wall_seconds",
                               costSeconds);
    obs::Metrics::global().add(
        "fleet.cost.surrogate_hits",
        static_cast<double>(outcome->surrogateHits));
    obs::Metrics::global().add("fleet.cost.probed",
                               static_cast<double>(outcome->probed));
    return std::move(outcome->classes);
}

int
cmdFleet(const Args &args, std::ostream &os)
{
    fleet::Topology topo;
    if (!args.topology.empty()) {
        std::string error;
        auto loaded = fleet::loadTopology(args.topology, error);
        if (!loaded) {
            os << "error: " << error << "\n";
            return 2;
        }
        topo = std::move(*loaded);
    } else {
        topo = defaultFleetTopology(args.nodes);
    }

    model::Surrogate surrogate;
    if (int model_rc = loadModelIn(args, surrogate, os))
        return model_rc;

    // --no-surrogate probes every cell (and skips the write-back), so
    // an A/B against the surrogate path compares full stdout.
    auto classes = costFleetClasses(
        args, topo, args.surrogate ? &surrogate : nullptr, os);
    if (!classes)
        return 2;

    fleet::FleetConfig cfg;
    cfg.jobs = args.njobs;
    cfg.seed = args.seed;
    cfg.policy = *fleet::policyByName(args.placement);
    cfg.arrivalRate = args.rate;
    cfg.sloSeconds = static_cast<double>(args.sloMs) / 1e3;
    cfg.nodeFailRate = args.nodeFailRate;
    if (args.faultsGiven)
        cfg.faults = args.faultConfig;
    cfg.traceSampleNodes = args.traceSample;
    cfg.classes = std::move(*classes);

    // Gang classes cannot span more nodes than the smallest fleet in
    // the run; clamp rather than reject so tiny topologies still work.
    for (fleet::JobClass &cls : cfg.classes)
        cls.gangNodes = std::min<u32>(
            cls.gangNodes, std::max<u32>(topo.size(), 1));

    const std::vector<u32> factors =
        args.fleetSweep ? std::vector<u32>{1, 2, 4, 8}
                        : std::vector<u32>{1};

    Table table("Fleet capacity (" + std::string(fleet::toString(
                    cfg.policy)) + " placement, " +
                std::to_string(cfg.jobs) + " jobs, seed " +
                std::to_string(cfg.seed) + ")");
    table.setHeader({"nodes", "makespan s", "jobs/s", "util",
                     "energy J", "p50 ms", "p99 ms", "slo miss",
                     "off-home", "deaths", "retries", "faults",
                     "digest"});
    std::optional<fleet::FleetResult> single;
    for (u32 factor : factors) {
        const fleet::Topology scaled =
            factor == 1 ? topo : topo.scaled(factor);
        std::string error;
        auto res = fleet::simulateFleet(scaled, cfg, error);
        if (!res) {
            os << "error: " << error << "\n";
            return 2;
        }
        if (!args.fleetSweep)
            single = *res;
        char digest[32];
        std::snprintf(digest, sizeof(digest), "0x%016llx",
                      static_cast<unsigned long long>(res->digest));
        table.addRow({std::to_string(scaled.size()),
                      Table::num(res->makespanSeconds, 3),
                      Table::num(res->throughputJobsPerSec, 1),
                      Table::num(res->utilization, 3),
                      Table::num(res->energyJoules, 1),
                      Table::num(res->latencyMs.p50, 2),
                      Table::num(res->latencyMs.p99, 2),
                      std::to_string(res->sloViolations),
                      std::to_string(res->offHome),
                      std::to_string(res->nodeDeaths),
                      std::to_string(res->retries),
                      std::to_string(res->faultsInjected),
                      digest});
    }
    table.print(os);

    if (single) {
        // Per-device-kind rollup of the single run.
        struct KindFold
        {
            u64 jobs = 0;
            double busy = 0.0;
            double energy = 0.0;
        };
        std::map<std::string, KindFold> byKind;
        u64 deadNodes = 0;
        for (const auto &node : single->nodes) {
            KindFold &fold = byKind[node.device];
            fold.jobs += node.jobs;
            fold.busy += node.busySeconds;
            fold.energy += node.energyJoules;
            if (node.died)
                ++deadNodes;
        }
        Table rollup("Per-device-kind rollup");
        rollup.setHeader({"device", "nodes", "jobs", "busy s",
                          "busy share", "energy J"});
        for (const std::string &kind : topo.deviceKinds()) {
            u64 count = 0;
            for (const auto &node : topo.nodes)
                count += node.device == kind ? 1 : 0;
            const KindFold &fold = byKind[kind];
            rollup.addRow(
                {kind, std::to_string(count),
                 std::to_string(fold.jobs), Table::num(fold.busy, 3),
                 Table::num(single->busySeconds > 0.0
                                ? fold.busy / single->busySeconds
                                : 0.0,
                            3),
                 Table::num(fold.energy, 1)});
        }
        os << "\n";
        rollup.print(os);
        if (deadNodes > 0)
            os << "\nnode deaths: " << deadNodes << " of "
               << topo.size() << " nodes died mid-campaign\n";
    }

    if (!args.modelOut.empty()) {
        // Probed cells were recorded back into the surrogate by
        // costClasses; fold in any kernel observations the probes
        // produced and persist the complete table.
        surrogate.fitFromObservations(
            obs::Profiler::global().observations());
        if (int out_rc = writeModelOut(args, surrogate, os))
            return out_rc;
    }
    return 0;
}

/**
 * findGroup with a model-alias fallback: an exact --model match is
 * preferred, but when the fit never saw that alias (e.g. coexec
 * observations carry only openmp/hc) the best group of any model
 * answers instead - predictions degrade gracefully rather than
 * erroring on the CLI's default --model.
 */
const model::KernelModel *
findPredictGroup(const model::Surrogate &surrogate,
                 const std::string &kernel, const std::string &device,
                 u32 precisionBits, const std::string &modelAlias,
                 model::GroupKey *keyOut)
{
    const model::KernelModel *group = surrogate.findGroup(
        kernel, device, precisionBits, modelAlias, keyOut);
    if (group == nullptr && !modelAlias.empty())
        group = surrogate.findGroup(kernel, device, precisionBits, "",
                                    keyOut);
    return group;
}

/** Adds the per-term rows of one composed prediction to @p table. */
void
addPredictionRows(Table &table, const model::Prediction &pred)
{
    table.addRow({"predicted (s)", Table::num(pred.seconds, 9)});
    table.addRow({"issue (s)", Table::num(pred.issueSeconds, 9)});
    table.addRow({"memory (s)", Table::num(pred.memSeconds, 9)});
    table.addRow({"lds (s)", Table::num(pred.ldsSeconds, 9)});
    table.addRow({"latency (s)", Table::num(pred.latencySeconds, 9)});
    table.addRow({"launch (s)", Table::num(pred.launchSeconds, 9)});
    table.addRow({"bound", pred.bound});
}

int
cmdPredict(const Args &args, std::ostream &os)
{
    model::Surrogate surrogate;
    if (int model_rc = loadModelIn(args, surrogate, os))
        return model_rc;
    if (!args.fitObs.empty()) {
        std::ifstream is(args.fitObs);
        if (!is.is_open()) {
            os << "error: cannot open observations file '"
               << args.fitObs << "': " << std::strerror(errno)
               << "\n";
            return 2;
        }
        std::string error;
        auto records =
            model::loadObservations(is, args.fitObs, error);
        if (!records) {
            os << "error: " << error << "\n";
            return 2;
        }
        if (records->empty()) {
            os << "error: " << args.fitObs
               << ": no observation records\n";
            return 2;
        }
        surrogate.fitFromObservations(*records);
    }
    if (surrogate.groupCount() == 0) {
        os << "error: model has no fitted kernel groups - nothing to "
              "predict from\n";
        return 2;
    }

    char digest[32];
    std::snprintf(
        digest, sizeof(digest), "0x%016llx",
        static_cast<unsigned long long>(surrogate.fitDigest()));
    Table table("surrogate model (" +
                std::to_string(surrogate.groupCount()) + " groups, " +
                std::to_string(surrogate.anchorCount()) +
                " anchors, " +
                std::to_string(surrogate.jobCostCount()) +
                " job costs, fit digest " + digest + ")");
    table.setHeader({"kernel", "device", "model", "prec", "wg",
                     "points", "launches", "issue form", "mem form",
                     "cv err", "train err"});
    const auto &grid = model::hypothesisGrid();
    for (const auto &[key, km] : surrogate.groups()) {
        table.addRow({key.kernel, key.device, key.model,
                      std::to_string(key.precisionBits),
                      std::to_string(key.workgroup),
                      std::to_string(km.points),
                      std::to_string(km.launches),
                      grid[km.issue.hypothesis].name,
                      grid[km.mem.hypothesis].name,
                      Table::num(100.0 * km.cvRelErr, 3) + "%",
                      Table::num(100.0 * km.trainRelErr, 3) + "%"});
    }
    table.print(os);

    const u32 prec = args.doublePrecision ? 64 : 32;
    if (!args.kernel.empty() || args.items != 0) {
        if (args.kernel.empty() || args.items == 0) {
            os << "error: predict wants both --kernel K and "
                  "--items n\n";
            return 2;
        }
        const double items = static_cast<double>(args.items);

        if (args.devicesGiven) {
            // Two-device co-execution: the optimal static split.
            auto pool = coexec::DevicePool::parse(args.devices);
            if (!pool || pool->size() != 2) {
                os << "error: predict --devices wants exactly two "
                      "devices (e.g. cpu+dgpu)\n";
                return 2;
            }
            if (!args.backend.empty())
                pool->setGpuModel(*serve::backendByName(args.backend));
            model::GroupKey keys[2];
            for (size_t d = 0; d < 2; ++d) {
                const sim::DeviceSpec &spec = pool->spec(d);
                if (findPredictGroup(surrogate, args.kernel,
                                     spec.name, prec,
                                     ir::toString(pool->model(d)),
                                     &keys[d]) == nullptr) {
                    os << "error: no fitted group for kernel '"
                       << args.kernel << "' on device '" << spec.name
                       << "' (" << prec << "-bit)\n";
                    return 2;
                }
            }
            const sim::FreqDomain fa = pool->spec(0).stockFreq();
            const sim::FreqDomain fb = pool->spec(1).stockFreq();
            const auto split = surrogate.splitRatio(
                keys[0], fa.coreMhz, fa.memMhz, keys[1], fb.coreMhz,
                fb.memMhz, items);
            if (!split) {
                os << "error: split-ratio search failed\n";
                return 2;
            }
            os << "\n";
            Table splitTable(
                "predicted split: " + args.kernel + " x " +
                std::to_string(args.items) + " items on " +
                pool->name());
            splitTable.setHeader({"metric", "value"});
            splitTable.addRow({pool->spec(0).name + " share",
                               Table::num(split->firstShare, 6)});
            splitTable.addRow({pool->spec(1).name + " share",
                               Table::num(1.0 - split->firstShare,
                                          6)});
            splitTable.addRow({pool->spec(0).name + " (s)",
                               Table::num(split->first.seconds, 9)});
            splitTable.addRow({pool->spec(1).name + " (s)",
                               Table::num(split->second.seconds, 9)});
            splitTable.addRow({"co-executed (s)",
                               Table::num(split->seconds, 9)});
            splitTable.print(os);
            return writeModelOut(args, surrogate, os);
        }

        auto device = sim::deviceByName(args.device);
        if (!device) {
            os << "error: unknown device '" << args.device
               << "' (dgpu, apu, cpu)\n";
            return 2;
        }
        model::GroupKey key;
        const model::KernelModel *group =
            findPredictGroup(surrogate, args.kernel, device->name,
                             prec, args.model, &key);
        if (group == nullptr) {
            os << "error: no fitted group for kernel '" << args.kernel
               << "' on device '" << device->name << "' (" << prec
               << "-bit)\n";
            return 2;
        }
        const sim::FreqDomain freq = args.freq.coreMhz > 0.0
                                         ? args.freq
                                         : device->stockFreq();
        const model::Prediction pred =
            group->predict(items, freq.coreMhz, freq.memMhz);
        os << "\n";
        Table one("prediction: " + key.kernel + " x " +
                  std::to_string(args.items) + " items | " +
                  key.model + " | " + key.device + " @ " +
                  Table::num(freq.coreMhz, 0) + ":" +
                  Table::num(freq.memMhz, 0) + " MHz");
        one.setHeader({"metric", "value"});
        addPredictionRows(one, pred);
        if (const auto anchor = surrogate.anchorSeconds(
                key, args.items, freq.coreMhz, freq.memMhz)) {
            one.addRow({"observed (s)", Table::num(*anchor, 9)});
            const double denom = std::max(std::abs(*anchor), 1e-18);
            one.addRow({"rel err",
                        Table::num(100.0 *
                                       std::abs(pred.seconds -
                                                *anchor) /
                                       denom,
                                   3) +
                            "%"});
        }
        one.print(os);

        if (args.fleetSweep) {
            // The what-if the paper sweeps in Figure 7, answered from
            // the closed forms instead of re-simulating each point.
            const std::vector<double> cores{200, 400, 600, 800, 1000};
            const std::vector<double> mems{480, 810, 1250};
            os << "\n";
            Table sweep("predicted frequency sweep (seconds, core "
                        "MHz x mem MHz)");
            std::vector<std::string> header{"mem \\ core"};
            for (double core : cores)
                header.push_back(Table::num(core, 0));
            sweep.setHeader(header);
            for (double mem : mems) {
                std::vector<std::string> row{Table::num(mem, 0)};
                for (double core : cores)
                    row.push_back(Table::num(
                        group->predict(items, core, mem).seconds, 9));
                sweep.addRow(row);
            }
            sweep.print(os);
        }
    }
    return writeModelOut(args, surrogate, os);
}

/**
 * Writes --trace-out / --metrics-out / --profile-out /
 * --observations-out files; a path that cannot be opened or written
 * produces a clear error and exit code 2.
 */
int
writeObsOutputs(const Args &args, std::ostream &os)
{
    // Ring-buffer overflow is silent at record time (by design: the
    // hot path never blocks), so it must be loud at dump time - a
    // truncated trace skews every downstream attribution.
    const u64 droppedSpans = obs::Tracer::global().dropped();
    if (droppedSpans > 0) {
        obs::Metrics::global().add("obs.trace.dropped_spans",
                                   static_cast<double>(droppedSpans));
        os << "warning: trace ring buffer dropped " << droppedSpans
           << " events (oldest first); raise the tracer capacity or "
              "use --trace-sample to bound span volume\n";
    }
    if (int rc = writeOutput(args.traceOut, "trace", os,
                             [](std::ostream &out) {
                                 obs::Tracer::global().writeJson(out);
                             }))
        return rc;
    if (int rc = writeOutput(args.metricsOut, "metrics", os,
                             [](std::ostream &out) {
                                 obs::Metrics::global().dumpJson(out);
                             }))
        return rc;
    if (int rc = writeOutput(
            args.profileOut, "profile", os, [](std::ostream &out) {
                obs::writeProfileJson(
                    out, obs::buildProfile(obs::Tracer::global(),
                                           obs::Profiler::global(),
                                           obs::FlightRecorder::global()));
            }))
        return rc;
    return writeOutput(args.observationsOut, "observations", os,
                       [](std::ostream &out) {
                           obs::writeObservationsJsonl(
                               out, obs::Profiler::global().observations());
                       });
}

/**
 * Enables the global tracer/metrics for the duration of a command
 * when any observability output was requested, and disables them
 * again on exit so library users of execute() see no residue.
 */
struct ObsSession
{
    ObsSession(bool on, const std::string &trace_path,
               const std::string &metrics_path)
        : active(on)
    {
        if (!active)
            return;
        obs::Tracer::global().clear();
        obs::Tracer::global().setEnabled(true);
        obs::Metrics::global().clear();
        obs::Metrics::global().setEnabled(true);
        obs::Profiler::global().clear();
        obs::Profiler::global().setEnabled(true);
        obs::FlightRecorder::global().clear();
        obs::FlightRecorder::global().setEnabled(true);
        // Crash-path flush: a panic()/fatal() mid-run still leaves
        // parseable --trace-out/--metrics-out files behind.
        obs::installCrashDump(trace_path, metrics_path);
    }

    ~ObsSession()
    {
        if (!active)
            return;
        obs::removeCrashDump();
        obs::Tracer::global().setEnabled(false);
        obs::Metrics::global().setEnabled(false);
        obs::Profiler::global().setEnabled(false);
        obs::FlightRecorder::global().setEnabled(false);
    }

    bool active;
};

/**
 * Applies --no-timing-cache for the duration of a command and
 * restores the prior state on exit (library users of execute() keep
 * their own configuration).
 */
struct TimingCacheSession
{
    explicit TimingCacheSession(bool on)
        : prior(sim::TimingCache::global().enabled())
    {
        sim::TimingCache::global().setEnabled(on);
    }

    ~TimingCacheSession()
    {
        sim::TimingCache::global().setEnabled(prior);
    }

    bool prior;
};

/**
 * Installs a --power-model table as the process-wide active table for
 * the duration of one command and restores the built-in table on exit
 * (library users of execute() keep their own wattages).
 */
struct PowerSession
{
    PowerSession() : prior(power::PowerTable::active()) {}

    ~PowerSession() { power::PowerTable::active() = prior; }

    power::PowerTable prior;
};

/** One verb of the command line. */
struct Verb
{
    const char *name;
    int (*run)(const Args &, std::ostream &);
    /** Reads the tracer's spans, so it always runs with
     *  observability on. */
    bool traced = false;
};

/** Every verb; parse() accepts exactly these and execute() dispatches
 *  through them. */
const Verb kVerbs[] = {
    {"list", cmdList},
    {"backends", cmdBackends},
    {"run", cmdRun},
    {"compare", cmdCompare},
    {"sweep", cmdSweep},
    {"coexec", cmdCoexec},
    {"breakdown", cmdBreakdown, true},
    {"profile", cmdProfile, true},
    {"batch", cmdBatch},
    {"serve", cmdServe},
    {"fleet", cmdFleet},
    {"predict", cmdPredict},
};

/**
 * Strictly parse an unsigned integer count: digits only, no sign, no
 * trailing junk, no overflow.  Integer flags all route through this,
 * so "--chunk -5" or "--retry-max 3x" are rejected instead of being
 * silently truncated by strtod/atoi.
 */
std::optional<u64>
parseCount(const std::string &text)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return std::nullopt;
    return static_cast<u64>(v);
}

/** How a flag reads its value.  Every kind but On and Off consumes
 *  the next argv entry, even one that starts with "--". */
enum class Kind
{
    On,            ///< no value; sets the bool field
    Off,           ///< no value; clears the bool field
    Text,          ///< any string
    Path,          ///< a non-empty string
    Count,         ///< an unsigned integer
    PositiveCount, ///< an unsigned integer > 0
    Positive,      ///< a finite number > 0
    Custom,        ///< FlagSpec::check validates and stores
};

/**
 * One flag of the command line.  A rejected value sets the error
 * "<name> wants <what>, got '<value>'" - just "<name> wants <what>"
 * for an empty Path - unless a Custom check wrote its own.
 */
struct FlagSpec
{
    const char *name;
    Kind kind;
    const char *what;
    /** The Args field the value goes to; a Custom check stores any
     *  other fields itself, and its string field (if any) gets the
     *  value once the check accepts it. */
    std::variant<std::monostate, bool Args::*, std::string Args::*,
                 u64 Args::*, double Args::*>
        field;
    /** Custom kinds: @return whether @p value is accepted. */
    bool (*check)(Args &args, const std::string &value) = nullptr;
};

const FlagSpec kFlags[] = {
    {"--app", Kind::Text, nullptr, &Args::app},
    {"--model", Kind::Text, nullptr, &Args::model},
    {"--device", Kind::Text, nullptr, &Args::device},
    {"--scale", Kind::Positive, "a positive number", &Args::scale},
    {"--devices", Kind::Custom, nullptr, &Args::devices,
     [](Args &a, const std::string &) {
         a.devicesGiven = true;
         return true;
     }},
    {"--backend", Kind::Custom, nullptr, &Args::backend,
     [](Args &a, const std::string &v) {
         if (serve::backendByName(v))
             return true;
         a.error = "--backend wants a device backend (" +
                   serve::backendNames(", ") + "), got '" + v + "'";
         return false;
     }},
    {"--power-model", Kind::Path, "a file path", &Args::powerModel},
    {"--energy-out", Kind::Path, "a file path", &Args::energyOut},
    {"--trace-out", Kind::Path, "a file path", &Args::traceOut},
    {"--metrics-out", Kind::Path, "a file path", &Args::metricsOut},
    {"--profile-out", Kind::Path, "a file path", &Args::profileOut},
    {"--observations-out", Kind::Path, "a file path",
     &Args::observationsOut},
    {"--trace-sample", Kind::PositiveCount, "a positive node count",
     &Args::traceSample},
    {"--policy", Kind::Text, nullptr, &Args::policy},
    {"--chunk", Kind::PositiveCount, "a positive item count",
     &Args::chunk},
    {"--min-chunk", Kind::PositiveCount, "a positive item count",
     &Args::minChunk},
    {"--inject-faults", Kind::Custom,
     "kind:rate pairs (transfer|launch|stall, rate in [0,1])", {},
     [](Args &a, const std::string &v) {
         const auto cfg = fault::parseFaultSpec(v);
         if (!cfg)
             return false;
         a.faultConfig.transferFailRate = cfg->transferFailRate;
         a.faultConfig.launchFailRate = cfg->launchFailRate;
         a.faultConfig.stallRate = cfg->stallRate;
         a.faultsGiven = true;
         return true;
     }},
    {"--fault-seed", Kind::Custom, "an unsigned integer", {},
     [](Args &a, const std::string &v) {
         const auto n = parseCount(v);
         if (n)
             a.faultConfig.seed = *n;
         return n.has_value();
     }},
    {"--retry-max", Kind::Custom, "a retry budget in [0, 64]", {},
     [](Args &a, const std::string &v) {
         const auto n = parseCount(v);
         if (!n || *n > 64)
             return false;
         a.faultConfig.retryMax = static_cast<u32>(*n);
         return true;
     }},
    {"--fail-device", Kind::Custom, nullptr, {},
     [](Args &a, const std::string &v) {
         if (v.empty()) {
             a.error = "--fail-device wants a device alias";
             return false;
         }
         a.faultConfig.failDevice = v;
         a.faultsGiven = true;
         return true;
     }},
    {"--freq", Kind::Custom, "core:mem in positive MHz", {},
     [](Args &a, const std::string &v) {
         const auto freq = serve::parseFreqPair(v);
         if (freq)
             a.freq = *freq;
         return freq.has_value();
     }},
    {"--jobs", Kind::Path, "a file path", &Args::jobs},
    {"--results-out", Kind::Path, "a file path", &Args::resultsOut},
    // 0 parses fine; the server reports the structured zero-worker
    // configuration error.
    {"--workers", Kind::Count, "a worker count", &Args::workers},
    {"--shots", Kind::PositiveCount, "a positive job count", &Args::shots},
    {"--stream", Kind::On, nullptr, &Args::stream},
    {"--tenants", Kind::Custom, nullptr, &Args::tenants,
     [](Args &a, const std::string &v) {
         return serve::TenantTable().applyWeights(v, a.error);
     }},
    {"--service-deadline-ms", Kind::Count,
     "simulated milliseconds (0 = none)", &Args::serviceDeadlineMs},
    {"--max-preemptions", Kind::Count, "a preemption count",
     &Args::maxPreemptions},
    {"--topology", Kind::Path, "a file path", &Args::topology},
    {"--nodes", Kind::PositiveCount, "a positive node count",
     &Args::nodes},
    {"--njobs", Kind::PositiveCount, "a positive job count",
     &Args::njobs},
    {"--placement", Kind::Custom, "first-fit, least-loaded, or locality",
     &Args::placement,
     [](Args &, const std::string &v) {
         return fleet::policyByName(v).has_value();
     }},
    {"--rate", Kind::Positive, "a positive jobs/sec arrival rate",
     &Args::rate},
    {"--slo-ms", Kind::Count, "milliseconds (0 = none)", &Args::sloMs},
    {"--node-fail-rate", Kind::Custom, "a fraction in [0, 1]", {},
     [](Args &a, const std::string &v) {
         const auto f = parseFinite(v);
         if (!f || *f < 0.0 || *f > 1.0)
             return false;
         a.nodeFailRate = *f;
         return true;
     }},
    {"--seed", Kind::Count, "an unsigned integer", &Args::seed},
    {"--model-in", Kind::Path, "a file path", &Args::modelIn},
    {"--model-out", Kind::Path, "a file path", &Args::modelOut},
    {"--fit", Kind::Path, "an observation JSONL file path",
     &Args::fitObs},
    {"--kernel", Kind::Path, "a kernel name", &Args::kernel},
    {"--items", Kind::PositiveCount, "a positive item count",
     &Args::items},
    {"--no-surrogate", Kind::Off, nullptr, &Args::surrogate},
    {"--sweep", Kind::On, nullptr, &Args::fleetSweep},
    {"--dp", Kind::On, nullptr, &Args::doublePrecision},
    {"--functional", Kind::On, nullptr, &Args::functional},
    {"--no-timing-cache", Kind::Off, nullptr, &Args::timingCache},
    {"--stats", Kind::On, nullptr, &Args::stats},
    {"--kernels", Kind::On, nullptr, &Args::kernels},
};

/** @return the row of @p table called @p name, or null. */
template <typename Row, size_t N>
const Row *
byName(const Row (&table)[N], const std::string &name)
{
    for (const Row &row : table) {
        if (name == row.name)
            return &row;
    }
    return nullptr;
}

/** Validates @p value for @p flag and stores it, or sets args.error. */
void
storeValue(const FlagSpec &flag, const std::string &value, Args &args)
{
    bool ok = true;
    switch (flag.kind) {
      case Kind::On:
      case Kind::Off:
        break;
      case Kind::Text:
        args.*std::get<std::string Args::*>(flag.field) = value;
        break;
      case Kind::Path:
        if (value.empty()) {
            args.error = std::string(flag.name) + " wants " + flag.what;
            return;
        }
        args.*std::get<std::string Args::*>(flag.field) = value;
        break;
      case Kind::Count:
      case Kind::PositiveCount: {
        const auto n = parseCount(value);
        ok = n && (flag.kind == Kind::Count || *n > 0);
        if (ok)
            args.*std::get<u64 Args::*>(flag.field) = *n;
        break;
      }
      case Kind::Positive: {
        const auto v = parseFinite(value);
        ok = v && *v > 0.0;
        if (ok)
            args.*std::get<double Args::*>(flag.field) = *v;
        break;
      }
      case Kind::Custom:
        ok = flag.check(args, value);
        if (ok && std::holds_alternative<std::string Args::*>(flag.field))
            args.*std::get<std::string Args::*>(flag.field) = value;
        break;
    }
    if (!ok && args.error.empty()) {
        args.error = std::string(flag.name) + " wants " + flag.what +
                     ", got '" + value + "'";
    }
}

} // namespace

Args
parse(const std::vector<std::string> &argv)
{
    Args args;
    if (argv.empty()) {
        args.error = "missing command";
        return args;
    }
    args.command = argv[0];
    if (byName(kVerbs, args.command) == nullptr) {
        args.error = "unknown command '" + args.command + "'";
        return args;
    }

    for (size_t i = 1; i < argv.size() && args.error.empty(); ++i) {
        const std::string &arg = argv[i];
        const FlagSpec *flag = byName(kFlags, arg);
        if (flag == nullptr)
            args.error = "unknown option '" + arg + "'";
        else if (flag->kind == Kind::On || flag->kind == Kind::Off)
            args.*std::get<bool Args::*>(flag->field) =
                flag->kind == Kind::On;
        else if (i + 1 == argv.size())
            args.error = arg + " needs a value";
        else
            storeValue(*flag, argv[++i], args);
    }
    if (!args.error.empty())
        return args;

    if (args.stream && args.command != "serve") {
        args.error = "--stream is a serve-verb flag "
                     "(hetsim serve --stream < jobs.jsonl)";
    } else if (!args.energyOut.empty() && args.command != "run" &&
               args.command != "coexec") {
        args.error = "--energy-out writes one run's energy report; "
                     "it is a run/coexec-verb flag";
    } else if (args.command == "predict" && args.fitObs.empty() &&
               args.modelIn.empty()) {
        args.error = "predict needs --fit OBS_JSONL or --model-in "
                     "FILE";
    }
    return args;
}

int
execute(const Args &args, std::ostream &os)
{
    if (!args.error.empty()) {
        os << "error: " << args.error << "\n\n";
        usage(os);
        return 2;
    }

    const Verb *verb = byName(kVerbs, args.command);
    // --model-out fits from the profiler's observation records, so a
    // model-writing run needs the observability globals live too.
    ObsSession obs_session(!args.traceOut.empty() ||
                               !args.metricsOut.empty() ||
                               !args.profileOut.empty() ||
                               !args.observationsOut.empty() ||
                               !args.modelOut.empty() ||
                               (verb != nullptr && verb->traced),
                           args.traceOut, args.metricsOut);
    TimingCacheSession cache_session(args.timingCache);

    PowerSession power_session;
    if (!args.powerModel.empty()) {
        std::ifstream is(args.powerModel);
        if (!is.is_open()) {
            os << "error: cannot open power model '" << args.powerModel
               << "': " << std::strerror(errno) << "\n";
            return 2;
        }
        std::string error;
        auto table = power::PowerTable::load(is, args.powerModel,
                                             error);
        if (!table) {
            os << "error: " << error << "\n";
            return 2;
        }
        power::PowerTable::active() = *table;
    }

    if (verb == nullptr) {
        usage(os);
        return 2;
    }
    int rc = verb->run(args, os);

    if (obs_session.active) {
        int obs_rc = writeObsOutputs(args, os);
        if (rc == 0)
            rc = obs_rc;
    }
    return rc;
}

} // namespace hetsim::cli
