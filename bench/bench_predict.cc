/**
 * @file
 * Surrogate-model benchmark: fit closed-form kernel models from
 * simulator observations, then gate the properties the serving layers
 * rely on:
 *
 *  - accuracy: max relative error on held-out interior points of a
 *    scale x clock observation grid <= 5%;
 *  - speed: composed predictions >= 1M/s (the resolve-once, query-many
 *    pattern frequency sweeps and admission estimates use);
 *  - fleet costing: answering the (class, device kind) cost table from
 *    recorded job-cost anchors must be >= 10x faster than probing the
 *    device simulator, produce bitwise-identical class costs, yield
 *    the same fleet campaign digest, and leave the shared timing cache
 *    untouched (proof the surrogate never ran the simulator).
 *
 * Every gate failure is loud (non-zero exit).
 *
 * Options (on top of the common --scale/--quick):
 *   --out <path>   JSON output path (default BENCH_predict.json).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "fleet/costing.hh"
#include "fleet/fleet.hh"
#include "fleet/topology.hh"
#include "model/surrogate.hh"
#include "obs/profile.hh"
#include "serve/server.hh"
#include "sim/timing_cache.hh"

#include "benchsupport.hh"

namespace
{

using namespace hetsim;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Simulate one job, letting the profiler record its launches. */
void
runTrainingJob(const serve::JobSpec &spec)
{
    const serve::JobResult res = serve::runJob(spec);
    if (res.status != serve::JobStatus::Ok) {
        std::cerr << "training job failed: " << spec.app << "/"
                  << spec.model << "/" << spec.device << ": "
                  << res.error << "\n";
        std::exit(1);
    }
}

/** The CLI fleet verb's built-in device mix at @p nodes. */
fleet::Topology
paperTopology(u32 nodes)
{
    const u32 dgpu = (nodes + 1) / 2;
    const u32 apu = (nodes - dgpu + 1) / 2;
    const u32 cpu = nodes - dgpu - apu;
    fleet::Topology topo;
    topo.nodes.reserve(nodes);
    auto group = [&](const char *device, u32 count) {
        for (u32 i = 0; i < count; ++i) {
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

/** The CLI fleet verb's probe: one batched run over the serving
 *  layer, one job per missing (class, device kind) cell. */
std::optional<std::vector<double>>
probeCells(const std::vector<fleet::ProbeCell> &cells,
           std::string &error)
{
    std::vector<serve::JobSpec> probes;
    probes.reserve(cells.size());
    u64 id = 0;
    for (const fleet::ProbeCell &cell : cells) {
        serve::JobSpec spec;
        spec.id = ++id;
        spec.app = cell.app;
        spec.model = cell.model;
        spec.device = cell.device;
        probes.push_back(std::move(spec));
    }
    serve::ServerConfig cfg;
    auto outcome = serve::runBatch(probes, cfg, error);
    if (!outcome)
        return std::nullopt;
    // One result per probe, in ascending id: results[i] is cells[i].
    std::vector<double> seconds;
    seconds.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const serve::JobResult &res = outcome->results[i];
        if (res.status != serve::JobStatus::Ok) {
            error = "probe cell " + std::to_string(i) + " failed";
            return std::nullopt;
        }
        seconds.push_back(res.simSeconds);
    }
    return seconds;
}

/** @return whether two costed class sets carry bitwise-equal costs. */
bool
classesIdentical(const std::vector<fleet::JobClass> &a,
                 const std::vector<fleet::JobClass> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name ||
            a[i].secondsByDevice.size() !=
                b[i].secondsByDevice.size())
            return false;
        for (const auto &[kind, seconds] : a[i].secondsByDevice) {
            const auto it = b[i].secondsByDevice.find(kind);
            if (it == b[i].secondsByDevice.end() ||
                std::memcmp(&it->second, &seconds,
                            sizeof(double)) != 0)
                return false;
        }
    }
    return true;
}

u64
fleetDigest(const fleet::Topology &topo,
            const std::vector<fleet::JobClass> &classes)
{
    fleet::FleetConfig cfg;
    cfg.jobs = 20000;
    cfg.seed = 0x5eedULL;
    cfg.policy = fleet::Policy::LeastLoaded;
    cfg.arrivalRate = 40.0 * static_cast<double>(topo.size());
    cfg.sloSeconds = 0.25;
    cfg.classes = classes;
    std::string error;
    auto res = fleet::simulateFleet(topo, cfg, error);
    if (!res) {
        std::cerr << "simulateFleet failed: " << error << "\n";
        std::exit(1);
    }
    return res->digest;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);

    std::string out_path = "BENCH_predict.json";
    for (int i = 1; i < opts.argc; ++i) {
        if (std::strcmp(opts.argv[i], "--out") == 0 &&
            i + 1 < opts.argc) {
            out_path = opts.argv[++i];
        } else {
            std::cerr << "unknown option " << opts.argv[i] << "\n";
            return 1;
        }
    }

    // ---- 1. Observation grid: apps x scales x clocks on the dGPU.
    // Scales vary the item counts, clocks the frequency terms, so the
    // fit sees every basis direction.
    obs::Profiler::global().clear();
    obs::Profiler::global().setEnabled(true);
    const std::vector<const char *> apps{"readmem", "xsbench"};
    const std::vector<double> scales{0.2, 0.35, 0.5, 0.65, 0.8};
    // 400 and 500 MHz both sit below the issue-limit roofline at
    // mem=1250, so every binding constraint appears in training even
    // after interior points are held out.
    const std::vector<double> cores{400, 500, 700, 925};
    const std::vector<double> mems{810, 1250};
    for (const char *app : apps)
        for (double scale : scales)
            for (double core : cores)
                for (double mem : mems) {
                    serve::JobSpec spec;
                    spec.app = app;
                    spec.model = "opencl";
                    spec.device = "dgpu";
                    spec.scale = scale * opts.scale;
                    spec.freq = {core, mem};
                    runTrainingJob(spec);
                }
    const std::vector<obs::ObsRecord> records =
        obs::Profiler::global().observations();
    obs::Profiler::global().setEnabled(false);

    // ---- 2. Interior hold-out: per group, every third point of the
    // (items, clocks)-sorted signature list, endpoints excluded so the
    // check is interpolation, not extrapolation.
    std::map<model::GroupKey, std::vector<const obs::ObsRecord *>>
        byGroup;
    for (const obs::ObsRecord &rec : records) {
        model::GroupKey key;
        key.kernel = rec.kernel;
        key.device = rec.device;
        key.model = rec.model;
        key.precisionBits = rec.precisionBits;
        key.workgroup = rec.workgroup;
        byGroup[key].push_back(&rec);
    }
    std::vector<obs::ObsRecord> training;
    std::vector<obs::ObsRecord> heldout;
    for (auto &[key, group] : byGroup) {
        std::sort(group.begin(), group.end(),
                  [](const obs::ObsRecord *a,
                     const obs::ObsRecord *b) {
                      return std::tie(a->items, a->coreMhz,
                                      a->memMhz) <
                             std::tie(b->items, b->coreMhz,
                                      b->memMhz);
                  });
        for (size_t i = 0; i < group.size(); ++i) {
            const bool interior = i > 0 && i + 1 < group.size();
            if (interior && i % 3 == 1)
                heldout.push_back(*group[i]);
            else
                training.push_back(*group[i]);
        }
    }

    // ---- 3. Fit (timed).
    model::Surrogate surrogate;
    const double fit_t0 = now();
    const u64 groups = surrogate.fitFromObservations(training);
    const double fitWall = now() - fit_t0;

    // ---- 4. Held-out accuracy.
    double heldoutMaxRel = 0.0;
    for (const obs::ObsRecord &rec : heldout) {
        model::GroupKey key;
        key.kernel = rec.kernel;
        key.device = rec.device;
        key.model = rec.model;
        key.precisionBits = rec.precisionBits;
        key.workgroup = rec.workgroup;
        const auto pred =
            surrogate.predict(key, static_cast<double>(rec.items),
                              rec.coreMhz, rec.memMhz);
        if (!pred) {
            std::cerr << "FAIL: held-out group missing from fit\n";
            return 1;
        }
        const double actual =
            rec.launches > 0
                ? rec.seconds / static_cast<double>(rec.launches)
                : rec.seconds;
        const double rel = std::abs(pred->seconds - actual) /
                           std::max(std::abs(actual), 1e-18);
        heldoutMaxRel = std::max(heldoutMaxRel, rel);
        if (std::getenv("BENCH_PREDICT_DEBUG") != nullptr) {
            const double inv =
                rec.launches > 0
                    ? 1.0 / static_cast<double>(rec.launches)
                    : 1.0;
            std::cerr << "DBG " << rec.kernel << " n=" << rec.items
                      << " fc=" << rec.coreMhz << " fm=" << rec.memMhz
                      << " pred=" << pred->seconds
                      << " actual=" << actual << " rel=" << rel
                      << "\n    issue " << pred->issueSeconds << " vs "
                      << rec.issueSeconds * inv << " | mem "
                      << pred->memSeconds << " vs "
                      << rec.memSeconds * inv << " | lds "
                      << pred->ldsSeconds << " vs "
                      << rec.ldsSeconds * inv << " | lat "
                      << pred->latencySeconds << " vs "
                      << rec.latencySeconds * inv << " | launch "
                      << pred->launchSeconds << " vs "
                      << rec.launchSeconds * inv << "\n";
        }
    }

    // ---- 5. Prediction throughput: resolve each group once, then
    // hammer the composed closed forms (the sweep/admission pattern).
    struct Query
    {
        const model::KernelModel *group;
        double items;
        double coreMhz;
        double memMhz;
    };
    std::vector<Query> queries;
    for (const obs::ObsRecord &rec : records) {
        model::GroupKey key;
        key.kernel = rec.kernel;
        key.device = rec.device;
        key.model = rec.model;
        key.precisionBits = rec.precisionBits;
        key.workgroup = rec.workgroup;
        const model::KernelModel *group = surrogate.group(key);
        if (group != nullptr)
            queries.push_back({group,
                               static_cast<double>(rec.items),
                               rec.coreMhz, rec.memMhz});
    }
    if (queries.empty()) {
        std::cerr << "FAIL: no queries to benchmark\n";
        return 1;
    }
    const u64 kPredictions = 4'000'000;
    double sink = 0.0;
    const double hot_t0 = now();
    for (u64 i = 0; i < kPredictions; ++i) {
        const Query &q = queries[i % queries.size()];
        sink += q.group
                    ->predict(q.items, q.coreMhz, q.memMhz)
                    .seconds;
    }
    const double hotWall = now() - hot_t0;
    const double predictPerSec =
        hotWall > 0.0 ? static_cast<double>(kPredictions) / hotWall
                      : 0.0;

    // ---- 6. Fleet class costing A/B.  Cold probe first (its results
    // are written back into costModel's job-cost anchors), then the
    // surrogate answers the same table without the simulator.
    std::vector<fleet::ClassDef> defs = fleet::paperClassMix();
    const fleet::Topology topo = paperTopology(64);
    const std::vector<std::string> kinds = topo.deviceKinds();
    model::Surrogate costModel;
    std::string error;

    sim::TimingCache::global().clear();
    const double probe_t0 = now();
    auto probed = fleet::costClasses(defs, kinds, &costModel,
                                     probeCells, error);
    const double probeWall = now() - probe_t0;
    if (!probed) {
        std::cerr << "probe costing failed: " << error << "\n";
        return 1;
    }

    const u64 cacheBefore = sim::TimingCache::global().contentDigest();
    const double sur_t0 = now();
    auto served = fleet::costClasses(defs, kinds, &costModel,
                                     probeCells, error);
    const double surrogateWall = now() - sur_t0;
    if (!served) {
        std::cerr << "surrogate costing failed: " << error << "\n";
        return 1;
    }
    const bool cacheUntouched =
        sim::TimingCache::global().contentDigest() == cacheBefore;
    const bool identical =
        classesIdentical(probed->classes, served->classes) &&
        served->probed == 0 &&
        served->surrogateHits == defs.size() * kinds.size();
    const double speedup =
        surrogateWall > 0.0 ? probeWall / surrogateWall : 0.0;
    const u64 digestProbe = fleetDigest(topo, probed->classes);
    const u64 digestSurrogate = fleetDigest(topo, served->classes);

    // ---- 7. Report, JSON, gates.
    std::cout << "Surrogate models: " << groups << " groups from "
              << training.size() << " training / " << heldout.size()
              << " held-out points\n"
              << std::string(79, '=') << "\n";
    Table table("scale " + Table::num(opts.scale, 2));
    table.setHeader({"metric", "value", "gate"});
    table.addRow({"fit wall (s)", Table::num(fitWall, 4), "-"});
    table.addRow({"held-out max rel err",
                  Table::num(100.0 * heldoutMaxRel, 3) + "%",
                  "<= 5%"});
    table.addRow({"predictions/s", Table::num(predictPerSec, 0),
                  ">= 1M"});
    table.addRow({"fleet probe wall (s)", Table::num(probeWall, 3),
                  "-"});
    table.addRow({"fleet surrogate wall (s)",
                  Table::num(surrogateWall, 6), "-"});
    table.addRow({"fleet costing speedup", Table::num(speedup, 0),
                  ">= 10x"});
    table.addRow({"costs bitwise identical", identical ? "yes" : "NO",
                  "yes"});
    table.addRow({"campaign digests equal",
                  digestProbe == digestSurrogate ? "yes" : "NO",
                  "yes"});
    table.addRow({"timing cache untouched",
                  cacheUntouched ? "yes" : "NO", "yes"});
    table.print(std::cout);
    if (opts.csv)
        table.printCsv(std::cout);

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    char fit_digest[32];
    std::snprintf(fit_digest, sizeof(fit_digest), "0x%016llx",
                  static_cast<unsigned long long>(
                      surrogate.fitDigest()));
    os << "{\n"
       << "  \"bench\": \"predict\",\n"
       << "  \"scale\": " << opts.scale << ",\n"
       << "  \"groups\": " << groups << ",\n"
       << "  \"training_points\": " << training.size() << ",\n"
       << "  \"heldout_points\": " << heldout.size() << ",\n"
       << "  \"fit_wall_s\": " << fitWall << ",\n"
       << "  \"fit_digest\": \"" << fit_digest << "\",\n"
       << "  \"heldout_max_rel_err\": " << heldoutMaxRel << ",\n"
       << "  \"gate_heldout_max_rel_err\": 0.05,\n"
       << "  \"predictions_per_s\": " << predictPerSec << ",\n"
       << "  \"gate_predictions_per_s\": 1000000,\n"
       << "  \"fleet_probe_wall_s\": " << probeWall << ",\n"
       << "  \"fleet_surrogate_wall_s\": " << surrogateWall << ",\n"
       << "  \"fleet_costing_speedup\": " << speedup << ",\n"
       << "  \"gate_fleet_costing_speedup\": 10,\n"
       << "  \"costs_bitwise_identical\": "
       << (identical ? "true" : "false") << ",\n"
       << "  \"campaign_digests_equal\": "
       << (digestProbe == digestSurrogate ? "true" : "false")
       << ",\n"
       << "  \"timing_cache_untouched\": "
       << (cacheUntouched ? "true" : "false") << "\n"
       << "}\n";
    os.flush();
    std::cout << "wrote " << out_path << "\n";
    if (sink == 42.0)
        std::cout << "\n"; // keep the prediction loop observable

    int failures = 0;
    if (heldoutMaxRel > 0.05) {
        std::cerr << "FAIL: held-out max rel err "
                  << 100.0 * heldoutMaxRel << "% (need <= 5%)\n";
        ++failures;
    }
    if (predictPerSec < 1e6) {
        std::cerr << "FAIL: " << predictPerSec
                  << " predictions/s (need >= 1M)\n";
        ++failures;
    }
    if (speedup < 10.0) {
        std::cerr << "FAIL: fleet costing speedup " << speedup
                  << "x (need >= 10x)\n";
        ++failures;
    }
    if (!identical) {
        std::cerr << "FAIL: surrogate class costs differ from the "
                     "probed costs\n";
        ++failures;
    }
    if (digestProbe != digestSurrogate) {
        std::cerr << "FAIL: fleet campaign digests differ\n";
        ++failures;
    }
    if (!cacheUntouched) {
        std::cerr << "FAIL: surrogate costing touched the timing "
                     "cache\n";
        ++failures;
    }
    return failures ? 1 : 0;
}
