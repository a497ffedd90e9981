#include "harness.hh"

#include <algorithm>

#include "common/logging.hh"
#include "kernelir/captable.hh"

namespace hetsim::core
{

Harness::Harness(Workload &workload, double scale, bool functional)
    : app(workload), scale(scale), functional(functional)
{
}

RunResult
Harness::runAt(const sim::DeviceSpec &device, ModelKind model,
               Precision prec, const sim::FreqDomain &freq)
{
    WorkloadConfig cfg;
    cfg.precision = prec;
    cfg.functional = functional;
    cfg.scale = scale;
    cfg.freq = freq;
    return app.run(model, device, cfg);
}

double
Harness::comparableSeconds(const RunResult &result) const
{
    // The paper's readmem figures compare kernel execution time only
    // ("data-transfer times, if any, were left out").
    if (app.kernelOnlyComparison())
        return result.kernelSeconds;
    return result.seconds;
}

double
Harness::baselineSeconds(Precision prec)
{
    int slot = prec == Precision::Single ? 0 : 1;
    if (baselineCache[slot] >= 0.0)
        return baselineCache[slot];
    RunResult result =
        runAt(sim::a10_7850kCpu(), ModelKind::OpenMp, prec, {0.0, 0.0});
    baselineCache[slot] = comparableSeconds(result);
    return baselineCache[slot];
}

SpeedupPoint
Harness::speedup(const sim::DeviceSpec &device, ModelKind model,
                 Precision prec)
{
    SpeedupPoint point;
    point.model = model;
    point.precision = prec;
    point.baselineSeconds = baselineSeconds(prec);
    RunResult result = runAt(device, model, prec, {0.0, 0.0});
    point.seconds = comparableSeconds(result);
    point.energyJoules = result.energyJoules;
    point.speedup =
        point.seconds > 0.0 ? point.baselineSeconds / point.seconds : 0.0;
    return point;
}

std::vector<SpeedupPoint>
Harness::speedups(const sim::DeviceSpec &device)
{
    std::vector<SpeedupPoint> points;
    for (const ir::BackendCaps &row : ir::backendTable()) {
        if (row.kind == ModelKind::Serial || row.kind == ModelKind::OpenMp)
            continue;
        for (Precision prec :
             {Precision::Single, Precision::Double}) {
            points.push_back(speedup(device, row.kind, prec));
        }
    }
    return points;
}

std::vector<std::vector<SweepPoint>>
Harness::freqSweep(const sim::DeviceSpec &device, ModelKind model,
                   Precision prec, const std::vector<double> &core_mhz,
                   const std::vector<double> &mem_mhz)
{
    if (core_mhz.empty() || mem_mhz.empty())
        fatal("empty frequency sweep");

    std::vector<std::vector<SweepPoint>> rows;
    rows.reserve(mem_mhz.size());
    for (double mem : mem_mhz) {
        std::vector<SweepPoint> row;
        row.reserve(core_mhz.size());
        for (double core : core_mhz) {
            RunResult result = runAt(device, model, prec, {core, mem});
            SweepPoint point;
            point.coreMhz = core;
            point.memMhz = mem;
            point.seconds = comparableSeconds(result);
            row.push_back(point);
        }
        rows.push_back(std::move(row));
    }

    // Normalize so the slowest-clock point reads 0.5, matching the
    // paper plots' lowest series.
    double slowest = rows[0][0].seconds;
    for (auto &row : rows) {
        for (auto &point : row) {
            point.normalizedPerf =
                point.seconds > 0.0 ? 0.5 * slowest / point.seconds : 0.0;
        }
    }
    return rows;
}

std::string
classifyBoundedness(double core_sensitivity, double mem_sensitivity)
{
    // Sensitivities are perf ratios across the swept range (>= 1).
    const double core = std::max(core_sensitivity, 1e-9);
    const double mem = std::max(mem_sensitivity, 1e-9);
    if (core / mem >= 1.25)
        return "Compute";
    if (mem / core >= 1.55)
        return "Memory";
    return "Balanced";
}

Characteristics
Harness::characteristics(const sim::DeviceSpec &device, Precision prec)
{
    Characteristics chars;
    chars.application = app.name();

    RunResult result =
        runAt(device, ModelKind::OpenCl, prec, {0.0, 0.0});
    chars.llcMissRatio = result.llcMissRatio;
    chars.ipc = result.ipc;
    chars.kernels = result.uniqueKernels;

    // Probe frequency sensitivity at the sweep corners (Figure 7).
    auto secs = [&](double core, double mem) {
        return comparableSeconds(
            runAt(device, ModelKind::OpenCl, prec, {core, mem}));
    };
    double core_sens = secs(300, 1030) / secs(925, 1030);
    double mem_sens = secs(925, 480) / secs(925, 1250);
    chars.boundedness = classifyBoundedness(core_sens, mem_sens);
    return chars;
}

} // namespace hetsim::core
