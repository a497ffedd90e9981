/**
 * @file
 * Shared plumbing for the paper-reproduction benchmark binaries.
 *
 * Every binary in bench/ regenerates one table or figure of the paper:
 * it prints the paper-shaped rows/series to stdout, then hands any
 * remaining arguments to google-benchmark, which runs a few registered
 * micro-benchmarks measuring the simulator's own host-side throughput
 * for that experiment.
 *
 * Options (before the google-benchmark flags):
 *   --scale <f>  problem-scale factor (1.0 = the paper's command
 *                lines; sweep-heavy binaries default lower).
 *   --quick      quarter-scale run for smoke testing.
 */

#ifndef HETSIM_BENCH_BENCHSUPPORT_HH
#define HETSIM_BENCH_BENCHSUPPORT_HH

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/harness.hh"
#include "core/workload.hh"
#include "kernelir/captable.hh"
#include "sim/device.hh"

namespace hetsim::bench
{

/** Parsed common options. */
struct Options
{
    double scale = 1.0;
    bool csv = false; ///< also emit CSV blocks for plotting
    int argc = 0;
    char **argv = nullptr;
};

/** Strip --scale/--quick from argv (rest goes to google-benchmark). */
inline Options
parseOptions(int argc, char **argv, double default_scale)
{
    Options opts;
    opts.scale = default_scale;
    static std::vector<char *> rest;
    rest.clear();
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
            opts.scale = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            opts.scale = default_scale * 0.25;
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opts.csv = true;
        } else {
            rest.push_back(argv[i]);
        }
    }
    opts.argc = static_cast<int>(rest.size());
    opts.argv = rest.data();
    return opts;
}

/** Device models compared in the paper's figures, in paper order. */
inline std::vector<core::ModelKind>
paperModels()
{
    return {core::ModelKind::OpenCl, core::ModelKind::CppAmp,
            core::ModelKind::OpenAcc};
}

/** Print the hardware configuration (paper Table II). */
inline void
printTableII()
{
    Table table("Table II: Hardware Specification of Accelerators");
    table.setHeader({"Name", "R9 280X", "A10-7850K (GPU)"});
    sim::DeviceSpec dgpu = sim::radeonR9_280X();
    sim::DeviceSpec apu = sim::a10_7850kGpu();
    auto row = [&](const char *label, auto get) {
        table.addRow({label, get(dgpu), get(apu)});
    };
    row("Stream Processors", [](const sim::DeviceSpec &d) {
        return std::to_string(d.computeUnits * d.lanesPerCu);
    });
    row("Compute Units", [](const sim::DeviceSpec &d) {
        return std::to_string(d.computeUnits);
    });
    row("Core Clock (MHz)", [](const sim::DeviceSpec &d) {
        return Table::num(d.coreClockMhz, 0);
    });
    row("Memory Type",
        [](const sim::DeviceSpec &d) { return d.memType; });
    row("Peak Bandwidth (GB/s)", [](const sim::DeviceSpec &d) {
        return Table::num(d.peakBwGBs, 0);
    });
    row("Peak SP (GFLOPS)", [](const sim::DeviceSpec &d) {
        return Table::num(
            d.peakFlops(d.coreClockMhz, Precision::Single) / 1e9, 0);
    });
    row("Zero copy", [](const sim::DeviceSpec &d) {
        return std::string(d.zeroCopy ? "yes" : "no");
    });
    table.print(std::cout);
    std::cout << '\n';
}

/**
 * Print one speedup figure (paper Figure 8 or 9): per application, a
 * sub-table of SP/DP speedups over the 4-core OpenMP baseline for the
 * three device programming models.
 */
inline void
printSpeedupFigure(const std::string &caption,
                   const sim::DeviceSpec &device, double scale,
                   bool csv = false)
{
    std::cout << caption << "\n"
              << std::string(70, '=') << "\n";
    std::printf("Device: %s (scale %.2f; baseline: 4-core OpenMP)\n\n",
                device.name.c_str(), scale);
    char sub = 'a';
    for (auto &wl : core::makeAllWorkloads()) {
        core::Harness harness(*wl, scale, false);
        Table table(std::string("(") + sub++ + ") " + wl->name() +
                    (wl->kernelOnlyComparison()
                         ? "  [kernel time only]"
                         : ""));
        table.setHeader({"Model", "SP time (s)", "SP speedup",
                         "DP time (s)", "DP speedup"});
        for (const ir::BackendCaps &row : ir::backendTable()) {
            const core::ModelKind model = row.kind;
            if (model == core::ModelKind::Serial ||
                model == core::ModelKind::OpenMp) {
                continue;
            }
            auto sp = harness.speedup(device, model,
                                      Precision::Single);
            auto dp = harness.speedup(device, model,
                                      Precision::Double);
            table.addRow({ir::displayName(model),
                          Table::num(sp.seconds, 4),
                          Table::num(sp.speedup, 2),
                          Table::num(dp.seconds, 4),
                          Table::num(dp.speedup, 2)});
        }
        table.print(std::cout);
        if (csv)
            table.printCsv(std::cout);
        std::cout << '\n';
    }
}

/** Run google-benchmark with the leftover arguments. */
inline int
runRegisteredBenchmarks(Options &opts)
{
    benchmark::Initialize(&opts.argc, opts.argv);
    if (benchmark::ReportUnrecognizedArguments(opts.argc, opts.argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace hetsim::bench

#endif // HETSIM_BENCH_BENCHSUPPORT_HH
