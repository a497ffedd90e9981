/**
 * @file
 * Co-execution study: split one kernel across CPU + GPU.
 *
 * For readmem, XSBench, and miniFE SpMV on both machines (APU
 * CPU+GPU zero-copy, and CPU + discrete R9 280X over PCIe), report
 * the simulated co-execution time under each scheduling policy and
 * the speedup over the best single device of the pool (EngineCL's
 * figure of merit).
 */

#include "benchsupport.hh"

#include "apps/coexec_kernels.hh"
#include "core/workload.hh"
#include "hc/hc.hh"

namespace
{

using namespace hetsim;

/** Timing-only co-execution seconds of @p kernel on @p pool. */
double
coexecSeconds(const coexec::DevicePool &pool,
              const coexec::CoKernel &kernel, coexec::Policy policy)
{
    coexec::ExecOptions opts;
    opts.policy = policy;
    opts.functional = false;
    auto result =
        hc::parallel_dispatch(pool, Precision::Single, kernel, opts);
    if (!result.ok)
        fatal("co-execution failed: %s", result.error.c_str());
    return result.seconds;
}

/** Best single-device seconds across the pool's members. */
double
bestSingleSeconds(const coexec::DevicePool &pool,
                  const coexec::CoKernel &kernel, std::string &name)
{
    double best = 0.0;
    for (size_t d = 0; d < pool.size(); ++d) {
        coexec::DevicePool solo({pool.spec(d)});
        double secs = coexecSeconds(solo, kernel,
                                    coexec::Policy::StaticRatio);
        if (name.empty() || secs < best) {
            best = secs;
            name = pool.spec(d).name;
        }
    }
    return best;
}

void
benchAdaptiveSchedule(benchmark::State &state)
{
    auto pool = coexec::DevicePool::parse("cpu+dgpu");
    auto kernel = apps::coex::makeReadmemCoKernel(
        0.25, Precision::Single);
    for (auto _ : state) {
        benchmark::DoNotOptimize(coexecSeconds(
            *pool, kernel, coexec::Policy::Adaptive));
    }
    state.SetLabel("schedule one adaptive cpu+dgpu co-execution");
}
BENCHMARK(benchAdaptiveSchedule)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 0.25);

    std::cout << "Co-execution: one kernel split across CPU + GPU "
                 "(scale " << opts.scale << ")\n"
              << std::string(75, '=') << "\n\n";

    const std::pair<const char *, const char *> pools[] = {
        {"cpu+apu", "APU machine (zero-copy)"},
        {"cpu+dgpu", "dGPU machine (PCIe staging)"},
    };
    const coexec::Policy policies[] = {coexec::Policy::StaticRatio,
                                       coexec::Policy::DynamicChunk,
                                       coexec::Policy::Adaptive};
    // Every app with a co-execution adapter, in the paper's order.
    std::vector<const char *> app_names;
    for (const core::AppEntry &app : core::appTable()) {
        if (app.coKernel != nullptr)
            app_names.push_back(app.alias);
    }

    for (const auto &[pool_name, pool_caption] : pools) {
        auto pool = coexec::DevicePool::parse(pool_name);
        if (!pool)
            fatal("bad pool alias %s", pool_name);
        Table table(std::string(pool_caption) + " - speedup vs best "
                    "single device");
        table.setHeader({"app", "best single", "single (s)",
                         "static (s)", "dynamic (s)", "adaptive (s)",
                         "best speedup"});
        for (const char *app : app_names) {
            auto kernel = apps::coex::coKernelByName(
                app, opts.scale, Precision::Single);
            if (!kernel)
                fatal("no co-kernel for %s", app);
            std::string best_name;
            double single =
                bestSingleSeconds(*pool, *kernel, best_name);
            double best_co = 0.0;
            std::vector<std::string> cells{app, best_name,
                                           Table::num(single, 5)};
            for (coexec::Policy policy : policies) {
                double secs = coexecSeconds(*pool, *kernel, policy);
                cells.push_back(Table::num(secs, 5));
                if (best_co == 0.0 || secs < best_co)
                    best_co = secs;
            }
            cells.push_back(Table::num(single / best_co, 2));
            table.addRow(cells);
        }
        table.print(std::cout);
        if (opts.csv)
            table.printCsv(std::cout);
        std::cout << '\n';

        // Per-device utilization under the adaptive policy: how much
        // of the co-exec makespan each pool member spent computing vs
        // waiting (idle = makespan - compute-queue busy time).
        Table util(std::string(pool_caption) +
                   " - per-device idle time (adaptive)");
        util.setHeader({"app", "device", "share", "kernel (s)",
                        "idle (s)", "idle %"});
        for (const char *app : app_names) {
            auto kernel = apps::coex::coKernelByName(
                app, opts.scale, Precision::Single);
            coexec::ExecOptions exec_opts;
            exec_opts.policy = coexec::Policy::Adaptive;
            exec_opts.functional = false;
            auto result = hc::parallel_dispatch(
                *pool, Precision::Single, *kernel, exec_opts);
            for (const auto &dev : result.devices) {
                util.addRow(
                    {app, dev.device,
                     Table::num(100.0 * dev.share, 1) + "%",
                     Table::num(dev.kernelSeconds, 5),
                     Table::num(dev.idleSeconds, 5),
                     Table::num(result.seconds > 0.0
                                    ? 100.0 * dev.idleSeconds /
                                          result.seconds
                                    : 0.0, 1) + "%"});
            }
        }
        util.print(std::cout);
        if (opts.csv)
            util.printCsv(std::cout);
        std::cout << '\n';
    }

    return bench::runRegisteredBenchmarks(opts);
}
