/**
 * @file
 * The app table and the Workload handle over its rows: one proxy
 * application, runnable under any programming model on any device.
 * This layer is the paper's object of study - it is what the
 * experiment harness drives.
 */

#ifndef HETSIM_CORE_WORKLOAD_HH
#define HETSIM_CORE_WORKLOAD_HH

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "kernelir/codegen.hh"
#include "power/power.hh"
#include "runtime/context.hh"
#include "sim/device.hh"

namespace hetsim::coexec
{
struct CoKernel;
} // namespace hetsim::coexec

namespace hetsim::core
{

using ir::ModelKind;

/** How a workload should be built and run. */
struct WorkloadConfig
{
    /** Element precision of the build (the paper reports SP and DP). */
    Precision precision = Precision::Single;
    /**
     * Execute kernel bodies functionally (real results, validated
     * against the serial implementation).  The harness disables this
     * for paper-size timing runs; correctness is established at test
     * scale.
     */
    bool functional = true;
    /**
     * Problem-scale factor: 1.0 reproduces the paper's command line;
     * smaller values shrink the problem for functional validation.
     */
    double scale = 1.0;
    /** Clock override; {0, 0} selects the device's stock clocks. */
    sim::FreqDomain freq{0.0, 0.0};
};

/** Outcome of one workload run. */
struct RunResult
{
    /** Total simulated seconds (kernels + transfers + host work). */
    double seconds = 0.0;
    /** Simulated seconds spent in kernels (incl. launch overhead). */
    double kernelSeconds = 0.0;
    /** Simulated seconds spent in PCIe staging. */
    double transferSeconds = 0.0;
    /** Simulated seconds of host-side (fallback) work. */
    double hostSeconds = 0.0;
    /** Aggregate LLC miss ratio (Table I). */
    double llcMissRatio = 0.0;
    /** Aggregate issued-instructions per cycle per CU (Table I). */
    double ipc = 0.0;
    /** Total kernel launches. */
    u64 kernelLaunches = 0;
    /** Distinct kernels (Table I "Number of Kernels"). */
    int uniqueKernels = 0;
    /** Application-defined figure of merit for validation. */
    double checksum = 0.0;
    /** Whether the functional results matched the serial reference. */
    bool validated = false;
    /** Energy-to-solution (J) under the active power table. */
    double energyJoules = 0.0;
    /** Joules accrued while resources executed spans. */
    double busyJoules = 0.0;
    /** Joules accrued by idle draw over the makespan. */
    double idleJoules = 0.0;
    /** Per-resource energy buckets (tile makespan x power). */
    power::EnergyReport energy;
    /** Raw counters from the runtime. */
    Stats stats;
    /** Per-launch records (kernel name, profile, timing), in order. */
    std::vector<rt::KernelRecord> records;
};

/** Populate the generic RunResult fields from a finished runtime. */
RunResult summarize(const rt::RuntimeContext &rt);

/**
 * Per-kernel aggregate of a run's launch records (profiler view).
 */
struct KernelBreakdown
{
    std::string name;
    u64 launches = 0;
    double seconds = 0.0;      ///< total simulated kernel time
    double share = 0.0;        ///< fraction of total kernel time
    double ipc = 0.0;          ///< aggregate issued IPC
    double llcMissRatio = 0.0; ///< aggregate line-miss ratio
};

/**
 * Aggregate a run's records per kernel, sorted by total time
 * descending (the "top kernels" profiler table).
 */
std::vector<KernelBreakdown>
kernelBreakdown(const RunResult &result);

/** Builds and runs one app under one model: an `apps::<app>::run<Model>`
 *  entry point (host-only ports ignore the device). */
using AppRunner = RunResult (*)(const sim::DeviceSpec &device,
                                const WorkloadConfig &cfg);

/** Builds an app's co-execution kernel at a scale and precision. */
using CoKernelFactory = coexec::CoKernel (*)(double scale, Precision prec);

/** One proxy application: everything the harness, the CLI, the serve
 *  layer and Table IV know about it. */
struct AppEntry
{
    const char *alias;   ///< CLI alias and source stem, e.g. "minife"
    const char *display; ///< paper name, e.g. "miniFE"
    const char *cmdline; ///< paper command line, e.g. "./miniFE -nx 100 ..."
    /** The paper compares this app on kernel time only (true for the
     *  read-memory micro-benchmark, whose figures exclude transfers). */
    bool kernelOnly = false;
    AppRunner run[8]; ///< one port per programming model, by ModelKind
    CoKernelFactory coKernel; ///< null: no co-execution adapter
};

/** @return the five proxy applications, in the paper's order - the
 *  one list of apps (implemented in src/apps). */
std::span<const AppEntry> appTable();

/** One proxy application, runnable under any programming model on any
 *  device: a handle on its appTable() row. */
class Workload
{
  public:
    explicit Workload(const AppEntry &entry) : row(&entry) {}

    /** Display name, e.g. "LULESH". */
    std::string name() const { return row->display; }

    /** The paper's command line, e.g. "./LULESH -s 100 -i 100". */
    std::string cmdline() const { return row->cmdline; }

    /** Whether the paper compares this workload on kernel time only. */
    bool kernelOnlyComparison() const { return row->kernelOnly; }

    /** Build and run under @p model on @p device. */
    RunResult
    run(ModelKind model, const sim::DeviceSpec &device,
        const WorkloadConfig &cfg) const
    {
        return row->run[static_cast<int>(model)](device, cfg);
    }

  private:
    const AppEntry *row;
};

/** Factory functions, one per appTable() row. */
std::unique_ptr<Workload> makeReadMem();
std::unique_ptr<Workload> makeLulesh();
std::unique_ptr<Workload> makeComd();
std::unique_ptr<Workload> makeXsbench();
std::unique_ptr<Workload> makeMiniFe();

/** All five proxy applications, in the paper's order. */
std::vector<std::unique_ptr<Workload>> makeAllWorkloads();

/** @return the appTable() row for a CLI alias (readmem, lulesh, comd,
 *  xsbench, minife), or null. */
const AppEntry *appByName(const std::string &name);

/** @return the workload for a CLI alias, or null.  Shared by the CLI
 *  and the serve layer's JobSpec resolution. */
std::unique_ptr<Workload> workloadByName(const std::string &name);

/** @return the model kind for a CLI name or alias (ir::BackendCaps
 *  name/alias: serial, openmp/omp, opencl/ocl, ...), if valid. */
std::optional<ModelKind> modelByName(const std::string &name);

} // namespace hetsim::core

#endif // HETSIM_CORE_WORKLOAD_HH
