/**
 * @file
 * The app table: every proxy application, in the paper's order, with
 * its eight programming-model ports and its co-execution adapter.
 */

#include "apps/coexec_kernels.hh"
#include "apps/comd/comd_variants.hh"
#include "apps/lulesh/lulesh_variants.hh"
#include "apps/minife/minife_variants.hh"
#include "apps/readmem/readmem_variants.hh"
#include "apps/xsbench/xsbench_variants.hh"
#include "core/workload.hh"
#include "kernelir/captable.hh"

namespace hetsim::core
{

namespace
{

/** Adapts a host-only (Serial / OpenMP) port to the AppRunner shape. */
template <RunResult (*F)(const WorkloadConfig &)>
RunResult
hostOnly(const sim::DeviceSpec &, const WorkloadConfig &cfg)
{
    return F(cfg);
}

// run[] follows ModelKind order: Serial, OpenMp, OpenCl, CppAmp,
// OpenAcc, Hc, OmpTarget, Cuda.
const AppEntry kApps[] = {
    {.alias = "readmem",
     .display = "read-benchmark",
     .cmdline = "./read-benchmark (in-house, BLOCKSIZE=64)",
     .kernelOnly = true,
     .run = {hostOnly<apps::readmem::runSerial>,
             hostOnly<apps::readmem::runOpenMp>, apps::readmem::runOpenCl,
             apps::readmem::runCppAmp, apps::readmem::runOpenAcc,
             apps::readmem::runHc, apps::readmem::runOmpTarget,
             apps::readmem::runCuda},
     .coKernel = apps::coex::makeReadmemCoKernel},
    {.alias = "lulesh",
     .display = "LULESH",
     .cmdline = "./LULESH -s 100 -i 100",
     .run = {hostOnly<apps::lulesh::runSerial>,
             hostOnly<apps::lulesh::runOpenMp>, apps::lulesh::runOpenCl,
             apps::lulesh::runCppAmp, apps::lulesh::runOpenAcc,
             apps::lulesh::runHc, apps::lulesh::runOmpTarget,
             apps::lulesh::runCuda},
     .coKernel = nullptr},
    {.alias = "comd",
     .display = "CoMD",
     .cmdline = "./CoMD -x 60 -y 60 -z 60",
     .run = {hostOnly<apps::comd::runSerial>,
             hostOnly<apps::comd::runOpenMp>, apps::comd::runOpenCl,
             apps::comd::runCppAmp, apps::comd::runOpenAcc,
             apps::comd::runHc, apps::comd::runOmpTarget,
             apps::comd::runCuda},
     .coKernel = nullptr},
    {.alias = "xsbench",
     .display = "XSBench",
     .cmdline = "./XSBench -s small",
     .run = {hostOnly<apps::xsbench::runSerial>,
             hostOnly<apps::xsbench::runOpenMp>, apps::xsbench::runOpenCl,
             apps::xsbench::runCppAmp, apps::xsbench::runOpenAcc,
             apps::xsbench::runHc, apps::xsbench::runOmpTarget,
             apps::xsbench::runCuda},
     .coKernel = apps::coex::makeXsbenchCoKernel},
    {.alias = "minife",
     .display = "miniFE",
     .cmdline = "./miniFE -nx 100 -ny 100 -nz 100",
     .run = {hostOnly<apps::minife::runSerial>,
             hostOnly<apps::minife::runOpenMp>, apps::minife::runOpenCl,
             apps::minife::runCppAmp, apps::minife::runOpenAcc,
             apps::minife::runHc, apps::minife::runOmpTarget,
             apps::minife::runCuda},
     .coKernel = apps::coex::makeMinifeSpmvCoKernel},
};

std::unique_ptr<Workload>
make(const AppEntry &row)
{
    return std::make_unique<Workload>(row);
}

} // namespace

std::span<const AppEntry>
appTable()
{
    return kApps;
}

std::unique_ptr<Workload> makeReadMem() { return make(kApps[0]); }
std::unique_ptr<Workload> makeLulesh() { return make(kApps[1]); }
std::unique_ptr<Workload> makeComd() { return make(kApps[2]); }
std::unique_ptr<Workload> makeXsbench() { return make(kApps[3]); }
std::unique_ptr<Workload> makeMiniFe() { return make(kApps[4]); }

std::vector<std::unique_ptr<Workload>>
makeAllWorkloads()
{
    std::vector<std::unique_ptr<Workload>> workloads;
    for (const AppEntry &row : kApps)
        workloads.push_back(make(row));
    return workloads;
}

const AppEntry *
appByName(const std::string &name)
{
    for (const AppEntry &row : kApps) {
        if (name == row.alias)
            return &row;
    }
    return nullptr;
}

std::unique_ptr<Workload>
workloadByName(const std::string &name)
{
    const AppEntry *row = appByName(name);
    return row ? make(*row) : nullptr;
}

std::optional<ModelKind>
modelByName(const std::string &name)
{
    for (const ir::BackendCaps &row : ir::backendTable()) {
        if (name == row.name || (*row.alias != '\0' && name == row.alias))
            return row.kind;
    }
    return std::nullopt;
}

} // namespace hetsim::core
