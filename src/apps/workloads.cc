/**
 * @file
 * Registry of all proxy applications, in the paper's order.
 */

#include "core/workload.hh"
#include "kernelir/captable.hh"

namespace hetsim::core
{

namespace
{

const AppEntry kApps[] = {
    {"readmem", makeReadMem}, {"lulesh", makeLulesh},
    {"comd", makeComd},       {"xsbench", makeXsbench},
    {"minife", makeMiniFe},
};

} // namespace

std::span<const AppEntry>
appTable()
{
    return kApps;
}

std::vector<std::unique_ptr<Workload>>
makeAllWorkloads()
{
    std::vector<std::unique_ptr<Workload>> workloads;
    for (const AppEntry &app : kApps)
        workloads.push_back(app.make());
    return workloads;
}

std::unique_ptr<Workload>
workloadByName(const std::string &name)
{
    for (const AppEntry &app : kApps) {
        if (name == app.alias)
            return app.make();
    }
    return nullptr;
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
