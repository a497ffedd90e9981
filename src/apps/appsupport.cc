#include "appsupport.hh"

#include "kernelir/captable.hh"
#include "kernelir/trace.hh"

namespace hetsim::apps
{

double
hostFallbackSeconds(const ir::KernelDescriptor &desc, u64 items,
                    Precision prec)
{
    sim::DeviceSpec cpu = serialCpu();
    ir::ProfileResolver resolver(cpu);
    const ir::Codegen cg = ir::compileWithCaps(
        ir::capsFor(ir::ModelKind::Serial), desc, {}, cpu);
    sim::KernelProfile prof =
        resolver.resolve(desc, items, prec, false, 0);
    prof.chainConcurrencyPerCu *= cg.chainEfficiency;
    return sim::timeKernel(cpu, cpu.stockFreq(), prec, prof, cg).seconds;
}

} // namespace hetsim::apps
