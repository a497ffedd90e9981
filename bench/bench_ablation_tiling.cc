/**
 * @file
 * Ablation for the hand-tuning levers of Figure 11:
 *  (1) C++ AMP tiles on the CoMD force kernel (the paper's "almost
 *      3x" claim, Sec. VI-C),
 *  (2) OpenCL LDS staging and unrolling on the same kernel,
 *  (3) the miniFE SpMV formulation (CSR-Adaptive vs CSR-vector vs
 *      scalar-row) across models.
 */

#include "benchsupport.hh"

#include "apps/comd/comd_core.hh"
#include "apps/minife/minife_core.hh"
#include "kernelir/captable.hh"
#include "kernelir/trace.hh"

namespace
{

using namespace hetsim;

/** Time one CoMD force launch under a model with given hints. */
double
forceSeconds(const apps::comd::Problem<float> &prob,
             core::ModelKind model, const ir::OptHints &hints,
             const sim::DeviceSpec &device)
{
    ir::ProfileResolver resolver(device);
    auto desc = prob.forceDescriptor();
    auto cg =
        ir::compileWithCaps(ir::capsFor(model), desc, hints, device);
    auto prof = resolver.resolve(desc, prob.numAtoms,
                                 Precision::Single, cg.usesLds, 0);
    prof.chainConcurrencyPerCu *= cg.chainEfficiency;
    return sim::timeKernel(device, device.stockFreq(),
                           Precision::Single, prof, cg)
        .seconds;
}

/** Time one miniFE SpMV launch for an SpMV style under a model. */
double
spmvSeconds(const apps::minife::Problem<float> &prob,
            core::ModelKind model, apps::minife::SpmvStyle style,
            bool use_lds, const sim::DeviceSpec &device)
{
    ir::ProfileResolver resolver(device);
    auto desc = prob.spmvDescriptor(style);
    ir::OptHints hints;
    hints.tiled = true;
    hints.useLds = use_lds;
    auto cg =
        ir::compileWithCaps(ir::capsFor(model), desc, hints, device);
    auto prof = resolver.resolve(desc, prob.rows, Precision::Single,
                                 cg.usesLds, 0);
    prof.chainConcurrencyPerCu *= cg.chainEfficiency;
    return sim::timeKernel(device, device.stockFreq(),
                           Precision::Single, prof, cg)
        .seconds;
}

void
benchForceCompile(benchmark::State &state)
{
    apps::comd::Problem<float> prob(12, 2, false);
    sim::DeviceSpec device = sim::radeonR9_280X();
    for (auto _ : state) {
        benchmark::DoNotOptimize(forceSeconds(
            prob, core::ModelKind::CppAmp, {}, device));
    }
    state.SetLabel("resolve+compile+time one force kernel");
}
BENCHMARK(benchForceCompile)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);
    sim::DeviceSpec dgpu = sim::radeonR9_280X();

    std::cout << "Ablation: tiling / LDS / SpMV formulation "
                 "(paper Sec. VI-C and Fig. 11)\n"
              << std::string(75, '=') << "\n\n";

    int cells = apps::comd::scaledCells(opts.scale);
    apps::comd::Problem<float> comd(cells, 2, false);

    Table tiling("CoMD force kernel, C++ AMP tiles (one launch, "
                 "dGPU)");
    tiling.setHeader({"Configuration", "time (s)", "vs untiled"});
    ir::OptHints flat, tiled, tiled_lds;
    tiled.tiled = true;
    tiled_lds.tiled = true;
    tiled_lds.useLds = true;
    double t_flat =
        forceSeconds(comd, core::ModelKind::CppAmp, flat, dgpu);
    double t_tiled =
        forceSeconds(comd, core::ModelKind::CppAmp, tiled, dgpu);
    double t_lds =
        forceSeconds(comd, core::ModelKind::CppAmp, tiled_lds, dgpu);
    tiling.addRow({"flat parallel_for_each", Table::num(t_flat, 4),
                   "1.00x"});
    tiling.addRow({"tiled parallel_for_each", Table::num(t_tiled, 4),
                   Table::num(t_flat / t_tiled, 2) + "x"});
    tiling.addRow({"tiled + tile_static", Table::num(t_lds, 4),
                   Table::num(t_flat / t_lds, 2) + "x"});
    tiling.print(std::cout);
    std::cout << "(paper: \"exposing parallelism in the form of tiles "
                 "improved the performance of CoMD by almost 3x\")\n\n";

    Table ocl("CoMD force kernel, OpenCL hand-tuning (one launch, "
              "dGPU)");
    ocl.setHeader({"Configuration", "time (s)"});
    ir::OptHints ocl_base, ocl_full;
    ocl_full.tiled = true;
    ocl_full.useLds = true;
    ocl_full.unroll = 4;
    ocl_full.hoistedInvariants = true;
    ocl.addRow({"naive port",
                Table::num(forceSeconds(comd, core::ModelKind::OpenCl,
                                        ocl_base, dgpu),
                           4)});
    ocl.addRow({"LDS staging + unroll + hoisting",
                Table::num(forceSeconds(comd, core::ModelKind::OpenCl,
                                        ocl_full, dgpu),
                           4)});
    ocl.print(std::cout);
    std::cout << '\n';

    int edge = apps::minife::scaledEdge(opts.scale);
    apps::minife::Problem<float> minife(edge, 2);
    Table spmv("miniFE SpMV formulation (one launch, dGPU)");
    spmv.setHeader({"Formulation", "model", "time (s)"});
    spmv.addRow({"CSR-Adaptive (LDS row blocks)", "OpenCL",
                 Table::num(spmvSeconds(minife, core::ModelKind::OpenCl,
                                        apps::minife::SpmvStyle::
                                            CsrAdaptive,
                                        true, dgpu),
                            4)});
    spmv.addRow({"CSR-vector (tiles)", "C++ AMP",
                 Table::num(spmvSeconds(minife, core::ModelKind::CppAmp,
                                        apps::minife::SpmvStyle::
                                            CsrVector,
                                        false, dgpu),
                            4)});
    spmv.addRow({"scalar row (directive)", "OpenACC",
                 Table::num(spmvSeconds(minife,
                                        core::ModelKind::OpenAcc,
                                        apps::minife::SpmvStyle::
                                            CsrScalar,
                                        false, dgpu),
                            4)});
    spmv.print(std::cout);
    std::cout << "(paper: \"specialized sparse matrix operations "
                 "cannot be easily expressed at a high level\")\n\n";

    return bench::runRegisteredBenchmarks(opts);
}
