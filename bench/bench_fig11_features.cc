/**
 * @file
 * Regenerates paper Figure 11 (the optimization-capability matrix of
 * each programming model) and Table III (the compilers used).
 */

#include "benchsupport.hh"

#include "kernelir/captable.hh"

namespace
{

using namespace hetsim;

void
benchFeatureQuery(benchmark::State &state)
{
    for (auto _ : state) {
        auto features = ir::capsFor(core::ModelKind::CppAmp).features;
        benchmark::DoNotOptimize(features.localDataStore);
    }
}
BENCHMARK(benchFeatureQuery);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);

    Table table("Figure 11: Optimizations allowed by each programming "
                "model");
    table.setHeader({"Model", "Vectorization", "Use of LDS",
                     "Fine-grained Sync", "Explicit Unrolling",
                     "Reducing Code Motion"});
    auto mark = [](bool yes) { return std::string(yes ? "yes" : "-"); };
    for (core::ModelKind model :
         {core::ModelKind::OpenCl, core::ModelKind::OpenAcc,
          core::ModelKind::CppAmp}) {
        const ir::CompilerFeatures &f = ir::capsFor(model).features;
        table.addRow({ir::displayName(model), mark(f.vectorization),
                      mark(f.localDataStore), mark(f.fineGrainedSync),
                      mark(f.explicitUnrolling),
                      mark(f.reducedCodeMotion)});
    }
    table.print(std::cout);

    Table compilers("\nTable III: Compilers Used for Programming "
                    "Models");
    compilers.setHeader({"Programming Model", "Compiler"});
    for (core::ModelKind model :
         {core::ModelKind::OpenCl, core::ModelKind::CppAmp,
          core::ModelKind::OpenAcc, core::ModelKind::Hc}) {
        compilers.addRow({ir::displayName(model),
                          ir::capsFor(model).toolchain});
    }
    compilers.print(std::cout);
    std::cout << '\n';

    return bench::runRegisteredBenchmarks(opts);
}
