/**
 * @file
 * The vocabulary of the per-programming-model compilers.
 *
 * Each programming model in the paper reaches the GPU through a
 * different toolchain (Table III): the AMD Catalyst OpenCL driver, the
 * CLAMP C++ AMP compiler, and PGI's OpenACC compiler.  What that
 * toolchain makes of a kernel - the SIMD efficiency of the generated
 * ISA, the coalescing quality of its memory accesses, extra launch
 * overhead, whether LDS staging and hand optimizations are honored,
 * and how well it manages host<->device transfers - is one
 * ir::BackendCaps row of the capability table (captable.hh), compiled
 * by ir::compileWithCaps.  This header holds the types that row and
 * its compiler share: the model enum, the Figure 11 feature set and
 * the codegen result.
 *
 * Calibration rule (see DESIGN.md): the relative code-generation
 * quality of the three device compilers is calibrated ONCE from the
 * paper's read-memory micro-benchmark (kernel-only time: OpenCL 1x,
 * C++ AMP 1.3x slower, OpenACC 2x slower) and then held fixed for all
 * applications.  Every other effect is a modeled mechanism.
 */

#ifndef HETSIM_KERNELIR_CODEGEN_HH
#define HETSIM_KERNELIR_CODEGEN_HH

#include "kernelir/kernel.hh"
#include "sim/device.hh"
#include "sim/timing.hh"

namespace hetsim::ir
{

/**
 * The programming models compared by the paper (+ Serial and HC),
 * extended with the Memeti-et-al. backends: OpenMP 4.x target offload
 * (a directive model, distinct from the host OpenMp build) and a
 * CUDA-style explicit model.
 */
enum class ModelKind
{
    Serial,
    OpenMp,
    OpenCl,
    CppAmp,
    OpenAcc,
    Hc,
    OmpTarget,
    Cuda,
};

/** @return short identifier, e.g. "opencl" (capsFor(kind).name). */
const char *toString(ModelKind kind);

/** @return display name as used in the paper, e.g. "C++ AMP"
 *  (capsFor(kind).display). */
const char *displayName(ModelKind kind);

/** The optimization-capability matrix of the paper's Figure 11. */
struct CompilerFeatures
{
    bool vectorization = false;
    bool localDataStore = false;
    bool fineGrainedSync = false;
    bool explicitUnrolling = false;
    bool reducedCodeMotion = false;
};

/** Extension of sim::CodegenResult carried through kernel launches. */
struct Codegen : sim::CodegenResult
{
    /**
     * Multiplier on the kernel's sustainable dependent-chain
     * concurrency (scheduling quality around long-latency loads).
     */
    double chainEfficiency = 1.0;
};

} // namespace hetsim::ir

#endif // HETSIM_KERNELIR_CODEGEN_HH
