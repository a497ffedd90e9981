#include "captable.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hetsim::ir
{

namespace
{

/**
 * CLAMP's irregular-kernel device sensitivity (the paper's "atypical"
 * XSBench result): restrict(amp) aliasing guarantees and HSAIL flat
 * addressing make CLAMP *better* than hand OpenCL on the HSA (APU)
 * runtime, while the Catalyst-era SPIR path schedules such kernels
 * poorly on the discrete GPU.
 */
constexpr IrregularOverride kAmpIrregular[] = {
    {sim::DeviceType::DiscreteGpu, 0.46, 0.35},
    {sim::DeviceType::IntegratedGpu, 1.08, 1.15},
};

/**
 * The table.  One row per backend, fixed ModelKind order.  The
 * ocl/amp/acc/hc/host rows reproduce the pre-refactor per-class
 * constants bitwise (test_codegen pins them); the omptarget and cuda
 * rows are the Memeti-et-al. extension, anchored the same way.
 */
constexpr BackendCaps kTable[] = {
    {
        .kind = ModelKind::Serial,
        .name = "serial",
        .display = "Serial",
        .fileSuffix = "serial",
        .toolchain = "g++ -O3 -fopenmp",
        .features = {true, false, true, true, true},
        .baseEfficiency = 0.85, // auto-vectorized stream loop
        .traits = {.divergent = 0.55,
                   .divergentUntiled = 0.55,
                   .variableTrip = 0.75,
                   .variableTripUntiled = 0.75,
                   .indirect = 0.70,
                   .reductionWithLds = 0.95,
                   .reductionNoLds = 0.95},
        .note = "host codegen",
    },
    {
        .kind = ModelKind::OpenMp,
        .name = "openmp",
        .alias = "omp",
        .display = "OpenMP",
        .fileSuffix = "omp",
        .toolchain = "g++ -O3 -fopenmp",
        .features = {true, false, true, true, true},
        .baseEfficiency = 0.85,
        .traits = {.divergent = 0.55,
                   .divergentUntiled = 0.55,
                   .variableTrip = 0.75,
                   .variableTripUntiled = 0.75,
                   .indirect = 0.70,
                   .reductionWithLds = 0.95, // omp reduction clause
                   .reductionNoLds = 0.95},
        .note = "host codegen",
    },
    {
        .kind = ModelKind::OpenCl,
        .name = "opencl",
        .alias = "ocl",
        .display = "OpenCL",
        .fileSuffix = "opencl",
        .toolchain = "AMD Catalyst driver v14.6",
        .features = {true, true, true, true, true},
        .baseEfficiency = 0.95, // readmem calibration anchor (1.0x)
        .launchOverheadUs = 3.0, // clSetKernelArg + dispatch path
        .traits = {.divergent = 0.75, // hand-written predication
                   .divergentUntiled = 0.75,
                   .variableTrip = 0.88,
                   .variableTripUntiled = 0.88,
                   .indirect = 0.92,
                   .reductionWithLds = 0.92,
                   .reductionNoLds = 0.80,
                   .unrollBonus = 1.08,
                   .hoistBonus = 1.05},
        .note = "hand-tuned ISA",
    },
    {
        .kind = ModelKind::CppAmp,
        .name = "cppamp",
        .alias = "amp",
        .display = "C++ AMP",
        .fileSuffix = "amp",
        .toolchain = "CLAMP v0.6.0",
        .features = {true, true, true, false, false},
        .managesTransfers = true,
        .transferEfficiency = 0.40, // pageable AMP-runtime staging
        .baseEfficiency = 0.73, // readmem calibration anchor (1.3x)
        .bwEfficiency = 0.77, // readmem calibration anchor
        .launchOverheadUs = 8.0, // lambda marshalling
        // Tiles expose the work-group structure to the vectorizer;
        // without them divergent gather loops fall towards scalar
        // code (the paper's CoMD observation: tiling bought ~3x).
        .traits = {.divergent = 0.75,
                   .divergentUntiled = 0.35,
                   .variableTrip = 0.66,
                   .variableTripUntiled = 0.40,
                   .indirect = 0.85,
                   .reductionWithLds = 0.90,
                   .reductionNoLds = 0.75},
        .tilingGatesVectorization = true,
        .irregular = kAmpIrregular,
        .noteTiled = "tiled parallel_for_each",
        .note = "flat parallel_for_each",
    },
    {
        .kind = ModelKind::OpenAcc,
        .name = "openacc",
        .alias = "acc",
        .display = "OpenACC",
        .fileSuffix = "acc",
        .toolchain = "PGI v14.10 with AMD Catalyst driver v14.6",
        .features = {true, false, false, false, false},
        .managesTransfers = true,
        .transferEfficiency = 0.55, // per-region runtime bookkeeping
        .baseEfficiency = 0.475, // readmem calibration anchor (2.0x)
        .bwEfficiency = 0.50, // readmem calibration anchor
        .chainEfficiency = 0.85,
        .launchOverheadUs = 12.0, // region entry/exit bookkeeping
        // Gather defeats the vectorizer, and combined with variable
        // trip counts the loop is emitted (nearly) scalar (the CoMD
        // pathology, paper Sec. VI-A).
        .traits = {.divergent = 0.55,
                   .divergentUntiled = 0.55,
                   .variableTrip = 0.60,
                   .variableTripUntiled = 0.60,
                   .indirect = 0.85,
                   .indirectVariableTrip = 0.15,
                   .reductionWithLds = 0.80,
                   .reductionNoLds = 0.80},
        .warnsOnLdsHint = true,
        .note = "kernels-directive codegen",
    },
    {
        .kind = ModelKind::Hc,
        .name = "hc",
        .display = "HC",
        .fileSuffix = "hc",
        .toolchain = "AMD Heterogeneous Compute (prototype)",
        .features = {true, true, true, true, true},
        .baseEfficiency = 0.95, // OpenCL-class codegen (Section VII)
        .launchOverheadUs = 2.0, // user-mode queues, offline compile
        .traits = {.divergent = 0.75,
                   .divergentUntiled = 0.75,
                   .variableTrip = 0.88,
                   .variableTripUntiled = 0.88,
                   .indirect = 0.92,
                   .reductionWithLds = 0.92,
                   .reductionNoLds = 0.80,
                   .unrollBonus = 1.08,
                   .hoistBonus = 1.05},
        .note = "single-source HC",
    },
    {
        .kind = ModelKind::OmpTarget,
        .name = "omptarget",
        .alias = "target",
        .display = "OpenMP target",
        .fileSuffix = "omptarget",
        .toolchain = "GCC 6.1 -fopenmp (HSAIL offload)",
        // Figure-11 row: vectorizes, no LDS storage class, barriers
        // inside a team are legal, no unroll pragma that survives
        // offload, but the directive keeps code motion in check.
        .features = {true, false, true, false, true},
        .managesTransfers = true, // implicit map(to:/from:) staging
        .transferEfficiency = 0.60,
        .baseEfficiency = 0.55, // readmem anchor (~1.7x, Memeti)
        .bwEfficiency = 0.62,
        .chainEfficiency = 0.90,
        .launchOverheadUs = 10.0, // target-region entry bookkeeping
        .traits = {.divergent = 0.60,
                   .divergentUntiled = 0.60,
                   .variableTrip = 0.65,
                   .variableTripUntiled = 0.65,
                   .indirect = 0.80,
                   .indirectVariableTrip = 0.55,
                   .reductionWithLds = 0.85,
                   .reductionNoLds = 0.85},
        .warnsOnLdsHint = true,
        // collapse(n) flattens a regular nest into one iteration
        // space, winning back part of the variable-trip penalty.
        .collapseRelief = 1.35,
        .note = "target-teams-distribute codegen",
    },
    {
        .kind = ModelKind::Cuda,
        .name = "cuda",
        .display = "CUDA",
        .fileSuffix = "cuda",
        .toolchain = "nvcc v7.0-class offline compiler",
        .features = {true, true, true, true, true},
        .transferEfficiency = 1.0, // explicit pinned cudaMemcpyAsync
        .baseEfficiency = 0.95, // OpenCL-class hand-tuned codegen
        .launchOverheadUs = 2.5, // stream launch path
        .traits = {.divergent = 0.75,
                   .divergentUntiled = 0.75,
                   .variableTrip = 0.88,
                   .variableTripUntiled = 0.88,
                   .indirect = 0.92,
                   .reductionWithLds = 0.92,
                   .reductionNoLds = 0.80,
                   .unrollBonus = 1.08,
                   .hoistBonus = 1.05},
        // Oversized blocks exhaust the register file and cut the
        // resident wavefronts hiding load latency.
        .occupancyWorkgroupLimit = 256,
        .occupancyPenalty = 0.85,
        .note = "explicit grid/block ISA",
    },
};

constexpr ModelKind kDeviceBackends[] = {
    ModelKind::OpenCl,  ModelKind::CppAmp, ModelKind::OpenAcc,
    ModelKind::OmpTarget, ModelKind::Cuda,
};

} // namespace

const char *
toString(ModelKind kind)
{
    return capsFor(kind).name;
}

const char *
displayName(ModelKind kind)
{
    return capsFor(kind).display;
}

std::span<const BackendCaps>
backendTable()
{
    return kTable;
}

const BackendCaps &
capsFor(ModelKind kind)
{
    for (const BackendCaps &caps : kTable) {
        if (caps.kind == kind)
            return caps;
    }
    panic("no capability-table row for programming model %d",
          static_cast<int>(kind));
}

std::span<const ModelKind>
deviceBackends()
{
    return kDeviceBackends;
}

Codegen
compileWithCaps(const BackendCaps &caps, const KernelDescriptor &desc,
                const OptHints &hints, const sim::DeviceSpec &spec)
{
    Codegen cg;
    // Tiling only gates vectorization for backends that say so; the
    // rest always take the well-structured factors.
    const bool tiled = hints.tiled && desc.loop.tileable;
    const bool structured = !caps.tilingGatesVectorization || tiled;
    const bool lds = hints.useLds && caps.features.localDataStore;
    if (hints.useLds && caps.warnsOnLdsHint) {
        warn("%s cannot use the LDS; hint ignored for %s",
             caps.display, desc.name.c_str());
    }

    double eff = caps.baseEfficiency;
    const TraitMultipliers &t = caps.traits;
    if (desc.loop.divergentControlFlow)
        eff *= structured ? t.divergent : t.divergentUntiled;
    if (desc.loop.variableTripCount)
        eff *= structured ? t.variableTrip : t.variableTripUntiled;
    if (desc.loop.indirectAddressing) {
        eff *= t.indirect;
        if (desc.loop.variableTripCount)
            eff *= t.indirectVariableTrip;
    }
    if (desc.loop.reduction)
        eff *= lds ? t.reductionWithLds : t.reductionNoLds;
    if (caps.collapseRelief != 1.0 && hints.collapse > 1 &&
        desc.loop.variableTripCount && desc.loop.unrollableDepth > 0) {
        // The relief never beats the backend's own anchor: collapse
        // flattens the nest, it does not hand-tune the ISA.
        eff = std::min(eff * caps.collapseRelief, caps.baseEfficiency);
    }
    if (hints.unroll > 1 && desc.loop.unrollableDepth > 0)
        eff *= t.unrollBonus;
    if (hints.hoistedInvariants)
        eff *= t.hoistBonus;
    cg.simdEfficiency = std::clamp(eff, 0.01, 1.0);

    cg.bwEfficiency = caps.bwEfficiency;
    cg.usesLds = lds;
    cg.launchOverheadUs = caps.launchOverheadUs;
    cg.chainEfficiency = caps.chainEfficiency;

    if (desc.loop.indirectAddressing &&
        desc.loop.divergentControlFlow &&
        desc.loop.variableTripCount) {
        for (const IrregularOverride &over : caps.irregular) {
            if (over.device == spec.type) {
                cg.bwEfficiency = over.bwEfficiency;
                cg.chainEfficiency = over.chainEfficiency;
            }
        }
    }
    if (caps.occupancyWorkgroupLimit > 0 &&
        hints.workgroupSize > caps.occupancyWorkgroupLimit) {
        cg.chainEfficiency *= caps.occupancyPenalty;
    }

    cg.note = (caps.noteTiled != nullptr && tiled) ? caps.noteTiled
                                                   : caps.note;
    return cg;
}

} // namespace hetsim::ir
