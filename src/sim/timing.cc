#include "timing.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hetsim::sim
{

const char *
toString(AccessPattern pattern)
{
    switch (pattern) {
      case AccessPattern::Sequential:
        return "sequential";
      case AccessPattern::Stencil:
        return "stencil";
      case AccessPattern::Strided:
        return "strided";
      case AccessPattern::Gather:
        return "gather";
      case AccessPattern::RandomGather:
        return "random-gather";
    }
    return "?";
}

double
patternEfficiency(AccessPattern pattern, DeviceType type)
{
    // Over-fetch (whole lines for sparse elements) is accounted in the
    // cache model's DRAM traffic; these factors only capture DRAM-level
    // scheduling efficiency (row-buffer locality, burst utilization).
    const bool cpu = type == DeviceType::Cpu;
    switch (pattern) {
      case AccessPattern::Sequential:
        return 1.00;
      case AccessPattern::Stencil:
        return 0.95;
      case AccessPattern::Strided:
        return cpu ? 0.75 : 0.70;
      case AccessPattern::Gather:
        return cpu ? 0.75 : 0.65;
      case AccessPattern::RandomGather:
        return cpu ? 0.55 : 0.45;
    }
    return 1.0;
}

KernelTiming
timeKernel(const DeviceSpec &spec, const FreqDomain &freq, Precision prec,
           const KernelProfile &prof, const CodegenResult &cg)
{
    if (prof.items == 0)
        return {};
    if (freq.coreMhz <= 0.0 || freq.memMhz <= 0.0)
        panic("non-positive frequency (%g, %g)", freq.coreMhz, freq.memMhz);
    if (cg.simdEfficiency <= 0.0 || cg.simdEfficiency > 1.25)
        panic("implausible SIMD efficiency %g", cg.simdEfficiency);

    const double items = static_cast<double>(prof.items);
    const double core_hz = freq.coreMhz * 1e6;

    // --- Instruction-issue (compute) term -----------------------------
    //
    // FMA-pipe instructions retire flopsPerLanePerCycle flops each; DP
    // instructions issue 1/dpThroughputRatio times slower.  Integer and
    // memory instructions single-issue.
    double fp_instrs = prof.flopsPerItem / spec.flopsPerLanePerCycle;
    if (prec == Precision::Double)
        fp_instrs /= spec.dpThroughputRatio;
    const double inst_per_item =
        fp_instrs + prof.intOpsPerItem + prof.memInstrsPerItem;
    const double wave_instrs = items * inst_per_item / spec.lanesPerCu;
    const double issue_rate = // wavefront instructions per second
        spec.computeUnits * core_hz * cg.simdEfficiency;
    const double t_issue = wave_instrs / issue_rate;

    // --- Memory term ---------------------------------------------------
    const double dram_bytes = items * prof.dramBytesPerItem;
    const double l2_bytes = items * prof.l2BytesPerItem;
    const double dram_bw =
        std::min(spec.peakBwBytes(freq.memMhz) * spec.memEfficiency *
                     prof.patternEff * cg.bwEfficiency,
                 spec.issueLimitBytes(freq.coreMhz));
    const double t_dram = dram_bytes / dram_bw;
    const double t_l2 = l2_bytes / spec.l2BwBytes(freq.coreMhz);
    const double t_mem = std::max(t_dram, t_l2);

    // --- LDS term ------------------------------------------------------
    double t_lds = 0.0;
    if (prof.ldsBytesPerItem > 0.0) {
        t_lds = items * prof.ldsBytesPerItem /
                spec.ldsBwBytes(freq.coreMhz);
    }

    // --- Dependent-miss-chain (latency) term ----------------------------
    double t_latency = 0.0;
    if (prof.dependentMissesPerItem > 0.0 ||
        prof.dependentHitsPerItem > 0.0) {
        const double chains =
            std::min<double>({prof.chainConcurrencyPerCu,
                              static_cast<double>(spec.chainsPerCuCap),
                              static_cast<double>(spec.mshrsPerCu)});
        const double concurrency = spec.computeUnits *
                                   std::max(chains, 1.0);
        const double hit_latency =
            spec.l2HitLatencyCycles / core_hz;
        const double serial =
            prof.dependentMissesPerItem *
                spec.missLatencySeconds(freq) +
            prof.dependentHitsPerItem * hit_latency;
        t_latency = items * serial / concurrency;
    }

    KernelTiming out;
    out.issueSeconds = t_issue;
    out.memSeconds = t_mem;
    out.ldsSeconds = t_lds;
    out.latencySeconds = t_latency;
    out.launchSeconds = (spec.launchOverheadUs + cg.launchOverheadUs) *
                        1e-6;
    const double body = std::max({t_issue, t_mem, t_lds, t_latency});
    out.seconds = out.launchSeconds + body;
    out.waveInstructions = wave_instrs;
    out.cycles = body * core_hz;
    out.ipc = out.cycles > 0.0
                  ? wave_instrs / (out.cycles * spec.computeUnits)
                  : 0.0;
    return out;
}

} // namespace hetsim::sim
