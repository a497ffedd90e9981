/**
 * @file
 * Device specifications for the heterogeneous system simulator.
 *
 * A DeviceSpec captures the architectural parameters the paper's
 * evaluation depends on: compute-unit count and SIMD width (peak flops),
 * memory bandwidth and its clock domain, double-precision throughput
 * ratio, GPU L2 geometry, LDS size, and whether the device shares host
 * memory (APU zero-copy).  Presets reproduce Table II of the paper.
 */

#ifndef HETSIM_SIM_DEVICE_HH
#define HETSIM_SIM_DEVICE_HH

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace hetsim::sim
{

/** Kind of computational device. */
enum class DeviceType
{
    Cpu,           ///< scalar x86 cores (OpenMP baseline)
    IntegratedGpu, ///< GPU portion of an APU; shares host memory
    DiscreteGpu,   ///< PCIe-attached GPU with its own memory
};

/** @return printable name of a device type. */
const char *toString(DeviceType type);

/** Core/memory clock pair; the knobs swept in the paper's Figure 7. */
struct FreqDomain
{
    double coreMhz = 0.0;
    double memMhz = 0.0;
};

/** Architectural description of one device. */
struct DeviceSpec
{
    std::string name;
    DeviceType type = DeviceType::DiscreteGpu;

    /** Compute units (GPU CUs, or CPU cores). */
    int computeUnits = 0;
    /** SIMD lanes per compute unit (64 on GCN; vector width on CPU). */
    int lanesPerCu = 0;
    /** Flops per lane per cycle (2 with FMA). */
    double flopsPerLanePerCycle = 2.0;

    /** Stock core clock, MHz. */
    double coreClockMhz = 0.0;
    /** Stock memory clock, MHz (bandwidth scales linearly with it). */
    double memClockMhz = 0.0;
    /** Peak memory bandwidth at the stock memory clock, GB/s. */
    double peakBwGBs = 0.0;
    /** Fraction of peak bandwidth achievable on unit-stride streams. */
    double memEfficiency = 0.85;

    /** Double- relative to single-precision throughput (e.g. 1/4). */
    double dpThroughputRatio = 1.0;

    /** Local data store per CU (GPU) in bytes. */
    u64 ldsBytesPerCu = 0;
    /** LDS bandwidth, bytes per cycle per CU. */
    double ldsBytesPerCyclePerCu = 128.0;

    /** Last-level (GPU L2) cache geometry. */
    u64 l2Bytes = 0;
    u32 l2LineBytes = 64;
    u32 l2Assoc = 16;
    /** L2 bandwidth, bytes per cycle per CU. */
    double l2BytesPerCyclePerCu = 64.0;

    /**
     * Memory-request issue limit, bytes per cycle per CU.  Models the
     * Figure 7 effect: at low core clocks the CUs cannot generate
     * enough requests to saturate DRAM.
     */
    double issueBytesPerCyclePerCu = 32.0;

    /**
     * Outstanding-miss capacity per CU (MSHRs).  Bounds the throughput
     * of latency-bound dependent-miss chains (e.g. binary searches).
     */
    u32 mshrsPerCu = 64;
    /**
     * Maximum concurrent dependent-miss chains per CU the core can
     * sustain (1 on an in-order-ish CPU loop; bounded by occupancy and
     * MSHRs on a GPU).
     */
    u32 chainsPerCuCap = 64;
    /** DRAM portion of the load-to-use miss latency at stock memory
     *  clock, nanoseconds (scales inversely with memory clock). */
    double dramLatencyNs = 150.0;
    /** On-chip (L2/interconnect) portion of the miss latency, core
     *  cycles (scales inversely with core clock). */
    double coreSideLatencyCycles = 200.0;
    /** Load-to-use latency of an LLC *hit*, core cycles. */
    double l2HitLatencyCycles = 150.0;

    /** Device memory capacity in bytes (data-size limitation). */
    u64 memoryBytes = 0;

    /** True when the device operates directly on host memory. */
    bool zeroCopy = false;

    /** Base kernel dispatch overhead in microseconds. */
    double launchOverheadUs = 10.0;

    /** Marketing memory type, for report headers. */
    std::string memType;

    /** @return stock frequency domain. */
    FreqDomain
    stockFreq() const
    {
        return {coreClockMhz, memClockMhz};
    }

    /** @return peak flops/s at @p core_mhz for precision @p p. */
    double peakFlops(double core_mhz, Precision p) const;

    /** @return peak DRAM bytes/s at @p mem_mhz. */
    double peakBwBytes(double mem_mhz) const;

    /** @return request-issue-limited bytes/s at @p core_mhz. */
    double issueLimitBytes(double core_mhz) const;

    /** @return aggregate L2 bandwidth in bytes/s at @p core_mhz. */
    double l2BwBytes(double core_mhz) const;

    /** @return aggregate LDS bandwidth in bytes/s at @p core_mhz. */
    double ldsBwBytes(double core_mhz) const;

    /**
     * @return load-to-use latency of an LLC miss in seconds at the
     * given clocks.
     */
    double missLatencySeconds(const FreqDomain &freq) const;
};

/** AMD Radeon R9 280X discrete GPU (Table II, left column). */
DeviceSpec radeonR9_280X();

/**
 * AMD Radeon HD 7950: an earlier, cut-down board of the same Tahiti
 * generation (28 CUs, lower clocks).  Not part of the paper's Table
 * II; used to exercise the performance-portability claim "across
 * different generations of the same architecture" (paper Sec. I).
 */
DeviceSpec radeonHd7950();

/** GPU portion of the AMD A10-7850K APU (Table II, right column). */
DeviceSpec a10_7850kGpu();

/** 4-core CPU portion of the AMD A10-7850K (the OpenMP baseline). */
DeviceSpec a10_7850kCpu();

/**
 * One device preset and the names it answers to: the one table every
 * layer that takes a device name reads (the CLI's --device, coexec
 * --devices pools, serve jobs, fleet topologies, --power-model rows
 * and --fail-device).
 */
struct DevicePreset
{
    /** Builds the preset's spec. */
    DeviceSpec (*make)();
    /** Accepted spellings, lower case, canonical first; unused slots
     *  are nullptr.  Lookups ignore letter case. */
    std::array<const char *, 3> spellings;
    /** How many leading spellings name every device of the preset's
     *  type when selecting devices (--fail-device dgpu also names the
     *  HD 7950); the rest name this preset only. */
    size_t typeSpellings = 0;

    /** @return the canonical spelling, e.g. "dgpu". */
    const char *canonical() const { return spellings[0]; }

    /** @return whether @p name is one of the leading typeSpellings. */
    bool namesType(std::string_view name) const;
};

/** @return the preset @p name spells (any letter case), or nullptr. */
const DevicePreset *presetByName(std::string_view name);

/**
 * @return the Table II preset for a device type: the R9 280X, the
 * A10-7850K's GPU or its CPU, i.e. the first preset of that type.
 * The one DeviceType -> DeviceSpec map every frontend's by-type
 * constructor goes through.
 */
DeviceSpec deviceFor(DeviceType type);

/** @return the spec of the preset @p name spells, if any. */
std::optional<DeviceSpec> deviceByName(const std::string &name);

} // namespace hetsim::sim

#endif // HETSIM_SIM_DEVICE_HH
