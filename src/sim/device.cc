#include "device.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/logging.hh"

namespace hetsim::sim
{

const char *
toString(DeviceType type)
{
    switch (type) {
      case DeviceType::Cpu:
        return "CPU";
      case DeviceType::IntegratedGpu:
        return "iGPU";
      case DeviceType::DiscreteGpu:
        return "dGPU";
    }
    return "?";
}

double
DeviceSpec::peakFlops(double core_mhz, Precision p) const
{
    double sp = computeUnits * lanesPerCu * flopsPerLanePerCycle *
                core_mhz * 1e6;
    return p == Precision::Single ? sp : sp * dpThroughputRatio;
}

double
DeviceSpec::peakBwBytes(double mem_mhz) const
{
    return peakBwGBs * GB * (mem_mhz / memClockMhz);
}

double
DeviceSpec::issueLimitBytes(double core_mhz) const
{
    return issueBytesPerCyclePerCu * computeUnits * core_mhz * 1e6;
}

double
DeviceSpec::l2BwBytes(double core_mhz) const
{
    return l2BytesPerCyclePerCu * computeUnits * core_mhz * 1e6;
}

double
DeviceSpec::ldsBwBytes(double core_mhz) const
{
    return ldsBytesPerCyclePerCu * computeUnits * core_mhz * 1e6;
}

double
DeviceSpec::missLatencySeconds(const FreqDomain &freq) const
{
    double on_chip = coreSideLatencyCycles / (freq.coreMhz * 1e6);
    // Loaded DRAM latency rises as the memory clock drops; the effect
    // is sub-linear (row/CAS timings do not all scale with the clock).
    double dram = dramLatencyNs * 1e-9 *
                  std::sqrt(memClockMhz / freq.memMhz);
    return on_chip + dram;
}

DeviceSpec
radeonR9_280X()
{
    DeviceSpec spec;
    spec.name = "AMD Radeon R9 280X";
    spec.type = DeviceType::DiscreteGpu;
    spec.computeUnits = 32;
    spec.lanesPerCu = 64;           // 2048 stream processors
    spec.flopsPerLanePerCycle = 2;  // FMA
    spec.coreClockMhz = 925;        // => 3.79 TFLOPS SP
    spec.memClockMhz = 1500;        // GDDR5 6 Gbps effective
    spec.peakBwGBs = 258;
    spec.memEfficiency = 0.85;
    spec.dpThroughputRatio = 0.25;  // 1/4 (paper, Sec. VI-A)
    spec.ldsBytesPerCu = 64 * KiB;
    spec.l2Bytes = 768 * KiB;       // Tahiti L2
    spec.l2LineBytes = 64;
    spec.l2Assoc = 16;
    spec.mshrsPerCu = 64;
    spec.dramLatencyNs = 180.0;
    spec.coreSideLatencyCycles = 220.0;
    spec.l2HitLatencyCycles = 160.0;
    spec.issueBytesPerCyclePerCu = 10.0;
    spec.memoryBytes = 3 * GiB;
    spec.zeroCopy = false;
    spec.launchOverheadUs = 15.0;   // Catalyst-era dispatch path
    spec.memType = "GDDR5";
    return spec;
}

DeviceSpec
radeonHd7950()
{
    DeviceSpec spec = radeonR9_280X();
    spec.name = "AMD Radeon HD 7950";
    spec.computeUnits = 28;         // 1792 stream processors
    spec.coreClockMhz = 800;
    spec.memClockMhz = 1250;        // GDDR5 5 Gbps
    spec.peakBwGBs = 240;
    return spec;
}

DeviceSpec
a10_7850kGpu()
{
    DeviceSpec spec;
    spec.name = "AMD A10-7850K (GPU)";
    spec.type = DeviceType::IntegratedGpu;
    spec.computeUnits = 8;          // 8 of the 12 CUs are GPU CUs
    spec.lanesPerCu = 64;           // 512 stream processors
    spec.flopsPerLanePerCycle = 2;
    spec.coreClockMhz = 720;        // => 737 GFLOPS SP
    spec.memClockMhz = 1066;        // DDR3-2133
    spec.peakBwGBs = 33;
    spec.memEfficiency = 0.80;      // shared with the CPU
    spec.dpThroughputRatio = 1.0 / 16.0; // paper, Sec. VI-A
    spec.ldsBytesPerCu = 64 * KiB;
    spec.l2Bytes = 512 * KiB;
    spec.l2LineBytes = 64;
    spec.l2Assoc = 16;
    spec.mshrsPerCu = 64;
    spec.dramLatencyNs = 160.0;
    spec.coreSideLatencyCycles = 200.0;
    spec.l2HitLatencyCycles = 150.0;
    spec.issueBytesPerCyclePerCu = 10.0;
    spec.memoryBytes = 2 * GiB;     // Table II "Device Memory"
    spec.zeroCopy = true;           // HSA unified memory
    spec.launchOverheadUs = 6.0;    // HSA user-mode queues
    spec.memType = "DDR3";
    return spec;
}

DeviceSpec
a10_7850kCpu()
{
    DeviceSpec spec;
    spec.name = "AMD A10-7850K (CPU)";
    spec.type = DeviceType::Cpu;
    spec.computeUnits = 4;          // 4 Steamroller cores
    spec.lanesPerCu = 4;            // 128-bit FP pipes, SP lanes
    spec.flopsPerLanePerCycle = 2;  // FMA => ~118 GFLOPS SP
    spec.coreClockMhz = 3700;
    spec.memClockMhz = 1066;
    spec.peakBwGBs = 33;
    spec.memEfficiency = 0.35;      // 4 cores' MLP cannot saturate DDR3
    spec.dpThroughputRatio = 0.5;
    spec.ldsBytesPerCu = 0;
    spec.l2Bytes = 4 * MiB;         // 2 x 2 MB module L2
    spec.l2LineBytes = 64;
    spec.l2Assoc = 16;
    spec.l2BytesPerCyclePerCu = 16.0;
    spec.issueBytesPerCyclePerCu = 16.0;
    spec.mshrsPerCu = 10;           // OoO core miss-level parallelism
    spec.chainsPerCuCap = 1;        // dependent chains do not overlap
    spec.dramLatencyNs = 70.0;
    spec.coreSideLatencyCycles = 40.0;
    spec.l2HitLatencyCycles = 25.0;
    spec.memoryBytes = 32 * GiB;    // system memory
    spec.zeroCopy = true;
    spec.launchOverheadUs = 2.0;    // omp parallel-region fork/join
    spec.memType = "DDR3";
    return spec;
}

namespace
{

constexpr DevicePreset kPresets[] = {
    {radeonR9_280X, {"dgpu", "r9-280x", "280x"}, 1},
    {radeonHd7950, {"hd7950", nullptr, nullptr}, 0},
    {a10_7850kGpu, {"apu", "igpu", "a10-7850k"}, 2},
    {a10_7850kCpu, {"cpu", nullptr, nullptr}, 1},
};

/** @return whether @p name is the lower-case @p spelling in any
 *  letter case. */
bool
sameSpelling(std::string_view spelling, std::string_view name)
{
    return std::equal(spelling.begin(), spelling.end(), name.begin(),
                      name.end(), [](char a, unsigned char b) {
                          return a == std::tolower(b);
                      });
}

} // namespace

bool
DevicePreset::namesType(std::string_view name) const
{
    for (size_t i = 0; i < typeSpellings; ++i) {
        if (sameSpelling(spellings[i], name))
            return true;
    }
    return false;
}

const DevicePreset *
presetByName(std::string_view name)
{
    for (const DevicePreset &preset : kPresets) {
        for (const char *spelling : preset.spellings) {
            if (spelling != nullptr && sameSpelling(spelling, name))
                return &preset;
        }
    }
    return nullptr;
}

DeviceSpec
deviceFor(DeviceType type)
{
    for (const DevicePreset &preset : kPresets) {
        DeviceSpec spec = preset.make();
        if (spec.type == type)
            return spec;
    }
    fatal("no device preset of type %s", toString(type));
}

std::optional<DeviceSpec>
deviceByName(const std::string &name)
{
    if (const DevicePreset *preset = presetByName(name))
        return preset->make();
    return std::nullopt;
}

} // namespace hetsim::sim
