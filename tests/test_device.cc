/**
 * @file
 * Tests for the device presets (paper Table II), derived rates, and
 * the device spellings every layer resolves through.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "coexec/coexec.hh"
#include "fault/fault.hh"
#include "power/power.hh"
#include "sim/device.hh"

namespace hetsim::sim
{
namespace
{

TEST(Device, R9280XMatchesTableII)
{
    DeviceSpec spec = radeonR9_280X();
    EXPECT_EQ(spec.computeUnits * spec.lanesPerCu, 2048); // SPs
    EXPECT_DOUBLE_EQ(spec.coreClockMhz, 925.0);
    // 3800 GFLOPS single precision (Table II).
    EXPECT_NEAR(spec.peakFlops(spec.coreClockMhz, Precision::Single),
                3.8e12, 0.05e12);
    EXPECT_DOUBLE_EQ(spec.peakBwGBs, 258.0);
    EXPECT_DOUBLE_EQ(spec.dpThroughputRatio, 0.25);
    EXPECT_EQ(spec.ldsBytesPerCu, 64 * KiB);
    EXPECT_FALSE(spec.zeroCopy);
    EXPECT_EQ(spec.memoryBytes, 3 * GiB);
    EXPECT_EQ(spec.memType, "GDDR5");
}

TEST(Device, ApuGpuMatchesTableII)
{
    DeviceSpec spec = a10_7850kGpu();
    EXPECT_EQ(spec.computeUnits, 8); // 8 GPU CUs of the 12
    EXPECT_EQ(spec.computeUnits * spec.lanesPerCu, 512);
    // 738 GFLOPS single precision (Table II).
    EXPECT_NEAR(spec.peakFlops(spec.coreClockMhz, Precision::Single),
                738e9, 5e9);
    EXPECT_DOUBLE_EQ(spec.peakBwGBs, 33.0);
    EXPECT_NEAR(spec.dpThroughputRatio, 1.0 / 16.0, 1e-12);
    EXPECT_TRUE(spec.zeroCopy);
    EXPECT_EQ(spec.memType, "DDR3");
}

TEST(Device, CpuIsTheOpenMpBaseline)
{
    DeviceSpec spec = a10_7850kCpu();
    EXPECT_EQ(spec.type, DeviceType::Cpu);
    EXPECT_EQ(spec.computeUnits, 4);
    EXPECT_DOUBLE_EQ(spec.coreClockMhz, 3700.0);
    EXPECT_TRUE(spec.zeroCopy);
    EXPECT_EQ(spec.chainsPerCuCap, 1u);
}

TEST(Device, BandwidthScalesLinearlyWithMemClock)
{
    DeviceSpec spec = radeonR9_280X();
    double full = spec.peakBwBytes(spec.memClockMhz);
    double half = spec.peakBwBytes(spec.memClockMhz / 2);
    EXPECT_NEAR(half * 2, full, 1);
    EXPECT_NEAR(full, 258e9, 1e9);
}

TEST(Device, DpHalvesOrWorse)
{
    for (const DeviceSpec &spec :
         {radeonR9_280X(), a10_7850kGpu(), a10_7850kCpu()}) {
        double sp = spec.peakFlops(spec.coreClockMhz,
                                   Precision::Single);
        double dp = spec.peakFlops(spec.coreClockMhz,
                                   Precision::Double);
        EXPECT_LE(dp, sp / 2 + 1) << spec.name;
    }
}

TEST(Device, IssueLimitScalesWithCoreClock)
{
    DeviceSpec spec = radeonR9_280X();
    EXPECT_NEAR(spec.issueLimitBytes(200) * 2,
                spec.issueLimitBytes(400), 1);
    // At stock clocks the issue limit must clear peak bandwidth,
    // otherwise the device could never reach its spec sheet rate.
    EXPECT_GT(spec.issueLimitBytes(spec.coreClockMhz),
              spec.peakBwBytes(spec.memClockMhz) * spec.memEfficiency);
}

TEST(Device, MissLatencyFallsWithBothClocks)
{
    DeviceSpec spec = radeonR9_280X();
    FreqDomain slow{300, 480};
    FreqDomain fast{925, 1500};
    EXPECT_GT(spec.missLatencySeconds(slow),
              spec.missLatencySeconds(fast));
    // Core-only change still reduces latency (on-chip portion).
    EXPECT_GT(spec.missLatencySeconds({300, 1500}),
              spec.missLatencySeconds(fast));
}

/** One accepted device spelling and the preset it names. */
struct Spelling
{
    std::string name;
    /** Spec name of the preset the spelling resolves to. */
    std::string spec;
    /** The pool name DevicePool::parse prints for it. */
    std::string pool;
};

const std::string kR9 = "AMD Radeon R9 280X";
const std::string kHd7950 = "AMD Radeon HD 7950";
const std::string kApu = "AMD A10-7850K (GPU)";
const std::string kCpu = "AMD A10-7850K (CPU)";

/** @return the preset named @p specName. */
DeviceSpec
presetNamed(const std::string &specName)
{
    for (const DeviceSpec &spec : {radeonR9_280X(), radeonHd7950(),
                                   a10_7850kGpu(), a10_7850kCpu()}) {
        if (spec.name == specName)
            return spec;
    }
    ADD_FAILURE() << "no preset named " << specName;
    return {};
}

/** Pins one spelling in the four contexts that resolve devices. */
void
expectResolves(const Spelling &s)
{
    // The CLI's --device and the serve layer's "device" key.
    auto device = deviceByName(s.name);
    ASSERT_TRUE(device.has_value()) << s.name;
    EXPECT_EQ(device->name, s.spec) << s.name;

    // coexec --devices: the spec, and the canonical pool name.
    auto pool = coexec::DevicePool::parse(s.name);
    ASSERT_TRUE(pool.has_value()) << s.name;
    ASSERT_EQ(pool->size(), 1u) << s.name;
    EXPECT_EQ(pool->spec(0).name, s.spec) << s.name;
    EXPECT_EQ(pool->name(), s.pool) << s.name;
    auto withCpu = coexec::DevicePool::parse("cpu+" + s.name);
    ASSERT_TRUE(withCpu.has_value()) << s.name;
    EXPECT_EQ(withCpu->name(), "cpu+" + s.pool) << s.name;

    // --power-model "device" rows and energyOfBusy.
    std::istringstream is("{\"device\": \"" + s.name +
                          "\", \"compute_busy_w\": 77.5}\n");
    std::string error;
    auto table = power::PowerTable::load(is, "p.jsonl", error);
    ASSERT_TRUE(table.has_value()) << error;
    EXPECT_EQ(table->powerFor(s.spec).compute.busyWatts, 77.5)
        << s.name;
    const power::PowerTable builtin;
    EXPECT_EQ(power::energyOfBusy(builtin, s.name, 2.0, 10.0),
              power::energyOfBusy(builtin, s.spec, 2.0, 10.0))
        << s.name;

    // --fail-device.
    EXPECT_TRUE(fault::matchesDevice(presetNamed(s.spec), s.name))
        << s.name;
}

TEST(DeviceTable, EverySpellingResolves)
{
    const std::vector<Spelling> spellings = {
        {"dgpu", kR9, "dgpu"},
        {"r9-280x", kR9, "dgpu"},
        {"280x", kR9, "dgpu"},
        {"hd7950", kHd7950, "hd7950"},
        {"apu", kApu, "apu"},
        {"igpu", kApu, "apu"},
        {"a10-7850k", kApu, "apu"},
        {"cpu", kCpu, "cpu"},
    };
    for (const Spelling &s : spellings) {
        expectResolves(s);
        std::string upper = s.name;
        for (char &c : upper)
            c = static_cast<char>(std::toupper(
                static_cast<unsigned char>(c)));
        expectResolves({upper, s.spec, s.pool});
    }

    // Type aliases: gpu names every GPU, dgpu every discrete board,
    // apu/igpu the integrated GPU, cpu the host.
    EXPECT_TRUE(fault::matchesDevice(radeonHd7950(), "gpu"));
    EXPECT_TRUE(fault::matchesDevice(a10_7850kGpu(), "GPU"));
    EXPECT_FALSE(fault::matchesDevice(a10_7850kCpu(), "gpu"));
    EXPECT_TRUE(fault::matchesDevice(radeonHd7950(), "dgpu"));
    EXPECT_FALSE(fault::matchesDevice(a10_7850kGpu(), "dgpu"));
    EXPECT_FALSE(fault::matchesDevice(radeonR9_280X(), "igpu"));
    // A preset's own spelling names that preset only.
    EXPECT_FALSE(fault::matchesDevice(radeonR9_280X(), "hd7950"));
    EXPECT_FALSE(fault::matchesDevice(radeonHd7950(), "r9-280x"));
    EXPECT_FALSE(fault::matchesDevice(radeonHd7950(), "280x"));
    // Full spec names, any case.
    for (const DeviceSpec &spec : {radeonR9_280X(), radeonHd7950(),
                                   a10_7850kGpu(), a10_7850kCpu()}) {
        EXPECT_TRUE(fault::matchesDevice(spec, spec.name)) << spec.name;
        std::istringstream is("{\"device\": \"" + spec.name +
                              "\", \"compute_busy_w\": 77.5}\n");
        std::string error;
        auto table = power::PowerTable::load(is, "p.jsonl", error);
        ASSERT_TRUE(table.has_value()) << error;
        EXPECT_EQ(table->powerFor(spec.name).compute.busyWatts, 77.5);
    }

    // Unknown spellings stay unknown everywhere.
    for (const char *bad : {"", "fpga", "gpu", "r9", "7950", "cpu "}) {
        EXPECT_FALSE(deviceByName(bad).has_value()) << bad;
        EXPECT_FALSE(coexec::DevicePool::parse(bad).has_value()) << bad;
    }
    // An empty pool token is an error wherever it sits.
    for (const char *bad : {"+", "+cpu", "cpu++dgpu", "cpu+", "cpu+dgpu+"})
        EXPECT_FALSE(coexec::DevicePool::parse(bad).has_value()) << bad;
    EXPECT_FALSE(fault::matchesDevice(a10_7850kCpu(), "fpga"));
    EXPECT_FALSE(fault::matchesDevice(a10_7850kCpu(), ""));
    // Each type's preset is that type's first table row.
    EXPECT_EQ(deviceFor(DeviceType::DiscreteGpu).name, kR9);
    EXPECT_EQ(deviceFor(DeviceType::IntegratedGpu).name, kApu);
    EXPECT_EQ(deviceFor(DeviceType::Cpu).name, kCpu);
}

} // namespace
} // namespace hetsim::sim
