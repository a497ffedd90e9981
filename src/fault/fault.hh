/**
 * @file
 * hetsim::fault - deterministic, seed-driven fault injection.
 *
 * The paper's Section IV attributes the discrete GPU's losses to the
 * imperfect device path (PCIe staging dominating kernel gains); this
 * subsystem models the *failure* side of that path so the runtime and
 * the co-execution scheduler can be exercised - and tested - under
 * transfer failures, kernel-launch failures, and device stalls.
 *
 * Everything is driven by a FaultPlan: a deterministic schedule of
 * fault decisions drawn from the shared common::Rng.  Equal seeds and
 * equal simulation order yield bit-identical fault schedules, so every
 * recovery scenario is reproducible from its `--fault-seed`.
 *
 * The plan also records which devices are dead: a device is alive
 * or dead, and it dies when its retry budget is exhausted, the stall
 * watchdog fires, or --fail-device names it.  Death is sticky and
 * recorded once, as one DeviceDeath event.
 */

#ifndef HETSIM_FAULT_FAULT_HH
#define HETSIM_FAULT_FAULT_HH

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/device.hh"

namespace hetsim::fault
{

/** The injectable fault classes. */
enum class FaultKind : u8
{
    TransferFail, ///< a PCIe staging transfer fails after full cost
    LaunchFail,   ///< a kernel submission is rejected at launch
    DeviceStall,  ///< a device hangs mid-chunk until the watchdog fires
    DeviceDeath,  ///< a device is declared dead (retries exhausted or
                  ///< named by --fail-device)
};

/** @return printable name, e.g. "transfer-fail". */
const char *toString(FaultKind kind);

/** Initial retry backoff, simulated seconds (doubles per retry). */
constexpr double kBackoffSeconds = 50e-6;

/** Completed chunks after which the --fail-device target dies. */
constexpr u64 kFailAfterChunks = 1;

/** @return how long the stall watchdog waits before it declares a
 *  device dead on work predicted to take @p serviceSeconds. */
constexpr double
stallTimeoutSeconds(double serviceSeconds)
{
    return 10.0 * std::max(serviceSeconds, 1e-6);
}

// The fault options' rules, shared by the CLI flags and JobSpec keys.
/** Largest retry budget; kRetryRange is how errors print the range. */
constexpr u32 kMaxRetries = 64;
constexpr char kRetryRange[] = "[0, 64]";
/** What an --inject-faults / "faults" value wants. */
constexpr char kFaultSpecWants[] =
    "kind:rate pairs (transfer|launch|stall, rate in [0,1])";
/** What a --fail-device / "fail_device" value wants. */
constexpr char kFailDeviceWants[] = "a device alias";

/** Knobs of one fault-injection campaign. */
struct FaultConfig
{
    /** Probability that one transfer attempt fails. */
    double transferFailRate = 0.0;
    /** Probability that one kernel submission fails. */
    double launchFailRate = 0.0;
    /** Probability that one chunk stalls its device (hang). */
    double stallRate = 0.0;
    /** Seed of the fault schedule (--fault-seed). */
    u64 seed = 0x5eedULL;
    /** Retries allowed per operation before the device dies. */
    u32 retryMax = 4;
    /** Device to kill mid-run (--fail-device); "" = none.  Any
     *  matchesDevice() name. */
    std::string failDevice;

    /** @return whether any fault source is configured. */
    bool
    any() const
    {
        return transferFailRate > 0.0 || launchFailRate > 0.0 ||
               stallRate > 0.0 || !failDevice.empty();
    }
};

/**
 * Parse an `--inject-faults` spec: comma-separated `kind:rate` pairs
 * with kind in {transfer, launch, stall} and rate in [0, 1], e.g.
 * "transfer:0.2,launch:0.1,stall:0.05".  @return nullopt on any
 * unknown kind, malformed rate, or trailing junk.
 */
std::optional<FaultConfig> parseFaultSpec(const std::string &spec);

/** @return exponential backoff before retry @p attempt (1-based). */
double backoffSeconds(u32 attempt, double base);

/**
 * @return a decorrelated seed for shard @p shard of a campaign seeded
 * @p seed, so per-shard (per-node, per-stream) Rng streams are
 * independent yet fully determined by (seed, shard).
 */
u64 shardSeed(u64 seed, u64 shard);

/**
 * @return whether @p alias names @p spec, in any letter case: the
 * spec name, "gpu" (any GPU), a sim::DevicePreset type spelling (cpu,
 * dgpu, apu/igpu: every device of that type), or another preset
 * spelling (that preset only).
 */
bool matchesDevice(const sim::DeviceSpec &spec, const std::string &alias);

/** One injected fault, in schedule order. */
struct FaultEvent
{
    FaultKind kind = FaultKind::TransferFail;
    std::string device;
    /** Position in the plan's injection sequence (0-based). */
    u64 sequence = 0;

    bool
    operator==(const FaultEvent &other) const
    {
        return kind == other.kind && device == other.device &&
               sequence == other.sequence;
    }
};

/**
 * A deterministic fault schedule plus the set of dead devices.
 * Default-constructed plans are inert: every query answers "no fault"
 * without consuming randomness.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(const FaultConfig &config);

    /** @return whether any fault source is active. */
    bool enabled() const { return active; }

    const FaultConfig &config() const { return cfg; }

    /** Draw: does this transfer attempt on @p device fail? */
    bool failTransfer(const std::string &device);

    /** Draw: does this kernel submission on @p device fail? */
    bool failLaunch(const std::string &device);

    /** Draw: does this chunk stall @p device (hang)? */
    bool stallDevice(const std::string &device);

    /**
     * @return whether the --fail-device target @p spec must die now,
     * i.e. it has completed @p completed_chunks >= kFailAfterChunks
     * and is not already dead.
     */
    bool shouldKill(const sim::DeviceSpec &spec,
                    u64 completed_chunks) const;

    /** @return whether @p device has been marked dead. */
    bool
    isDead(const std::string &device) const
    {
        return dead.contains(device);
    }

    /** Remove @p device from service and record its death event
     *  (once: death is sticky). */
    void markDead(const std::string &device);

    /** @return every injected fault so far, in schedule order. */
    const std::vector<FaultEvent> &schedule() const { return events; }

  private:
    /** One Bernoulli draw; records the event when it fires. */
    bool draw(double rate, FaultKind kind, const std::string &device);

    FaultConfig cfg;
    Rng rng;
    bool active = false;
    std::vector<FaultEvent> events;
    std::set<std::string> dead;
};

} // namespace hetsim::fault

#endif // HETSIM_FAULT_FAULT_HH
