#include "fault.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/numparse.hh"

namespace hetsim::fault
{

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::TransferFail:
        return "transfer-fail";
      case FaultKind::LaunchFail:
        return "launch-fail";
      case FaultKind::DeviceStall:
        return "device-stall";
      case FaultKind::DeviceDeath:
        return "device-death";
    }
    return "?";
}

std::optional<FaultConfig>
parseFaultSpec(const std::string &spec)
{
    FaultConfig cfg;
    if (spec.empty())
        return std::nullopt;
    std::stringstream ss(spec);
    std::string token;
    while (std::getline(ss, token, ',')) {
        const size_t colon = token.find(':');
        if (colon == std::string::npos)
            return std::nullopt;
        const std::string kind = token.substr(0, colon);
        auto rate = parseFinite(token.substr(colon + 1));
        if (!rate || *rate < 0.0 || *rate > 1.0)
            return std::nullopt;
        if (kind == "transfer")
            cfg.transferFailRate = *rate;
        else if (kind == "launch")
            cfg.launchFailRate = *rate;
        else if (kind == "stall")
            cfg.stallRate = *rate;
        else
            return std::nullopt;
    }
    // Reject trailing separators ("transfer:0.1,") which getline eats.
    if (spec.back() == ',')
        return std::nullopt;
    return cfg;
}

double
backoffSeconds(u32 attempt, double base)
{
    if (attempt == 0 || base <= 0.0)
        return 0.0;
    // Exponential: base, 2*base, 4*base, ... capped at 2^16 periods so
    // a misconfigured retry budget cannot overflow the timeline.
    const u32 shift = std::min<u32>(attempt - 1, 16);
    return base * static_cast<double>(1ULL << shift);
}

u64
shardSeed(u64 seed, u64 shard)
{
    // One splitmix-style Rng warm-up decorrelates neighbouring shard
    // indices; the golden-ratio stride keeps (seed, shard) injective
    // over any realistic shard count.
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * (shard + 1));
    return rng.next();
}

bool
matchesDevice(const sim::DeviceSpec &spec, const std::string &alias)
{
    auto lower = [](std::string text) {
        std::transform(text.begin(), text.end(), text.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        return text;
    };
    const std::string want = lower(alias);
    if (want.empty())
        return false;
    if (want == lower(spec.name))
        return true;
    if (want == "gpu")
        return spec.type != sim::DeviceType::Cpu;
    const sim::DevicePreset *preset = sim::presetByName(want);
    if (preset == nullptr)
        return false;
    const sim::DeviceSpec named = preset->make();
    return preset->namesType(want) ? named.type == spec.type
                                   : named.name == spec.name;
}

FaultPlan::FaultPlan(const FaultConfig &config)
    : cfg(config), rng(config.seed), active(config.any())
{}

bool
FaultPlan::draw(double rate, FaultKind kind, const std::string &device)
{
    // Zero-rate classes consume no randomness, so enabling one fault
    // class never shifts another class's schedule.
    if (!active || rate <= 0.0)
        return false;
    if (rng.uniform() >= rate)
        return false;
    events.push_back({kind, device, events.size()});
    return true;
}

bool
FaultPlan::failTransfer(const std::string &device)
{
    return draw(cfg.transferFailRate, FaultKind::TransferFail, device);
}

bool
FaultPlan::failLaunch(const std::string &device)
{
    return draw(cfg.launchFailRate, FaultKind::LaunchFail, device);
}

bool
FaultPlan::stallDevice(const std::string &device)
{
    return draw(cfg.stallRate, FaultKind::DeviceStall, device);
}

bool
FaultPlan::shouldKill(const sim::DeviceSpec &spec,
                      u64 completed_chunks) const
{
    if (!active || cfg.failDevice.empty())
        return false;
    if (isDead(spec.name))
        return false;
    return matchesDevice(spec, cfg.failDevice) &&
           completed_chunks >= kFailAfterChunks;
}

void
FaultPlan::markDead(const std::string &device)
{
    if (dead.insert(device).second)
        events.push_back({FaultKind::DeviceDeath, device, events.size()});
}

} // namespace hetsim::fault
