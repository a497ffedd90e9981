#include "power/power.hh"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/flatjson.hh"
#include "sim/device.hh"
#include "sim/timeline.hh"

namespace hetsim::power
{

namespace
{

/** @return the spec name of the preset @p name spells, else @p name
 *  (a full spec name, "default", or an unknown device). */
std::string
specNameFor(const std::string &name)
{
    const sim::DevicePreset *preset = sim::presetByName(name);
    return preset != nullptr ? preset->make().name : name;
}

} // namespace

PowerTable::PowerTable()
{
    // Paper-era figures: board TDP for busy draw, published idle
    // draw for the discrete boards; the Kaveri APU's 95 W envelope
    // split between its CPU module and GPU compute units.
    byDevice["AMD Radeon R9 280X"] =
        DevicePower{{18.0, 250.0}, {2.0, 12.0}, {10.0, 45.0}};
    byDevice["AMD Radeon HD 7950"] =
        DevicePower{{15.0, 200.0}, {2.0, 12.0}, {10.0, 45.0}};
    byDevice["AMD A10-7850K (GPU)"] =
        DevicePower{{8.0, 45.0}, {0.5, 3.0}, {10.0, 45.0}};
    byDevice["AMD A10-7850K (CPU)"] =
        DevicePower{{12.0, 65.0}, {0.5, 3.0}, {12.0, 65.0}};
    fallback = DevicePower{{10.0, 100.0}, {2.0, 12.0}, {10.0, 45.0}};
}

std::optional<PowerTable>
PowerTable::load(std::istream &is, const std::string &path,
                 std::string &error)
{
    PowerTable table;
    std::string line;
    u64 lineNo = 0;
    u64 rows = 0;
    while (std::getline(is, line))
    {
        ++lineNo;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::string parseError;
        auto object = json::parseFlatObject(line, parseError);
        if (!object)
        {
            error = path + ":" + std::to_string(lineNo) + ": " +
                    parseError;
            return std::nullopt;
        }

        auto deviceIt = object->find("device");
        if (deviceIt == object->end() ||
            deviceIt->second.kind != json::Value::Kind::String)
        {
            error = path + ":" + std::to_string(lineNo) +
                    ": missing string key \"device\"";
            return std::nullopt;
        }
        const std::string deviceName = specNameFor(deviceIt->second.text);

        DevicePower draw = deviceName == "default"
                               ? table.fallback
                               : table.powerFor(deviceName);
        for (const auto &[key, value] : *object)
        {
            if (key == "device")
                continue;
            double *slot = nullptr;
            if (key == "compute_idle_w")
                slot = &draw.compute.idleWatts;
            else if (key == "compute_busy_w")
                slot = &draw.compute.busyWatts;
            else if (key == "dma_idle_w")
                slot = &draw.dma.idleWatts;
            else if (key == "dma_busy_w")
                slot = &draw.dma.busyWatts;
            else if (key == "host_idle_w")
                slot = &draw.host.idleWatts;
            else if (key == "host_busy_w")
                slot = &draw.host.busyWatts;
            if (slot == nullptr)
            {
                error = path + ":" + std::to_string(lineNo) +
                        ": unknown key \"" + key + "\"";
                return std::nullopt;
            }
            if (value.kind != json::Value::Kind::Number ||
                !(value.number >= 0.0) ||
                !std::isfinite(value.number))
            {
                error = path + ":" + std::to_string(lineNo) +
                        ": key \"" + key +
                        "\" must be a non-negative number, got " +
                        value.text;
                return std::nullopt;
            }
            *slot = value.number;
        }
        if (draw.compute.busyWatts < draw.compute.idleWatts ||
            draw.dma.busyWatts < draw.dma.idleWatts ||
            draw.host.busyWatts < draw.host.idleWatts)
        {
            error = path + ":" + std::to_string(lineNo) +
                    ": busy watts below idle watts for \"" +
                    deviceIt->second.text + "\"";
            return std::nullopt;
        }

        if (deviceName == "default")
            table.fallback = draw;
        else
            table.byDevice[deviceName] = draw;
        ++rows;
    }
    if (rows == 0)
    {
        error = path + ": no device rows";
        return std::nullopt;
    }
    return table;
}

const DevicePower &
PowerTable::powerFor(const std::string &deviceName) const
{
    auto it = byDevice.find(deviceName);
    return it == byDevice.end() ? fallback : it->second;
}

ResourcePower
PowerTable::resourcePower(const std::string &resourceName) const
{
    // Resource names are "[label/]<device>/<class>": the class is the
    // last '/'-component, the device the one before it.
    std::string device;
    std::string cls = resourceName;
    auto lastSlash = resourceName.rfind('/');
    if (lastSlash != std::string::npos)
    {
        cls = resourceName.substr(lastSlash + 1);
        auto prevSlash = resourceName.rfind('/', lastSlash - 1);
        auto begin = prevSlash == std::string::npos ? 0 : prevSlash + 1;
        device = resourceName.substr(begin, lastSlash - begin);
    }
    const DevicePower &draw = powerFor(device);
    if (cls == "dma-h2d" || cls == "dma-d2h")
        return draw.dma;
    if (cls == "host")
        return draw.host;
    return draw.compute;
}

PowerTable &
PowerTable::active()
{
    static PowerTable table;
    return table;
}

double
EnergyReport::bucketError() const
{
    double bucketSum = 0.0;
    for (const auto &bucket : buckets)
        bucketSum += bucket.busyJoules + bucket.idleJoules;
    if (joules == 0.0)
        return std::fabs(bucketSum);
    return std::fabs(bucketSum - joules) / joules;
}

EnergyReport
energyOf(const sim::Timeline &timeline, const PowerTable &table)
{
    EnergyReport report;
    report.makespanSeconds = timeline.makespan();
    for (size_t r = 0; r < timeline.resourceCount(); ++r)
    {
        auto id = static_cast<sim::ResourceId>(r);
        EnergyBucket bucket;
        bucket.resource = timeline.resourceName(id);
        bucket.busySeconds = timeline.resourceBusyTime(id);
        bucket.idleSeconds =
            report.makespanSeconds - bucket.busySeconds;
        if (bucket.idleSeconds < 0.0)
            bucket.idleSeconds = 0.0;
        ResourcePower draw = table.resourcePower(bucket.resource);
        bucket.busyJoules = bucket.busySeconds * draw.busyWatts;
        bucket.idleJoules = bucket.idleSeconds * draw.idleWatts;
        report.busyJoules += bucket.busyJoules;
        report.idleJoules += bucket.idleJoules;
        // Accumulate the total as makespan x idle + busy x (busy -
        // idle): a different association than the bucket sum, so the
        // bucketError() invariant actually exercises the tiling.
        report.joules +=
            bucket.busySeconds <= report.makespanSeconds
                ? report.makespanSeconds * draw.idleWatts +
                      bucket.busySeconds *
                          (draw.busyWatts - draw.idleWatts)
                : bucket.busySeconds * draw.busyWatts;
        report.buckets.push_back(std::move(bucket));
    }
    return report;
}

double
energyOfBusy(const PowerTable &table, const std::string &deviceName,
             double busySeconds, double makespanSeconds)
{
    const ResourcePower &draw =
        table.powerFor(specNameFor(deviceName)).compute;
    double idleSeconds = makespanSeconds - busySeconds;
    if (idleSeconds < 0.0)
        idleSeconds = 0.0;
    return busySeconds * draw.busyWatts + idleSeconds * draw.idleWatts;
}

void
writeEnergyJson(std::ostream &os, const EnergyReport &report)
{
    // Round-trip precision: consumers re-derive the bucket invariant
    // from the file, so the default 6 significant digits is lossy.
    const auto savedPrecision = os.precision(
        std::numeric_limits<double>::max_digits10);
    os << "{\"makespan_s\": " << report.makespanSeconds
       << ", \"joules\": " << report.joules
       << ", \"busy_j\": " << report.busyJoules
       << ", \"idle_j\": " << report.idleJoules
       << ", \"bucket_error\": " << report.bucketError()
       << ", \"buckets\": [";
    for (size_t i = 0; i < report.buckets.size(); ++i)
    {
        const EnergyBucket &bucket = report.buckets[i];
        if (i > 0)
            os << ", ";
        os << "{\"resource\": \"" << bucket.resource
           << "\", \"busy_s\": " << bucket.busySeconds
           << ", \"idle_s\": " << bucket.idleSeconds
           << ", \"busy_j\": " << bucket.busyJoules
           << ", \"idle_j\": " << bucket.idleJoules << "}";
    }
    os << "]}\n";
    os.precision(savedPrecision);
}

} // namespace hetsim::power
