/**
 * @file
 * hetsim::power - the per-device power model and energy-to-solution
 * accounting (ISSUE 10 tentpole, after Memeti et al., who extend the
 * source paper's model comparison with energy consumption as a
 * first-class metric).
 *
 * The model is deliberately simple and fully deterministic: every
 * timeline resource (a compute queue, a DMA engine, the host-fallback
 * queue) draws `busyWatts` while it executes a span and `idleWatts`
 * for the rest of the run's makespan.  Energy is therefore a pure
 * function of the simulated timeline and the power table - equal
 * timelines give bit-equal joules at any worker count.
 *
 * Energy buckets tile `makespan x power` the same way the profiler's
 * makespan attribution tiles [0, makespan]: for every resource,
 * busySeconds + idleSeconds == makespan exactly, and the per-resource
 * busy/idle joule buckets must sum back to the report total within
 * 1e-9 relative error (EnergyReport::bucketError).
 *
 * Wattages come from the built-in table (paper-era AMD hardware TDP
 * and idle figures) or from a `--power-model` JSONL file, one device
 * per line:
 *
 *   {"device": "dgpu", "compute_idle_w": 18, "compute_busy_w": 250,
 *    "dma_idle_w": 2, "dma_busy_w": 12, "host_idle_w": 10,
 *    "host_busy_w": 45}
 *
 * `"device"` takes any sim::deviceByName() spelling or a full spec
 * name; the special name `"default"` replaces the fallback row
 * used for unknown devices.
 */

#ifndef HETSIM_POWER_POWER_HH
#define HETSIM_POWER_POWER_HH

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hetsim::sim
{
class Timeline;
}

namespace hetsim::power
{

/** Idle/busy draw of one timeline resource, in watts. */
struct ResourcePower
{
    double idleWatts = 0.0;
    double busyWatts = 0.0;
};

/** Per-resource-class draw of one device. */
struct DevicePower
{
    ResourcePower compute; ///< compute queue (CUs or cores)
    ResourcePower dma;     ///< each DMA engine (PCIe link halves)
    ResourcePower host;    ///< host-fallback queue
};

/** Maps timeline resources to their idle/busy wattages. */
class PowerTable
{
  public:
    /** Built-in paper-era wattages for the Table II devices. */
    PowerTable();

    /**
     * Parse a `--power-model` JSONL stream (one flat object per
     * line, format above) over the built-in defaults.  @return
     * nullopt and set @p error (prefixed with @p path and the line
     * number) on any malformed line, unknown device, unknown key, or
     * non-positive wattage.
     */
    static std::optional<PowerTable> load(std::istream &is,
                                          const std::string &path,
                                          std::string &error);

    /** @return the draw of the device named @p deviceName (full spec
     *  name); the default row when unknown. */
    const DevicePower &powerFor(const std::string &deviceName) const;

    /**
     * @return the draw of one timeline resource.  Resource names are
     * "[label/]<device>/<class>" with class in {compute, dma-h2d,
     * dma-d2h, host}; unknown classes draw the compute figure.
     */
    ResourcePower resourcePower(const std::string &resourceName) const;

    /**
     * The process-wide table every energy computation reads
     * (`--power-model` swaps it for the duration of a command).
     */
    static PowerTable &active();

  private:
    std::map<std::string, DevicePower> byDevice;
    DevicePower fallback;
};

/** One resource's share of a run's energy. */
struct EnergyBucket
{
    std::string resource; ///< timeline resource name
    double busySeconds = 0.0;
    double idleSeconds = 0.0;   ///< makespan - busySeconds
    double busyJoules = 0.0;    ///< busySeconds x busyWatts
    double idleJoules = 0.0;    ///< idleSeconds x idleWatts
};

/** Energy-to-solution of one simulated timeline. */
struct EnergyReport
{
    double makespanSeconds = 0.0;
    double joules = 0.0;     ///< total energy-to-solution
    double busyJoules = 0.0; ///< sum of bucket busy joules
    double idleJoules = 0.0; ///< sum of bucket idle joules
    std::vector<EnergyBucket> buckets;

    /**
     * Relative error between the bucket sum and the total; the
     * invariant mirrors obs::TraceAnalysis::attributionError and must
     * stay within 1e-9.
     */
    double bucketError() const;
};

/** Accrue every resource of @p timeline against @p table. */
EnergyReport energyOf(const sim::Timeline &timeline,
                      const PowerTable &table);

/**
 * Energy of a run known only by aggregate (device kind, busy seconds,
 * makespan) - the fleet-rollup path, where per-node timelines are
 * never materialized.  Uses the compute-queue draw of @p deviceName,
 * a sim::deviceByName() spelling or a full spec name.
 */
double energyOfBusy(const PowerTable &table,
                    const std::string &deviceName, double busySeconds,
                    double makespanSeconds);

/** Write @p report as a self-contained JSON object (--energy-out). */
void writeEnergyJson(std::ostream &os, const EnergyReport &report);

} // namespace hetsim::power

#endif // HETSIM_POWER_POWER_HH
