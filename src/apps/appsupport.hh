/**
 * @file
 * Helpers shared by the proxy-application variants.
 */

#ifndef HETSIM_APPS_APPSUPPORT_HH
#define HETSIM_APPS_APPSUPPORT_HH

#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "common/types.hh"
#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "sim/device.hh"
#include "sim/timing.hh"

namespace hetsim::apps
{

/** @return the 4-core A10-7850K spec (the OpenMP baseline host). */
inline sim::DeviceSpec
ompCpu()
{
    return sim::a10_7850kCpu();
}

/** @return a single-core variant of the A10-7850K (serial builds). */
inline sim::DeviceSpec
serialCpu()
{
    sim::DeviceSpec spec = sim::a10_7850kCpu();
    spec.computeUnits = 1;
    spec.memEfficiency = 0.15; // one core's share of DDR3 bandwidth
    spec.name += " (1 core)";
    return spec;
}

/** Relative comparison with absolute floor, elementwise over spans. */
template <typename Real>
bool
almostEqual(std::span<const Real> a, std::span<const Real> b,
            double rel_tol = 1e-4, double abs_tol = 1e-6)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        double x = static_cast<double>(a[i]);
        double y = static_cast<double>(b[i]);
        double diff = std::fabs(x - y);
        double scale = std::max(std::fabs(x), std::fabs(y));
        if (diff > abs_tol && diff > rel_tol * scale)
            return false;
    }
    return true;
}

/** Scalar version of almostEqual. */
inline bool
almostEqualScalar(double x, double y, double rel_tol = 1e-4,
                  double abs_tol = 1e-6)
{
    double diff = std::fabs(x - y);
    double scale = std::max(std::fabs(x), std::fabs(y));
    return diff <= abs_tol || diff <= rel_tol * scale;
}

/**
 * Simulated seconds a kernel takes when it falls back to one host
 * core (the paper's LULESH C++ AMP compiler-bug path).
 */
double hostFallbackSeconds(const ir::KernelDescriptor &desc, u64 items,
                           Precision prec);

/**
 * A process-wide memo of one value: the most recently built one.  A
 * caller keeps one slot per (app, precision), so a long-lived process
 * retains one value of each however many sizes it has seen.
 *
 * The value is built outside the lock, so a caller never waits on
 * another key's build; a concurrent miss may build twice, and the
 * later build replaces the earlier.
 */
template <typename T>
class LatestSlot
{
  public:
    /**
     * @return the held value when @p matches accepts it, else the
     *         value of @p build(), which then replaces it.
     */
    template <typename Match, typename Build>
    std::shared_ptr<const T>
    get(Match &&matches, Build &&build)
    {
        std::shared_ptr<const T> held;
        {
            std::lock_guard<std::mutex> lock(mutex);
            held = value;
        }
        if (held && matches(*held))
            return held;
        std::shared_ptr<const T> built = build();
        std::lock_guard<std::mutex> lock(mutex);
        held = std::exchange(value, built); // freed after the unlock
        return built;
    }

  private:
    std::mutex mutex;
    std::shared_ptr<const T> value;
};

/** @return precision of Real. */
template <typename Real>
constexpr Precision
precisionOf()
{
    return sizeof(Real) == 4 ? Precision::Single : Precision::Double;
}

} // namespace hetsim::apps

#endif // HETSIM_APPS_APPSUPPORT_HH
