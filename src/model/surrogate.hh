/**
 * @file
 * hetsim::model - the surrogate performance model.
 *
 * A Surrogate holds, per (kernel, device, model, precision, workgroup)
 * group, five fitted roofline terms (issue / memory / LDS / latency /
 * launch - see fit.hh) and composes them the way the simulator
 * composes a launch:
 *
 *   seconds = launch + max(issue, memory, lds, latency)
 *
 * with the boundedness label from obs::dominantTerm, the same argmax
 * the profiler applies to observations.  Predictions are a map lookup
 * plus a handful of multiply-adds, so what-if queries (frequency
 * sweeps, coexec split ratios) answer in microseconds instead of
 * re-simulating.
 *
 * Beside the five global forms each group keeps a piecewise
 * refinement: a per-items clock fit at every distinct item count the
 * observations covered (Extra-P's local-refinement discipline).  At a
 * fixed item count every simulator term is exactly a + b/fc + c/fm -
 * even the latency term, whose cache-simulated miss ratios drift
 * non-analytically with working-set size and so defeat any small
 * shared-coefficient basis across item counts.  Queries inside the
 * observed items range evaluate the two bracketing per-items fits at
 * the query clocks and interpolate the term values linearly in items;
 * queries outside the range fall back to the global closed forms.
 *
 * Two kinds of exact anchors ride beside the fitted forms:
 *
 *  - observation anchors: the per-launch mean seconds of every
 *    signature the fit saw, kept bit-exact so a prediction at an
 *    already-observed point can be checked against the simulator; and
 *  - job costs: (class, device) -> simulated seconds pairs recorded
 *    from real fleet probes.  Fleet class costing reads these, never
 *    the fitted curves, so a campaign costed from a model file
 *    reproduces the probe path bitwise (doubles round-trip through
 *    the model file at 17 significant digits).
 *
 * Serialization is JSONL, schema "hetsim.model.v1": a header line,
 * then "group" / "refine" / "anchor" / "job_cost" records with fixed
 * key order.
 * Groups live in ordered maps and doubles print round-trip exact, so
 * equal fits are byte-equal files (deterministic fits).
 */

#ifndef HETSIM_MODEL_SURROGATE_HH
#define HETSIM_MODEL_SURROGATE_HH

#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "model/fit.hh"
#include "obs/profile.hh"

namespace hetsim::model
{

/** Fit-group identity: clocks and items vary inside a group. */
struct GroupKey
{
    std::string kernel;
    std::string device;
    /** Programming-model alias as observed ("opencl", "openmp", ...). */
    std::string model;
    u32 precisionBits = 32;
    u32 workgroup = 0;

    bool operator<(const GroupKey &o) const
    {
        return std::tie(kernel, device, model, precisionBits, workgroup) <
               std::tie(o.kernel, o.device, o.model, o.precisionBits,
                        o.workgroup);
    }
    bool operator==(const GroupKey &o) const
    {
        return kernel == o.kernel && device == o.device &&
               model == o.model && precisionBits == o.precisionBits &&
               workgroup == o.workgroup;
    }
};

/** One composed prediction (per launch). */
struct Prediction
{
    double seconds = 0.0;
    double issueSeconds = 0.0;
    double memSeconds = 0.0;
    double ldsSeconds = 0.0;
    double latencySeconds = 0.0;
    double launchSeconds = 0.0;
    /** "compute" | "memory" | "lds" | "latency" | "launch",
     *  obs::dominantTerm of the predicted terms. */
    const char *bound = "compute";
};

/**
 * Per-items refinement: the five terms refitted over only the points
 * that share one item count, where each term is exactly clock-separable
 * (a + b/fc + c/fm).  Queries between two refined item counts blend
 * the bracketing fits linearly in items.
 */
struct ItemsFit
{
    double items = 0.0;
    /** Clock points folded into this per-items fit. */
    u64 points = 0;
    TermFit issue;
    TermFit mem;
    TermFit lds;
    TermFit latency;
    TermFit launch;
};

/** Fitted terms + diagnostics for one group. */
struct KernelModel
{
    TermFit issue;
    TermFit mem;
    TermFit lds;
    TermFit latency;
    TermFit launch;
    /** Per-items refinements, sorted by items; may be empty. */
    std::vector<ItemsFit> refined;
    /** Distinct (items, clocks) points the fit saw. */
    u64 points = 0;
    /** Total launches folded into those points. */
    u64 launches = 0;
    /** Max over terms of the selected forms' LOOCV error. */
    double cvRelErr = 0.0;
    /** Max composed-total training relative error. */
    double trainRelErr = 0.0;

    Prediction predict(double items, double coreMhz, double memMhz) const;
};

/** Exact per-signature observation kept beside the fit. */
struct Anchor
{
    u64 items = 0;
    double coreMhz = 0.0;
    double memMhz = 0.0;
    u64 launches = 0;
    /** Per-launch mean seconds, bit-exact from the profiler. */
    double seconds = 0.0;
    /** Per-launch population variance of seconds. */
    double varSeconds = 0.0;
};

/** Outcome of a two-device split-ratio search. */
struct Split
{
    /** Share of items on the first device, in [0, 1]. */
    double firstShare = 0.0;
    /** Predicted co-executed seconds, max of the two sides. */
    double seconds = 0.0;
    Prediction first;
    Prediction second;
};

class Surrogate
{
  public:
    /**
     * Fit one KernelModel per group found in @p observations and
     * record every observation as an exact anchor.  Existing groups
     * with the same key are replaced.  @return groups fitted.
     */
    u64 fitFromObservations(const std::vector<obs::ObsRecord> &observations);

    const std::map<GroupKey, KernelModel> &groups() const
    {
        return fitted;
    }

    /** @return the group's model, or nullptr. */
    const KernelModel *group(const GroupKey &key) const;

    /**
     * Find the best group for a kernel on a device: exact model match
     * preferred when @p model is non-empty, otherwise any model;
     * ties broken by launch count then key order.  @return nullptr
     * when nothing matches; @p keyOut receives the winner's key.
     */
    const KernelModel *findGroup(const std::string &kernel,
                                 const std::string &device,
                                 u32 precisionBits,
                                 const std::string &model,
                                 GroupKey *keyOut = nullptr) const;

    /** Compose a prediction; nullopt when the group is unknown. */
    std::optional<Prediction> predict(const GroupKey &key, double items,
                                      double coreMhz, double memMhz) const;

    /** @return the exact observed per-launch mean at a signature the
     *  fit saw, or nullopt. */
    std::optional<double> anchorSeconds(const GroupKey &key, u64 items,
                                        double coreMhz,
                                        double memMhz) const;

    /** All anchors of one group, sorted by (items, core, mem). */
    const std::vector<Anchor> *anchorsOf(const GroupKey &key) const;

    /**
     * Bisect the split x of items between two fitted groups that
     * minimizes max(firstSeconds(x*n), secondSeconds((1-x)*n)).
     * @return nullopt when either group is unknown.
     */
    std::optional<Split> splitRatio(const GroupKey &first, double coreA,
                                    double memA, const GroupKey &second,
                                    double coreB, double memB,
                                    double items) const;

    /** Record an exact (class, device) -> seconds cost anchor. */
    void setJobCost(const std::string &jobClass, const std::string &device,
                    double seconds);

    /** @return the exact recorded cost, or nullopt. */
    std::optional<double> jobCost(const std::string &jobClass,
                                  const std::string &device) const;

    u64 groupCount() const { return fitted.size(); }
    u64 anchorCount() const;
    /** Total per-items refinements across groups. */
    u64 refineCount() const;
    u64 jobCostCount() const { return jobCosts.size(); }

    bool empty() const
    {
        return fitted.empty() && jobCosts.empty();
    }

    /** Deterministic digest of every fit, anchor, and job cost. */
    u64 fitDigest() const;

    /** Write the "hetsim.model.v1" JSONL stream (byte-stable). */
    void save(std::ostream &os) const;

    /**
     * Parse a "hetsim.model.v1" stream, replacing current contents.
     * @p name labels errors ("<name> line N: ...").  @return false and
     * set @p error on malformed input; the surrogate is left empty.
     */
    bool load(std::istream &is, const std::string &name,
              std::string &error);

  private:
    std::map<GroupKey, KernelModel> fitted;
    std::map<GroupKey, std::vector<Anchor>> anchors;
    std::map<std::pair<std::string, std::string>, double> jobCosts;
};

/**
 * Parse observation JSONL (writeObservationsJsonl's schema) back into
 * records, e.g. for `hetsim predict --fit obs.jsonl`.  Lines must be
 * flat objects with the core numeric keys; "mean_seconds" /
 * "var_seconds" are honored when present and derived otherwise.
 * @return nullopt and set @p error ("<name> line N: ...") on bad input.
 */
std::optional<std::vector<obs::ObsRecord>>
loadObservations(std::istream &is, const std::string &name,
                 std::string &error);

} // namespace hetsim::model

#endif // HETSIM_MODEL_SURROGATE_HH
