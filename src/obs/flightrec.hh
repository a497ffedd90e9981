/**
 * @file
 * hetsim::obs - failed-job flight recorder.
 *
 * Keeping full spans for every job in a 1000-node campaign would blow
 * the trace budget, but the jobs anyone debugs are the ones that went
 * wrong.  The flight recorder keeps the black box only for those: a
 * job that failed, was preempted or expired past its service
 * deadline, missed its fleet SLO, or was rescued after a node death
 * gets its full record - spans, fault events, and the queue state it
 * saw - while healthy jobs keep nothing beyond the normal rollup
 * summaries.
 *
 * Retention is deterministic: the recorder holds at most `capacity`
 * records and, when over budget, evicts the records with the highest
 * job ids.  The surviving set is therefore a pure function of the
 * offered records, not of arrival order, so sharded and serial runs
 * keep byte-identical black boxes.  snapshot() returns records sorted
 * by (jobId, kind).
 */

#ifndef HETSIM_OBS_FLIGHTREC_HH
#define HETSIM_OBS_FLIGHTREC_HH

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/tracer.hh"

namespace hetsim::obs
{

/** The retained black box of one job that went wrong. */
struct FlightRecord
{
    /** Stable id of the job (serve jobId, fleet job index + 1). */
    u64 jobId = 0;
    /** Why it was retained: "error" | "expired" | "preempted" |
     *  "slo_miss" | "retry_after_node_death". */
    std::string kind;
    /** Job name / class name. */
    std::string what;
    /** Where it ran or was queued ("serve", node name, ...). */
    std::string where;
    /** Free-form detail (error message, preemption info, ...). */
    std::string detail;
    double arrivalSeconds = 0.0;
    double startSeconds = 0.0;
    double finishSeconds = 0.0;
    /** Service deadline of a preempted serve job, or the fleet SLO;
     *  0 when none. */
    double deadlineMs = 0.0;
    /** Queue depth the job observed at submit time. */
    u64 queueDepth = 0;
    /** Injected fault events the job saw, "<kind> <device> <seq>". */
    std::vector<std::string> faultEvents;
    /** Full spans for the job (track ids index FlightRecorder track
     *  names captured alongside, or the global tracer's). */
    std::vector<TraceEvent> spans;
};

/** Process-wide recorder of failed/expired job black boxes. */
class FlightRecorder
{
  public:
    void setEnabled(bool on)
    {
        recording.store(on, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return recording.load(std::memory_order_relaxed);
    }

    /** Cap the number of retained records (lowest job ids win). */
    void setCapacity(size_t cap);

    /** Offer a record; kept unless the budget is full of lower ids. */
    void record(FlightRecord rec);

    /** @return retained records sorted by (jobId, kind). */
    std::vector<FlightRecord> snapshot() const;

    /** @return how many offered records were evicted or refused. */
    u64 dropped() const;

    /** Drop every record and reset the dropped counter. */
    void clear();

    /** @return the process-wide recorder (disabled until enabled). */
    static FlightRecorder &global();

  private:
    std::atomic<bool> recording{false};
    mutable std::mutex mtx;
    size_t capacity = 256;
    u64 droppedRecords = 0;
    /** (jobId, kind) -> record; ordered = eviction picks the max. */
    std::map<std::pair<u64, std::string>, FlightRecord> records;
};

} // namespace hetsim::obs

#endif // HETSIM_OBS_FLIGHTREC_HH
