/**
 * @file
 * hetsim::serve - an in-process simulation job server.
 *
 * The Server turns the one-shot CLI verbs into a serving layer: jobs
 * (JobSpec) are submitted to a bounded priority queue guarded by an
 * admission policy, a pool of worker sessions executes them - each
 * worker owning its own runtime contexts while every session shares
 * the process-wide sim::TimingCache - and per-job results plus
 * latency distributions come back out.  Two front-ends drive it:
 * `hetsim batch` (JSONL job file in, JSONL results out) and
 * `hetsim serve --shots N` (closed-loop load generator).
 *
 * Determinism contract: the serialized result of a job depends only on
 * its spec (the simulator is deterministic), so a batch's result file
 * is byte-identical regardless of worker count.  Host-side latencies
 * are reported separately and never serialized.  On top of the host
 * execution, the server computes a *virtual cluster* schedule: jobs
 * are list-scheduled in deterministic dequeue order onto W virtual
 * workers using their *simulated* seconds as service time.  That gives
 * scaling numbers (makespan, throughput) that are reproducible on any
 * host - including single-core CI runners, where host wall-clock
 * cannot show parallel speedup for CPU-bound simulation work.
 *
 * Admission control when the queue is full:
 *  - reject: the incoming job completes immediately as Rejected;
 *  - shed:   the lowest-priority queued job (newest on a tie) is
 *            evicted as Shed - unless the incoming job's priority is
 *            no higher, in which case the incoming job is shed;
 *  - block:  submit() waits for space (live/closed-loop mode only; a
 *            prefilled batch would deadlock, so runBatch refuses it).
 *
 * Deadlines are queue-wait deadlines in host milliseconds, checked at
 * dequeue: a job still queued past its deadline completes as Expired
 * without ever running.
 *
 * Service deadlines ("service_deadline_ms" / --service-deadline-ms)
 * preempt *running* jobs: a non-functional co-execution job gets a
 * simulated-time budget per dispatch slice; when a slice exhausts it,
 * the executor checkpoints at a chunk boundary (the chunk-rescue
 * machinery's range bookkeeping), the checkpoint cost lands on the
 * timeline, and the remainder re-queues as a continuation - up to
 * --max-preemptions times, after which the job completes as Expired.
 * The trigger reads only simulated time, so a job's merged result
 * (total simulated seconds, preemption count, fault hash) is a pure
 * function of its spec and stays byte-identical at any worker count.
 *
 * Multi-tenancy: jobs carry a tenant label; dequeue picks the tenant
 * with the least weighted virtual service (served/weight, ties to the
 * lexicographically first name), then the tenant's highest-priority
 * oldest job.  Per-tenant quotas cap queued jobs per tenant.
 *
 * Autoscaling: with cfg.autoscale, dequeue is gated to the first
 * `activeWorkers` sessions of a maxWorkers-sized pool; queue depth
 * (or surrogate-predicted backlog) raises the gate at submit and a
 * drained queue lowers it, every decision recorded as an
 * AutoscaleEvent.  Scaling changes host-side concurrency only -
 * never any serialized result field.
 */

#ifndef HETSIM_SERVE_SERVER_HH
#define HETSIM_SERVE_SERVER_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "coexec/coexec.hh"
#include "common/stats.hh"
#include "serve/jobspec.hh"
#include "serve/tenant.hh"

namespace hetsim::model
{
class Surrogate;
}

namespace hetsim::serve
{

/** Policy applied when a job arrives and the queue is full. */
enum class Admission : u8
{
    Reject, ///< fail the incoming job immediately
    Shed,   ///< evict the lowest-priority queued job (newest on tie)
    Block,  ///< make submit() wait for space
};

/** @return CLI identifier, e.g. "reject". */
const char *toString(Admission admission);

/** @return the policy for a CLI alias (reject/shed/block). */
std::optional<Admission> admissionByName(const std::string &name);

/** Serving-layer configuration. */
struct ServerConfig
{
    /** Worker sessions (must be >= 1; validateConfig rejects 0). */
    u32 workers = 4;
    /** Queue capacity (0 = unbounded; admission never fires). */
    size_t queueCap = 0;
    Admission admission = Admission::Reject;
    /** Default queue-wait deadline applied to jobs that carry none
     *  (0 = no default). */
    double defaultDeadlineMs = 0.0;
    /**
     * Predict-admission (`--predict-admission`): at submit, ask the
     * surrogate for the job's recorded cost (jobClassKey x
     * jobDeviceKey); when known and the job carries a deadline, the
     * deadline is additionally read as a *virtual-latency* SLO - a job
     * whose predicted completion (queued predicted backlog spread over
     * the workers, plus its own predicted service time, in simulated
     * milliseconds) exceeds the deadline is Rejected at admission
     * instead of wasting a worker.  Jobs with unknown costs or no
     * deadline admit as before (fail open).  Decisions are made in
     * deterministic submit order from simulated quantities only, so
     * batch results stay byte-identical at any worker count; the
     * simulated seconds of jobs that do run are untouched.
     */
    bool predictAdmission = false;
    /** Cost oracle consulted by predict-admission (borrowed). */
    const model::Surrogate *surrogate = nullptr;
    /** Default service deadline (simulated ms) for jobs that carry
     *  none (0 = no default); see the file comment on preemption. */
    double defaultServiceDeadlineMs = 0.0;
    /** Preemptions a job may survive before it completes Expired. */
    u32 maxPreemptions = 16;
    /** Tenant weights and quotas (--tenants / --quota). */
    TenantTable tenants;
    /**
     * Worker-pool autoscaler (--autoscale): the pool holds maxWorkers
     * sessions but only the first `activeWorkers` (starting at
     * minWorkers) dequeue.  At submit, the target is
     * ceil(backlog / autoscaleBacklogSeconds) when the predicted
     * backlog is known and the horizon is set, otherwise
     * ceil(depth / scaleUpQueueFactor); only raises apply.  A drained
     * queue drops the gate back to minWorkers.
     */
    bool autoscale = false;
    u32 minWorkers = 1;
    /** Autoscale pool ceiling (0 = `workers`). */
    u32 maxWorkers = 0;
    /** Queued jobs per active worker before scaling up. */
    double scaleUpQueueFactor = 2.0;
    /** Predicted-backlog horizon per worker, simulated seconds
     *  (0 = use the queue-depth rule). */
    double autoscaleBacklogSeconds = 0.0;
    /**
     * Live result hook (the streaming front-end): invoked under the
     * server mutex as each terminal result records, in completion
     * order.  Must not call back into the Server.
     */
    std::function<void(const JobResult &)> onResult;
};

/** One autoscaler decision (deterministic event log). */
struct AutoscaleEvent
{
    u64 seq = 0;          ///< decision order
    u64 atSubmitSeq = 0;  ///< admissions seen when decided
    u32 fromWorkers = 0;  ///< gate before
    u32 toWorkers = 0;    ///< gate after
    u64 queueDepth = 0;   ///< queue depth at the decision
    /** Surrogate-predicted backlog, simulated seconds (0 unknown). */
    double backlogSeconds = 0.0;
    /** "queue-depth" | "backlog" | "drained". */
    std::string reason;
};

/** Percentile summary of one latency population (milliseconds). */
using LatencySummary = Percentiles;

/** Nearest-rank percentiles over @p values (order irrelevant). */
LatencySummary summarizeLatencies(std::vector<double> values);

/** Aggregate serving statistics after a drain. */
struct ServerReport
{
    u64 submitted = 0;
    u64 completed = 0; ///< terminal Ok
    u64 errors = 0;
    u64 rejected = 0;
    u64 shed = 0;
    u64 expired = 0;
    /** Preemption events across all jobs (slices re-queued). */
    u64 preemptions = 0;
    u32 workers = 0;
    /** Autoscaler gate when the report was taken. */
    u32 activeWorkers = 0;
    /** Autoscaler decision log, in decision order. */
    std::vector<AutoscaleEvent> autoscaleEvents;

    /** Per-tenant rollup (sorted by tenant name). */
    struct TenantStats
    {
        std::string tenant; ///< "" = anonymous
        double weight = 1.0;
        u64 submitted = 0;  ///< results carrying this tenant
        u64 completed = 0;
        u64 shed = 0;
        u64 expired = 0;
        u64 preemptions = 0;
        /** Mean dispatch sequence of the tenant's ran jobs - the
         *  fair-share observable: under contention a weighted-up
         *  tenant's jobs dispatch earlier on average. */
        double meanServiceSeq = 0.0;
        /** Simulated energy (J) over the tenant's Ok jobs. */
        double energyJoules = 0.0;
    };
    std::vector<TenantStats> tenants;
    /** Host wall latencies of jobs that ran. */
    LatencySummary queueWaitMs;
    LatencySummary serviceMs;
    /** Host wall seconds from resume()/start() to drained. */
    double wallSeconds = 0.0;
    /** Sum of simulated seconds over Ok jobs. */
    double simBusySeconds = 0.0;
    /** Sum of simulated energy (J) over Ok jobs, in id order. */
    double energyJoules = 0.0;
    /** Virtual-cluster makespan of the ran jobs on `workers` virtual
     *  workers (deterministic; see file comment). */
    double virtualMakespanSeconds = 0.0;

    /** @return Ok jobs per virtual-cluster second. */
    double
    simJobsPerSecond() const
    {
        return virtualMakespanSeconds > 0.0
                   ? static_cast<double>(completed) /
                         virtualMakespanSeconds
                   : 0.0;
    }

    /** @return Ok jobs per host wall second (machine-dependent). */
    double
    wallJobsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(completed) / wallSeconds
                   : 0.0;
    }
};

/**
 * Execute one job synchronously on the calling thread (no queueing,
 * no admission).  This is exactly what a worker session runs, so
 * tests can compare a served job against a standalone run - fault
 * schedules in particular must be bitwise identical.
 */
JobResult runJob(const JobSpec &spec);

/** Outcome of one budgeted dispatch slice (see runJobSlice). */
struct SliceOutcome
{
    /** Slice-local accounting (simSeconds etc. cover this slice). */
    JobResult result;
    /** The slice hit its budget and checkpointed. */
    bool preempted = false;
    /** Undone ranges at the checkpoint (continuation input). */
    std::vector<coexec::ItemRange> remaining;
};

/**
 * Execute one dispatch slice of a job: like runJob, but a
 * non-functional co-execution job additionally gets a simulated-time
 * @p budgetSeconds (0 = unlimited; runJob is exactly budget 0) and
 * may @p resume the undone ranges of a previously preempted slice.
 * Fault plans re-seed per slice from the spec, so a job's slice
 * sequence is a pure function of (spec, budget) - deterministic on
 * any worker.
 */
SliceOutcome runJobSlice(const JobSpec &spec, double budgetSeconds,
                         const std::vector<coexec::ItemRange> *resume);

/** Order-sensitive hash of a fault schedule (for JobResult). */
u64 faultScheduleHash(const std::vector<fault::FaultEvent> &schedule);

/**
 * List-schedule the jobs that ran (worker >= 0), in serviceSeq order,
 * onto @p workers virtual workers using simSeconds as service time;
 * fills simQueueWaitSeconds / simFinishSeconds.  @return the virtual
 * makespan.  With @p trace set, each placed job additionally emits a
 * simulated-time span on its virtual worker's "vcluster/v<i>" track
 * (cat "vserve") - the deterministic timeline the profile analyzer
 * attributes instead of the host wall-clock serve spans.
 */
double applyVirtualSchedule(std::vector<JobResult> &results,
                            u32 workers, bool trace = false);

/** The in-process job server (see file comment). */
class Server
{
  public:
    explicit Server(const ServerConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** @return the structured configuration error, if any (e.g. a
     *  zero-worker pool), without starting anything. */
    static std::optional<std::string>
    validateConfig(const ServerConfig &config);

    /**
     * Spawn the worker sessions.  @return a configuration error
     * instead of starting when the config is invalid.
     */
    std::optional<std::string> start();

    /** Stop dequeuing (queued jobs wait; running jobs finish). */
    void pause();

    /** Resume dequeuing; the drain wall-clock starts here. */
    void resume();

    /**
     * Submit one job (admission control applies; see file comment).
     * Jobs refused at admission complete immediately as
     * Rejected/Shed.  With Block admission this call waits for queue
     * space.
     */
    void submit(JobSpec spec);

    /** Wait until the queue is empty and every worker is idle. */
    void drain();

    /** Stop and join the workers (queued jobs are abandoned; call
     *  drain() first for an orderly finish). */
    void shutdown();

    /** Move the accumulated results out, sorted by ascending id. */
    std::vector<JobResult> takeResults();

    /** Aggregate statistics over the results accumulated so far
     *  (computes the virtual-cluster schedule). */
    ServerReport report();

  private:
    struct QueuedJob
    {
        JobSpec spec;
        double submitSec = 0.0; ///< host seconds (monotonic)
        u64 submitSeq = 0;      ///< admission order
        u64 depthAtSubmit = 0;  ///< queue depth seen at submit
        /** Predicted service seconds this job contributes to the
         *  predicted backlog (0 = cost unknown). */
        double predictedSeconds = 0.0;

        // --- Preemption continuation state ---------------------------
        /** Non-empty: resume these ranges instead of a fresh run. */
        std::vector<coexec::ItemRange> remaining{};
        u64 preemptions = 0; ///< slices already checkpointed
        /** Simulation totals accumulated over completed slices. */
        double accumSimSeconds = 0.0;
        double accumKernelSeconds = 0.0;
        double accumTransferSeconds = 0.0;
        double accumEnergyJoules = 0.0;
        u64 accumFaults = 0;
        /** Running fold of per-slice fault-schedule hashes. */
        u64 accumFaultHash = 0;

        bool continuation() const { return preemptions > 0; }
    };

    void workerLoop(u32 index);
    /** Pick the queue index to dequeue: the least-weighted-service
     *  tenant's highest-priority oldest job (see file comment). */
    size_t bestQueuedIndex() const;
    /** Record a terminal result and bump its status counter. */
    void recordResult(JobResult result);
    /** Echo spec fields into a fresh refusal/expiry result. */
    static JobResult specEcho(const JobSpec &spec, JobStatus status);
    /** Autoscaler ceiling (maxWorkers defaulted from workers). */
    u32 poolCeiling() const;
    /** Raise the worker gate if the submit-side rule says so (caller
     *  holds mtx). */
    void maybeScaleUp();
    /** Drop the gate to minWorkers on a drained queue (caller holds
     *  mtx). */
    void maybeScaleDown();
    /** Re-queue a preempted job's continuation (caller holds mtx). */
    void requeueContinuation(QueuedJob job);
    /** Wake a worker for one newly queued job. */
    void wakeWorker();

    ServerConfig cfg;
    std::vector<std::thread> workers;

    mutable std::mutex mtx;
    std::condition_variable workCv;  ///< queue -> workers
    std::condition_variable spaceCv; ///< queue space -> Block submits
    std::condition_variable idleCv;  ///< drain() wakeups
    std::vector<QueuedJob> queue;
    std::vector<JobResult> results;
    /** Sum of predictedSeconds over queued jobs (predict-admission
     *  backlog estimate; falls as jobs dequeue or are shed). */
    double predictedBacklogSeconds = 0.0;
    /** Fair-share bookkeeping: dispatches per tenant / queued jobs
     *  per tenant (quota accounting). */
    std::map<std::string, u64> tenantServed;
    std::map<std::string, u64> tenantQueued;
    /** Autoscaler state: dequeue gate + decision log. */
    u32 activeWorkers = 0;
    std::vector<AutoscaleEvent> autoscaleEvents;
    u64 preemptionEvents = 0;
    u64 submitSeq = 0;
    u64 serviceSeq = 0;
    u32 busyWorkers = 0;
    bool started = false;
    bool paused = false;
    bool stopping = false;
    double startWallSec = 0.0; ///< resume()/start() timestamp
    double drainWallSec = 0.0; ///< last drained timestamp
};

/** Results + report of one prefilled batch. */
struct BatchOutcome
{
    std::vector<JobResult> results; ///< ascending id
    ServerReport report;
};

/**
 * Run @p jobs as a deterministic prefilled batch: the server starts
 * paused, every job is submitted (admission and shedding therefore
 * happen in file order), then the workers drain the queue.  @return
 * nullopt and set @p error on an invalid configuration or a
 * Block-admission batch that would deadlock.
 */
std::optional<BatchOutcome> runBatch(const std::vector<JobSpec> &jobs,
                                     const ServerConfig &config,
                                     std::string &error);

} // namespace hetsim::serve

#endif // HETSIM_SERVE_SERVER_HH
