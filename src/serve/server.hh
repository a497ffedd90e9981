/**
 * @file
 * hetsim::serve - an in-process simulation job server.
 *
 * The Server turns the one-shot CLI verbs into a serving layer: jobs
 * (JobSpec) are submitted to an unbounded queue, a pool of worker
 * sessions executes every one of them - each worker owning its own
 * runtime contexts while every session shares the process-wide
 * sim::TimingCache - and per-job results plus latency distributions
 * come back out.  Every front-end drives it one way - submit, start(),
 * finish() - and only when it submits differs: `hetsim batch`
 * (runBatch) submits the whole file before start(), which prefills the
 * queue and fixes the dequeue order; `hetsim serve --stream` and
 * `--shots N` submit live.  Every job runs through runJobSlice, which
 * resolves its spec with resolveRun / resolveCoexec (jobspec.hh), as
 * the CLI's run-shaped verbs do.
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
 * lexicographically first name), then that tenant's oldest job.
 */

#ifndef HETSIM_SERVE_SERVER_HH
#define HETSIM_SERVE_SERVER_HH

#include <condition_variable>
#include <deque>
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

namespace hetsim::serve
{

/** Serving-layer configuration. */
struct ServerConfig
{
    /** Worker sessions (must be >= 1; validateConfig rejects 0). */
    u32 workers = 4;
    /** Default service deadline (simulated ms) for jobs that carry
     *  none (0 = no default); see the file comment on preemption. */
    double defaultServiceDeadlineMs = 0.0;
    /** Preemptions a job may survive before it completes Expired. */
    u32 maxPreemptions = 16;
    /** Tenant weights (--tenants). */
    TenantTable tenants;
    /**
     * Live result hook (the streaming front-end): invoked under the
     * server mutex as each terminal result records, in completion
     * order.  Must not call back into the Server.
     */
    std::function<void(const JobResult &)> onResult;
};

/** Aggregate serving statistics after a drain. */
struct ServerReport
{
    u64 submitted = 0;
    u64 completed = 0; ///< terminal Ok
    u64 errors = 0;
    u64 expired = 0;
    /** Preemption events across all jobs (slices re-queued). */
    u64 preemptions = 0;
    u32 workers = 0;

    /** Per-tenant rollup (sorted by tenant name). */
    struct TenantStats
    {
        std::string tenant; ///< "" = anonymous
        double weight = 1.0;
        u64 submitted = 0;  ///< results carrying this tenant
        u64 completed = 0;
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
    Percentiles queueWaitMs; ///< milliseconds
    Percentiles serviceMs;   ///< milliseconds
    /** Host wall seconds from start() to drained. */
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
 * Execute one job synchronously on the calling thread (no queueing).
 * This is exactly what a worker session runs, so tests can compare a
 * served job against a standalone run - fault schedules in particular
 * must be bitwise identical.
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
 * any worker.  A std::exception thrown while resolving or running the
 * job becomes its Error result, carrying what().
 */
SliceOutcome runJobSlice(const JobSpec &spec, double budgetSeconds,
                         const std::vector<coexec::ItemRange> *resume);

/** Order-sensitive hash of a fault schedule (for JobResult). */
u64 faultScheduleHash(const std::vector<fault::FaultEvent> &schedule);

/**
 * List-schedule the jobs that ran (worker >= 0), in serviceSeq order,
 * onto @p workers virtual workers using simSeconds as service time;
 * fills simQueueWaitSeconds / simFinishSeconds.  @return the virtual
 * makespan.  While the tracer is on, each placed job also emits a
 * simulated-time span on its virtual worker's "vcluster/v<i>" track
 * (cat "vserve") - the deterministic timeline the profile analyzer
 * attributes instead of the host wall-clock serve spans.
 */
double applyVirtualSchedule(std::vector<JobResult> &results,
                            u32 workers);

/** Results + report of one drained server. */
struct BatchOutcome
{
    std::vector<JobResult> results; ///< ascending id
    ServerReport report;
};

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
     * Spawn the worker sessions; the drain wall-clock starts here.
     * Jobs submitted before start() prefill the queue.  @return a
     * configuration error instead of starting when the config is
     * invalid.
     */
    std::optional<std::string> start();

    /** Queue one job; a worker runs it once the server has started. */
    void submit(JobSpec spec);

    /** Wait until the queue is empty and every worker is idle. */
    void drain();

    /** Stop and join the workers (queued jobs are abandoned; call
     *  drain() first for an orderly finish). */
    void shutdown();

    /** Move the accumulated results out, sorted by ascending id. */
    std::vector<JobResult> takeResults();

    /**
     * The one tail of every front-end: drain, report (scheduling the
     * virtual cluster once, with its vcluster spans), move the results
     * out in id order, and stop the workers.
     */
    BatchOutcome finish();

  private:
    struct QueuedJob
    {
        JobSpec spec;
        double submitSec = 0.0; ///< host seconds (monotonic)
        u64 submitSeq = 0;      ///< submit order
        u64 depthAtSubmit = 0;  ///< queue depth seen at submit

        // --- Preemption continuation state ---------------------------
        /** Non-empty: resume these ranges instead of a fresh run. */
        std::vector<coexec::ItemRange> remaining{};
        u64 preemptions = 0; ///< slices already checkpointed
        /** The checkpointed slices, folded into one partial result. */
        JobResult folded{};

        bool continuation() const { return preemptions > 0; }
    };

    /** One tenant's queued jobs, oldest first, and its fair share. */
    struct TenantQueue
    {
        std::deque<QueuedJob> jobs;
        u64 served = 0;      ///< dispatches so far
        double weight = 1.0; ///< the tenant's policy weight
    };

    void workerLoop(u32 index);
    /** Queue @p job at the back of its tenant's queue (caller holds
     *  mtx). */
    void enqueue(QueuedJob job);
    /** The tenant to dequeue from: the least-weighted-service tenant
     *  with a queued job (see file comment; caller holds mtx). */
    TenantQueue &nextTenant();
    /** Record a terminal result and bump its status counter. */
    void recordResult(JobResult result);
    /** Aggregate statistics over the results accumulated so far
     *  (schedules the virtual cluster). */
    ServerReport report();
    /** Re-queue a preempted job's continuation (caller holds mtx). */
    void requeueContinuation(QueuedJob job);

    ServerConfig cfg;
    std::vector<std::thread> workers;

    mutable std::mutex mtx;
    std::condition_variable workCv; ///< queue -> workers
    std::condition_variable idleCv; ///< drain() wakeups
    /** Per-tenant queues, by name; a tenant's entry stays once made. */
    std::map<std::string, TenantQueue> tenantQueues;
    u64 queued = 0; ///< jobs over all tenantQueues
    std::vector<JobResult> results;
    u64 preemptionEvents = 0;
    u64 submitSeq = 0;
    u64 serviceSeq = 0;
    u32 busyWorkers = 0;
    bool started = false;
    bool stopping = false;
    double startWallSec = 0.0; ///< start() timestamp
    double drainWallSec = 0.0; ///< last drained timestamp
};

/**
 * Run @p jobs as a deterministic prefilled batch: every job is
 * submitted in file order before the workers start, then they drain
 * the queue.  @return nullopt and set @p error on an invalid
 * configuration.
 */
std::optional<BatchOutcome> runBatch(const std::vector<JobSpec> &jobs,
                                     const ServerConfig &config,
                                     std::string &error);

} // namespace hetsim::serve

#endif // HETSIM_SERVE_SERVER_HH
