#include "server.hh"

#include <algorithm>
#include <chrono>

#include "apps/coexec_kernels.hh"
#include "coexec/coexec.hh"
#include "common/logging.hh"
#include "core/workload.hh"
#include "fleet/cluster.hh"
#include "obs/flightrec.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "runtime/context.hh"
#include "sim/timing_cache.hh"

namespace hetsim::serve
{

namespace
{

/** Host monotonic seconds (latency accounting only, never results). */
double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

const std::vector<double> &
latencyBucketBoundsMs()
{
    static const std::vector<double> bounds{
        0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000, 10000};
    return bounds;
}

} // namespace

u64
faultScheduleHash(const std::vector<fault::FaultEvent> &schedule)
{
    sim::HashMix h;
    h.mix(schedule.size());
    for (const auto &event : schedule) {
        h.mix(static_cast<u64>(event.kind));
        h.mixString(event.device);
        h.mix(event.sequence);
    }
    return h.digest();
}

namespace
{

/** Single-device job: the `hetsim run` path. */
void
runSingleDeviceJob(const JobSpec &spec, JobResult &res)
{
    if (spec.faultsGiven) {
        res.error = "fault injection needs a co-execution job "
                    "(set \"devices\")";
        return;
    }
    auto wl = core::workloadByName(spec.app);
    if (!wl) {
        res.error = "unknown app '" + spec.app + "'";
        return;
    }
    auto model = core::modelByName(spec.model);
    if (!model) {
        res.error = "unknown model '" + spec.model + "'";
        return;
    }
    auto device = sim::deviceByName(spec.device);
    if (!device) {
        res.error = "unknown device '" + spec.device + "'";
        return;
    }
    core::WorkloadConfig cfg;
    cfg.scale = spec.scale;
    cfg.functional = spec.functional;
    cfg.precision = spec.doublePrecision ? Precision::Double
                                         : Precision::Single;
    cfg.freq = spec.freq;
    auto run = wl->run(*model, *device, cfg);

    res.status = JobStatus::Ok;
    res.simSeconds = run.seconds;
    res.kernelSeconds = run.kernelSeconds;
    res.transferSeconds = run.transferSeconds;
    res.energyJoules = run.energyJoules;
    res.checksum = run.checksum;
    res.functionalRun = spec.functional;
    res.validated = run.validated;
}

/** Co-execution job: the `hetsim coexec` path, with a per-job plan.
 *  With a positive budget the launch may checkpoint (preempted /
 *  remaining); @p resume continues a previously checkpointed one. */
void
runCoexecJob(const JobSpec &spec, double budgetSeconds,
             const std::vector<coexec::ItemRange> *resume,
             JobResult &res, bool &preempted,
             std::vector<coexec::ItemRange> &remaining)
{
    auto pool = coexec::DevicePool::parse(spec.devices);
    if (!pool) {
        res.error = "unknown device pool '" + spec.devices + "'";
        return;
    }
    auto policy = coexec::policyByName(spec.policy);
    if (!policy) {
        res.error = "unknown policy '" + spec.policy + "'";
        return;
    }
    if (!spec.backend.empty()) {
        auto backend = backendByName(spec.backend);
        if (!backend) {
            res.error = "unknown backend '" + spec.backend + "'";
            return;
        }
        pool->setGpuModel(*backend);
    }
    Precision prec = spec.doublePrecision ? Precision::Double
                                          : Precision::Single;
    auto kernel =
        apps::coex::coKernelByName(spec.app, spec.scale, prec);
    if (!kernel) {
        res.error = "app '" + spec.app +
                    "' has no co-execution kernel";
        return;
    }

    coexec::ExecOptions opts;
    opts.policy = *policy;
    opts.functional = spec.functional;
    opts.budgetSeconds = budgetSeconds;
    opts.resume = resume;
    // Per-job plan: seeded from the job's own config, so equal seeds
    // reproduce the standalone `hetsim coexec` schedule bitwise no
    // matter which worker session runs the job.  Each slice restarts
    // the plan, so a preempted job's slice sequence is equally a pure
    // function of the spec.
    fault::FaultPlan plan(spec.faultConfig);
    if (spec.faultsGiven)
        opts.faults = &plan;

    coexec::CoExecutor executor(*pool, prec);
    auto run = executor.execute(*kernel, opts);
    preempted = run.preempted;
    remaining = std::move(run.remaining);
    // Black-box context for the flight recorder: the injected
    // schedule this job was exposed to, in injection order.  Filled
    // before the failure return - failed jobs are the ones recorded.
    if (spec.faultsGiven && obs::FlightRecorder::global().enabled()) {
        for (const fault::FaultEvent &event : plan.schedule()) {
            res.faultEvents.push_back(
                std::string(fault::toString(event.kind)) + " " +
                event.device + " " + std::to_string(event.sequence));
        }
    }
    if (!run.ok) {
        res.error = run.error;
        return;
    }

    res.status = JobStatus::Ok;
    res.simSeconds = run.seconds;
    for (const auto &dev : run.devices)
        res.kernelSeconds += dev.kernelSeconds;
    res.transferSeconds = run.transferSeconds;
    res.energyJoules = run.energyJoules;
    res.checksum = run.checksum;
    res.functionalRun = run.functional;
    res.validated = run.validated;
    res.faultsInjected = run.faultsInjected;
    if (spec.faultsGiven)
        res.faultScheduleHash = faultScheduleHash(plan.schedule());
}

} // namespace

SliceOutcome
runJobSlice(const JobSpec &spec, double budgetSeconds,
            const std::vector<coexec::ItemRange> *resume)
{
    SliceOutcome slice;
    JobResult &res = slice.result;
    res.id = spec.id;
    res.app = spec.app;
    res.tenant = spec.tenant;
    if (spec.coexec()) {
        res.devices = spec.devices;
        res.policy = spec.policy;
    } else {
        res.model = spec.model;
        res.device = spec.device;
    }
    res.status = JobStatus::Error;
    if (spec.coexec()) {
        runCoexecJob(spec, budgetSeconds, resume, res, slice.preempted,
                     slice.remaining);
    } else {
        runSingleDeviceJob(spec, res);
    }
    return slice;
}

JobResult
runJob(const JobSpec &spec)
{
    // Budget 0 = unlimited: a plain run is the one-slice special case.
    return runJobSlice(spec, 0.0, nullptr).result;
}

double
applyVirtualSchedule(std::vector<JobResult> &results, u32 workers,
                     bool trace)
{
    if (workers == 0)
        return 0.0;
    std::vector<JobResult *> ran;
    for (auto &res : results) {
        if (res.worker >= 0)
            ran.push_back(&res);
    }
    std::sort(ran.begin(), ran.end(),
              [](const JobResult *a, const JobResult *b) {
                  return a->serviceSeq < b->serviceSeq;
              });
    // Deterministic list schedule: the next job in dequeue order
    // starts on the earliest-free virtual worker (lowest index on
    // ties, so the assignment is a pure function of the results).
    // The fleet cluster scheduler's least-loaded policy is exactly
    // that rule, so the virtual cluster is a W-node fleet.
    fleet::Cluster cluster(workers, fleet::Policy::LeastLoaded);
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing = trace && tracer.enabled();
    std::vector<obs::TrackId> tracks;
    if (tracing) {
        tracks.reserve(workers);
        for (u32 w = 0; w < workers; ++w)
            tracks.push_back(
                tracer.track("vcluster/v" + std::to_string(w)));
    }
    for (JobResult *res : ran) {
        const auto placed = cluster.place(
            0.0, [&](u32) { return res->simSeconds; });
        res->simQueueWaitSeconds = placed->start;
        res->simFinishSeconds = placed->start + res->simSeconds;
        if (tracing && res->simSeconds > 0.0) {
            tracer.span(tracks[placed->node],
                        "job " + std::to_string(res->id) + " " +
                            res->app,
                        "vserve", placed->start, res->simSeconds);
        }
    }
    return cluster.makespan();
}

// --- Server ------------------------------------------------------------

Server::Server(const ServerConfig &config) : cfg(config) {}

Server::~Server()
{
    shutdown();
}

std::optional<std::string>
Server::validateConfig(const ServerConfig &config)
{
    if (config.workers == 0) {
        return std::string(
            "server needs at least one worker (got --workers 0)");
    }
    if (config.defaultServiceDeadlineMs < 0.0)
        return std::string("default service deadline must be >= 0 ms");
    return std::nullopt;
}

std::optional<std::string>
Server::start()
{
    if (auto err = validateConfig(cfg))
        return err;
    {
        std::lock_guard<std::mutex> lk(mtx);
        if (started)
            return std::string("server already started");
        started = true;
        stopping = false;
        startWallSec = nowSeconds();
    }
    obs::Metrics &metrics = obs::Metrics::global();
    metrics.defineHistogram("host.serve.queue_wait_ms",
                            latencyBucketBoundsMs());
    metrics.defineHistogram("host.serve.service_ms",
                            latencyBucketBoundsMs());
    metrics.set("serve.workers", cfg.workers);
    workers.reserve(cfg.workers);
    for (u32 w = 0; w < cfg.workers; ++w)
        workers.emplace_back([this, w] { workerLoop(w); });
    return std::nullopt;
}

void
Server::pause()
{
    std::lock_guard<std::mutex> lk(mtx);
    paused = true;
}

void
Server::resume()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        if (!paused)
            return;
        paused = false;
        startWallSec = nowSeconds();
    }
    workCv.notify_all();
}

void
Server::enqueue(QueuedJob job)
{
    auto [it, fresh] = tenantQueues.try_emplace(job.spec.tenant);
    if (fresh)
        it->second.weight = cfg.tenants.policy(job.spec.tenant).weight;
    it->second.jobs.push_back(std::move(job));
    ++queued;
}

Server::TenantQueue &
Server::nextTenant()
{
    // Weighted fair-share: the queued tenant with the least virtual
    // service (dispatches / weight); the map runs in name order, so a
    // tie goes to the lexicographically first name.  Every push takes
    // a fresh submitSeq, so a tenant's front job is its oldest.  With
    // no tenancy configured and unlabeled jobs there is exactly one
    // tenant, which reduces to oldest-first.
    TenantQueue *best = nullptr;
    double bestVirtual = 0.0;
    for (auto &[name, tq] : tenantQueues) {
        if (tq.jobs.empty())
            continue;
        const double virt = static_cast<double>(tq.served) / tq.weight;
        if (best == nullptr || virt < bestVirtual) {
            best = &tq;
            bestVirtual = virt;
        }
    }
    return *best;
}

JobResult
Server::expiredEcho(const JobSpec &spec)
{
    JobResult res;
    res.id = spec.id;
    res.app = spec.app;
    res.model = spec.model;
    res.device = spec.device;
    res.devices = spec.devices;
    res.policy = spec.policy;
    res.tenant = spec.tenant;
    res.status = JobStatus::Expired;
    res.serviceDeadlineMs = spec.serviceDeadlineMs;
    return res;
}

void
Server::recordResult(JobResult result)
{
    // Caller holds mtx.
    obs::Metrics &metrics = obs::Metrics::global();
    const char *statusName = nullptr;
    switch (result.status) {
      case JobStatus::Ok:
        metrics.add("serve.completed");
        statusName = "completed";
        break;
      case JobStatus::Error:
        metrics.add("serve.errors");
        statusName = "errors";
        break;
      case JobStatus::Expired:
        metrics.add("serve.expired");
        statusName = "expired";
        break;
    }
    // Per-tenant counters ("-" = the anonymous tenant).
    if (metrics.enabled()) {
        const std::string t =
            result.tenant.empty() ? "-" : result.tenant;
        metrics.add("serve.tenant." + t + "." + statusName);
    }
    // Every non-Ok terminal is a flight-recorder candidate: this is
    // the single funnel all statuses pass through, so nothing that
    // went wrong can slip past the recorder.
    obs::FlightRecorder &recorder = obs::FlightRecorder::global();
    if (recorder.enabled() && result.status != JobStatus::Ok) {
        obs::FlightRecord rec;
        rec.jobId = result.id;
        rec.kind = toString(result.status);
        rec.what = result.app;
        rec.where = result.worker >= 0
                        ? "w" + std::to_string(result.worker)
                        : "serve";
        rec.detail = result.error;
        rec.startSeconds = result.hostQueueWaitMs * 1e-3;
        rec.finishSeconds =
            (result.hostQueueWaitMs + result.hostServiceMs) * 1e-3;
        rec.queueDepth = result.queueDepthAtSubmit;
        rec.faultEvents = result.faultEvents;
        recorder.record(std::move(rec));
    }
    results.push_back(std::move(result));
    // Live emission (streaming front-end), in completion order.
    if (cfg.onResult)
        cfg.onResult(results.back());
}

void
Server::submit(JobSpec spec)
{
    // Only an *absent* service deadline inherits the server default:
    // an explicit "service_deadline_ms": 0 means "this job has no
    // deadline", not "use the default".
    if (!spec.serviceDeadlineGiven && spec.serviceDeadlineMs <= 0.0)
        spec.serviceDeadlineMs = cfg.defaultServiceDeadlineMs;
    obs::Metrics::global().add("serve.submitted");

    std::unique_lock<std::mutex> lk(mtx);
    const u64 depth = queued;
    enqueue(QueuedJob{std::move(spec), nowSeconds(), submitSeq++, depth});
    lk.unlock();
    workCv.notify_one();
}

void
Server::requeueContinuation(QueuedJob job)
{
    // Caller holds mtx.  A fresh submitSeq sends the continuation to
    // the back of its tenant's queue, so queued peers get a turn
    // between slices.
    job.submitSeq = submitSeq++;
    job.submitSec = nowSeconds();
    enqueue(std::move(job));
    workCv.notify_one();
}

void
Server::workerLoop(u32 index)
{
    // Every context this session constructs prefixes its trace tracks
    // ("w0/R9 280X/compute", ...), and the session's own host-side
    // spans land on one "serve/w<i>" track per worker.
    rt::ScopedSessionLabel label("w" + std::to_string(index));
    obs::Tracer &tracer = obs::Tracer::global();
    const obs::TrackId track =
        tracer.track("serve/w" + std::to_string(index));

    while (true) {
        std::unique_lock<std::mutex> lk(mtx);
        workCv.wait(lk, [&] {
            return stopping || (!paused && queued > 0);
        });
        if (stopping)
            break;
        TenantQueue &tenant = nextTenant();
        QueuedJob job = std::move(tenant.jobs.front());
        tenant.jobs.pop_front();
        --queued;
        tenant.served += 1;
        ++busyWorkers;
        const u64 seq = serviceSeq++;
        const double epochSec = startWallSec;
        lk.unlock();

        const double dequeueSec = nowSeconds();
        const double waitMs = (dequeueSec - job.submitSec) * 1e3;

        // Service-deadline budget: non-functional co-execution jobs
        // get serviceDeadlineMs of simulated time per slice
        // (functional bodies cannot checkpoint live host buffers and
        // run to completion; see DESIGN).
        const double budgetSeconds =
            (job.spec.coexec() && !job.spec.functional &&
             job.spec.serviceDeadlineMs > 0.0)
                ? job.spec.serviceDeadlineMs * 1e-3
                : 0.0;
        SliceOutcome slice;
        {
            // Per-job `--no-timing-cache`: bypass the shared memo on
            // this thread only; concurrent sessions keep hitting it.
            sim::TimingCache::ScopedBypass bypass(
                !job.spec.timingCache);
            slice = runJobSlice(job.spec, budgetSeconds,
                                job.continuation() ? &job.remaining
                                                   : nullptr);
        }
        const double doneSec = nowSeconds();
        obs::Metrics &metrics = obs::Metrics::global();

        if (slice.preempted &&
            slice.result.status == JobStatus::Ok) {
            // The slice checkpointed: fold its simulated accounting
            // into the continuation and re-queue (or expire once the
            // preemption budget is gone).  All folded quantities are
            // simulation-derived, so the merged result stays a pure
            // function of the spec.
            job.accumSimSeconds += slice.result.simSeconds;
            job.accumKernelSeconds += slice.result.kernelSeconds;
            job.accumTransferSeconds += slice.result.transferSeconds;
            job.accumEnergyJoules += slice.result.energyJoules;
            job.accumFaults += slice.result.faultsInjected;
            if (job.spec.faultsGiven) {
                sim::HashMix fold;
                fold.mix(job.accumFaultHash);
                fold.mix(slice.result.faultScheduleHash);
                job.accumFaultHash = fold.digest();
            }
            job.remaining = std::move(slice.remaining);
            job.preemptions += 1;
            metrics.add("serve.preemptions");
            if (metrics.enabled()) {
                const std::string t = job.spec.tenant.empty()
                                          ? "-"
                                          : job.spec.tenant;
                metrics.add("serve.tenant." + t + ".preemptions");
            }
            if (tracer.enabled()) {
                tracer.instant(track,
                               "preempt job " +
                                   std::to_string(job.spec.id),
                               "preempt", doneSec - epochSec);
            }
            obs::FlightRecorder &recorder =
                obs::FlightRecorder::global();
            if (recorder.enabled()) {
                obs::FlightRecord rec;
                rec.jobId = job.spec.id;
                rec.kind = "preempted";
                rec.what = job.spec.app;
                rec.where = "w" + std::to_string(index);
                rec.detail = csprintf(
                    "service deadline %g ms: slice %llu "
                    "checkpointed %zu range(s)",
                    job.spec.serviceDeadlineMs,
                    static_cast<unsigned long long>(job.preemptions),
                    job.remaining.size());
                rec.deadlineMs = job.spec.serviceDeadlineMs;
                rec.queueDepth = job.depthAtSubmit;
                recorder.record(std::move(rec));
            }
            lk.lock();
            preemptionEvents += 1;
            if (job.preemptions > cfg.maxPreemptions) {
                JobResult res = expiredEcho(job.spec);
                res.error = csprintf(
                    "service deadline %g ms: preempted %llu times "
                    "(max %u)",
                    job.spec.serviceDeadlineMs,
                    static_cast<unsigned long long>(job.preemptions),
                    cfg.maxPreemptions);
                res.preemptions = job.preemptions;
                res.hostQueueWaitMs = waitMs;
                res.queueDepthAtSubmit = job.depthAtSubmit;
                recordResult(std::move(res));
            } else {
                requeueContinuation(std::move(job));
            }
            --busyWorkers;
            lk.unlock();
            idleCv.notify_all();
            continue;
        }

        JobResult res = std::move(slice.result);
        if (job.continuation() && res.status == JobStatus::Ok) {
            // Final slice: merge the checkpointed slices back in.
            res.simSeconds += job.accumSimSeconds;
            res.kernelSeconds += job.accumKernelSeconds;
            res.transferSeconds += job.accumTransferSeconds;
            res.energyJoules += job.accumEnergyJoules;
            res.faultsInjected += job.accumFaults;
            if (job.spec.faultsGiven) {
                sim::HashMix fold;
                fold.mix(job.accumFaultHash);
                fold.mix(res.faultScheduleHash);
                res.faultScheduleHash = fold.digest();
            }
            res.preemptions = job.preemptions;
        }
        res.hostQueueWaitMs = waitMs;
        res.hostServiceMs = (doneSec - dequeueSec) * 1e3;
        res.serviceSeq = seq;
        res.worker = static_cast<int>(index);
        res.serviceDeadlineMs = job.spec.serviceDeadlineMs;
        res.queueDepthAtSubmit = job.depthAtSubmit;

        metrics.observe("host.serve.queue_wait_ms", res.hostQueueWaitMs);
        metrics.observe("host.serve.service_ms", res.hostServiceMs);
        if (tracer.enabled()) {
            tracer.span(track,
                        "job " + std::to_string(res.id) + " " +
                            res.app,
                        "serve", dequeueSec - epochSec,
                        doneSec - dequeueSec);
        }

        lk.lock();
        recordResult(std::move(res));
        --busyWorkers;
        lk.unlock();
        idleCv.notify_all();
    }
}

void
Server::drain()
{
    std::unique_lock<std::mutex> lk(mtx);
    idleCv.wait(lk, [&] {
        return (queued == 0 && busyWorkers == 0) || stopping;
    });
    drainWallSec = nowSeconds();
}

void
Server::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        if (!started)
            return;
        stopping = true;
    }
    workCv.notify_all();
    idleCv.notify_all();
    for (auto &worker : workers)
        worker.join();
    workers.clear();
    std::lock_guard<std::mutex> lk(mtx);
    started = false;
}

std::vector<JobResult>
Server::takeResults()
{
    std::vector<JobResult> out;
    {
        std::lock_guard<std::mutex> lk(mtx);
        out = std::move(results);
        results.clear();
    }
    std::sort(out.begin(), out.end(),
              [](const JobResult &a, const JobResult &b) {
                  return a.id < b.id;
              });
    return out;
}

ServerReport
Server::report()
{
    std::lock_guard<std::mutex> lk(mtx);
    ServerReport rep;
    rep.workers = cfg.workers;
    rep.preemptions = preemptionEvents;
    rep.submitted = results.size();
    std::vector<double> waits, services;
    struct TenantFold
    {
        u64 submitted = 0, completed = 0, expired = 0;
        u64 preemptions = 0;
        u64 ranJobs = 0;
        double serviceSeqSum = 0.0;
        double energyJoules = 0.0;
    };
    std::map<std::string, TenantFold> tenantFold;
    // Fold in job-id order: `results` holds completion order, which
    // depends on worker interleaving, and floating-point sums (energy,
    // busy seconds) must stay byte-identical at any worker count.
    std::vector<const JobResult *> ordered;
    ordered.reserve(results.size());
    for (const auto &res : results)
        ordered.push_back(&res);
    std::sort(ordered.begin(), ordered.end(),
              [](const JobResult *a, const JobResult *b) {
                  return a->id < b->id;
              });
    for (const JobResult *resPtr : ordered) {
        const JobResult &res = *resPtr;
        TenantFold &fold = tenantFold[res.tenant];
        fold.submitted += 1;
        fold.preemptions += res.preemptions;
        switch (res.status) {
          case JobStatus::Ok:
            ++rep.completed;
            ++fold.completed;
            rep.simBusySeconds += res.simSeconds;
            rep.energyJoules += res.energyJoules;
            fold.energyJoules += res.energyJoules;
            break;
          case JobStatus::Error:
            ++rep.errors;
            break;
          case JobStatus::Expired:
            ++rep.expired;
            ++fold.expired;
            break;
        }
        if (res.worker >= 0) {
            waits.push_back(res.hostQueueWaitMs);
            services.push_back(res.hostServiceMs);
            fold.ranJobs += 1;
            fold.serviceSeqSum += static_cast<double>(res.serviceSeq);
        }
    }
    obs::Metrics &metrics = obs::Metrics::global();
    for (const auto &[tenant, fold] : tenantFold) {
        ServerReport::TenantStats stats;
        stats.tenant = tenant;
        stats.weight = cfg.tenants.policy(tenant).weight;
        stats.submitted = fold.submitted;
        stats.completed = fold.completed;
        stats.expired = fold.expired;
        stats.preemptions = fold.preemptions;
        stats.meanServiceSeq =
            fold.ranJobs > 0
                ? fold.serviceSeqSum /
                      static_cast<double>(fold.ranJobs)
                : 0.0;
        stats.energyJoules = fold.energyJoules;
        if (metrics.enabled()) {
            const std::string t = tenant.empty() ? "-" : tenant;
            metrics.set("serve.tenant." + t + ".mean_service_seq",
                        stats.meanServiceSeq);
        }
        rep.tenants.push_back(std::move(stats));
    }
    rep.queueWaitMs = percentiles(std::move(waits));
    rep.serviceMs = percentiles(std::move(services));
    rep.wallSeconds = (drainWallSec > startWallSec)
                          ? drainWallSec - startWallSec
                          : 0.0;
    rep.virtualMakespanSeconds =
        applyVirtualSchedule(results, cfg.workers);
    return rep;
}

std::optional<BatchOutcome>
runBatch(const std::vector<JobSpec> &jobs, const ServerConfig &config,
         std::string &error)
{
    if (auto err = Server::validateConfig(config)) {
        error = *err;
        return std::nullopt;
    }

    Server server(config);
    server.pause();
    if (auto err = server.start()) {
        error = *err;
        return std::nullopt;
    }
    for (const JobSpec &spec : jobs)
        server.submit(spec);
    server.resume();
    server.drain();

    BatchOutcome outcome;
    outcome.report = server.report();
    outcome.results = server.takeResults();
    server.shutdown();
    // report() scheduled the virtual cluster on the server's copy;
    // re-derive the per-job virtual fields on the moved-out results,
    // this time emitting the deterministic vcluster timeline spans.
    applyVirtualSchedule(outcome.results, config.workers, true);
    return outcome;
}

} // namespace hetsim::serve
