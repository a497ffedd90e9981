#include "fleet.hh"

#include <algorithm>
#include <cmath>

#include "cpu/threadpool.hh"
#include "obs/flightrec.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/tracer.hh"
#include "power/power.hh"
#include "sim/timing_cache.hh"

namespace hetsim::fleet
{

namespace
{

/** Per-job placement record; start/finish are finalized in phase 2
 *  (phase 1 for gang jobs).  Exactly one node writes each record. */
struct JobRec
{
    static constexpr u8 kGang = 1;
    static constexpr u8 kOffHome = 2;
    static constexpr u8 kRetried = 4;

    u32 cls = 0;
    u32 node = 0; ///< placed node (gang: lowest member index)
    double arrival = 0.0;
    double ready = 0.0; ///< arrival, or retry time after a node death
    double start = 0.0;
    double finish = 0.0;
    u8 flags = 0;
};

/** Per-node phase-2 accumulator (disjoint writes per shard). */
struct NodeAcc
{
    u64 jobs = 0;
    u64 faults = 0;
    double busySeconds = 0.0;
    double netSeconds = 0.0;
    double finishSeconds = 0.0;
};

/** Distinct seed domains of one campaign (arguments to shardSeed). */
constexpr u64 kSeedClasses = 1;
constexpr u64 kSeedHomes = 2;
constexpr u64 kSeedDeaths = 3;
constexpr u64 kSeedTraceSample = 4;
constexpr u64 kSeedNodeFaults = 0x10000;

/** Bucket bounds of the per-node latency rollup histograms, ms. */
const std::vector<double> &
fleetLatencyBoundsMs()
{
    static const std::vector<double> bounds{
        1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000};
    return bounds;
}

bool
validate(const Topology &topo, const FleetConfig &cfg,
         std::string &error)
{
    if (topo.nodes.empty()) {
        error = "fleet: topology has no nodes";
        return false;
    }
    if (cfg.jobs == 0) {
        error = "fleet: campaign wants at least one job";
        return false;
    }
    if (cfg.classes.empty()) {
        error = "fleet: campaign wants at least one job class";
        return false;
    }
    const std::vector<std::string> kinds = topo.deviceKinds();
    for (const JobClass &cls : cfg.classes) {
        if (cls.weight <= 0.0) {
            error = "fleet: class '" + cls.name +
                    "' wants a positive weight";
            return false;
        }
        if (cls.gangNodes == 0) {
            error = "fleet: class '" + cls.name +
                    "' wants gangNodes >= 1";
            return false;
        }
        if (cls.gangNodes > topo.size()) {
            error = "fleet: class '" + cls.name + "' gangs across " +
                    std::to_string(cls.gangNodes) + " nodes but the "
                    "topology has " + std::to_string(topo.size());
            return false;
        }
        for (const std::string &kind : kinds) {
            auto it = cls.secondsByDevice.find(kind);
            if (it == cls.secondsByDevice.end() || it->second <= 0.0) {
                error = "fleet: class '" + cls.name + "' has no "
                        "positive service time for device '" + kind +
                        "'";
                return false;
            }
        }
    }
    return true;
}

} // namespace

std::optional<FleetResult>
simulateFleet(const Topology &topo, const FleetConfig &cfg,
              std::string &error, cpu::ThreadPool *pool)
{
    if (!validate(topo, cfg, error))
        return std::nullopt;

    const u32 nNodes = topo.size();
    const u32 nClasses = static_cast<u32>(cfg.classes.size());

    // Per-(class, node) fault-free service seconds; node perf divides.
    std::vector<double> costM(static_cast<size_t>(nClasses) * nNodes);
    for (u32 c = 0; c < nClasses; ++c) {
        for (u32 n = 0; n < nNodes; ++n) {
            const NodeSpec &node = topo.nodes[n];
            costM[static_cast<size_t>(c) * nNodes + n] =
                cfg.classes[c].secondsByDevice.at(node.device) /
                node.perf;
        }
    }
    std::vector<double> cumWeight(nClasses);
    double totalWeight = 0.0;
    for (u32 c = 0; c < nClasses; ++c) {
        totalWeight += cfg.classes[c].weight;
        cumWeight[c] = totalWeight;
    }
    std::vector<double> transferCost(nClasses);
    for (u32 c = 0; c < nClasses; ++c)
        transferCost[c] =
            topo.net.transferSeconds(cfg.classes[c].inputBytes);

    // --- Phase 1: sequential placement from fault-free estimates. ---
    Rng classRng(fault::shardSeed(cfg.seed, kSeedClasses));
    Rng homeRng(fault::shardSeed(cfg.seed, kSeedHomes));
    Rng deathRng(fault::shardSeed(cfg.seed, kSeedDeaths));

    // Each doomed node dies after completing a seed-drawn number of
    // placements; the placement that trips the trigger is the failed
    // job that gets retried elsewhere.
    std::vector<u64> deathAfter(nNodes, ~0ULL);
    if (cfg.nodeFailRate > 0.0) {
        const u64 horizon =
            std::max<u64>(1, 2 * cfg.jobs / std::max<u32>(nNodes, 1));
        for (u32 n = 0; n < nNodes; ++n) {
            const bool doomed = deathRng.uniform() < cfg.nodeFailRate;
            const u64 trigger = 1 + deathRng.below(horizon);
            if (doomed)
                deathAfter[n] = trigger;
        }
    }

    Cluster cluster(nNodes, cfg.policy);
    std::vector<JobRec> jobs(cfg.jobs);
    std::vector<std::vector<u32>> items(nNodes);
    std::vector<u64> placedCount(nNodes, 0);
    std::vector<bool> died(nNodes, false);

    FleetResult res;
    res.jobs = cfg.jobs;

    // Bump a node's placement count; enact its death when the trigger
    // fires (the last node standing is immortal).
    auto notePlacement = [&](u32 n) {
        ++placedCount[n];
        if (placedCount[n] >= deathAfter[n] && !died[n] &&
            cluster.aliveCount() > 1) {
            cluster.markDead(n);
            died[n] = true;
            ++res.nodeDeaths;
            return true;
        }
        return false;
    };

    for (u64 j = 0; j < cfg.jobs; ++j) {
        JobRec &job = jobs[j];
        const double pick = classRng.uniform() * totalWeight;
        u32 c = 0;
        while (c + 1 < nClasses && pick >= cumWeight[c])
            ++c;
        job.cls = c;
        job.arrival =
            cfg.arrivalRate > 0.0
                ? static_cast<double>(j) / cfg.arrivalRate
                : 0.0;
        job.ready = job.arrival;
        const u32 home = static_cast<u32>(homeRng.below(nNodes));
        const JobClass &cls = cfg.classes[c];
        const auto costOf = [&](u32 n) {
            return costM[static_cast<size_t>(c) * nNodes + n];
        };

        const u32 gang = std::min<u32>(cls.gangNodes,
                                       cluster.aliveCount());
        if (gang >= 2) {
            // Gang jobs resolve entirely in phase 1: compute on the
            // slowest member plus the priced collectives, one shared
            // interval on every member.
            const double collective =
                static_cast<double>(cls.haloIters) *
                    sim::haloExchangeSeconds(topo.net, gang,
                                             cls.haloBytesPerNeighbor) +
                sim::allReduceSeconds(topo.net, gang, cls.reduceBytes);
            double start = 0.0, cost = 0.0;
            const std::vector<u32> members = cluster.placeGang(
                job.arrival, gang, costOf, collective, start, cost);
            job.node = members.front();
            job.start = start;
            job.finish = start + cost;
            job.flags |= JobRec::kGang;
            res.haloSeconds += collective;
            ++res.gangJobs;
            for (u32 member : members) {
                items[member].push_back(static_cast<u32>(j));
                notePlacement(member);
            }
            continue;
        }

        // Single-node job; a placement that trips the node's death
        // trigger is the failed job, noticed at its estimated finish
        // and retried on a surviving node.
        double ready = job.arrival;
        while (true) {
            const auto placed = cluster.place(ready, costOf, home,
                                              transferCost[c]);
            job.node = placed->node;
            job.ready = ready;
            if (placed->offHome)
                job.flags |= JobRec::kOffHome;
            else
                job.flags &= static_cast<u8>(~JobRec::kOffHome);
            if (!notePlacement(placed->node))
                break;
            ++res.retries;
            job.flags |= JobRec::kRetried;
            const double estCost =
                costOf(placed->node) +
                (placed->offHome ? transferCost[c] : 0.0);
            ready = placed->start + estCost;
        }
        items[job.node].push_back(static_cast<u32>(j));
    }

    // --- Phase 2: independent per-node timelines, sharded. ---
    std::vector<NodeAcc> acc(nNodes);
    auto runNode = [&](u32 n) {
        NodeAcc &a = acc[n];
        double clock = 0.0;
        const std::string &dev = topo.nodes[n].device;
        fault::FaultPlan plan;
        const bool faulty = cfg.faults.transferFailRate > 0.0 ||
                            cfg.faults.launchFailRate > 0.0 ||
                            cfg.faults.stallRate > 0.0;
        if (faulty) {
            fault::FaultConfig fc = cfg.faults;
            fc.seed = fault::shardSeed(cfg.seed, kSeedNodeFaults + n);
            fc.failDevice.clear();
            plan = fault::FaultPlan(fc);
        }
        for (u32 idx : items[n]) {
            JobRec &job = jobs[idx];
            if (job.flags & JobRec::kGang) {
                // Fixed in phase 1; just advances the local clock.
                clock = std::max(clock, job.finish);
                a.busySeconds += job.finish - job.start;
                ++a.jobs;
                continue;
            }
            const size_t ci =
                static_cast<size_t>(job.cls) * nNodes + n;
            double cost = costM[ci];
            const double baseNet = (job.flags & JobRec::kOffHome)
                                       ? transferCost[job.cls]
                                       : 0.0;
            double net = 0.0;
            if (faulty) {
                if (baseNet > 0.0) {
                    u32 attempt = 0;
                    while (attempt < cfg.faults.retryMax &&
                           plan.failTransfer(dev)) {
                        ++attempt;
                        net += baseNet +
                               fault::backoffSeconds(
                                   attempt, fault::kBackoffSeconds);
                        ++a.faults;
                    }
                }
                if (plan.failLaunch(dev)) {
                    cost += fault::backoffSeconds(
                        1, fault::kBackoffSeconds);
                    ++a.faults;
                }
                if (plan.stallDevice(dev)) {
                    // Stall watchdog: the attempt hangs for 10x the
                    // service time before the retry lands (the same
                    // timeout shape the co-executor uses).
                    cost += 10.0 * std::max(costM[ci], 1e-6);
                    ++a.faults;
                }
            }
            net += baseNet;
            const double start = std::max(clock, job.ready);
            job.start = start;
            job.finish = start + net + cost;
            clock = job.finish;
            a.busySeconds += net + cost;
            a.netSeconds += net;
            ++a.jobs;
        }
        a.finishSeconds = clock;
    };

    if (cfg.serialTimeline) {
        for (u32 n = 0; n < nNodes; ++n)
            runNode(n);
    } else {
        cpu::ThreadPool &tp =
            pool != nullptr ? *pool : cpu::ThreadPool::global();
        tp.parallelFor(
            nNodes,
            [&](u64 begin, u64 end) {
                for (u64 n = begin; n < end; ++n)
                    runNode(static_cast<u32>(n));
            },
            1);
    }

    // --- Deterministic merge. ---
    sim::HashMix digest;
    digest.mix(cfg.jobs);
    digest.mix(nNodes);
    std::vector<double> latenciesMs;
    latenciesMs.reserve(cfg.jobs);
    for (const JobRec &job : jobs) {
        digest.mix(job.node);
        digest.mixDouble(job.start);
        digest.mixDouble(job.finish);
        const double latency = job.finish - job.arrival;
        latenciesMs.push_back(latency * 1e3);
        if (cfg.sloSeconds > 0.0 && latency > cfg.sloSeconds)
            ++res.sloViolations;
        if (job.flags & JobRec::kOffHome)
            ++res.offHome;
    }
    for (u32 n = 0; n < nNodes; ++n) {
        res.busySeconds += acc[n].busySeconds;
        res.netSeconds += acc[n].netSeconds;
        res.faultsInjected += acc[n].faults;
        res.makespanSeconds =
            std::max(res.makespanSeconds, acc[n].finishSeconds);
    }
    res.digest = digest.digest();
    if (res.makespanSeconds > 0.0) {
        res.throughputJobsPerSec =
            static_cast<double>(cfg.jobs) / res.makespanSeconds;
        res.utilization = res.busySeconds /
                          (static_cast<double>(nNodes) *
                           res.makespanSeconds);
    }
    res.nodes.reserve(nNodes);
    const power::PowerTable &watts = power::PowerTable::active();
    for (u32 n = 0; n < nNodes; ++n) {
        NodeReport rep;
        rep.name = topo.nodes[n].name;
        rep.device = topo.nodes[n].device;
        rep.jobs = acc[n].jobs;
        rep.busySeconds = acc[n].busySeconds;
        rep.finishSeconds = acc[n].finishSeconds;
        // A dead node stops drawing power when it dies; survivors
        // idle until the campaign makespan.
        rep.energyJoules = power::energyOfBusy(
            watts, rep.device, rep.busySeconds,
            died[n] ? rep.finishSeconds : res.makespanSeconds);
        res.energyJoules += rep.energyJoules;
        rep.faultsInjected = acc[n].faults;
        rep.died = died[n];
        res.nodes.push_back(std::move(rep));
    }

    obs::Metrics &metrics = obs::Metrics::global();
    if (metrics.enabled()) {
        metrics.add("fleet.jobs", static_cast<double>(res.jobs));
        metrics.add("fleet.gang_jobs",
                    static_cast<double>(res.gangJobs));
        metrics.add("fleet.retries", static_cast<double>(res.retries));
        metrics.add("fleet.node_deaths",
                    static_cast<double>(res.nodeDeaths));
        metrics.add("fleet.faults_injected",
                    static_cast<double>(res.faultsInjected));
        metrics.add("fleet.slo_violations",
                    static_cast<double>(res.sloViolations));
        metrics.add("fleet.off_home",
                    static_cast<double>(res.offHome));
        metrics.add("fleet.net_seconds", res.netSeconds);
        metrics.add("fleet.halo_seconds", res.haloSeconds);
        metrics.add("fleet.busy_seconds", res.busySeconds);
        metrics.add("fleet.energy_joules", res.energyJoules);
        metrics.set("fleet.nodes", static_cast<double>(nNodes));
        metrics.set("fleet.makespan_seconds", res.makespanSeconds);
        metrics.set("fleet.utilization", res.utilization);
        metrics.observeMany("fleet.latency_ms", latenciesMs);
    }
    res.latencyMs = percentiles(std::move(latenciesMs));

    // Per-node rollup shards for the profile report: one bounded
    // summary per node, merged deterministically by the Rollup.
    obs::Profiler &profiler = obs::Profiler::global();
    if (profiler.enabled()) {
        std::vector<obs::Histogram> nodeLatency(
            nNodes, obs::makeHistogram(fleetLatencyBoundsMs()));
        for (const JobRec &job : jobs)
            obs::histogramObserve(nodeLatency[job.node],
                                  (job.finish - job.arrival) * 1e3);
        for (u32 n = 0; n < nNodes; ++n) {
            obs::ShardSummary shard;
            shard.jobs = acc[n].jobs;
            shard.faults = acc[n].faults;
            shard.busySeconds = acc[n].busySeconds;
            shard.netSeconds = acc[n].netSeconds;
            shard.finishSeconds = acc[n].finishSeconds;
            shard.latencyMs = std::move(nodeLatency[n]);
            profiler.addRollupShard("fleet/" + topo.nodes[n].name,
                                    std::move(shard));
        }
    }

    // Flight recorder: keep the black box only for jobs that went
    // wrong - SLO misses and jobs re-placed after a node death.
    obs::FlightRecorder &recorder = obs::FlightRecorder::global();
    if (recorder.enabled()) {
        for (u64 j = 0; j < cfg.jobs; ++j) {
            const JobRec &job = jobs[j];
            const double latency = job.finish - job.arrival;
            const bool sloMiss = cfg.sloSeconds > 0.0 &&
                                 latency > cfg.sloSeconds;
            const bool retried = (job.flags & JobRec::kRetried) != 0;
            if (!sloMiss && !retried)
                continue;
            obs::FlightRecord rec;
            rec.jobId = j + 1;
            rec.what = cfg.classes[job.cls].name;
            rec.where = topo.nodes[job.node].name;
            rec.arrivalSeconds = job.arrival;
            rec.startSeconds = job.start;
            rec.finishSeconds = job.finish;
            rec.deadlineMs = cfg.sloSeconds * 1e3;
            rec.queueDepth = acc[job.node].jobs;
            if (job.start > job.ready) {
                obs::TraceEvent wait;
                wait.name = "wait";
                wait.cat = "fleet";
                wait.tsUs = job.ready * 1e6;
                wait.durUs = (job.start - job.ready) * 1e6;
                rec.spans.push_back(wait);
            }
            obs::TraceEvent service;
            service.name = cfg.classes[job.cls].name;
            service.cat = "fleet";
            service.tsUs = job.start * 1e6;
            service.durUs = (job.finish - job.start) * 1e6;
            rec.spans.push_back(std::move(service));
            if (sloMiss) {
                obs::FlightRecord miss = rec;
                miss.kind = "slo_miss";
                miss.detail =
                    "latency " + std::to_string(latency * 1e3) +
                    " ms > slo " +
                    std::to_string(cfg.sloSeconds * 1e3) + " ms";
                recorder.record(std::move(miss));
            }
            if (retried) {
                rec.kind = "retry_after_node_death";
                rec.detail = "re-placed after its first node's death";
                recorder.record(std::move(rec));
            }
        }
    }

    obs::Tracer &tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        // --trace-sample: bound trace memory by emitting spans for a
        // seed-drawn reservoir sample of the nodes.
        std::vector<bool> sampled(nNodes, true);
        u64 sampledCount = nNodes;
        if (cfg.traceSampleNodes > 0 &&
            cfg.traceSampleNodes < nNodes) {
            const u32 k = static_cast<u32>(cfg.traceSampleNodes);
            std::vector<u32> picked;
            picked.reserve(k);
            Rng sampleRng(
                fault::shardSeed(cfg.seed, kSeedTraceSample));
            for (u32 n = 0; n < nNodes; ++n) {
                if (n < k) {
                    picked.push_back(n);
                    continue;
                }
                const u64 slot = sampleRng.below(n + 1);
                if (slot < k)
                    picked[slot] = n;
            }
            sampled.assign(nNodes, false);
            for (u32 n : picked)
                sampled[n] = true;
            sampledCount = k;
        }
        if (metrics.enabled()) {
            metrics.set("fleet.trace_sampled_nodes",
                        static_cast<double>(sampledCount));
        }
        for (u32 n = 0; n < nNodes; ++n) {
            if (!sampled[n])
                continue;
            const obs::TrackId track =
                tracer.track("fleet/" + topo.nodes[n].name);
            for (u32 idx : items[n]) {
                const JobRec &job = jobs[idx];
                tracer.span(track, cfg.classes[job.cls].name, "fleet",
                            job.start, job.finish - job.start);
            }
        }
    }
    return res;
}

} // namespace hetsim::fleet
