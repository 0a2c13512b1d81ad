#include "sweep_runner.h"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "src/ckpt/warmup_cache.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_log.h"
#include "src/runner/resume_journal.h"
#include "src/runner/trace_cache.h"
#include "src/sim/presets.h"
#include "src/sim/warmup.h"

namespace wsrs::runner {

namespace {

/**
 * Registry handles for the runner-layer instruments (job counts, warm-up
 * cache behaviour, per-stage host latencies). Constructing one binds (or
 * re-binds) the instruments in @p registry; runJob bumps them through a
 * borrowed pointer, so the disabled path is a null check — exactly the
 * TraceSink discipline, and gated the same way by the perf-smoke A/B.
 */
struct RunnerMetrics
{
    explicit RunnerMetrics(obs::MetricsRegistry &r)
        : jobsExecuted(r.counter("wsrs_runner_jobs_total",
                                 "Sweep jobs executed to completion")),
          jobFailures(r.counter("wsrs_runner_job_failures_total",
                                "Jobs whose outcome captured an error")),
          warmupHits(r.counter("wsrs_runner_warmup_hits_total",
                               "Warm-up snapshots restored from a cache")),
          warmupBuilds(r.counter("wsrs_runner_warmup_builds_total",
                                 "Warm-up snapshots built from scratch")),
          jobMs(r.histogram("wsrs_runner_job_duration_ms",
                            "Wall time of one sweep job",
                            obs::MetricsRegistry::latencyBucketsMs())),
          warmupMs(r.histogram("wsrs_runner_warmup_duration_ms",
                               "Warm-up snapshot acquire (hit or build)",
                               obs::MetricsRegistry::latencyBucketsMs())),
          simulateMs(r.histogram("wsrs_runner_simulate_duration_ms",
                                 "Measured-slice simulation wall time",
                                 obs::MetricsRegistry::latencyBucketsMs())),
          memRequests(r.counter("wsrs_mem_requests_total",
                                "DRAM demand requests across measured "
                                "slices")),
          memRowHits(r.counter("wsrs_mem_row_hits_total",
                               "DRAM open-row hits across measured slices")),
          memRowConflicts(r.counter("wsrs_mem_row_conflicts_total",
                                    "DRAM row conflicts across measured "
                                    "slices")),
          memQueueFullWaits(r.counter("wsrs_mem_queue_full_waits_total",
                                      "DRAM requests delayed by a full "
                                      "in-flight window"))
    {
    }

    obs::MetricCounter &jobsExecuted;
    obs::MetricCounter &jobFailures;
    obs::MetricCounter &warmupHits;
    obs::MetricCounter &warmupBuilds;
    obs::MetricHistogram &jobMs;      ///< Whole-job wall time.
    obs::MetricHistogram &warmupMs;   ///< Warm-up acquire (hit or build).
    obs::MetricHistogram &simulateMs; ///< Measured-slice simulation.

    // ---- memory backend (non-zero only under --mem-model dram) ----
    obs::MetricCounter &memRequests;
    obs::MetricCounter &memRowHits;
    obs::MetricCounter &memRowConflicts;
    obs::MetricCounter &memQueueFullWaits;
};

/** Caches and telemetry one sweep's jobs run against, shared by all of
 *  its worker threads. Null pointers disable the feature. */
struct JobContext
{
    TraceCache *traces = nullptr;      ///< Null regenerates per run.
    ckpt::WarmupCache *warmups = nullptr;
    bool reuseWarmup = false;
    RunnerMetrics *metrics = nullptr;
    obs::SpanLog *spans = nullptr;
};

/**
 * Run job @p index to completion. Exceptions (FatalError and friends) are
 * captured into the outcome's error field instead of tearing the sweep
 * down.
 */
SweepOutcome
runJob(const SweepJob &job, std::uint64_t index, const JobContext &ctx)
{
    SweepOutcome out;
    const std::int64_t jobStartUs =
        (ctx.metrics || ctx.spans) ? obs::monotonicMicros() : 0;
    try {
        sim::SimConfig cfg = job.config;
        std::shared_ptr<const std::string> blob;
        if (ctx.reuseWarmup && cfg.warmupUops > 0) {
            // One functional warm-up per key serves every machine config
            // of the benchmark; the blob stays alive for the duration of
            // this run.
            bool built = false;
            const std::int64_t warmupStartUs =
                jobStartUs ? obs::monotonicMicros() : 0;
            blob = ctx.warmups->getOrBuild(
                sim::warmupKeyHash(job.profile, cfg), [&] {
                    built = true;
                    return sim::buildWarmupSnapshot(job.profile, cfg);
                });
            cfg.warmupBlob = blob.get();
            if (jobStartUs) {
                const std::int64_t warmupEndUs = obs::monotonicMicros();
                if (ctx.metrics) {
                    (built ? ctx.metrics->warmupBuilds
                           : ctx.metrics->warmupHits)
                        .add();
                    ctx.metrics->warmupMs.observe(static_cast<std::uint64_t>(
                        (warmupEndUs - warmupStartUs) / 1000));
                }
                if (ctx.spans)
                    ctx.spans->complete("warmup", index, warmupStartUs,
                                        warmupEndUs - warmupStartUs,
                                        built ? "build" : "hit");
            }
        }
        const std::int64_t simStartUs =
            jobStartUs ? obs::monotonicMicros() : 0;
        if (ctx.traces) {
            // Hold the shared trace only for the duration of the run: it
            // stays recorded while any sibling job needs it and is
            // released when the profile's jobs drain.
            const std::shared_ptr<CachedTrace> trace =
                ctx.traces->acquire(job.profile, cfg.seed);
            const auto cursor = trace->openCursor();
            out.results = sim::runSimulation(job.profile, cfg, *cursor);
        } else {
            out.results = sim::runSimulation(job.profile, cfg);
        }
        out.ok = true;
        if (jobStartUs) {
            const std::int64_t simEndUs = obs::monotonicMicros();
            if (ctx.metrics)
                ctx.metrics->simulateMs.observe(static_cast<std::uint64_t>(
                    (simEndUs - simStartUs) / 1000));
            if (ctx.spans)
                ctx.spans->complete("simulate", index, simStartUs,
                                    simEndUs - simStartUs);
        }
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    if (jobStartUs) {
        if (ctx.metrics) {
            ctx.metrics->jobsExecuted.add();
            if (out.ok) {
                ctx.metrics->memRequests.add(out.results.mem.dramRequests);
                ctx.metrics->memRowHits.add(out.results.mem.dramRowHits);
                ctx.metrics->memRowConflicts.add(
                    out.results.mem.dramRowConflicts);
                ctx.metrics->memQueueFullWaits.add(
                    out.results.mem.dramQueueFullWaits);
            } else {
                ctx.metrics->jobFailures.add();
            }
            ctx.metrics->jobMs.observe(static_cast<std::uint64_t>(
                (obs::monotonicMicros() - jobStartUs) / 1000));
        }
        if (ctx.spans && !out.ok)
            ctx.spans->instant("job-failed", index, obs::monotonicMicros(),
                               out.error);
    }
    return out;
}

} // namespace

SweepRunner::SweepRunner() : SweepRunner(Options{}) {}

SweepRunner::SweepRunner(Options options) : options_(std::move(options)) {}

unsigned
SweepRunner::effectiveThreads(std::size_t num_jobs) const
{
    unsigned n = options_.threads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    if (num_jobs < n)
        n = static_cast<unsigned>(num_jobs);
    return n > 0 ? n : 1;
}

std::vector<SweepJob>
SweepRunner::crossProduct(
    const std::vector<workload::BenchmarkProfile> &profiles,
    const std::vector<std::string> &machine_labels,
    const sim::SimConfig &base)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(profiles.size() * machine_labels.size());
    for (const auto &profile : profiles) {
        for (const auto &label : machine_labels) {
            SweepJob job;
            job.profile = profile;
            job.config = base;
            job.config.core = sim::findPreset(label);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<SweepJob>
SweepRunner::crossProduct(
    const std::vector<workload::BenchmarkProfile> &profiles,
    const std::vector<sim::SimConfig> &configs)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(profiles.size() * configs.size());
    for (const auto &profile : profiles) {
        for (const auto &config : configs) {
            SweepJob job;
            job.profile = profile;
            job.config = config;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs)
{
    telemetry_ = Telemetry{};
    telemetry_.warmupReuse = options_.reuseWarmup;
    std::vector<SweepOutcome> outcomes(jobs.size());
    if (jobs.empty())
        return outcomes;

    // Crash-resume journal: recovered jobs land in their outcome slots up
    // front and are never handed to a worker.
    std::unique_ptr<ResumeJournal> journal;
    std::vector<bool> recovered(jobs.size(), false);
    if (!options_.journalPath.empty()) {
        journal = std::make_unique<ResumeJournal>(
            options_.journalPath, sweepKeyHash(jobs), jobs.size(),
            options_.resume);
        telemetry_.resumed = journal->resumed();
        telemetry_.skippedRuns = journal->recoveredCount();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!journal->recoveredMask()[i])
                continue;
            outcomes[i] = journal->recovered()[i];
            recovered[i] = true;
        }
    }

    TraceCache cache;
    ckpt::WarmupCache warmups;
    std::atomic<std::size_t> nextJob{0};
    std::size_t completed = 0;  ///< Guarded by eventMutex.
    std::mutex eventMutex;

    // Recovered jobs complete "instantly": deliver their events first so
    // progress consumers see every job exactly once, in a sane order.
    if (options_.onEvent) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!recovered[i])
                continue;
            SweepEvent ev;
            ev.index = i;
            ev.completed = ++completed;
            ev.total = jobs.size();
            ev.outcome = &outcomes[i];
            options_.onEvent(ev);
        }
    } else {
        completed = telemetry_.skippedRuns;
    }

    JobContext ctx;
    ctx.traces = options_.shareTraces ? &cache : nullptr;
    ctx.warmups = &warmups;
    ctx.reuseWarmup = options_.reuseWarmup;

    std::unique_ptr<RunnerMetrics> metrics;
    if (options_.metrics) {
        metrics = std::make_unique<RunnerMetrics>(*options_.metrics);
        ctx.metrics = metrics.get();
    }
    obs::SpanLog *const spans = options_.spans;
    ctx.spans = spans;
    std::vector<std::int64_t> jobSpanStart(jobs.size(), 0);
    if (spans) {
        // Root span per job: enqueued at sweep submission, closed at
        // completion; the warmup/simulate children clamp into it.
        const std::int64_t now = obs::monotonicMicros();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (recovered[i])
                continue;
            jobSpanStart[i] = now;
            spans->nameJob(i, jobs[i].profile.name);
        }
    }

    const auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                nextJob.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            if (recovered[i])
                continue;
            SweepOutcome &out = outcomes[i];
            out = runJob(jobs[i], i, ctx);
            if (journal)
                journal->record(i, out);
            if (spans) {
                const std::int64_t now = obs::monotonicMicros();
                if (out.ok)
                    spans->nameJob(i, out.results.benchmark + "@" +
                                          out.results.machine);
                spans->complete("job", i, jobSpanStart[i],
                                now - jobSpanStart[i],
                                out.ok ? "" : "failed");
                spans->instant("merged", i, now);
            }
            if (options_.onEvent) {
                // The count is advanced under the same lock that serializes
                // delivery, so callbacks observe completed = 1, 2, ... N
                // even when workers finish back to back.
                std::lock_guard<std::mutex> lock(eventMutex);
                SweepEvent ev;
                ev.index = i;
                ev.completed = ++completed;
                ev.total = jobs.size();
                ev.outcome = &out;
                options_.onEvent(ev);
            }
        }
    };

    const unsigned threads = effectiveThreads(jobs.size());
    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    telemetry_.warmupHits = warmups.hits();
    telemetry_.warmupMisses = warmups.misses();
    return outcomes;
}

} // namespace wsrs::runner
