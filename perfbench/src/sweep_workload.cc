/**
 * @file
 * sweep_fig4: the full 12 x 6 Figure-4 matrix through runner::SweepRunner
 * with shared traces and warm-up snapshot reuse, followed by the
 * aggregated sweep report.
 *
 * The traced repetition runs the same sweep with a completion hook that
 * turns each job into a span on its worker lane, then probes the layers
 * the runner calls internally — trace generation and replay, simulator
 * construction, warm-up snapshot build and restore — by calling them
 * directly on the same profiles and configurations.
 */
#include <cmath>
#include <mutex>
#include <sstream>

#include "src/ckpt/io.h"
#include "src/common/stats.h"
#include "src/core/core.h"
#include "src/memory/hierarchy.h"
#include "src/runner/sweep_report.h"
#include "src/runner/sweep_runner.h"
#include "src/runner/trace_cache.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/sim/warmup.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"
#include "workloads_impl.h"

namespace perfbench {

namespace {

/** Slice lengths of every sweep job: a 300K-micro-op prefix per profile
 *  (the same proportion of warm-up to measurement as the paper's 400K +
 *  1M), short enough that one repetition of all 72 jobs takes seconds. */
constexpr std::uint64_t kSweepWarmupUops = 100000;
constexpr std::uint64_t kSweepMeasureUops = 200000;
/** A functional warm-up snapshot is built for the first job of each
 *  benchmark and restored for the other five machines. */
constexpr std::uint64_t kExpectedWarmupHits = 60;
constexpr std::uint64_t kExpectedWarmupMisses = 12;

class SweepWorkload final : public Workload
{
  public:
    SweepWorkload(std::uint64_t seed, unsigned threads)
        : profiles_(wsrs::workload::allProfiles()),
          machines_(wsrs::sim::figure4Presets())
    {
        wsrs::sim::SimConfig base;
        base.warmupUops = kSweepWarmupUops;
        base.measureUops = kSweepMeasureUops;
        base.seed = seed;
        jobs_ = wsrs::runner::SweepRunner::crossProduct(profiles_, machines_,
                                                        base);
        options_.threads = threads;
        options_.shareTraces = true;
        options_.reuseWarmup = true;
    }

    const char *unitName() const override { return "uops"; }

    double
    repetition(Checks &checks, std::size_t) override
    {
        wsrs::runner::SweepRunner runner(options_);
        const auto outcomes = runner.run(jobs_);
        std::ostringstream report;
        wsrs::runner::writeSweepReport(report, jobs_, outcomes,
                                       runner.telemetry());
        return verify(checks, runner.telemetry(), outcomes, report.str());
    }

    TracedTiming
    tracedRepetition(Checks &checks, Recorder &rec) override
    {
        TracedTiming timing;
        {
            Recorder::Scope s(rec, "runner.untraced_sweep");
            repetition(checks, 0);
            timing.untracedSeconds = s.close();
        }
        timing.tracedSeconds = tracedSweep(checks, rec);
        probeLayers(rec);
        ++tracedReps_;
        checks.same("traced counts", deterministicCounts());
        return timing;
    }

    void
    layers(const Recorder &rec, LayerValues &out) const override
    {
        const double reps = tracedReps_ ? double(tracedReps_) : 1.0;
        const double uops_per_profile =
            double(kSweepWarmupUops + kSweepMeasureUops);
        const double probe_uops = reps * double(profiles_.size()) *
                                  uops_per_profile;
        out["workload.gen_ns_per_uop"] = ratio(
            rec.totalSeconds("workload.generate") * 1e9, probe_uops);
        out["workload.replay_ns_per_uop"] = ratio(
            rec.totalSeconds("workload.replay") * 1e9, probe_uops);
        out["sim.construct_s"] = rec.totalSeconds("sim.construct") / reps;
        out["sim.run_s"] = runS_ / reps;
        out["sim.wsrs_rc512_vs_rr256_ipc"] = ipcRatio_;
        out["obs.stats_json_s"] = rec.totalSeconds("obs.sweep_report") / reps;
        out["obs.stats_json_bytes"] = double(reportBytes_);
        out["ckpt.warmup_build_s"] =
            rec.totalSeconds("ckpt.warmup_build") / reps;
        out["ckpt.warmup_restore_s"] =
            rec.totalSeconds("ckpt.warmup_restore") / reps;
        out["ckpt.blob_bytes"] = double(blobBytes_);
        out["ckpt.warmup_hits"] = double(warmupHits_);
        out["ckpt.warmup_misses"] = double(warmupMisses_);
        out["runner.job_latency_p50_s"] = percentile(jobSeconds_, 50);
        out["runner.job_latency_p85_s"] = percentile(jobSeconds_, 85);
        out["runner.busy_ratio"] = ratio(busyS_, sweepThreadS_);
        out["runner.drain_s"] = drainS_ / reps;
        out["core.sim_cycles_per_uop"] = ratio(cycles_, committed_);
        out["core.sim_ipc"] = ratio(committed_, cycles_);
    }

    std::string
    deterministicCounts() const override
    {
        std::ostringstream os;
        os.precision(17);
        os << "jobs=" << jobs_.size() << " committed=" << committed_
           << " cycles=" << cycles_ << " ipc_ratio=" << ipcRatio_
           << " warmup_hits=" << warmupHits_
           << " warmup_misses=" << warmupMisses_
           << " report_bytes=" << reportBytes_
           << " report_fnv=" << reportHash_ << " blob_bytes=" << blobBytes_;
        return os.str();
    }

  private:
    /** Correctness of one sweep repetition; returns the micro-ops the
     *  successful jobs simulated (warm-up plus measured). */
    double
    verify(Checks &checks, const wsrs::runner::SweepRunner::Telemetry &tele,
           const std::vector<wsrs::runner::SweepOutcome> &outcomes,
           const std::string &report)
    {
        double uops = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const wsrs::sim::SimConfig &c = jobs_[i].config;
            checks.op(outcomes[i].ok, jobs_[i].profile.name + " on " +
                                          c.core.name + ": " +
                                          outcomes[i].error);
            if (outcomes[i].ok)
                uops += double(c.warmupUops + c.measureUops);
        }
        checks.op(tele.warmupHits == kExpectedWarmupHits &&
                      tele.warmupMisses == kExpectedWarmupMisses,
                  "warm-up cache hits/misses " +
                      std::to_string(tele.warmupHits) + "/" +
                      std::to_string(tele.warmupMisses) + ", expected " +
                      std::to_string(kExpectedWarmupHits) + "/" +
                      std::to_string(kExpectedWarmupMisses));
        checks.same("sweep report", report);
        return uops;
    }

    /** The sweep with a completion hook recording one span per job.
     *  Returns the host seconds of sweep, report and checks. */
    double
    tracedSweep(Checks &checks, Recorder &rec)
    {
        Recorder::Scope whole(rec, "runner.traced_sweep");
        std::vector<Clock::time_point> done(jobs_.size());
        std::vector<std::size_t> completion_order;
        std::mutex mutex;
        wsrs::runner::SweepRunner::Options opts = options_;
        opts.onEvent = [&](const wsrs::runner::SweepEvent &e) {
            const auto now = Clock::now();
            std::lock_guard<std::mutex> lock(mutex);
            done[e.index] = now;
            completion_order.push_back(e.index);
        };
        wsrs::runner::SweepRunner runner(opts);
        const unsigned threads = runner.effectiveThreads(jobs_.size());

        Recorder::Scope s_run(rec, "runner.sweep");
        const auto start = Clock::now();
        const auto outcomes = runner.run(jobs_);
        const auto end = Clock::now();
        s_run.close();

        Recorder::Scope s_report(rec, "obs.sweep_report");
        std::ostringstream os;
        wsrs::runner::writeSweepReport(os, jobs_, outcomes,
                                       runner.telemetry());
        const std::string report = os.str();
        s_report.close();
        verify(checks, runner.telemetry(), outcomes, report);

        // Job spans: each ends at its completion event and lasts its
        // simulation's host time; lanes are assigned greedily so spans on
        // one track never overlap.
        std::vector<Clock::time_point> lane_free;
        jobSeconds_.clear();
        busyS_ = 0;
        for (const std::size_t i : completion_order) {
            const double s = outcomes[i].results.hostSeconds;
            jobSeconds_.push_back(s);
            busyS_ += s;
            const auto begin =
                done[i] - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
            std::size_t lane = 0;
            while (lane < lane_free.size() && lane_free[lane] > begin)
                ++lane;
            if (lane == lane_free.size())
                lane_free.push_back(done[i]);
            else
                lane_free[lane] = done[i];
            rec.add("runner.job " + jobs_[i].profile.name + " " +
                        jobs_[i].config.core.name,
                    begin, done[i], static_cast<int>(lane) + 2);
        }
        const double wall = secondsBetween(start, end);
        sweepThreadS_ = wall * threads;
        runS_ += busyS_;
        // Drain: from the completion that leaves fewer jobs than threads
        // outstanding to the end of the sweep.
        if (completion_order.size() >= threads) {
            const std::size_t k = completion_order.size() - threads;
            drainS_ += secondsBetween(done[completion_order[k]], end);
        }

        // Deterministic results of the matrix.
        committed_ = 0;
        cycles_ = 0;
        double log_ratio = 0;
        std::size_t pairs = 0;
        const std::size_t nm = machines_.size();
        for (std::size_t p = 0; p < profiles_.size(); ++p) {
            double rr = 0, rc = 0;
            for (std::size_t m = 0; m < nm; ++m) {
                const auto &o = outcomes[p * nm + m];
                if (!o.ok)
                    continue;
                committed_ += o.results.stats.committed;
                cycles_ += o.results.stats.cycles;
                if (machines_[m] == "RR-256")
                    rr = o.results.ipc;
                if (machines_[m] == "WSRS-RC-512")
                    rc = o.results.ipc;
            }
            if (rr > 0 && rc > 0) {
                log_ratio += std::log(rc / rr);
                ++pairs;
            }
        }
        ipcRatio_ = pairs ? std::exp(log_ratio / double(pairs)) : 0.0;
        warmupHits_ = runner.telemetry().warmupHits;
        warmupMisses_ = runner.telemetry().warmupMisses;
        reportBytes_ = report.size();
        reportHash_ = fnv1a(report);
        return whole.close();
    }

    /** Direct calls into the layers the runner uses internally. */
    void
    probeLayers(Recorder &rec)
    {
        const std::uint64_t n = kSweepWarmupUops + kSweepMeasureUops;
        const std::uint64_t seed = jobs_.front().config.seed;
        blobBytes_ = 0;
        for (std::size_t p = 0; p < profiles_.size(); ++p) {
            const wsrs::workload::BenchmarkProfile &profile = profiles_[p];
            Recorder::Scope root(rec, "probe " + profile.name);

            // Trace generation, and replay of the same prefix from the
            // shared cache (a first cursor records it, a second replays).
            {
                wsrs::workload::TraceGenerator gen(profile, seed);
                Recorder::Scope s(rec, "workload.generate");
                for (std::uint64_t i = 0; i < n; ++i)
                    sink_ ^= gen.next().pc;
            }
            {
                wsrs::runner::TraceCache cache;
                auto trace = cache.acquire(profile, seed);
                auto recorder_cursor = trace->openCursor();
                for (std::uint64_t i = 0; i < n; ++i)
                    sink_ ^= recorder_cursor->next().pc;
                auto replay = trace->openCursor();
                Recorder::Scope s(rec, "workload.replay");
                for (std::uint64_t i = 0; i < n; ++i)
                    sink_ ^= replay->next().pc;
            }

            // Warm-up snapshot: built once per benchmark, restored once per
            // machine, as the sweep's warm-up cache does.
            const wsrs::sim::SimConfig &first = jobs_[p * machines_.size()]
                                                    .config;
            std::string blob;
            {
                Recorder::Scope s(rec, "ckpt.warmup_build");
                blob = wsrs::sim::buildWarmupSnapshot(profile, first);
            }
            blobBytes_ += blob.size();
            wsrs::workload::TraceGenerator gen(profile, seed);
            for (std::size_t m = 0; m < machines_.size(); ++m) {
                const wsrs::sim::SimConfig &cfg =
                    jobs_[p * machines_.size() + m].config;
                auto predictor = wsrs::sim::makePredictor(cfg.predictor);
                wsrs::StatGroup stats(profile.name);
                wsrs::memory::MemoryHierarchy mem(cfg.mem, stats);
                {
                    Recorder::Scope s(rec, "ckpt.warmup_restore");
                    wsrs::sim::restoreWarmupSnapshot(blob, "perfbench",
                                                     profile, cfg, mem,
                                                     *predictor);
                }
                // Construction of one job's simulator, as runSimulation
                // does it: predictor, hierarchy and core.
                Recorder::Scope s(rec, "sim.construct");
                auto bp = wsrs::sim::makePredictor(cfg.predictor);
                wsrs::StatGroup core_stats(profile.name);
                wsrs::memory::MemoryHierarchy core_mem(cfg.mem, core_stats);
                wsrs::core::Core machine(cfg.core, gen, *bp, core_mem);
                machine.reserveMemoryFootprint(profile.workingSetBytes);
            }
        }
    }

    std::vector<wsrs::workload::BenchmarkProfile> profiles_;
    std::vector<std::string> machines_;
    std::vector<wsrs::runner::SweepJob> jobs_;
    wsrs::runner::SweepRunner::Options options_;

    unsigned tracedReps_ = 0;
    double runS_ = 0, drainS_ = 0;
    std::vector<double> jobSeconds_;  ///< Of the last repetition.
    double busyS_ = 0, sweepThreadS_ = 0;
    std::uint64_t committed_ = 0, cycles_ = 0;
    double ipcRatio_ = 0;
    std::uint64_t warmupHits_ = 0, warmupMisses_ = 0;
    std::uint64_t reportBytes_ = 0, reportHash_ = 0, blobBytes_ = 0;
    std::uint64_t sink_ = 0;  ///< Keeps probe loops observable.
};

} // namespace

std::unique_ptr<Workload>
makeSweepWorkload(std::uint64_t seed, unsigned threads)
{
    return std::make_unique<SweepWorkload>(seed, threads);
}

} // namespace perfbench
