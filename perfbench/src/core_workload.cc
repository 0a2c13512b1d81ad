/**
 * @file
 * core_ilp and core_memstall: one benchmark on RR-256 and WSRS-RC-512,
 * one serial sim::runSimulation each with the paper-protocol slices
 * (SimConfig defaults: 400K warm-up, 1M measured micro-ops).
 *
 * The trace seed shapes the synthetic program itself, not only its
 * dynamic stream: across seeds, simulated cycles of one benchmark vary by
 * about 20%. So a run's input is an ensemble of kPrograms programs, trace
 * seeds seed*kPrograms + j, and repetition i simulates program i mod
 * kPrograms: the set-ups warm the first programs, and the timed
 * repetitions go on through the rest before they come back round. Every
 * repetition of a program must reproduce its stats documents exactly.
 *
 * The traced repetition also assembles the simulation itself (trace
 * generator, predictor, memory hierarchy, core) with probes around the
 * trace source and the predictor, so each layer's time and work is
 * measured at its boundary. The stats document it builds must be
 * byte-identical to runSimulation's, which proves the probed assembly
 * simulates the same program.
 */
#include <algorithm>
#include <array>
#include <memory>
#include <sstream>

#include "src/ckpt/io.h"
#include "src/common/stats.h"
#include "src/core/core.h"
#include "src/memory/hierarchy.h"
#include "src/obs/stage_profiler.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"
#include "src/workload/trace_generator.h"
#include "workloads_impl.h"

namespace perfbench {

namespace {

using wsrs::obs::StageProfiler;

/** Programs in a run's input ensemble: about as many as the repetitions
 *  core_memstall fits in a run, so its median spans distinct programs. */
constexpr std::size_t kPrograms = 6;

/** Trace source probe: counts and times every next(). */
class TimedSource final : public wsrs::workload::MicroOpSource
{
  public:
    TimedSource(wsrs::workload::MicroOpSource &inner, Tally &tally)
        : inner_(inner), tally_(tally)
    {
    }

    wsrs::isa::MicroOp
    next() override
    {
        const auto t0 = Clock::now();
        wsrs::isa::MicroOp op = inner_.next();
        tally_.ns += nsBetween(t0, Clock::now());
        ++tally_.calls;
        return op;
    }

  private:
    wsrs::workload::MicroOpSource &inner_;
    Tally &tally_;
};

/** Branch-predictor probe: counts and times every lookup and update, and
 *  counts the lookups whose prediction the update proves wrong. */
class TimedPredictor final : public wsrs::bpred::BranchPredictor
{
  public:
    TimedPredictor(wsrs::bpred::BranchPredictor &inner, Tally &lookups,
                   Tally &updates)
        : inner_(inner), lookups_(lookups), updates_(updates)
    {
    }

    bool
    lookup(wsrs::Addr pc) override
    {
        const auto t0 = Clock::now();
        const bool taken = inner_.lookup(pc);
        lookups_.ns += nsBetween(t0, Clock::now());
        ++lookups_.calls;
        lastPrediction_ = taken;
        return taken;
    }

    void
    update(wsrs::Addr pc, bool taken) override
    {
        // The core updates right after each lookup (predictor.h), so the
        // prediction being resolved is always the last one made.
        if (taken != lastPrediction_)
            ++mispredicts_;
        const auto t0 = Clock::now();
        inner_.update(pc, taken);
        updates_.ns += nsBetween(t0, Clock::now());
        ++updates_.calls;
    }

    std::uint64_t storageBits() const override
    {
        return inner_.storageBits();
    }
    bool isPerfect() const override { return inner_.isPerfect(); }
    std::string name() const override { return inner_.name(); }
    void snapshot(wsrs::ckpt::Writer &w) const override
    {
        inner_.snapshot(w);
    }
    void restore(wsrs::ckpt::Reader &r) override { inner_.restore(r); }

    std::uint64_t mispredicts() const { return mispredicts_; }

  private:
    wsrs::bpred::BranchPredictor &inner_;
    Tally &lookups_;
    Tally &updates_;
    bool lastPrediction_ = false;
    std::uint64_t mispredicts_ = 0;
};

/** Time inside tallied calls, without the clock pair each call adds. */
double
callSeconds(const Tally &t, double clock_pair_ns)
{
    const double ns = static_cast<double>(t.ns) -
                      static_cast<double>(t.calls) * clock_pair_ns;
    return ns > 0 ? ns * 1e-9 : 0.0;
}

/** Time the tallied calls took out of the enclosing span: the call, the
 *  clock pair inside its interval and the clock read outside it. */
double
spanShareSeconds(const Tally &t, double clock_pair_ns)
{
    return (static_cast<double>(t.ns) +
            static_cast<double>(t.calls) * clock_pair_ns) *
           1e-9;
}

Tally
minus(const Tally &a, const Tally &b)
{
    return {a.calls - b.calls, a.ns - b.ns};
}

/** Everything the traced repetitions of one machine accumulate. */
struct MachineLayers
{
    std::string label;
    // Host time, summed over traced repetitions.
    double constructS = 0, warmupS = 0, measureS = 0;
    double snapshotS = 0, restoreS = 0, statsJsonS = 0;
    double runOffS = 0, runOnS = 0;
    double coreSelfS = 0;  ///< Core::run minus the probed callees.
    // Work, summed over traced repetitions.
    std::uint64_t committed = 0;  ///< Warm-up plus measured.
    std::uint64_t cycles = 0;     ///< Warm-up plus measured.
    std::uint64_t coreBytes = 0, statsJsonBytes = 0;
    std::uint64_t snapshotBytes = 0;  ///< Of the last repetition.
    // Deterministic counts of the measured slice (last repetition; every
    // repetition must reproduce them).
    std::uint64_t measCommitted = 0, measCycles = 0, commitCycles = 0;
    std::uint64_t memAccesses = 0, l1Misses = 0, l2Misses = 0;
    std::uint64_t dramRequests = 0, dramRowHits = 0, dramQueueFull = 0;
    // Stage profile of the measured slice, summed over repetitions.
    std::array<double, StageProfiler::kNumStages> stageS{};
    std::uint64_t stageCalls = 0, profiledCycles = 0;
};

class CoreWorkload final : public Workload
{
  public:
    CoreWorkload(const std::string &bench, const std::string &mem_label,
                 std::uint64_t seed)
        : profile_(wsrs::workload::findProfile(bench))
    {
        for (const char *label : {"RR-256", "WSRS-RC-512"}) {
            wsrs::sim::SimConfig c;
            c.core = wsrs::sim::findPreset(label);
            c.mem = wsrs::sim::findMemPreset(mem_label);
            configs_.push_back(c);
            machines_.push_back(MachineLayers{});
            machines_.back().label = label;
        }
        for (std::size_t j = 0; j < kPrograms; ++j)
            seeds_.push_back(seed * kPrograms + j);
    }

    const char *unitName() const override { return "uops"; }

    double
    repetition(Checks &checks, std::size_t index) override
    {
        const std::size_t program = index % kPrograms;
        double uops = 0;
        for (std::size_t m = 0; m < configs_.size(); ++m) {
            const wsrs::sim::SimConfig c = config(m, program);
            const auto r = simulate(checks, c);
            if (!r)
                continue;
            checks.same(statsKey(m, program), r->statsJson);
            uops += static_cast<double>(c.warmupUops + c.measureUops);
        }
        return uops;
    }

    TracedTiming
    tracedRepetition(Checks &checks, Recorder &rec) override
    {
        TracedTiming timing;
        ipcs_.assign(configs_.size(), 0.0);
        repMispredicts_ = 0;
        for (std::size_t m = 0; m < configs_.size(); ++m) {
            MachineLayers &ml = machines_[m];
            // Traced repetitions always simulate the ensemble's first
            // program, so their deterministic counts repeat exactly.
            const wsrs::sim::SimConfig off = config(m, 0);
            const std::string key = statsKey(m, 0);
            Recorder::Scope root(rec, "rep " + ml.label);

            // Reference run, exactly as the untraced repetition does it.
            Recorder::Scope s_off(rec, "sim.run");
            const auto r_off = simulate(checks, off);
            ml.runOffS += s_off.close();
            if (!r_off)
                continue;
            checks.same(key, r_off->statsJson);
            ipcs_[m] = r_off->ipc;

            // Oracle pass: commit-time dataflow verification on. The
            // stats document must not change (runSimulation throws on a
            // value mismatch).
            wsrs::sim::SimConfig on = off;
            on.verifyDataflow = true;
            Recorder::Scope s_on(rec, "oracle.run");
            const auto r_on = simulate(checks, on);
            const double on_s = s_on.close();
            ml.runOnS += on_s;
            if (r_on)
                checks.same(key, r_on->statsJson);

            // Probed assembly of the same verify-on run.
            timing.tracedSeconds += probedRun(checks, rec, on, ml, key);
            timing.untracedSeconds += on_s;

            // Stage profile of the measured slice.
            StageProfiler prof;
            wsrs::sim::SimConfig profiled = off;
            profiled.profiler = &prof;
            Recorder::Scope s_prof(rec, "core.stage_profiled_run");
            const auto r_prof = simulate(checks, profiled);
            s_prof.close();
            if (!r_prof)
                continue;
            checks.same(key, r_prof->statsJson);
            for (std::size_t s = 0; s < StageProfiler::kNumStages; ++s)
                ml.stageS[s] +=
                    prof.seconds(static_cast<StageProfiler::Stage>(s));
            ml.stageCalls += prof.calls(StageProfiler::Commit);
            ml.profiledCycles += r_prof->stats.cycles;
        }
        ++tracedReps_;
        checks.same("traced counts", deterministicCounts());
        return timing;
    }

    void
    layers(const Recorder &rec, LayerValues &out) const override
    {
        const double reps = tracedReps_ ? double(tracedReps_) : 1.0;
        const double pair = rec.clockPairNs();
        const Tally gen = rec.tallied("workload.next");
        const Tally look = rec.tallied("bpred.lookup");
        const Tally upd = rec.tallied("bpred.update");

        double committed = 0, cycles = 0, core_self = 0;
        double meas_committed = 0, meas_cycles = 0, commit_cycles = 0;
        double acc = 0, l1m = 0, l2m = 0, dreq = 0, dhit = 0, dfull = 0;
        double stage_total = 0, stage_calls = 0, profiled_cycles = 0;
        std::array<double, StageProfiler::kNumStages> stage{};
        double off_s = 0, on_s = 0;
        for (const MachineLayers &ml : machines_) {
            out["core.ns_per_uop." + ml.label] =
                ratio(ml.coreSelfS * 1e9, double(ml.committed));
            committed += double(ml.committed);
            cycles += double(ml.cycles);
            core_self += ml.coreSelfS;
            meas_committed += double(ml.measCommitted);
            meas_cycles += double(ml.measCycles);
            commit_cycles += double(ml.commitCycles);
            acc += double(ml.memAccesses);
            l1m += double(ml.l1Misses);
            l2m += double(ml.l2Misses);
            dreq += double(ml.dramRequests);
            dhit += double(ml.dramRowHits);
            dfull += double(ml.dramQueueFull);
            for (std::size_t s = 0; s < stage.size(); ++s) {
                stage[s] += ml.stageS[s];
                stage_total += ml.stageS[s];
            }
            stage_calls += double(ml.stageCalls);
            profiled_cycles += double(ml.profiledCycles);
            off_s += ml.runOffS;
            on_s += ml.runOnS;
            out["core.warmup_s"] += ml.warmupS / reps;
            out["core.measure_s"] += ml.measureS / reps;
            out["sim.construct_s"] += ml.constructS / reps;
            out["sim.run_s"] += ml.runOffS / reps;
            out["obs.stats_json_s"] += ml.statsJsonS / reps;
            out["obs.stats_json_bytes"] += double(ml.statsJsonBytes) / reps;
            out["ckpt.core_snapshot_s"] += ml.snapshotS / reps;
            out["ckpt.core_restore_s"] += ml.restoreS / reps;
            out["ckpt.core_bytes"] += double(ml.coreBytes) / reps;
        }

        out["workload.gen_ns_per_uop"] =
            ratio(callSeconds(gen, pair) * 1e9, double(gen.calls));
        out["bpred.lookups_per_kuop"] =
            ratio(1000.0 * double(look.calls), committed);
        out["bpred.ns_per_lookup"] =
            ratio((callSeconds(look, pair) + callSeconds(upd, pair)) * 1e9,
                  double(look.calls));
        out["bpred.mispredict_rate"] =
            ratio(double(mispredicts_), double(look.calls));
        out["core.ns_per_cycle"] = ratio(core_self * 1e9, cycles);
        static const std::pair<const char *, StageProfiler::Stage>
            kStages[] = {{"fetch", StageProfiler::Fetch},
                         {"rename", StageProfiler::Rename},
                         {"issue", StageProfiler::Issue},
                         {"agen", StageProfiler::Agen},
                         {"store_data", StageProfiler::StoreData},
                         {"commit", StageProfiler::Commit}};
        for (const auto &[name, s] : kStages)
            out[std::string("core.stage_share.") + name] =
                ratio(stage[s], stage_total);
        out["core.stepped_per_sim_cycle"] =
            ratio(stage_calls, profiled_cycles);
        out["core.sim_cycles_per_uop"] = ratio(meas_cycles, meas_committed);
        out["core.sim_ipc"] = ratio(meas_committed, meas_cycles);
        out["core.commit_idle_share"] =
            ratio(meas_cycles - commit_cycles, meas_cycles);
        out["memory.accesses_per_uop"] = ratio(acc, meas_committed);
        out["memory.l1_miss_ratio"] = ratio(l1m, acc);
        out["memory.l2_miss_ratio"] = ratio(l2m, l1m);
        out["memory.dram_row_hit_ratio"] = ratio(dhit, dreq);
        out["memory.dram_queue_full_waits"] = dfull;
        out["sim.wsrs_rc512_vs_rr256_ipc"] = ratio(ipcs_.back(), ipcs_[0]);
        // Oracle cost per simulated micro-op (warm-up plus measured).
        out["oracle.ns_per_uop"] = ratio((on_s - off_s) * 1e9, committed);
    }

    std::string
    deterministicCounts() const override
    {
        std::ostringstream os;
        for (const MachineLayers &ml : machines_)
            os << ml.label << ": committed=" << ml.measCommitted
               << " cycles=" << ml.measCycles
               << " commit_cycles=" << ml.commitCycles
               << " mem_accesses=" << ml.memAccesses
               << " l1_misses=" << ml.l1Misses
               << " l2_misses=" << ml.l2Misses
               << " dram_requests=" << ml.dramRequests
               << " dram_row_hits=" << ml.dramRowHits
               << " dram_queue_full_waits=" << ml.dramQueueFull
               << " core_bytes=" << ml.snapshotBytes << "; ";
        os << "bpred_mispredicts=" << repMispredicts_;
        return os.str();
    }

  private:
    /** Machine @p m simulating ensemble program @p program. */
    wsrs::sim::SimConfig
    config(std::size_t m, std::size_t program) const
    {
        wsrs::sim::SimConfig c = configs_[m];
        c.seed = seeds_[program];
        return c;
    }

    std::string
    statsKey(std::size_t m, std::size_t program) const
    {
        return "stats " + machines_[m].label + " seed " +
               std::to_string(seeds_[program]);
    }

    /** One runSimulation; a thrown error counts as a failed operation. */
    std::unique_ptr<wsrs::sim::SimResults>
    simulate(Checks &checks, const wsrs::sim::SimConfig &config)
    {
        try {
            auto r = std::make_unique<wsrs::sim::SimResults>(
                wsrs::sim::runSimulation(profile_, config));
            checks.op(true, {});
            return r;
        } catch (const std::exception &e) {
            checks.op(false, profile_.name + " on " + config.core.name +
                                 ": " + e.what());
            return nullptr;
        }
    }

    /**
     * The probed assembly of runSimulation's core-timed warm-up path, with
     * a Core snapshot/restore round trip at the warm-up boundary. Returns
     * the host seconds of the whole assembly.
     */
    double
    probedRun(Checks &checks, Recorder &rec, const wsrs::sim::SimConfig &cfg,
              MachineLayers &ml, const std::string &key)
    {
        Tally &gen_t = rec.tally("workload.next");
        Tally &look_t = rec.tally("bpred.lookup");
        Tally &upd_t = rec.tally("bpred.update");
        const Tally gen0 = gen_t, look0 = look_t, upd0 = upd_t;

        Recorder::Scope whole(rec, "sim.probed_run");
        wsrs::workload::TraceGenerator gen(profile_, cfg.seed);
        TimedSource source(gen, gen_t);

        Recorder::Scope s_construct(rec, "sim.construct");
        auto inner = wsrs::sim::makePredictor(cfg.predictor);
        TimedPredictor predictor(*inner, look_t, upd_t);
        wsrs::StatGroup stats(profile_.name);
        wsrs::memory::MemoryHierarchy mem(cfg.mem, stats);
        wsrs::core::CoreParams cp = cfg.core;
        cp.verifyDataflow = cfg.verifyDataflow;
        wsrs::core::Core machine(cp, source, predictor, mem);
        machine.reserveMemoryFootprint(profile_.workingSetBytes);
        ml.constructS += s_construct.close();

        double run_s = 0;
        try {
            Recorder::Scope s_warm(rec, "core.warmup");
            machine.run(cfg.warmupUops);
            const double warm_s = s_warm.close();
            ml.warmupS += warm_s;
            run_s += warm_s;
            const std::uint64_t warm_committed = machine.stats().committed;
            const std::uint64_t warm_cycles = machine.stats().cycles;

            // Core checkpoint round trip at the warm-up boundary, restored
            // into a fresh Core that is then dropped: it prices the
            // snapshot without perturbing the run.
            wsrs::ckpt::Writer w;
            Recorder::Scope s_snap(rec, "ckpt.core_snapshot");
            machine.snapshot(w);
            ml.snapshotS += s_snap.close();
            ml.coreBytes += w.size();
            ml.snapshotBytes = w.size();
            {
                wsrs::core::Core scratch(cp, source, predictor, mem);
                Recorder::Scope s_restore(rec, "ckpt.core_restore");
                wsrs::ckpt::Reader r(w.buffer(), "perfbench core snapshot");
                scratch.restore(r);
                ml.restoreS += s_restore.close();
            }

            machine.resetStats();
            mem.resetMeasurement(machine.now());
            const std::uint64_t acc0 = mem.accesses();
            const std::uint64_t l1m0 = mem.l1Misses();
            const std::uint64_t l2m0 = mem.l2Misses();
            wsrs::sim::MemBackendStats d0;
            if (const wsrs::memory::DramController *d = mem.dram()) {
                d0.dramRequests = d->requests();
                d0.dramRowHits = d->rowHits();
                d0.dramQueueFullWaits = d->queueFullWaits();
            }

            Recorder::Scope s_meas(rec, "core.measure");
            machine.run(cfg.measureUops);
            const double meas_s = s_meas.close();
            ml.measureS += meas_s;
            run_s += meas_s;

            const wsrs::core::CoreStats &cs = machine.stats();
            checks.op(cs.valueMismatches == 0,
                      ml.label + ": oracle value mismatches");
            ml.committed += warm_committed + cs.committed;
            ml.cycles += warm_cycles + cs.cycles;
            ml.measCommitted = cs.committed;
            ml.measCycles = cs.cycles;
            ml.commitCycles = machine.pipeStats().commitStall().bucket(
                static_cast<std::size_t>(wsrs::obs::CommitStall::Committed));
            const std::uint64_t acc = mem.accesses() - acc0;
            const std::uint64_t l1m = mem.l1Misses() - l1m0;
            const std::uint64_t l2m = mem.l2Misses() - l2m0;
            ml.memAccesses = acc;
            ml.l1Misses = l1m;
            ml.l2Misses = l2m;
            if (const wsrs::memory::DramController *d = mem.dram()) {
                ml.dramRequests = d->requests() - d0.dramRequests;
                ml.dramRowHits = d->rowHits() - d0.dramRowHits;
                ml.dramQueueFull = d->queueFullWaits() - d0.dramQueueFullWaits;
            }

            Recorder::Scope s_json(rec, "obs.stats_json");
            const std::string doc =
                statsDocument(cfg, cs, machine, mem, stats, acc, l1m, l2m);
            ml.statsJsonS += s_json.close();
            ml.statsJsonBytes += doc.size();
            checks.same(key, doc);
            checks.op(true, {});
        } catch (const std::exception &e) {
            checks.op(false, "probed " + profile_.name + " on " + ml.label +
                                 ": " + e.what());
        }
        mispredicts_ += predictor.mispredicts();
        repMispredicts_ += predictor.mispredicts();

        // Core self time: Core::run minus the probed callees' share.
        const double callees =
            spanShareSeconds(minus(gen_t, gen0), rec.clockPairNs()) +
            spanShareSeconds(minus(look_t, look0), rec.clockPairNs()) +
            spanShareSeconds(minus(upd_t, upd0), rec.clockPairNs());
        ml.coreSelfS += run_s - callees;
        return whole.close();
    }

    /** The wsrs-stats-v1 document, assembled as runSimulation does. */
    std::string
    statsDocument(const wsrs::sim::SimConfig &cfg,
                  const wsrs::core::CoreStats &cs,
                  const wsrs::core::Core &machine,
                  const wsrs::memory::MemoryHierarchy &mem,
                  const wsrs::StatGroup &stats, std::uint64_t acc,
                  std::uint64_t l1m, std::uint64_t l2m) const
    {
        std::ostringstream os;
        os << "{\"schema\": \"" << wsrs::kStatsJsonSchema
           << "\", \"benchmark\": \"" << wsrs::jsonEscape(profile_.name)
           << "\", \"machine\": \"" << wsrs::jsonEscape(cfg.core.name)
           << "\", \"measure_uops\": " << cfg.measureUops
           << ", \"warmup_uops\": " << cfg.warmupUops
           << ", \"seed\": " << cfg.seed << ", \"metrics\": {\"ipc\": ";
        wsrs::dumpJsonDouble(os, cs.ipc());
        os << ", \"unbalancing_degree\": ";
        wsrs::dumpJsonDouble(os, cs.unbalancingDegree());
        os << ", \"branch_mispredict_rate\": ";
        wsrs::dumpJsonDouble(os, cs.mispredictRate());
        os << ", \"l1_miss_rate\": ";
        wsrs::dumpJsonDouble(os, acc ? double(l1m) / acc : 0.0);
        os << ", \"l2_miss_rate\": ";
        wsrs::dumpJsonDouble(os, l1m ? double(l2m) / l1m : 0.0);
        os << "}, \"core\": ";
        machine.dumpStatsJson(os);
        os << ", \"memory\": ";
        if (const wsrs::memory::DramController *d = mem.dram())
            d->dumpJson(os, stats, machine.now());
        else
            stats.dumpJson(os);
        os << "}";
        return os.str();
    }

    wsrs::workload::BenchmarkProfile profile_;
    std::vector<wsrs::sim::SimConfig> configs_;  ///< Seedless, per machine.
    std::vector<std::uint64_t> seeds_;           ///< The program ensemble.
    std::vector<MachineLayers> machines_;
    std::vector<double> ipcs_ = std::vector<double>(2, 0.0);
    std::uint64_t mispredicts_ = 0;     ///< Summed over repetitions.
    std::uint64_t repMispredicts_ = 0;  ///< Of the last repetition.
    unsigned tracedReps_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCoreWorkload(const std::string &bench, const std::string &mem_label,
                 std::uint64_t seed)
{
    return std::make_unique<CoreWorkload>(bench, mem_label, seed);
}

} // namespace perfbench
