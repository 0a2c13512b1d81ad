/**
 * @file
 * explore_space: one analytic-only explore::explore() (no cycle-accurate
 * confirmation) over the benchmark's own wsrs-space-v1 specification, a
 * 1,049,760-point space across core and memory axes of which about one
 * point in six is infeasible.
 *
 * The seed permutes the order of the axes and of each axis's values. The
 * set of points, and therefore the feasible count and the frontier size,
 * is the same for every seed; the enumeration order, the flat indices and
 * the report bytes are not.
 *
 * The traced repetition also times each stage of scoring one point —
 * decode and materialization, the analytic IPC estimate over the spec's
 * workloads, the hardware (rfmodel + cxmodel) estimate and the Pareto
 * archive offer — on an evenly spaced sample of the space.
 */
#include <sstream>

#include "src/explore/analytic_model.h"
#include "src/explore/explorer.h"
#include "src/explore/pareto.h"
#include "src/explore/space.h"
#include "src/workload/profiles.h"
#include "workloads_impl.h"

namespace perfbench {

namespace {

/** One axis of the benchmark's space: a catalog parameter and its values
 *  as JSON tokens. */
struct AxisDef
{
    const char *param;
    std::vector<std::string> values;
};

/** The space: 3*3*2*9*3*2*5*3*4*3*3*2 = 1,049,760 points. */
const std::vector<AxisDef> &
spaceAxes()
{
    static const std::vector<AxisDef> axes = {
        {"core.mode", {"\"conventional\"", "\"ws\"", "\"wsrs\""}},
        {"core.policy", {"\"rr\"", "\"rc\"", "\"rm\""}},
        {"core.num_clusters", {"2", "4"}},
        {"core.num_phys_regs",
         {"256", "320", "384", "448", "512", "576", "640", "704", "768"}},
        {"core.cluster_window", {"40", "56", "72"}},
        {"core.issue_per_cluster", {"2", "4"}},
        {"core.lsq_size", {"32", "48", "64", "80", "96"}},
        {"mem.l1_kb", {"16", "32", "64"}},
        {"mem.l2_kb", {"256", "512", "1024", "2048"}},
        {"mem.mshrs", {"4", "8", "16"}},
        {"mem.prefetch_depth", {"0", "2", "4"}},
        {"mem.model", {"\"constant\"", "\"dram\""}},
    };
    return axes;
}

/** The workloads of examples/design_space.json. */
const char *const kSpaceWorkloads[] = {"gzip", "gcc", "mcf", "swim",
                                       "equake"};

/** splitmix64: the permutation stream for a seed. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t &state)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix(state) % i]);
}

/** The space specification for @p seed. */
std::string
renderSpace(std::uint64_t seed)
{
    std::uint64_t state = seed;
    std::vector<AxisDef> axes = spaceAxes();
    shuffle(axes, state);
    std::ostringstream os;
    os << "{\"schema\": \"" << wsrs::explore::kSpaceSchema
       << "\", \"base\": {\"machine\": \"WSRS-RC-512\", "
          "\"mem\": \"constant\"}, \"workloads\": [";
    for (std::size_t i = 0; i < std::size(kSpaceWorkloads); ++i)
        os << (i ? ", " : "") << '"' << kSpaceWorkloads[i] << '"';
    os << "], \"axes\": [";
    for (std::size_t a = 0; a < axes.size(); ++a) {
        shuffle(axes[a].values, state);
        os << (a ? ",\n  " : "\n  ") << "{\"param\": \"" << axes[a].param
           << "\", \"values\": [";
        for (std::size_t v = 0; v < axes[a].values.size(); ++v)
            os << (v ? ", " : "") << axes[a].values[v];
        os << "]}";
    }
    os << "]}\n";
    return os.str();
}

/** Number of evenly spaced points the traced repetition scores stage by
 *  stage. */
constexpr std::uint64_t kProbePoints = 1u << 16;

class ExploreWorkload final : public Workload
{
  public:
    ExploreWorkload(std::uint64_t seed, unsigned threads)
        : specText_(renderSpace(seed)),
          spec_(wsrs::explore::parseSpaceSpec(specText_, "perfbench space"))
    {
        options_.threads = threads;
        options_.confirmTop = 0;
    }

    const char *unitName() const override { return "configs"; }

    double
    repetition(Checks &checks, std::size_t) override
    {
        return verify(checks, wsrs::explore::explore(spec_, model_, options_));
    }

    TracedTiming
    tracedRepetition(Checks &checks, Recorder &rec) override
    {
        TracedTiming timing;
        {
            Recorder::Scope s(rec, "explore.untraced_explore");
            repetition(checks, 0);
            timing.untracedSeconds = s.close();
        }
        {
            Recorder::Scope s(rec, "explore.explore");
            const auto result = wsrs::explore::explore(spec_, model_, options_);
            verify(checks, result);
            timing.tracedSeconds = s.close();
            enumerated_ = result.enumerated;
            infeasible_ = result.infeasible;
            frontier_ = result.frontier.size();
            reportHash_ = fnv1a(result.reportJson);
        }
        {
            Recorder::Scope s(rec, "explore.parse");
            const auto spec =
                wsrs::explore::parseSpaceSpec(specText_, "perfbench space");
            checks.op(spec.totalPoints() == spec_.totalPoints(),
                      "re-parsed space differs in size");
        }
        probeStages(rec);
        ++tracedReps_;
        checks.same("traced counts", deterministicCounts());
        return timing;
    }

    void
    layers(const Recorder &rec, LayerValues &out) const override
    {
        const double reps = tracedReps_ ? double(tracedReps_) : 1.0;
        const double probes = reps * double(kProbePoints);
        const double scored = reps * double(probeFeasible_);
        out["explore.parse_s"] = rec.totalSeconds("explore.parse") / reps;
        out["explore.decode_ns_per_config"] =
            ratio(rec.totalSeconds("explore.decode") * 1e9, probes);
        out["explore.ipc_estimate_ns_per_config"] =
            ratio(rec.totalSeconds("explore.ipc_estimate") * 1e9, scored);
        out["explore.hw_estimate_ns_per_config"] =
            ratio(rec.totalSeconds("explore.hw_estimate") * 1e9, scored);
        out["explore.pareto_offer_ns"] =
            ratio(rec.totalSeconds("explore.pareto_offer") * 1e9, scored);
        out["explore.feasible_ratio"] =
            ratio(double(enumerated_ - infeasible_), double(enumerated_));
        out["explore.frontier_size"] = double(frontier_);
    }

    std::string
    deterministicCounts() const override
    {
        std::ostringstream os;
        os << "enumerated=" << enumerated_ << " infeasible=" << infeasible_
           << " frontier=" << frontier_ << " report_fnv=" << reportHash_
           << " probe_feasible=" << probeFeasible_
           << " probe_frontier=" << probeFrontier_;
        return os.str();
    }

  private:
    /** Correctness of one explore() result; returns points enumerated. */
    double
    verify(Checks &checks, const wsrs::explore::ExplorerResult &r)
    {
        checks.op(true, {});
        checks.op(r.enumerated == spec_.totalPoints() &&
                      r.infeasible < r.enumerated,
                  "explore enumerated " + std::to_string(r.enumerated) +
                      " points with " + std::to_string(r.infeasible) +
                      " infeasible, space has " +
                      std::to_string(spec_.totalPoints()));
        bool frontier_ok = !r.frontier.empty();
        for (const auto &a : r.frontier)
            for (const auto &b : r.frontier)
                if (wsrs::explore::dominates(a.obj, b.obj))
                    frontier_ok = false;
        checks.op(frontier_ok, "explore frontier is empty or dominated");
        checks.same("explore report", r.reportJson);
        return double(r.enumerated);
    }

    /** Score an evenly spaced sample of the space one stage at a time,
     *  each stage under its own span, single-threaded. */
    void
    probeStages(Recorder &rec)
    {
        const std::uint64_t total = spec_.totalPoints();
        std::vector<std::uint32_t> digits(spec_.axes.size());
        std::vector<wsrs::explore::ConfigPoint> points;
        std::vector<std::uint64_t> indices;
        points.reserve(kProbePoints);
        {
            Recorder::Scope s(rec, "explore.decode");
            for (std::uint64_t i = 0; i < kProbePoints; ++i) {
                const std::uint64_t idx = i * total / kProbePoints;
                wsrs::explore::decodePoint(spec_, idx, digits.data());
                wsrs::explore::ConfigPoint pt =
                    wsrs::explore::materializePoint(spec_, digits.data());
                if (pt.feasible) {
                    points.push_back(std::move(pt));
                    indices.push_back(idx);
                }
            }
        }
        probeFeasible_ = points.size();

        std::vector<wsrs::explore::WorkloadSignature> sigs;
        for (const char *w : kSpaceWorkloads)
            sigs.push_back(
                model_.characterize(wsrs::workload::findProfile(w)));
        std::vector<double> ipc(points.size(), 0.0);
        {
            Recorder::Scope s(rec, "explore.ipc_estimate");
            for (std::size_t i = 0; i < points.size(); ++i) {
                for (const auto &sig : sigs)
                    ipc[i] += model_.estimateIpc(points[i].core,
                                                 points[i].mem, sig)
                                  .ipc;
                ipc[i] /= double(sigs.size());
            }
        }
        std::vector<wsrs::explore::HardwareEstimate> hw(points.size());
        {
            Recorder::Scope s(rec, "explore.hw_estimate");
            for (std::size_t i = 0; i < points.size(); ++i)
                hw[i] = model_.estimateHardware(points[i].core);
        }
        wsrs::explore::ParetoArchive archive;
        {
            Recorder::Scope s(rec, "explore.pareto_offer");
            for (std::size_t i = 0; i < points.size(); ++i) {
                wsrs::explore::FrontierPoint p;
                p.index = indices[i];
                p.obj.ipc = ipc[i];
                p.obj.area = hw[i].areaRel;
                p.obj.energy = hw[i].energyNJ;
                archive.offer(p);
            }
        }
        probeFrontier_ = archive.size();
    }

    std::string specText_;
    wsrs::explore::SpaceSpec spec_;
    wsrs::explore::AnalyticModel model_;
    wsrs::explore::ExplorerOptions options_;

    unsigned tracedReps_ = 0;
    std::uint64_t enumerated_ = 0, infeasible_ = 0, frontier_ = 0;
    std::uint64_t reportHash_ = 0;
    std::uint64_t probeFeasible_ = 0, probeFrontier_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeExploreWorkload(std::uint64_t seed, unsigned threads)
{
    return std::make_unique<ExploreWorkload>(seed, threads);
}

} // namespace perfbench
