/**
 * @file
 * The benchmark's workloads. Each is a closed loop: one process runs
 * repetitions back to back, and every repetition does the same work
 * (two single runs, the Figure-4 matrix, or one design-space search), so
 * its outputs must be byte-identical every time.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "recorder.h"
#include "report.h"

namespace perfbench {

/** Command-line settings a workload is built from. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    unsigned threads = 1;  ///< Sweep / explore worker threads.
};

/** Per-layer metric values by name (every name of layerMetrics()). */
using LayerValues = std::map<std::string, double>;

/** Host time of one traced repetition and of the same work untraced. */
struct TracedTiming
{
    double tracedSeconds = 0;
    double untracedSeconds = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** What repetition() counts: "uops" or "configs". */
    virtual const char *unitName() const = 0;

    /**
     * Run one repetition untraced; returns the work units it did
     * (simulated micro-ops or enumerated configurations). @p index counts
     * the process's untraced repetitions from 0, set-up warm repetitions
     * first; a workload whose input is an ensemble of programs picks the
     * program from it.
     */
    virtual double repetition(Checks &checks, std::size_t index) = 0;

    /**
     * Run one traced repetition: the same work with spans recorded around
     * each call into a layer, plus the probes the per-layer metrics need.
     */
    virtual TracedTiming tracedRepetition(Checks &checks,
                                          Recorder &rec) = 0;

    /** Per-layer metrics over every traced repetition so far. Layers the
     *  workload does not exercise are left at 0. */
    virtual void layers(const Recorder &rec, LayerValues &out) const = 0;

    /** Deterministic counts of the traced repetitions, as text: they must
     *  repeat exactly for the same seed at any thread count. */
    virtual std::string deterministicCounts() const = 0;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build @p opts.workload (profile / preset lookup, spec parsing).
 *  @throws wsrs::FatalError for an unknown workload name. */
std::unique_ptr<Workload> makeWorkload(const RunOptions &opts);

/** Every per-layer metric, in BENCHMARK.json order: name and unit. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

} // namespace perfbench
