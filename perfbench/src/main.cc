/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--threads <n>] [--commit <id>] [--trace-out <path>]
 *
 * With --trace 0 it sets the workload up several times (each set-up
 * ending with one untimed warm repetition), then runs timed repetitions
 * back to back for --seconds and prints the end-to-end metrics: medians
 * over the set-ups and repetitions (peak RSS: a mean over the
 * repetitions). With --trace 1 it runs traced
 * repetitions for --seconds instead, prints the per-layer metrics and
 * writes the recorded spans as a Chrome trace (--trace-out). Either way
 * the last line of standard output is the JSON result object, and every
 * output is checked (see Checks).
 */
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "recorder.h"
#include "report.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

/** Set-ups per timed run; setup_s is their median. */
constexpr int kSetups = 3;
/** Fewest timed repetitions a run makes, however long they take. */
constexpr std::size_t kMinRepetitions = 3;

struct Args
{
    RunOptions run;
    bool trace = false;
    std::string commit = "unknown";
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "                 [--threads <n>] [--commit <id>] "
                 "[--trace-out <path>]\n"
                 "workloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] < '0' || v[0] > '9' || *end != '\0' ||
        errno == ERANGE)
        usage(("malformed " + flag + " '" + v + "'").c_str());
    return x;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.run.threads = std::max(1u, std::thread::hardware_concurrency());
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i], value;
        const std::size_t eq = flag.find('=');
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(("missing value for " + flag).c_str());
        }
        if (flag == "--workload") {
            a.run.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.run.seed = parseUint(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.run.seconds = double(parseUint(flag, value));
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
            have_trace = true;
        } else if (flag == "--threads") {
            a.run.threads = unsigned(parseUint(flag, value));
            if (a.run.threads == 0)
                usage("--threads must be at least 1");
        } else if (flag == "--commit") {
            a.commit = value;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            usage(("unknown option " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == a.run.workload;
    if (!known)
        usage(("unknown workload '" + a.run.workload + "'").c_str());
    return a;
}

/** What produced the numbers, as one JSON object. */
std::string
headerJson(const Args &a)
{
    const auto q = [](const std::string &s) {
        return "\"" + wsrs::jsonEscape(s) + "\"";
    };
    return "{\"workload\": " + q(a.run.workload) +
           ", \"seed\": " + std::to_string(a.run.seed) +
           ", \"seconds\": " + number(a.run.seconds) +
           ", \"trace\": " + (a.trace ? "1" : "0") +
           ", \"threads\": " + std::to_string(a.run.threads) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"commit\": " + q(a.commit) +
           ", \"build_type\": " + q(PERFBENCH_BUILD_TYPE) +
           ", \"cxx_flags\": " + q(PERFBENCH_CXX_FLAGS) +
           ", \"compiler\": " + q(PERFBENCH_COMPILER) + "}";
}

/** One repetition; an exception is a failed operation, not an abort. */
template <typename Fn>
bool
guarded(Checks &checks, Fn &&fn)
{
    try {
        fn();
        return true;
    } catch (const std::exception &e) {
        checks.op(false, e.what());
        return false;
    }
}

int
runTimed(const Args &a, Clock::time_point process_start)
{
    Checks checks;
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    std::size_t index = 0;
    for (int k = 0; k < kSetups; ++k) {
        const auto t0 = k == 0 ? process_start : Clock::now();
        w = makeWorkload(a.run);
        guarded(checks, [&] { w->repetition(checks, index++); });
        setups.push_back(secondsBetween(t0, Clock::now()));
    }

    // Peak RSS is taken per repetition where the kernel lets the high-water
    // mark be reset (else over the whole process) and averaged: with an
    // ensemble of programs, one program's larger footprint must not flip
    // the result between two levels.
    std::vector<double> walls, rates, peaks;
    bool per_rep_peak = true;
    const auto loop_start = Clock::now();
    while (walls.size() < kMinRepetitions ||
           secondsBetween(loop_start, Clock::now()) < a.run.seconds) {
        // Hand memory the last repetition freed back to the kernel first,
        // so it does not count towards this repetition's peak.
        malloc_trim(0);
        per_rep_peak = per_rep_peak && resetPeakRss();
        const auto t0 = Clock::now();
        double units = 0;
        guarded(checks, [&] { units = w->repetition(checks, index++); });
        const double wall = secondsBetween(t0, Clock::now());
        walls.push_back(wall);
        rates.push_back(ratio(units, wall));
        peaks.push_back(peakRssMb());
    }

    std::printf("# work_per_s counts %s; setup_s samples:", w->unitName());
    for (const double s : setups)
        std::printf(" %.4f", s);
    std::printf("; wall_s samples (%zu):", walls.size());
    for (const double s : walls)
        std::printf(" %.4f", s);
    std::printf("\n# peak_rss_mb: %s; samples:",
                per_rep_peak ? "mean of per-repetition peaks"
                             : "process peak (no per-repetition reset)");
    for (const double p : peaks)
        std::printf(" %.2f", p);
    std::printf("\n");
    printResult(checks,
                {
                    {"setup_s", median(setups), "s"},
                    {"wall_s", median(walls), "s"},
                    {"work_per_s", median(rates), "1/s"},
                    {"peak_rss_mb", per_rep_peak ? mean(peaks) : peakRssMb(),
                     "MiB"},
                });
    return 0;
}

int
runTraced(const Args &a)
{
    Checks checks;
    Recorder rec;
    std::unique_ptr<Workload> w;
    {
        Recorder::Scope s(rec, "setup");
        w = makeWorkload(a.run);
        guarded(checks, [&] { w->repetition(checks, 0); });
    }
    std::vector<double> traced, untraced;
    const auto loop_start = Clock::now();
    do {
        TracedTiming t;
        if (guarded(checks, [&] { t = w->tracedRepetition(checks, rec); })) {
            traced.push_back(t.tracedSeconds);
            untraced.push_back(t.untracedSeconds);
        }
    } while (secondsBetween(loop_start, Clock::now()) < a.run.seconds);

    LayerValues values;
    for (const auto &[name, unit] : layerMetrics())
        values[name] = 0;
    const std::size_t known = values.size();
    w->layers(rec, values);
    checks.op(values.size() == known,
              "workload reported a per-layer metric BENCHMARK.json lacks");
    values["trace.overhead_ratio"] = ratio(median(traced), median(untraced));

    const std::string counts = w->deterministicCounts();
    std::printf("# %zu traced repetitions\n# self seconds by layer:",
                traced.size());
    for (const auto &[layer, seconds] : rec.selfSecondsByLayer())
        std::printf(" %s=%.6f", layer.c_str(), seconds);
    std::printf("\n# tallied calls (inside the spans above):");
    for (const auto &[name, t] : rec.tallies())
        std::printf(" %s=%llu calls/%.6f s", name.c_str(),
                    static_cast<unsigned long long>(t.calls),
                    static_cast<double>(t.ns) * 1e-9);
    std::printf("\n");
    std::printf("# deterministic counts: %s\n", counts.c_str());
    std::printf("# deterministic counts fnv1a: %016llx\n",
                static_cast<unsigned long long>(fnv1a(counts)));
    if (!a.traceOut.empty()) {
        const bool ok = rec.writeChromeTrace(a.traceOut, headerJson(a));
        checks.op(ok, "cannot write trace file '" + a.traceOut + "'");
        if (ok)
            std::printf("# spans written to %s\n", a.traceOut.c_str());
    }
    std::vector<Metric> metrics;
    for (const auto &[name, unit] : layerMetrics())
        metrics.push_back({name, values[name], unit});
    printResult(checks, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const auto process_start = Clock::now();
    const Args args = parseArgs(argc, argv);
    std::printf("# perfbench %s\n", headerJson(args).c_str());
    try {
        return args.trace ? runTraced(args) : runTimed(args, process_start);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
