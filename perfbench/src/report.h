/**
 * @file
 * Correctness bookkeeping, summary statistics and output formatting of
 * the benchmark driver.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/**
 * Attempted and failed operations of one benchmark process. An operation
 * is one simulation, one sweep job or one explore() call; every
 * correctness check is counted as an operation too, so a failed check is
 * a failed operation.
 */
class Checks
{
  public:
    /** Count one operation; @p ok false marks it failed, @p what says why. */
    void op(bool ok, const std::string &what);

    /**
     * Byte-identity check of an output that every repetition reproduces:
     * the first @p bytes seen under @p key are the reference, and every
     * later call must match them exactly.
     */
    void same(const std::string &key, const std::string &bytes);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** Message of the first failure (empty when none). */
    const std::string &firstFailure() const { return firstFailure_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::string firstFailure_;
    std::map<std::string, std::string> refs_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Arithmetic mean of @p v (0 for an empty sample). */
double mean(const std::vector<double> &v);
/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);
/** Nearest-rank @p p-th percentile of @p v, p in [0, 100]. */
double percentile(std::vector<double> v, double p);
/** @p num / @p den, or 0 when @p den is 0. */
double ratio(double num, double den);
/** Peak resident set size of this process, MiB: since the last
 *  successful resetPeakRss(), or since it started. */
double peakRssMb();
/** Restart the peak-RSS high-water mark at the current resident size;
 *  false where the kernel does not allow it. */
bool resetPeakRss();
/** FNV-1a 64-bit hash (output digests). */
std::uint64_t fnv1a(std::string_view s);
/** A number with all its significant digits; non-finite values print 0. */
std::string number(double v);

/**
 * Print the metrics one per line ("<name> = <value> <unit>"), then, as
 * the last line of standard output, the result object the benchmark
 * contract defines: {"correct", "attempted", "failed", "metrics"}.
 */
void printResult(const Checks &checks, const std::vector<Metric> &metrics);

} // namespace perfbench
