#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/common/stats.h"

namespace perfbench {

void
Checks::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (firstFailure_.empty())
        firstFailure_ = what.empty() ? "unnamed failure" : what;
}

void
Checks::same(const std::string &key, const std::string &bytes)
{
    const auto [it, inserted] = refs_.try_emplace(key, bytes);
    op(inserted || it->second == bytes,
       "output '" + key + "' differs from the first repetition's");
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (const double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least p% of the sample at
    // or below it.
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    // VmHWM is this image's own high-water mark. getrusage's ru_maxrss
    // is not: it keeps the pre-exec peak of the process that spawned us.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";  // 5: reset the peak RSS (VmHWM) to the current RSS
    clear.flush();
    return static_cast<bool>(clear);
}

std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-40s = %s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    const double error_rate =
        ratio(static_cast<double>(checks.failed()),
              static_cast<double>(checks.attempted()));
    std::printf("%-40s = %s (%llu failed of %llu attempted)\n",
                "error_rate", number(error_rate).c_str(),
                static_cast<unsigned long long>(checks.failed()),
                static_cast<unsigned long long>(checks.attempted()));
    if (!checks.firstFailure().empty())
        std::printf("first failure: %s\n", checks.firstFailure().c_str());

    std::ostringstream json;
    json << "{\"correct\": "
         << (checks.failed() == 0 && checks.attempted() > 0 ? "true"
                                                            : "false")
         << ", \"attempted\": " << checks.attempted()
         << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << '"' << wsrs::jsonEscape(metrics[i].name)
             << "\": {\"value\": " << number(metrics[i].value)
             << ", \"unit\": \"" << wsrs::jsonEscape(metrics[i].unit)
             << "\"}";
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
