#include "sweep_report.h"

#include <ostream>

#include "src/common/log.h"
#include "src/common/stats.h"

namespace wsrs::runner {

void
writeSweepReport(std::ostream &os, const std::vector<SweepJob> &jobs,
                 const std::vector<SweepOutcome> &outcomes,
                 const SweepRunner::Telemetry &telemetry)
{
    if (jobs.size() != outcomes.size())
        fatal("sweep report: %zu jobs but %zu outcomes", jobs.size(),
              outcomes.size());
    std::size_t failed = 0;
    os << "{\"schema\": \"" << kSweepReportSchema << "\", \"jobs\": [";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepOutcome &out = outcomes[i];
        os << (i ? ", " : "") << "{\"benchmark\": \""
           << jsonEscape(jobs[i].profile.name) << "\", \"machine\": \""
           << jsonEscape(jobs[i].config.core.name) << "\", \"ok\": "
           << (out.ok ? "true" : "false");
        if (out.ok) {
            // results.statsJson is itself a complete JSON document; embed
            // it verbatim.
            os << ", \"stats\": " << out.results.statsJson;
        } else {
            os << ", \"error\": \"" << jsonEscape(out.error)
               << "\", \"stats\": null";
            ++failed;
        }
        os << "}";
    }
    os << "], \"resume\": {\"resumed\": "
       << (telemetry.resumed ? "true" : "false")
       << ", \"skipped_runs\": " << telemetry.skippedRuns
       << "}, \"ckpt\": {\"warmup_reuse\": "
       << (telemetry.warmupReuse ? "true" : "false")
       << ", \"warmup_cache\": {\"hits\": " << telemetry.warmupHits
       << ", \"misses\": " << telemetry.warmupMisses << "}}";
    os << ", \"summary\": {\"total\": " << jobs.size()
       << ", \"failed\": " << failed << "}}";
}

} // namespace wsrs::runner
