#include "span_log.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <ostream>

#include "src/common/stats.h"

namespace wsrs::obs {

std::int64_t
monotonicMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanLog::add(SpanEvent e)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
}

void
SpanLog::complete(std::string name, std::uint64_t job, std::int64_t startUs,
                  std::int64_t durUs, std::string detail)
{
    add(SpanEvent{std::move(name), 'X', job, startUs, durUs,
                  std::move(detail)});
}

void
SpanLog::instant(std::string name, std::uint64_t job, std::int64_t tsUs,
                 std::string detail)
{
    add(SpanEvent{std::move(name), 'i', job, tsUs, 0, std::move(detail)});
}

void
SpanLog::nameJob(std::uint64_t job, std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    jobNames_[job] = std::move(name);
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::vector<SpanEvent>
SpanLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

namespace {

struct Window
{
    std::int64_t start = 0;
    std::int64_t end = 0;
};

void
writeEvent(std::ostream &os, const SpanEvent &e, std::int64_t start,
           std::int64_t dur)
{
    os << ",\n  {\"name\": \"" << jsonEscape(e.name) << "\", \"ph\": \""
       << e.phase << "\", \"ts\": " << start;
    if (e.phase == 'X')
        os << ", \"dur\": " << dur;
    else
        os << ", \"s\": \"t\"";
    os << ", \"pid\": 0, \"tid\": " << e.job;
    if (!e.detail.empty())
        os << ", \"args\": {\"detail\": \"" << jsonEscape(e.detail)
           << "\"}";
    os << "}";
}

} // namespace

void
SpanLog::writeChromeTrace(std::ostream &os, const std::string &label) const
{
    std::vector<SpanEvent> events;
    std::map<std::uint64_t, std::string> names;
    {
        std::lock_guard<std::mutex> lock(mu_);
        events = events_;
        names = jobNames_;
    }

    std::int64_t base = std::numeric_limits<std::int64_t>::max();
    for (const SpanEvent &e : events)
        base = std::min(base, e.startUs);
    if (events.empty())
        base = 0;

    // Parent window for the nesting clamp: the "job" root span per job.
    std::map<std::uint64_t, Window> jobWindow;
    for (const SpanEvent &e : events) {
        if (e.phase != 'X' || e.name != "job")
            continue;
        const std::int64_t start = e.startUs - base;
        jobWindow[e.job] =
            Window{start, start + std::max<std::int64_t>(e.durUs, 0)};
    }

    os << "{\n\"schema\": \"" << kSpansJsonSchema
       << "\",\n\"displayTimeUnit\": \"ms\",\n\"label\": \""
       << jsonEscape(label) << "\",\n\"traceEvents\": [\n  ";
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
          "\"tid\": 0, \"args\": {\"name\": \""
       << jsonEscape(label) << "\"}}";
    for (const auto &[job, name] : names)
        os << ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
              "\"tid\": "
           << job << ", \"args\": {\"name\": \"job " << job << " "
           << jsonEscape(name) << "\"}}";

    for (const SpanEvent &e : events) {
        std::int64_t start = e.startUs - base;
        std::int64_t end = start + std::max<std::int64_t>(e.durUs, 0);
        const auto root = jobWindow.find(e.job);
        if (e.name != "job" && root != jobWindow.end()) {
            start = std::clamp(start, root->second.start, root->second.end);
            end = std::clamp(end, start, root->second.end);
        }
        writeEvent(os, e, start, e.phase == 'X' ? end - start : 0);
    }
    os << "\n]}\n";
}

} // namespace wsrs::obs
