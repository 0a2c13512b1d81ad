/**
 * @file
 * Per-job span log for sweep telemetry.
 *
 * One SpanLog collects the lifecycle of every job in a sweep — enqueued,
 * warm-up hit/build, simulate, merged — as timestamped events on the
 * process's monotonic timeline. writeChromeTrace() renders the log as a
 * `wsrs-spans-v1` Chrome trace-event JSON document that Perfetto and
 * chrome://tracing load directly: one row (tid) per job, with the
 * warm-up/simulate spans nested inside the job's root span.
 *
 * Appends are mutex-serialized — span events are per job, not per cycle,
 * so the lock is cold. The disabled path is a null SpanLog pointer,
 * exactly like TraceSink: no event construction, no lock.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace wsrs::obs {

/** Schema tag of the trace-event JSON export. */
inline constexpr const char *kSpansJsonSchema = "wsrs-spans-v1";

/** Monotonic microseconds (steady clock); the span timebase. */
std::int64_t monotonicMicros();

/** One trace event. phase 'X' = complete span, 'i' = instant. */
struct SpanEvent
{
    std::string name;          ///< "job", "warmup", "simulate", ...
    char phase = 'X';
    std::uint64_t job = 0;     ///< Sweep job index (trace row / tid).
    std::int64_t startUs = 0;  ///< Monotonic microseconds.
    std::int64_t durUs = 0;    ///< 0 for instants.
    std::string detail;        ///< Optional annotation ("hit", "build").
};

class SpanLog
{
  public:
    /** Thread-safe append. */
    void add(SpanEvent e);
    /** Append a complete ('X') span. */
    void complete(std::string name, std::uint64_t job,
                  std::int64_t startUs, std::int64_t durUs,
                  std::string detail = {});
    /** Append an instant ('i') event. */
    void instant(std::string name, std::uint64_t job, std::int64_t tsUs,
                 std::string detail = {});

    /** Label a job row (rendered as the Perfetto thread name). */
    void nameJob(std::uint64_t job, std::string name);

    std::size_t size() const;
    std::vector<SpanEvent> snapshot() const;

    /**
     * Write the wsrs-spans-v1 document. Timestamps are rebased so the
     * earliest event is t=0, and every other span is clamped inside its
     * job's root span, so timer granularity can never produce an
     * escaping child or a negative duration — the invariants
     * scripts/check_stats_schema.py enforces.
     */
    void writeChromeTrace(std::ostream &os, const std::string &label) const;

  private:
    mutable std::mutex mu_;
    std::vector<SpanEvent> events_;
    std::map<std::uint64_t, std::string> jobNames_;
};

} // namespace wsrs::obs
