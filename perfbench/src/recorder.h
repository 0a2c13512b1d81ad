/**
 * @file
 * Span recorder of the traced benchmark run.
 *
 * Spans are recorded by the benchmark around each call it makes into a
 * layer of the simulator: every span has a name, a start, an end, a
 * parent (the span that was open when it began) and a track (the Chrome
 * trace "tid" it is drawn on). Spans are kept in memory and written once,
 * at exit, as Chrome trace-event JSON that Perfetto and chrome://tracing
 * load.
 *
 * Calls too fine-grained to record one span each (a micro-op pulled from
 * the trace source, a branch-predictor lookup) are tallied instead: a
 * call count and the summed time inside the call, with one clock pair
 * per call. That per-call clock cost is real overhead of the traced run
 * and shows up in trace.overhead_ratio.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two steady_clock points. */
inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Seconds between two steady_clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Count and summed time of one kind of fine-grained call. */
struct Tally
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
};

class Recorder
{
  public:
    /** Closes the span it opened when it goes out of scope, or earlier
     *  through close(), which returns the span's duration. */
    class Scope
    {
      public:
        Scope(Recorder &rec, std::string name)
            : rec_(rec), id_(rec.begin(std::move(name)))
        {
        }
        ~Scope() { close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        double
        close()
        {
            if (!open_)
                return 0;
            open_ = false;
            return rec_.end(id_);
        }

      private:
        Recorder &rec_;
        int id_;
        bool open_ = true;
    };

    Recorder();

    /** Open a span on the main track, nested in the innermost open one. */
    int begin(std::string name);
    /** Close span @p id (the innermost open span); returns its duration
     *  in seconds. */
    double end(int id);
    /** Record an already-finished span on @p track, with no parent. */
    void add(std::string name, Clock::time_point start,
             Clock::time_point end, int track);

    /** The tally of fine-grained calls named @p name (created on first
     *  use; the reference stays valid for the recorder's lifetime). */
    Tally &tally(const std::string &name) { return tallies_[name]; }
    /** Current value of tally @p name (empty if never used). */
    Tally
    tallied(const std::string &name) const
    {
        const auto it = tallies_.find(name);
        return it == tallies_.end() ? Tally{} : it->second;
    }

    /** Summed duration of every span named @p name, in seconds. */
    double totalSeconds(const std::string &name) const;
    /** Self time (duration minus the part covered by child spans) summed
     *  per layer, in seconds. A span's layer is its name up to the first
     *  '.'; spans without one belong to the driver, layer "perfbench". */
    std::map<std::string, double> selfSecondsByLayer() const;
    /** Every tally by name. */
    const std::map<std::string, Tally> &tallies() const { return tallies_; }

    /** Measured cost of one steady_clock::now() pair, in ns; subtracted
     *  from tallied per-call times so they report the call itself. */
    double clockPairNs() const { return clockPairNs_; }

    /** Write every span and tally as Chrome trace-event JSON; @p header
     *  is a JSON object placed under "otherData". False on I/O failure. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &header) const;

  private:
    /** One recorded span; times are ns since the recorder's epoch. */
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;  ///< Index of the enclosing span, -1 for roots.
        int track = 1;    ///< Chrome trace tid (1 = the main thread).
    };

    static std::string layerOf(const std::string &span_name);
    /** Self time of every span, ns, by span index. */
    std::vector<std::int64_t> selfNs() const;

    std::int64_t since(Clock::time_point t) const
    {
        return nsBetween(epoch_, t);
    }

    Clock::time_point epoch_;
    double clockPairNs_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, Tally> tallies_;
};

} // namespace perfbench
