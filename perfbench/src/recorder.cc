#include "recorder.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/common/stats.h"

namespace perfbench {

Recorder::Recorder() : epoch_(Clock::now())
{
    // Median cost of back-to-back now() pairs: the floor every tallied
    // per-call time carries.
    std::vector<std::int64_t> pairs(1001);
    for (std::int64_t &p : pairs) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        p = nsBetween(a, b);
    }
    std::nth_element(pairs.begin(), pairs.begin() + 500, pairs.end());
    clockPairNs_ = static_cast<double>(pairs[500]);
}

int
Recorder::begin(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.startNs = since(Clock::now());
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

double
Recorder::end(int id)
{
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endNs = since(Clock::now());
    const double seconds = static_cast<double>(s.endNs - s.startNs) * 1e-9;
    // Scopes close innermost-first; tolerate a mismatched id by popping
    // down to it so one early exit cannot corrupt later parents.
    while (!open_.empty()) {
        const int top = open_.back();
        open_.pop_back();
        if (top == id)
            break;
    }
    return seconds;
}

void
Recorder::add(std::string name, Clock::time_point start,
              Clock::time_point end, int track)
{
    Span s;
    s.name = std::move(name);
    s.startNs = since(start);
    s.endNs = since(end);
    s.track = track;
    spans_.push_back(std::move(s));
}

double
Recorder::totalSeconds(const std::string &name) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
}

std::string
Recorder::layerOf(const std::string &span_name)
{
    const std::size_t dot = span_name.find('.');
    return dot == std::string::npos ? "perfbench" : span_name.substr(0, dot);
}

std::vector<std::int64_t>
Recorder::selfNs() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endNs - spans_[i].startNs;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    return self;
}

std::map<std::string, double>
Recorder::selfSecondsByLayer() const
{
    const std::vector<std::int64_t> self = selfNs();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[layerOf(spans_[i].name)] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

bool
Recorder::writeChromeTrace(const std::string &path,
                           const std::string &header) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    char buf[64];
    const auto us = [&](std::int64_t ns) {
        std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
        return std::string(buf);
    };
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << header
       << ",\n\"traceEvents\": [\n"
       << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"args\": {\"name\": \"perfbench\"}}";
    const std::vector<std::int64_t> self = selfNs();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << ",\n{\"name\": \"" << wsrs::jsonEscape(s.name)
           << "\", \"cat\": \"" << wsrs::jsonEscape(layerOf(s.name))
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.track
           << ", \"ts\": " << us(s.startNs)
           << ", \"dur\": " << us(s.endNs - s.startNs)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"self_us\": " << us(self[i]) << "}}";
    }
    // Tallies have no extent of their own: one counter sample each, at
    // the end of the trace, carrying the call count and summed time.
    std::int64_t last = 0;
    for (const Span &s : spans_)
        last = std::max(last, s.endNs);
    for (const auto &[name, t] : tallies_) {
        os << ",\n{\"name\": \"" << wsrs::jsonEscape(name)
           << "\", \"ph\": \"C\", \"pid\": 1, \"ts\": " << us(last)
           << ", \"args\": {\"calls\": " << t.calls
           << ", \"us\": " << us(t.ns) << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os.flush());
}

} // namespace perfbench
