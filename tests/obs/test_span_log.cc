#include "src/obs/span_log.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "tests/support/json_lint.h"

namespace wsrs::obs {
namespace {

TEST(SpanLog, AppendAndSnapshot)
{
    SpanLog log;
    log.complete("job", 0, 100, 50);
    log.instant("merged", 0, 150);
    EXPECT_EQ(log.size(), 2u);
    const auto events = log.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "job");
    EXPECT_EQ(events[0].phase, 'X');
    EXPECT_EQ(events[0].durUs, 50);
    EXPECT_EQ(events[1].phase, 'i');
    EXPECT_EQ(events[1].startUs, 150);
    EXPECT_EQ(log.size(), 2u);
}

TEST(SpanLog, ChromeTraceShape)
{
    SpanLog log;
    log.nameJob(3, "gzip@WSRS-RC-512");
    log.complete("job", 3, 1000, 400);
    log.complete("warmup", 3, 1050, 30, "hit");
    log.complete("simulate", 3, 1100, 200);
    log.instant("merged", 3, 1400);
    std::ostringstream os;
    log.writeChromeTrace(os, "sweep deadbeef");
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\": \"wsrs-spans-v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(doc.find("job 3 gzip@WSRS-RC-512"), std::string::npos);
    // Timestamps are rebased to the earliest event.
    EXPECT_NE(doc.find("\"name\": \"job\", \"ph\": \"X\", \"ts\": 0"),
              std::string::npos);
    EXPECT_NE(doc.find("\"args\": {\"detail\": \"hit\"}"),
              std::string::npos);
    EXPECT_EQ(test::jsonLint(doc), "") << doc;
}

TEST(SpanLog, ClampsChildrenIntoParents)
{
    SpanLog log;
    // Earliest raw timestamp is 900, so after rebasing the root "job"
    // span covers [100, 200].
    log.complete("job", 0, 1000, 100);
    // A child escaping the root on both sides -> [100, 200].
    log.complete("simulate", 0, 900, 500);
    // An instant after the root's end lands on its end.
    log.instant("merged", 0, 1300);
    std::ostringstream os;
    log.writeChromeTrace(os, "clamp");
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"name\": \"simulate\", \"ph\": \"X\", "
                       "\"ts\": 100, \"dur\": 100"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"name\": \"merged\", \"ph\": \"i\", "
                       "\"ts\": 200"),
              std::string::npos)
        << doc;
}

TEST(SpanLog, ConcurrentAppends)
{
    SpanLog log;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                log.complete("simulate", static_cast<std::uint64_t>(t), i,
                             1);
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(log.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(SpanLog, MonotonicMicrosAdvances)
{
    const std::int64_t a = monotonicMicros();
    const std::int64_t b = monotonicMicros();
    EXPECT_GE(b, a);
}

} // namespace
} // namespace wsrs::obs
