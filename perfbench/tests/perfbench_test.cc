// Unit tests of the benchmark's own rules: the percentile rule, seed
// determinism of streams and schedules, and span self time.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "loadgen.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(i + 1);
    return v;
}

Span
span(const char *name, int start_us, int end_us, std::size_t parent)
{
    Span s;
    s.name = name;
    s.start = Clock::time_point(std::chrono::microseconds(start_us));
    s.end = Clock::time_point(std::chrono::microseconds(end_us));
    s.parent = parent;
    return s;
}

} // namespace

TEST(Percentile, NearestRank)
{
    const auto v = iota(100); // 1..100
    EXPECT_EQ(percentile(v, 0.5), 50.0);
    EXPECT_EQ(percentile(v, 0.9), 90.0);
    EXPECT_EQ(percentile(v, 0.99), 99.0);
    EXPECT_EQ(percentile(v, 1.0), 100.0);
    EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
    EXPECT_EQ(percentile({}, 0.5), 0.0);
    // Order of the input does not matter.
    std::vector<double> r(v.rbegin(), v.rend());
    EXPECT_EQ(percentile(r, 0.99), 99.0);
}

TEST(Percentile, Median)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule)
{
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_TRUE(percentileSupported(100, 0.9));
    EXPECT_FALSE(percentileSupported(99, 0.9));
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(percentileSupported(999, 0.99));
    EXPECT_EQ(minSamplesFor(0.99), 1000u);
    EXPECT_EQ(minSamplesFor(0.9), 100u);
    EXPECT_FALSE(percentileSupported(0, 0.5));
}

TEST(Loadgen, SameSeedSameInputs)
{
    for (const auto &w : workloadNames()) {
        const Schedule a = makeSchedule(w, 7, 2.0);
        const Schedule b = makeSchedule(w, 7, 2.0);
        EXPECT_EQ(a.requests, b.requests) << w;
        EXPECT_EQ(a.due_s, b.due_s) << w;
        const Schedule c = makeSchedule(w, 8, 2.0);
        EXPECT_NE(a.requests, c.requests) << w;
    }
}

TEST(Loadgen, SubRunsGetIndependentStreams)
{
    const Schedule a = makeSchedule("classify_fabnet", 7, 2.0, 0);
    const Schedule b = makeSchedule("classify_fabnet", 7, 2.0, 1);
    EXPECT_NE(a.requests, b.requests);
    EXPECT_NE(a.due_s, b.due_s);
    EXPECT_EQ(b.requests, makeSchedule("classify_fabnet", 7, 2.0, 1).requests);
}

TEST(Loadgen, PoissonScheduleShape)
{
    SplitMix rng(3);
    const auto due = poissonSchedule(rng, 200.0, 10.0);
    ASSERT_EQ(due.size(), 2000u);
    EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
    EXPECT_GE(due.front(), 0.0);
    EXPECT_LT(due.back(), 10.0);
    // Uniform order statistics: about half the arrivals in each half.
    const auto half = std::count_if(due.begin(), due.end(),
                                    [](double t) { return t < 5.0; });
    EXPECT_NEAR(static_cast<double>(half), 1000.0, 150.0);
}

TEST(Loadgen, StreamRespectsRanges)
{
    SplitMix rng(11);
    const auto s = makeStream(rng, 500, 4, 32, 256);
    for (const auto &r : s) {
        ASSERT_GE(r.size(), 4u);
        ASSERT_LE(r.size(), 32u);
        for (int t : r) {
            ASSERT_GE(t, 1);
            ASSERT_LE(t, 255);
        }
    }
}

TEST(SelfTime, SubtractsChildrenOnce)
{
    std::vector<Span> s;
    s.push_back(span("parent", 0, 100, kNoSpan));
    s.push_back(span("a", 10, 30, 0));
    s.push_back(span("b", 20, 50, 0)); // overlaps a: union 10..50
    s.push_back(span("c", 90, 120, 0)); // clipped to the parent: 90..100
    s.push_back(span("grandchild", 12, 14, 1));
    const auto self = selfTimesMs(s);
    EXPECT_NEAR(self[0], (100 - 40 - 10) / 1000.0, 1e-12);
    EXPECT_NEAR(self[1], (20 - 2) / 1000.0, 1e-12);
    EXPECT_NEAR(self[2], 30 / 1000.0, 1e-12);
    EXPECT_NEAR(self[4], 2 / 1000.0, 1e-12);
}

TEST(Tracer, NestsByThreadAndDisables)
{
    Tracer t(true);
    {
        Scope outer(t, "outer", 5);
        Scope inner(t, "inner", 5);
    }
    const auto spans = t.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[0].parent, kNoSpan);
    EXPECT_EQ(spans[1].request, 5u);
    EXPECT_LE(spans[1].end, spans[0].end);

    Tracer off(false);
    {
        Scope s(off, "x");
    }
    EXPECT_TRUE(off.spans().empty());
}

namespace {

PartSummary
part(std::vector<double> lat, double setup)
{
    PartSummary p;
    p.attempted = lat.size();
    p.setup_s = setup;
    p.peak_rss_mb = 10.0 + setup;
    p.within_limit = lat.size();
    p.window_s = 1.0;
    p.latency_ms = std::move(lat);
    return p;
}

double
metric(const RunResult &r, const std::string &name)
{
    for (const auto &m : r.metrics)
        if (m.name == name)
            return m.value;
    ADD_FAILURE() << "no metric " << name;
    return 0.0;
}

} // namespace

TEST(EndToEnd, MedianOverSubRunsResistsOneDisturbedSubRun)
{
    // Three steady sub-runs and one whose every request took 10x as
    // long: the median of per-sub-run percentiles ignores it.
    auto steady = iota(200);
    std::vector<double> slow;
    for (double v : steady)
        slow.push_back(10.0 * v);
    const RunResult r = endToEnd(
        {part(steady, 1.0), part(steady, 2.0), part(slow, 9.0),
         part(steady, 3.0)});
    EXPECT_EQ(metric(r, "latency_p50_ms"), 100.0);
    EXPECT_EQ(metric(r, "setup_s"), 2.5);
    EXPECT_EQ(metric(r, "goodput_rps"), 200.0);
    EXPECT_EQ(metric(r, "peak_rss_mb"), 12.5);
    EXPECT_EQ(r.attempted, 800u);
    EXPECT_TRUE(r.correct);
}

TEST(EndToEnd, PoolsWhenSubRunsAreTooSmallForThePercentile)
{
    // 15 samples per sub-run do not support p50 (needs 20): it comes
    // from the pooled samples, 1..15 and 101..115.
    std::vector<double> high;
    for (double v : iota(15))
        high.push_back(100.0 + v);
    const RunResult r = endToEnd({part(iota(15), 1.0), part(high, 1.0)});
    EXPECT_EQ(metric(r, "latency_p50_ms"), 15.0);
}

TEST(EndToEnd, PartFileRoundTrip)
{
    // Relative: the test runs in the build directory.
    const std::string path = "perfbench_part_test.txt";
    PartSummary p = part({1.5, 2.25, 1e-3}, 0.125);
    p.correct = false;
    p.failed = 2;
    ASSERT_TRUE(writePart(path, p));
    PartSummary q;
    ASSERT_TRUE(readPart(path, q));
    EXPECT_EQ(q.correct, false);
    EXPECT_EQ(q.failed, 2u);
    EXPECT_EQ(q.setup_s, 0.125);
    EXPECT_EQ(q.latency_ms, p.latency_ms);
    std::remove(path.c_str());
    EXPECT_FALSE(readPart(path, q));
}
