#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

struct ThreadSpans
{
    std::uint32_t id = 0;
    std::vector<std::size_t> open; ///< innermost open span last
};

ThreadSpans &
threadSpans()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local ThreadSpans ts{next.fetch_add(1), {}};
    return ts;
}

double
ms(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

} // namespace

std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != kNoSpan && spans[i].parent < i)
            children[spans[i].parent].push_back(i);

    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        // Clip each child to the parent, then merge overlapping
        // intervals so parallel children are not subtracted twice.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (std::size_t c : children[i]) {
            const auto s = std::max(spans[c].start, p.start);
            const auto e = std::min(spans[c].end, p.end);
            if (s < e)
                iv.emplace_back(s, e);
        }
        std::sort(iv.begin(), iv.end());
        Clock::duration covered{0};
        Clock::time_point cur_s{}, cur_e{};
        bool have = false;
        for (const auto &[s, e] : iv) {
            if (have && s <= cur_e) {
                cur_e = std::max(cur_e, e);
                continue;
            }
            if (have)
                covered += cur_e - cur_s;
            cur_s = s;
            cur_e = e;
            have = true;
        }
        if (have)
            covered += cur_e - cur_s;
        self[i] = ms(p.end - p.start) - ms(covered);
    }
    return self;
}

std::size_t
Tracer::open(const char *name, std::uint64_t request)
{
    if (!enabled_)
        return kNoSpan;
    ThreadSpans &ts = threadSpans();
    Span s;
    s.name = name;
    s.parent = ts.open.empty() ? kNoSpan : ts.open.back();
    s.request = request;
    s.thread = ts.id;
    std::size_t idx;
    {
        std::lock_guard<std::mutex> lk(mu_);
        idx = spans_.size();
        s.start = Clock::now();
        spans_.push_back(std::move(s));
    }
    ts.open.push_back(idx);
    return idx;
}

void
Tracer::close(std::size_t idx)
{
    if (idx == kNoSpan)
        return;
    const auto now = Clock::now();
    ThreadSpans &ts = threadSpans();
    if (!ts.open.empty() && ts.open.back() == idx)
        ts.open.pop_back();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[idx].end = now;
}

std::size_t
Tracer::add(const char *name, Clock::time_point start,
            Clock::time_point end, std::uint64_t request,
            std::size_t parent)
{
    if (!enabled_)
        return kNoSpan;
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.request = request;
    s.thread = threadSpans().id;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
    return spans_.size() - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    };
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %lld, "
                     "\"request\": %llu}}\n",
                     i ? "," : "", s.name.c_str(), s.thread, us(s.start),
                     us(s.end) - us(s.start), i,
                     s.parent == kNoSpan
                         ? -1LL
                         : static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
