/**
 * @file trace.h
 * In-memory span recorder for the traced run.
 *
 * A span is one call into a layer: name, start, end, parent span and
 * the request it belongs to (spans of one request share the id). The
 * benchmark records spans around its own calls into the library -
 * request, submit, model call, op call - keeps them in memory, and
 * writes them as Chrome trace-event JSON at the end (load the file in
 * chrome://tracing or https://ui.perfetto.dev).
 *
 * A disabled Tracer records nothing and costs one branch per call, so
 * the same code paths serve the untraced (end-to-end) run.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

struct Span
{
    std::string name;
    Clock::time_point start{};
    Clock::time_point end{};
    std::size_t parent = kNoSpan; ///< index into the span list
    std::uint64_t request = 0;    ///< shared by one request's spans
    std::uint32_t thread = 0;     ///< small per-thread number
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its children's intervals cover (children that overlap each
 * other are counted once). Returned in milliseconds, index-aligned
 * with @p spans. Children must come after their parent in the list.
 */
std::vector<double> selfTimesMs(const std::vector<Span> &spans);

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Open a span now; its parent is this thread's innermost open
     *  span. Returns kNoSpan when disabled. */
    std::size_t open(const char *name, std::uint64_t request = 0);
    /** Close span @p idx now (no-op for kNoSpan). */
    void close(std::size_t idx);
    /** Record a span whose times are already known (e.g. a request
     *  timed from its due time). Returns its index, or kNoSpan. */
    std::size_t add(const char *name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request,
                    std::size_t parent = kNoSpan);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;
    /** Write Chrome trace-event JSON; returns false on I/O failure. */
    bool writeChromeJson(const std::string &path) const;

  private:
    const bool enabled_;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span over one call. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t request = 0)
        : t_(t), idx_(t.open(name, request))
    {
    }
    ~Scope() { t_.close(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    std::size_t idx_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
