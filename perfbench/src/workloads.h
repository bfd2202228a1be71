/**
 * @file workloads.h
 * The benchmark's named workloads and the run that measures one.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Sub-run index: selects an independent stream under one seed. */
    unsigned part = 0;
    /** Untraced run: where to write its PartSummary ("" = none). */
    std::string part_out;
    /** Chrome trace-event JSON destination (traced run; "" = none). */
    std::string trace_out;
};

struct RunResult
{
    /** Every checked output matched its reference and no request
     *  failed in a way the workload does not allow. */
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** End-to-end metrics (untraced run) or per-layer metrics (traced
     *  run), in a fixed order. */
    std::vector<Metric> metrics;
};

/** The workload names, in documentation order. */
const std::vector<std::string> &workloadNames();

/** Inputs of one run: request streams and (open loop) due times in
 *  seconds from the start; a closed loop has no due times. */
struct Schedule
{
    std::vector<std::vector<int>> requests;
    std::vector<double> due_s;
};

/** The inputs of sub-run @p part, a pure function of its arguments. */
Schedule makeSchedule(const std::string &workload, std::uint64_t seed,
                      double seconds, unsigned part = 0);

/**
 * What an untraced sub-run hands to the aggregation: its raw latency
 * samples and the figures that are combined as medians or sums.
 */
struct PartSummary
{
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    std::size_t within_limit = 0; ///< completed within the latency limit
    double window_s = 0.0;        ///< start to last completion
    std::vector<double> latency_ms;
};

bool writePart(const std::string &path, const PartSummary &p);
bool readPart(const std::string &path, PartSummary &p);

/**
 * End-to-end metrics of a run made of sub-runs: each is the median
 * over sub-runs of the sub-run's figure, except a latency percentile
 * that a sub-run has too few samples for, which comes from the pooled
 * samples.
 */
RunResult endToEnd(const std::vector<PartSummary> &parts);

/** Measure one run. Throws std::invalid_argument for an unknown
 *  workload. */
RunResult runWorkload(const RunArgs &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
