/**
 * @file stats.h
 * The benchmark's percentile rule.
 *
 * Percentiles are nearest-rank: the value at 1-based rank ceil(q * n)
 * of the sorted samples. A percentile is only reported as a tail
 * figure when at least kMinBeyond samples lie beyond that rank, so a
 * "p99" is never one unlucky request.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/** Median (mean of the middle two for even counts); 0 if empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile, q in (0, 1]; 0 for no samples. */
double percentile(std::vector<double> v, double q);

/** Samples ranked strictly above the q-percentile of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double q);

/** True when @p n samples support the q-percentile (>= kMinBeyond
 *  samples beyond it). */
bool percentileSupported(std::size_t n, double q);

/** Smallest sample count that supports the q-percentile. */
std::size_t minSamplesFor(double q);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
