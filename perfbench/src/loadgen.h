/**
 * @file loadgen.h
 * Seeded request streams and arrival schedules.
 *
 * Everything a workload feeds the library is generated here from the
 * run's --seed (plus a per-workload salt), with a self-contained
 * generator so the same seed gives the same inputs on every toolchain
 * (std:: distributions are implementation-defined).
 */
#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** splitmix64: tiny, fast and fully specified. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
    /** Uniform double in [0, 1). */
    double unit();

  private:
    std::uint64_t s_;
};

/** Seed of one workload's generator: --seed mixed with the name. */
std::uint64_t streamSeed(std::uint64_t seed, const std::string &workload);

/** @p n token sequences, lengths uniform in [min_len, max_len], ids
 *  uniform in [1, vocab - 1] (0 is the pad token). */
std::vector<std::vector<int>> makeStream(SplitMix &rng, std::size_t n,
                                         std::size_t min_len,
                                         std::size_t max_len,
                                         std::size_t vocab);

/**
 * Open-loop Poisson schedule: round(rate * seconds) due times (seconds
 * from the start), sorted, in [0, seconds). A Poisson process
 * conditioned on its count is uniform order statistics, so the
 * arrivals are Poisson while the count - and with it the run's work -
 * is the same for every seed.
 */
std::vector<double> poissonSchedule(SplitMix &rng, double rate_rps,
                                    double seconds);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
