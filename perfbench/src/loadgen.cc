#include "loadgen.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
SplitMix::range(std::uint64_t lo, std::uint64_t hi)
{
    // Modulo bias is below 2^-50 for the small ranges used here.
    return lo + next() % (hi - lo + 1);
}

double
SplitMix::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
streamSeed(std::uint64_t seed, const std::string &workload)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (unsigned char c : workload) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h ^ (seed * 0x9e3779b97f4a7c15ULL);
}

std::vector<std::vector<int>>
makeStream(SplitMix &rng, std::size_t n, std::size_t min_len,
           std::size_t max_len, std::size_t vocab)
{
    std::vector<std::vector<int>> out(n);
    for (auto &seq : out) {
        seq.resize(rng.range(min_len, max_len));
        for (int &t : seq)
            t = static_cast<int>(rng.range(1, vocab - 1));
    }
    return out;
}

std::vector<double>
poissonSchedule(SplitMix &rng, double rate_rps, double seconds)
{
    const auto n = static_cast<std::size_t>(std::llround(rate_rps * seconds));
    std::vector<double> due(n);
    for (double &t : due)
        t = rng.unit() * seconds;
    std::sort(due.begin(), due.end());
    return due;
}

} // namespace perfbench
