#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {
std::size_t
rankOf(std::size_t n, double q)
{
    // 1-based nearest rank; the epsilon keeps q * n = 990.0000001 from
    // rounding a whole rank up.
    auto r = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    return std::clamp<std::size_t>(r, 1, n);
}
} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t k = rankOf(v.size(), q) - 1;
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - rankOf(n, q);
}

bool
percentileSupported(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= kMinBeyond;
}

std::size_t
minSamplesFor(double q)
{
    std::size_t n = 1;
    while (!percentileSupported(n, q))
        ++n;
    return n;
}

} // namespace perfbench
