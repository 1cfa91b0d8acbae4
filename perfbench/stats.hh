/**
 * @file
 * The summary arithmetic texbench reports with: medians and
 * quantiles of timing samples and the two efficiency ratios. Kept
 * header-only and free of simulator types so stats_test.cc checks it
 * without linking the simulator.
 */

#ifndef TEXDIST_PERFBENCH_STATS_HH
#define TEXDIST_PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench
{

/**
 * The q-quantile (0 <= q <= 1) of @p samples by linear
 * interpolation between the closest ranks; q = 0.5 is the median
 * (the mean of the two middle values for an even count). 0 for no
 * samples.
 */
inline double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double pos = q * double(samples.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - double(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

/**
 * Parallel efficiency of @p threads workers: the serial time over
 * the parallel time times the width, 1.0 for perfect scaling. Used
 * both for jobs=1 vs jobs=N frames and for a config batch, where
 * @p serial is the sum of the per-config serial times.
 */
inline double
efficiency(double serial, double parallel, unsigned threads)
{
    if (parallel <= 0.0 || threads == 0)
        return 0.0;
    return serial / (double(threads) * parallel);
}

} // namespace perfbench

#endif // TEXDIST_PERFBENCH_STATS_HH
