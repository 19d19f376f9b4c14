/**
 * @file
 * Sample statistics and failure accounting for the end-to-end
 * benchmark. Everything here is pure and covered by selfTest() in
 * main.cc, which runs before every measurement.
 */

#ifndef E2EBENCH_STATS_HH
#define E2EBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

/** Nearest-rank percentile of an ascending sample: the value at rank
 *  ceil(q * n), clamped to [1, n]. 0 for an empty sample. */
inline double
nearestRank(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    auto n = static_cast<std::int64_t>(sorted.size());
    auto rank = static_cast<std::int64_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::int64_t>(rank, 1, n);
    return sorted[static_cast<std::size_t>(rank - 1)];
}

/** Samples strictly above the nearest-rank position of @p q. */
inline std::int64_t
samplesBeyond(std::int64_t n, double q)
{
    auto rank = static_cast<std::int64_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::int64_t>(rank, 1, std::max<std::int64_t>(n, 1));
    return n - rank;
}

/** The quantile ladder a tail is picked from. */
inline const std::vector<double> &
tailLadder()
{
    static const std::vector<double> ladder = {0.5, 0.9, 0.99, 0.999,
                                               0.9999};
    return ladder;
}

/** Highest quantile of tailLadder() that still has at least 10
 *  samples beyond it in a sample of @p n; 0 when none qualifies. */
inline double
tailQuantile(std::int64_t n)
{
    double best = 0;
    for (double q : tailLadder())
        if (samplesBeyond(n, q) >= 10)
            best = q;
    return best;
}

/** "p99", "p99.9", ... for a ladder quantile; 0 (no quantile has 10
 *  samples beyond it) falls back to the median. */
inline std::string
quantileLabel(double q)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "p%g", (q > 0 ? q : 0.5) * 100.0);
    return buf;
}

/** A timing distribution summarised the way the report states it. */
struct Summary
{
    std::int64_t n = 0;
    double p50 = 0;
    double p99 = 0;       ///< valid only when p99_ok
    bool p99_ok = false;  ///< at least 10 samples beyond p99
    double tail_q = 0;    ///< highest ladder quantile with >= 10 beyond
    double tail = 0;      ///< value at tail_q (p50 when tail_q is 0)
};

inline Summary
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Summary s;
    s.n = static_cast<std::int64_t>(samples.size());
    s.p50 = nearestRank(samples, 0.5);
    s.p99 = nearestRank(samples, 0.99);
    s.p99_ok = samplesBeyond(s.n, 0.99) >= 10;
    s.tail_q = tailQuantile(s.n);
    s.tail = nearestRank(samples, s.tail_q > 0 ? s.tail_q : 0.5);
    return s;
}

/** Median of an unsorted sample (lower middle for even sizes, the
 *  nearest-rank convention used everywhere else). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return nearestRank(v, 0.5);
}

/** Open-loop latency in ms, timed from when the request was DUE, not
 *  from when the generator managed to submit it: a generator stall
 *  then shows as latency of every request it delayed. */
inline double
dueLatencyMs(std::int64_t due_ns, std::int64_t done_ns)
{
    return static_cast<double>(done_ns - due_ns) * 1e-6;
}

/** Operations attempted and failed; failed_frac = failed / attempted. */
struct Tally
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    void
    add(std::int64_t ops, std::int64_t bad)
    {
        attempted += ops;
        failed += bad;
    }
    double
    failedFrac() const
    {
        return attempted > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 1.0;
    }
};

/** Serving outcome of one request, in failure-accounting terms. */
enum class Outcome { Ok, Rejected, Incomplete, WrongPrediction };

/** One request's verdict: rejected > incomplete > wrong > ok. */
inline Outcome
classify(bool accepted, bool done, int predicted, int reference)
{
    if (!accepted)
        return Outcome::Rejected;
    if (!done)
        return Outcome::Incomplete;
    if (predicted != reference)
        return Outcome::WrongPrediction;
    return Outcome::Ok;
}

} // namespace e2e

#endif // E2EBENCH_STATS_HH
