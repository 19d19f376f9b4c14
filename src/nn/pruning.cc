#include "nn/pruning.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "util/logging.hh"

namespace spg {

PruneOptions
parsePruneSchedule(const std::string &schedule)
{
    PruneOptions opts;
    const char *s = schedule.c_str();
    char *end = nullptr;
    opts.target_sparsity = std::strtod(s, &end);
    if (end == s || opts.target_sparsity < 0.0 ||
        opts.target_sparsity >= 1.0)
        fatal("bad prune schedule '%s': want "
              "<target>[@<start>[:<ramp>]] with target in [0, 1)",
              schedule.c_str());
    if (*end == '@') {
        s = end + 1;
        opts.start_epoch = static_cast<int>(std::strtol(s, &end, 10));
        if (end == s || opts.start_epoch < 0)
            fatal("bad prune schedule '%s': bad start epoch",
                  schedule.c_str());
        if (*end == ':') {
            s = end + 1;
            opts.ramp_epochs =
                static_cast<int>(std::strtol(s, &end, 10));
            if (end == s || opts.ramp_epochs < 1)
                fatal("bad prune schedule '%s': bad ramp length",
                      schedule.c_str());
        }
    }
    if (*end != '\0')
        fatal("bad prune schedule '%s': trailing '%s'",
              schedule.c_str(), end);
    return opts;
}

double
pruneRampFraction(const PruneOptions &opts, int epoch)
{
    if (!opts.enabled() || epoch < opts.start_epoch)
        return 0.0;
    double p = static_cast<double>(epoch - opts.start_epoch + 1) /
               static_cast<double>(opts.ramp_epochs);
    p = std::min(p, 1.0);
    double q = 1.0 - p;
    return 1.0 - q * q * q;
}

double
pruneLayerTarget(const PruneOptions &opts, std::size_t index,
                 std::size_t count)
{
    if (count == 0)
        return 0.0;
    double scale =
        (index == 0 && count > 1) ? opts.first_layer_scale : 1.0;
    return opts.target_sparsity * scale;
}

double
magnitudePrune(Tensor &w, double sparsity,
               std::vector<std::uint8_t> &mask)
{
    std::int64_t n = w.size();
    if (n == 0)
        return 0.0;
    std::int64_t drop = static_cast<std::int64_t>(
        std::llround(sparsity * static_cast<double>(n)));
    drop = std::clamp<std::int64_t>(drop, 0, n);
    mask.assign(static_cast<std::size_t>(n), 1);
    if (drop == 0)
        return 0.0;

    float *data = w.data();
    std::vector<std::int64_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), std::int64_t{0});
    // Partition the smallest |w| first; exact zeros (earlier prune
    // steps) sort below any survivor, so ramping the target up only
    // ever grows the pruned set.
    std::nth_element(order.begin(), order.begin() + (drop - 1),
                     order.end(),
                     [data](std::int64_t a, std::int64_t b) {
                         return std::fabs(data[a]) <
                                std::fabs(data[b]);
                     });
    for (std::int64_t i = 0; i < drop; ++i) {
        std::int64_t at = order[static_cast<std::size_t>(i)];
        mask[static_cast<std::size_t>(at)] = 0;
        data[at] = 0.0f;
    }
    return static_cast<double>(drop) / static_cast<double>(n);
}

void
applyPruneMask(Tensor &w, const std::vector<std::uint8_t> &mask)
{
    if (mask.empty())
        return;
    SPG_ASSERT(static_cast<std::int64_t>(mask.size()) == w.size());
    float *data = w.data();
    for (std::int64_t i = 0; i < w.size(); ++i)
        if (!mask[static_cast<std::size_t>(i)])
            data[i] = 0.0f;
}

void
sgdStep(float *w, const float *dw, const std::vector<std::uint8_t> &mask,
        float learning_rate, std::int64_t begin, std::int64_t end)
{
    for (std::int64_t i = begin; i < end; ++i)
        w[i] = sgdFma(w[i], dw[i], learning_rate);
    if (mask.empty())
        return;
    for (std::int64_t i = begin; i < end; ++i)
        if (!mask[static_cast<std::size_t>(i)])
            w[i] = 0.0f;
}

} // namespace spg
