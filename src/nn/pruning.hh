/**
 * @file
 * Magnitude weight pruning with a layer-sensitivity schedule.
 *
 * The paper exploits ReLU-induced sparsity in the ERROR GRADIENTS
 * (§4.2); weight sparsity is the complementary axis it cites for
 * inference. Following the guided-pruning recipe (Park et al.,
 * PAPERS.md; Zhu & Gupta's ramp), the trainer prunes the smallest-
 * magnitude weights of each prunable layer at the start of each
 * epoch, ramping the per-layer target from zero to its final value
 * over a few epochs so the network can recover between steps:
 *
 *     sparsity(epoch) = target * (1 - (1 - p)^3),
 *     p = clamp((epoch - start_epoch + 1) / ramp_epochs, 0, 1)
 *
 * The cubic ramp prunes aggressively early (while the surviving
 * weights can still absorb the loss) and tapers near the target.
 * Sensitivity: the FIRST prunable layer sees raw inputs and has the
 * fewest redundant weights, so its target is scaled down by
 * first_layer_scale; all other layers get the full target.
 *
 * Pruned positions are recorded in a keep/drop byte mask carried by
 * the layer (ConvLayer / FcLayer); update() re-applies the mask after
 * every SGD step so pruned weights stay exactly zero between prune
 * steps, which is what keeps the once-encoded CSR weight plans of the
 * sparse FP engines valid across a whole epoch.
 */

#ifndef SPG_NN_PRUNING_HH
#define SPG_NN_PRUNING_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace spg {

/** Pruning schedule of one training run. */
struct PruneOptions
{
    /** Final zero fraction of each layer's weights (0 = disabled). */
    double target_sparsity = 0.0;
    /** First epoch (0-based) that prunes. Earlier epochs train dense. */
    int start_epoch = 1;
    /** Epochs from the first prune step to the full target. */
    int ramp_epochs = 4;
    /** Sensitivity scale of the first prunable layer's target. */
    double first_layer_scale = 0.5;

    bool enabled() const { return target_sparsity > 0.0; }
};

/**
 * Parse a CLI schedule "<target>[@<start>[:<ramp>]]", e.g. "0.9",
 * "0.9@2" or "0.9@2:6". Aborts via fatal() on malformed input or a
 * target outside [0, 1).
 */
PruneOptions parsePruneSchedule(const std::string &schedule);

/**
 * @return the fraction of the final target in force at @p epoch
 * (0-based): 0 before start_epoch, the cubic ramp during
 * [start_epoch, start_epoch + ramp_epochs), 1 after. Monotone
 * non-decreasing in epoch.
 */
double pruneRampFraction(const PruneOptions &opts, int epoch);

/**
 * @return the final sparsity target of prunable layer @p index of
 * @p count (first layer scaled by first_layer_scale).
 */
double pruneLayerTarget(const PruneOptions &opts, std::size_t index,
                        std::size_t count);

/**
 * Magnitude-prune @p w to the given zero fraction: zero the
 * round(sparsity * n) smallest-magnitude weights and record the
 * keep(1)/drop(0) byte mask. Already-zero weights sort first, so
 * re-pruning at a higher target is monotone — pruned stays pruned.
 *
 * @return the achieved zero fraction (exact count / n).
 */
double magnitudePrune(Tensor &w, double sparsity,
                      std::vector<std::uint8_t> &mask);

/** Zero every masked-out position of @p w (post-SGD re-prune). */
void applyPruneMask(Tensor &w, const std::vector<std::uint8_t> &mask);

/**
 * w - learning_rate * dw rounded once. GCC contracts the plain
 * expression into this under its default -ffp-contract=fast, even in
 * ISO C++ mode, but only where multiply and subtract share a basic
 * block; spelling it out keeps the SGD bytes independent of how a loop
 * happens to compile.
 */
inline float
sgdFma(float w, float dw, float learning_rate)
{
    return std::fma(-learning_rate, dw, w);
}

/**
 * The SGD step over w[begin, end): w[i] -= learning_rate * dw[i] as one
 * fused multiply-subtract (sgdFma), then every masked-out position back
 * to zero (an empty mask keeps all). Indices are relative to @p w,
 * @p dw and @p mask alike, so layers split one tensor into disjoint
 * ranges across pool workers; each element runs the same expression
 * whatever the split, so the bytes do not depend on it.
 */
void sgdStep(float *w, const float *dw,
             const std::vector<std::uint8_t> &mask, float learning_rate,
             std::int64_t begin, std::int64_t end);

} // namespace spg

#endif // SPG_NN_PRUNING_HH
