/**
 * @file
 * Winograd F(2x2, 3x3) forward-propagation engine (extension).
 *
 * Implements the minimal-filtering direction the paper cites (Cong &
 * Xiao, "Minimizing computation in convolutional neural networks"):
 * for the ubiquitous 3x3 stride-1 convolution, each 2x2 output tile is
 * computed from a 4x4 input tile with 16 multiplies instead of the
 * direct method's 36 — a 2.25x arithmetic reduction:
 *
 *     Y = A^T [ (G g G^T) . (B^T d B) ] A
 *
 * with the standard F(2x2, 3x3) transform matrices. Kernel transforms
 * U = G g G^T are computed once per call and reused across the batch;
 * tile transforms V = B^T d B are computed once per (tile, channel)
 * and reused across all output features. Odd output rows/columns fall
 * back to the direct loop.
 *
 * Only 3x3, stride-1 geometry is supported (appliesTo()); the tuner
 * skips it elsewhere.
 */

#ifndef SPG_CONV_ENGINE_WINOGRAD_HH
#define SPG_CONV_ENGINE_WINOGRAD_HH

#include "conv/engine.hh"

namespace spg {

/** F(2x2, 3x3) minimal-filtering FP engine. */
class WinogradEngine : public ConvEngine
{
  public:
    using ConvEngine::forward;

    std::string name() const override { return "winograd"; }
    bool supports(Phase phase) const override
    {
        return phase == Phase::Forward;
    }
    bool
    appliesTo(const ConvSpec &spec, double) const override
    {
        return spec.fy == 3 && spec.fx == 3 && spec.sy == 1 &&
               spec.sx == 1;
    }

    void forward(const ConvSpec &spec, const Tensor &in,
                 const Tensor &weights, Tensor &out, ThreadPool &pool,
                 const Epilogue &epilogue) const override;
};

} // namespace spg

#endif // SPG_CONV_ENGINE_WINOGRAD_HH
