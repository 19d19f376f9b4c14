/**
 * @file
 * Direct register-tiled convolution with NCHWc staging.
 *
 * No im2col and no GEMM packing: the engine takes and returns plain
 * NCHW tensors like every other engine, and stages its operands per
 * call into channel-blocked scratch — activations in [C/8][H][W][8]
 * order, weights in [K/8][C/8][Fy][Fx][8c][8k] order — so the inner
 * loops compute one register tile of output per visit (see
 * direct_block.hh for the tile generators and the bit-for-bit
 * contract with the reference loops). Error tensors stay plain NCHW.
 * The staging runs inside every call, so the tuner's measurement of
 * this engine already pays it.
 */

#ifndef SPG_CONV_ENGINE_DIRECT_HH
#define SPG_CONV_ENGINE_DIRECT_HH

#include "conv/engine.hh"

namespace spg {

class DirectEngine : public ConvEngine
{
  public:
    using ConvEngine::backwardData;
    using ConvEngine::backwardWeights;
    using ConvEngine::forward;

    std::string name() const override { return "direct"; }
    bool supports(Phase) const override { return true; }

    void forward(const ConvSpec &spec, const Tensor &in,
                 const Tensor &weights, Tensor &out, ThreadPool &pool,
                 const Epilogue &epilogue) const override;
    void backwardData(const ConvSpec &spec, const Tensor &eo,
                      const Tensor &weights, Tensor &ei, ThreadPool &pool,
                      const BpMask &mask) const override;
    void backwardWeights(const ConvSpec &spec, const Tensor &eo,
                         const Tensor &in, Tensor &dweights,
                         ThreadPool &pool,
                         const BpMask &mask) const override;
};

} // namespace spg

#endif // SPG_CONV_ENGINE_DIRECT_HH
