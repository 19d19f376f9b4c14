/**
 * @file
 * The two GEMM-based execution schedules the paper contrasts.
 *
 * UnfoldGemmEngine — "Unfold+Parallel-GEMM", the state-of-the-art
 * baseline (paper §2.3): images are processed one after another and
 * each image's MM is partitioned across all cores. Adding cores
 * divides the arithmetic per core but not the operand traffic, so the
 * per-core AIT (and with it scalability) degrades (paper §3.2).
 *
 * GemmInParallelEngine — the paper's §4.1 schedule: each core runs a
 * complete single-threaded GEMM on a different image of the
 * minibatch. Per-core AIT is independent of the core count, so
 * per-core performance stays flat as cores are added.
 *
 * Both schedules share the identical im2col + micro-kernel math, so
 * measured differences are attributable to scheduling alone. Fused
 * epilogues run per image right after its MM, while the output image
 * is still cache-hot; fused BP masks stage a masked per-image copy of
 * EO in scratch before the MM consumes it.
 */

#ifndef SPG_CONV_ENGINE_GEMM_HH
#define SPG_CONV_ENGINE_GEMM_HH

#include "conv/batch_reduce.hh"
#include "conv/engine.hh"

namespace spg {

/** Unfold+Parallel-GEMM baseline (CAFFE/ADAM-style). */
class UnfoldGemmEngine : public ConvEngine
{
  public:
    using ConvEngine::backwardData;
    using ConvEngine::backwardWeights;
    using ConvEngine::forward;

    std::string name() const override { return "parallel-gemm"; }
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

/** GEMM-in-Parallel schedule (paper §4.1). */
class GemmInParallelEngine : public ConvEngine
{
  public:
    using ConvEngine::backwardData;
    using ConvEngine::backwardWeights;
    using ConvEngine::forward;

    std::string name() const override { return "gemm-in-parallel"; }
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

  private:
    /** Deterministic per-image dW reduction; its slabs are reused so
     *  steady-state training allocates nothing in that path. */
    mutable BatchReducer reducer_;
};

} // namespace spg

#endif // SPG_CONV_ENGINE_GEMM_HH
