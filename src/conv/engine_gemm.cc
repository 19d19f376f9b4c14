#include "conv/engine_gemm.hh"

#include <cstring>

#include "blas/gemm.hh"
#include "conv/scratch.hh"
#include "conv/unfold.hh"
#include "obs/trace.hh"

namespace spg {

namespace {

/**
 * Per-image FP: unfold then O = W * U'. The GemmFn decides whether
 * the MM itself is threaded (Parallel-GEMM) or single-threaded
 * (GEMM-in-Parallel). The epilogue runs right after the MM, while the
 * output image is hot.
 */
template <typename GemmFn>
void
forwardImage(const ConvSpec &spec, const float *in, const float *weights,
             float *out, std::int64_t out_offset, GemmFn &&mm,
             const Epilogue &epilogue)
{
    std::int64_t m = spec.gemmM(), n = spec.gemmN(), k = spec.gemmK();
    float *u = ScratchArena::forThread().get(
        kSlotUnfold, static_cast<std::size_t>(k) * n);
    unfoldImage(spec, in, u);
    mm(Trans::No, Trans::No, m, n, k, weights, u, 0.0f, out);
    epilogue.apply(out, out_offset, spec.outputElems());
}

/** Per-image BP-data: U'grad = W^T * EO, then fold into EI. */
template <typename GemmFn>
void
backwardDataImage(const ConvSpec &spec, const float *eo,
                  const float *weights, float *ei, GemmFn &&mm)
{
    std::int64_t m = spec.gemmK(), n = spec.gemmN(), k = spec.gemmM();
    float *ugrad = ScratchArena::forThread().get(
        kSlotUnfoldGrad, static_cast<std::size_t>(m) * n);
    mm(Trans::Yes, Trans::No, m, n, k, weights, eo, 0.0f, ugrad);
    std::memset(ei, 0, sizeof(float) * spec.inputElems());
    foldImageAccumulate(spec, ugrad, ei);
}

/** Per-image BP-weights: dW += EO * U'^T (dW pre-zeroed by caller). */
template <typename GemmFn>
void
backwardWeightsImage(const ConvSpec &spec, const float *eo,
                     const float *in, float *dweights, GemmFn &&mm)
{
    std::int64_t m = spec.gemmM(), n = spec.gemmK(), k = spec.gemmN();
    float *u = ScratchArena::forThread().get(
        kSlotUnfold, static_cast<std::size_t>(n) * k);
    unfoldImage(spec, in, u);
    mm(Trans::No, Trans::Yes, m, n, k, eo, u, 1.0f, dweights);
}

} // namespace

// ---------------------------------------------------------------------
// UnfoldGemmEngine: sequential over images, Parallel-GEMM per image.
// ---------------------------------------------------------------------

void
UnfoldGemmEngine::forward(const ConvSpec &spec, const Tensor &in,
                          const Tensor &weights, Tensor &out,
                          ThreadPool &pool, const Epilogue &epilogue) const
{
    SPG_TRACE_SCOPE("kernel", "parallel-gemm FP");
    checkForwardShapes(spec, in, weights, out);
    std::int64_t batch = in.shape()[0];
    auto mm = [&pool](Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                      std::int64_t k, const float *a, const float *b,
                      float beta, float *c) {
        parallelGemm(pool, ta, tb, m, n, k, a, b, beta, c);
    };
    for (std::int64_t b = 0; b < batch; ++b) {
        forwardImage(spec, in.data() + b * spec.inputElems(),
                     weights.data(), out.data() + b * spec.outputElems(),
                     b * spec.outputElems(), mm, epilogue);
    }
}

void
UnfoldGemmEngine::backwardData(const ConvSpec &spec, const Tensor &eo,
                               const Tensor &weights, Tensor &ei,
                               ThreadPool &pool, const BpMask &mask) const
{
    SPG_TRACE_SCOPE("kernel", "parallel-gemm BP-data");
    checkBackwardShapes(spec, eo, weights, ei);
    std::int64_t batch = eo.shape()[0];
    auto mm = [&pool](Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                      std::int64_t k, const float *a, const float *b,
                      float beta, float *c) {
        parallelGemm(pool, ta, tb, m, n, k, a, b, beta, c);
    };
    for (std::int64_t b = 0; b < batch; ++b) {
        std::int64_t off = b * spec.outputElems();
        const float *eo_b =
            stagedMaskedEo(spec, eo.data() + off, off, mask);
        backwardDataImage(spec, eo_b, weights.data(),
                          ei.data() + b * spec.inputElems(), mm);
    }
}

void
UnfoldGemmEngine::backwardWeights(const ConvSpec &spec, const Tensor &eo,
                                  const Tensor &in, Tensor &dweights,
                                  ThreadPool &pool, const BpMask &mask)
    const
{
    SPG_TRACE_SCOPE("kernel", "parallel-gemm BP-weights");
    std::int64_t batch = eo.shape()[0];
    dweights.zero();
    auto mm = [&pool](Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                      std::int64_t k, const float *a, const float *b,
                      float beta, float *c) {
        parallelGemm(pool, ta, tb, m, n, k, a, b, beta, c);
    };
    for (std::int64_t b = 0; b < batch; ++b) {
        std::int64_t off = b * spec.outputElems();
        const float *eo_b =
            stagedMaskedEo(spec, eo.data() + off, off, mask);
        backwardWeightsImage(spec, eo_b,
                             in.data() + b * spec.inputElems(),
                             dweights.data(), mm);
    }
}

// ---------------------------------------------------------------------
// GemmInParallelEngine: images across cores, sequential GEMM per image.
// ---------------------------------------------------------------------

namespace {

/** The single-threaded MM each worker runs on its own image. */
void
seqMm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
      const float *a, const float *b, float beta, float *c)
{
    sgemm(ta, tb, m, n, k, a, b, beta, c);
}

} // namespace

void
GemmInParallelEngine::forward(const ConvSpec &spec, const Tensor &in,
                              const Tensor &weights, Tensor &out,
                              ThreadPool &pool,
                              const Epilogue &epilogue) const
{
    SPG_TRACE_SCOPE("kernel", "gemm-in-parallel FP");
    checkForwardShapes(spec, in, weights, out);
    std::int64_t batch = in.shape()[0];
    pool.parallelForDynamic(batch, [&](std::int64_t b, int) {
        forwardImage(spec, in.data() + b * spec.inputElems(),
                     weights.data(), out.data() + b * spec.outputElems(),
                     b * spec.outputElems(), seqMm, epilogue);
    }, /*grain=*/1);
}

void
GemmInParallelEngine::backwardData(const ConvSpec &spec, const Tensor &eo,
                                   const Tensor &weights, Tensor &ei,
                                   ThreadPool &pool,
                                   const BpMask &mask) const
{
    SPG_TRACE_SCOPE("kernel", "gemm-in-parallel BP-data");
    checkBackwardShapes(spec, eo, weights, ei);
    std::int64_t batch = eo.shape()[0];
    pool.parallelForDynamic(batch, [&](std::int64_t b, int) {
        std::int64_t off = b * spec.outputElems();
        const float *eo_b =
            stagedMaskedEo(spec, eo.data() + off, off, mask);
        backwardDataImage(spec, eo_b, weights.data(),
                          ei.data() + b * spec.inputElems(), seqMm);
    }, /*grain=*/1);
}

void
GemmInParallelEngine::backwardWeights(const ConvSpec &spec,
                                      const Tensor &eo, const Tensor &in,
                                      Tensor &dweights, ThreadPool &pool,
                                      const BpMask &mask) const
{
    SPG_TRACE_SCOPE("kernel", "gemm-in-parallel BP-weights");
    reducer_.run(pool, eo.shape()[0], spec.weightElems(),
                 [&](std::int64_t b, float *dw) {
                     std::int64_t off = b * spec.outputElems();
                     const float *eo_b =
                         stagedMaskedEo(spec, eo.data() + off, off, mask);
                     backwardWeightsImage(spec, eo_b,
                                          in.data() + b * spec.inputElems(),
                                          dw, seqMm);
                 },
                 dweights.data());
}

} // namespace spg
