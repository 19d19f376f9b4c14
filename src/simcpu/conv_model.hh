/**
 * @file
 * Performance models of the convolution engines on the modeled
 * machine.
 *
 * Two levels are provided:
 *
 *  - Raw MM models (modelParallelGemmMm / modelGemmInParallelMm):
 *    the paper's Fig. 3a and Fig. 4a/4b time bare matrix multiplies
 *    under the two schedules; these models mirror exactly the operand
 *    partitioning of blas/gemm.cc.
 *
 *  - Convolution phase models (modelConvPhase): full engine executions
 *    including unfold/fold traffic, data-layout transforms, CT-CSR
 *    construction and fork-join overheads — used for Fig. 4c-4f,
 *    Fig. 8 and Fig. 9.
 *
 * Traffic estimates count each operand stream once (the paper's AIT
 * convention), with cache-capacity conditions where reuse across the
 * loop nest depends on a working set fitting in L2 (stencil input
 * reuse across output features).
 */

#ifndef SPG_SIMCPU_CONV_MODEL_HH
#define SPG_SIMCPU_CONV_MODEL_HH

#include <string>

#include "conv/conv_spec.hh"
#include "conv/engine.hh"
#include "simcpu/simulate.hh"

namespace spg {

/** GEMM dimensions of a convolution phase (unfolded form). */
struct PhaseMm
{
    std::int64_t m, n, k;
};

/** @return the MM the unfolded form of this phase computes. */
PhaseMm phaseMm(const ConvSpec &spec, Phase phase);

/**
 * One m x n x k MM partitioned across `cores` (Parallel-GEMM).
 * Mirrors blas parallelGemm: rows of C when m is large enough,
 * columns otherwise; each core touches its output slab plus the whole
 * shared operand.
 */
SimResult modelParallelGemmMm(const MachineModel &machine, std::int64_t m,
                              std::int64_t n, std::int64_t k, int cores);

/**
 * `batch` independent m x n x k MMs distributed over `cores`
 * (GEMM-in-Parallel); each MM runs single-threaded on its core.
 */
SimResult modelGemmInParallelMm(const MachineModel &machine,
                                std::int64_t m, std::int64_t n,
                                std::int64_t k, std::int64_t batch,
                                int cores);

/**
 * @return true when modelConvPhase() has a model for this engine:
 * every registry engine except winograd (and the reference oracle).
 * These are the engines the drift joins can price. modelConvPhase()
 * also prices "stencil", the paper's Stencil-Kernel, but that is a
 * model of the paper's technique, not an engine, so it is not listed.
 */
bool hasConvModel(const std::string &engine);

/**
 * Full engine execution of one layer phase over a minibatch.
 *
 * @param machine Modeled machine.
 * @param spec Layer geometry.
 * @param phase FP / BP-data / BP-weights.
 * @param engine Engine name for which hasConvModel(engine) holds, or
 *        "stencil": the paper's register-tiled Stencil-Kernel (§4.3,
 *        FP only) as the paper ran it. No registry engine implements
 *        it; the figure benches price it here, and "direct" is the
 *        deployable direct convolution.
 * @param batch Minibatch size.
 * @param cores Active cores.
 * @param sparsity Fraction of zeros in the output-error gradients
 *        (ignored for FP).
 * @param chunk_map Optional MEASURED per-core item counts (e.g.
 *        EngineTiming::chunk_map recorded by the tuner). When given,
 *        the image-parallel engines (gemm-in-parallel, stencil,
 *        direct, sparse) charge this schedule via simulateScheduled()
 *        instead
 *        of an idealized even split; its size overrides `cores`.
 *        Parallel-GEMM partitions a single MM rather than scheduling
 *        items, so it ignores the map.
 * @param fused_relu Model the layer as it runs with a fused ReLU
 *        epilogue: FP adds the byte-mask store, dense BP adds the
 *        one-shot masked-EO staging, the mask-fused sparse encode adds
 *        only the mask read. The standalone elementwise ReLU pass the
 *        fusion eliminates (see modelReluPassSeconds) is NOT charged.
 * @param weight_sparsity Zero fraction of the weight tensor — consumed
 *        by the CSR-weights FP engine ("sparse-weights-direct"), whose
 *        compute and weight traffic scale with the surviving taps.
 *        Ignored by the dense engines.
 * @return Simulated result; useful_flops reflects goodput (non-zero
 *         work) for BP phases.
 */
SimResult modelConvPhase(const MachineModel &machine, const ConvSpec &spec,
                         Phase phase, const std::string &engine,
                         std::int64_t batch, int cores,
                         double sparsity = 0.0,
                         const std::vector<std::int64_t> *chunk_map =
                             nullptr,
                         bool fused_relu = false,
                         double weight_sparsity = 0.0);

/**
 * @return modeled seconds of one standalone elementwise ReLU pass over
 * `elems` activations on `cores` cores (read + write, memory-bound) —
 * the per-direction cost that epilogue fusion removes from both FP
 * (relu forward) and BP (relu backward over the error tensor).
 */
double modelReluPassSeconds(const MachineModel &machine,
                            std::int64_t elems, int cores);

/**
 * @return per-image time (seconds) of a complete training step of one
 * conv layer (FP + BP-data + BP-weights) with the given FP/BP engine
 * pair — the building block of the Fig. 9 end-to-end model.
 */
double modelLayerStepSeconds(const MachineModel &machine,
                             const ConvSpec &spec,
                             const std::string &fp_engine,
                             const std::string &bp_engine,
                             std::int64_t batch, int cores,
                             double sparsity, bool fused_relu = false);

} // namespace spg

#endif // SPG_SIMCPU_CONV_MODEL_HH
