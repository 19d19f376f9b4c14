/**
 * @file
 * The Fig. 1 design space: classifying convolutions by AIT and
 * sparsity.
 *
 * The paper divides the (AIT, sparsity) plane into six regions with
 * distinct performance characteristics under Unfold+Parallel-GEMM and
 * maps each region to the spg-CNN technique that repairs it:
 *
 *   Region 0: high AIT,     dense  — baseline already good
 *   Region 1: high AIT,     sparse — Sparse-Kernel (BP goodput)
 *   Region 2: moderate AIT, dense  — GEMM-in-Parallel (scalability)
 *   Region 3: moderate AIT, sparse — GEMM-in-Parallel + Sparse-Kernel
 *   Region 4: low AIT,      dense  — Stencil-Kernel (single-core perf)
 *   Region 5: low AIT,      sparse — Stencil-Kernel + Sparse-Kernel
 *
 * The AIT axis is proxied by the output feature count (the paper notes
 * AIT of the unfolded MM ~ 2 x Nf): >= 1024 features is "high"
 * (Parallel-GEMM scales), < 128 features is "low" (the paper's
 * Stencil-Kernel wins) — the §4.4 deployment thresholds. The
 * Stencil-Kernel's deployable engine is "direct", the register-tiled
 * direct convolution; simcpu's "stencil" model prices the paper's own
 * kernel.
 */

#ifndef SPG_PERF_REGION_HH
#define SPG_PERF_REGION_HH

#include <string>

#include "conv/conv_spec.hh"

namespace spg {

/** One of the six Fig. 1 regions. */
enum class Region
{
    R0 = 0,  ///< high AIT, dense
    R1 = 1,  ///< high AIT, sparse
    R2 = 2,  ///< moderate AIT, dense
    R3 = 3,  ///< moderate AIT, sparse
    R4 = 4,  ///< low AIT, dense
    R5 = 5   ///< low AIT, sparse
};

/** Thresholds dividing the design space (paper §4.4 defaults). */
struct RegionThresholds
{
    /** Nf at/above which Parallel-GEMM already scales ("high AIT"). */
    std::int64_t high_feature_count = 1024;
    /** Nf below which direct convolution wins ("low AIT"). */
    std::int64_t low_feature_count = 128;
    /** Error sparsity at/above which the sparse BP kernel wins. */
    double sparse_threshold = 0.75;
};

/** @return the Fig. 1 region of a convolution at a sparsity level. */
Region classifyRegion(const ConvSpec &spec, double sparsity,
                      const RegionThresholds &thresholds = {});

/** @return "0".."5". */
std::string regionName(Region region);

/**
 * @return the dense/sparse region PAIR string used by Table 1
 * ("0,1", "2,3" or "4,5"): the region the convolution occupies when
 * dense and when sparse.
 */
std::string regionPair(const ConvSpec &spec,
                       const RegionThresholds &thresholds = {});

/** Technique recommendation per the paper's deployment rules. */
struct TechniqueChoice
{
    std::string fp;  ///< forward-propagation engine name
    std::string bp;  ///< back-propagation engine name
};

/**
 * @return the engines the paper's rules deploy for this layer at this
 * sparsity (before any empirical re-tuning).
 */
TechniqueChoice recommendTechniques(const ConvSpec &spec, double sparsity,
                                    const RegionThresholds &thresholds = {});

} // namespace spg

#endif // SPG_PERF_REGION_HH
