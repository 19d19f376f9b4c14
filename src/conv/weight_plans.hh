/**
 * @file
 * Process-wide cache of the CSR weight plans of the
 * sparse-weights-direct FP engine.
 *
 * A pruned layer's weights are multiplied against every image of
 * every minibatch, so the engine encodes them once per weight version
 * and reuses the plan across all images and minibatches, shared
 * read-only between workers.
 *
 * Staleness is handled twice over:
 *  - ConvLayer explicitly calls invalidate() whenever it mutates its
 *    weights (SGD update, checkpoint restore) or dies (so a later
 *    allocation reusing the address cannot alias a stale entry).
 *  - get() additionally fingerprints the weight contents
 *    (util/fingerprint.hh) and re-encodes on mismatch, which keeps
 *    direct engine users (tests, benches, tuner probes) correct even
 *    when they mutate weight tensors without telling the cache. The
 *    fingerprint pass reads W once per get() — once per minibatch,
 *    amortized across the whole batch.
 *
 * Returned values are shared_ptr<const SparseWeightPlan>: invalidation
 * while a phase is in flight just drops the cache's reference; workers
 * holding the pointer finish on the old plan safely.
 */

#ifndef SPG_CONV_WEIGHT_PLANS_HH
#define SPG_CONV_WEIGHT_PLANS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "conv/conv_spec.hh"
#include "sparse/csr.hh"

namespace spg {

/**
 * Weights of one conv layer compressed for the weight-sparse FP
 * engines: CSR with rows = output features and columns = flattened
 * (c, ky, kx) taps, plus the tap's precomputed input-plane offset
 *
 *     in_off[p] = c * ny * nx + ky * nx + kx
 *
 * so the kernels address input pixels as image + y*sy*nx + x*sx +
 * in_off[p] with no div/mod in the hot loop. CsrMatrix::fromDense
 * scans row-major, so within each feature row the surviving taps stay
 * in ascending (c, ky, kx) order — the accumulation order of
 * conv_ref, which is what makes skip-the-zeros bit-for-bit safe.
 */
struct SparseWeightPlan
{
    std::int64_t nf = 0;    ///< CSR rows (output features)
    std::int64_t taps = 0;  ///< CSR columns (nc * fy * fx)
    CsrMatrix csr;
    std::vector<std::int64_t> in_off;  ///< per-nnz input offset
    double weight_sparsity = 0.0;      ///< zero fraction of the dense W

    std::int64_t nnz() const { return csr.nnz(); }
};

/** Global encode-once cache for weight-sparse FP plans. */
class WeightPlanCache
{
  public:
    /** @return the process-wide instance. */
    static WeightPlanCache &global();

    /** Encode-once statistics (tuner/tests). */
    struct Stats
    {
        std::int64_t encodes = 0;  ///< CSR builds performed
        std::int64_t hits = 0;     ///< lookups served from cache
        double encode_seconds = 0; ///< total time inside builds
    };

    /**
     * @return @p w (the layer's dense weights, nf x nc*fy*fx
     * row-major) encoded as a SparseWeightPlan for @p spec, encoding
     * it now if absent or if the cached entry's content fingerprint
     * no longer matches, so a pruning step (or any other weight
     * mutation) re-encodes exactly once per weight version.
     */
    std::shared_ptr<const SparseWeightPlan> get(const float *w,
                                                const ConvSpec &spec);

    /** Drop every plan encoded from the given weight storage. */
    void invalidate(const float *w);

    /** @return a snapshot of the counters. */
    Stats stats() const;

  private:
    /** Weight storage plus (nf, nc, fy, fx, ny, nx) — everything the
     *  plan's offsets depend on. */
    using Key = std::tuple<const float *, std::int64_t, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t,
                           std::int64_t>;
    struct Entry
    {
        std::uint64_t fingerprint;
        std::shared_ptr<const SparseWeightPlan> plan;
    };

    mutable std::mutex mu_;
    std::map<Key, Entry> entries_;
    Stats stats_;
};

} // namespace spg

#endif // SPG_CONV_WEIGHT_PLANS_HH
