#include "conv/weight_plans.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/fingerprint.hh"
#include "util/timer.hh"

namespace spg {

namespace {

/** Entries are few (one per pruned conv layer); past this something is
 *  leaking keys, so start over rather than grow. */
constexpr std::size_t kMaxEntries = 64;

} // namespace

WeightPlanCache &
WeightPlanCache::global()
{
    static WeightPlanCache cache;
    return cache;
}

std::shared_ptr<const SparseWeightPlan>
WeightPlanCache::get(const float *w, const ConvSpec &spec)
{
    Key key{w, spec.nf, spec.nc, spec.fy, spec.fx, spec.ny, spec.nx};
    std::uint64_t fp = fingerprintBytes(
        reinterpret_cast<const unsigned char *>(w),
        static_cast<std::size_t>(spec.weightElems()) * sizeof(float));
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.fingerprint == fp) {
            ++stats_.hits;
            obs::Metrics::global().counter("weight_plans.hits").add();
            return it->second.plan;
        }
    }

    obs::Metrics::global().counter("weight_plans.encodes").add();
    SPG_TRACE_SCOPE_NN("sparse", "encode sparse weights", "nf",
                       spec.nf, "taps", spec.nc * spec.fy * spec.fx);
    Stopwatch watch;
    auto plan = std::make_shared<SparseWeightPlan>();
    plan->nf = spec.nf;
    plan->taps = spec.nc * spec.fy * spec.fx;
    plan->csr = CsrMatrix::fromDense(w, plan->nf, plan->taps);
    plan->weight_sparsity = plan->csr.sparsity();
    plan->in_off.resize(static_cast<std::size_t>(plan->nnz()));
    const auto &cidx = plan->csr.colIdx();
    for (std::size_t p = 0; p < cidx.size(); ++p) {
        std::int64_t tap = cidx[p];
        std::int64_t c = tap / (spec.fy * spec.fx);
        std::int64_t ky = tap / spec.fx % spec.fy;
        std::int64_t kx = tap % spec.fx;
        plan->in_off[p] = c * spec.ny * spec.nx + ky * spec.nx + kx;
    }
    double elapsed = watch.seconds();

    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.encodes;
    stats_.encode_seconds += elapsed;
    if (entries_.size() >= kMaxEntries)
        entries_.clear();
    entries_[key] = Entry{fp, plan};
    return plan;
}

void
WeightPlanCache::invalidate(const float *w)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (std::get<0>(it->first) == w)
            it = entries_.erase(it);
        else
            ++it;
    }
}

WeightPlanCache::Stats
WeightPlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace spg
