/**
 * @file
 * Model-vs-measured drift report.
 *
 * The paper's engine selection (§4, Fig. 8-9) trusts the simcpu
 * roofline model to rank engines per layer phase; this report
 * quantifies how far that trust is earned on the machine actually
 * running. Each sample joins one measured per-layer per-phase time
 * with the model's prediction for the same (spec, phase, engine,
 * cores, sparsity) point; the report aggregates the absolute relative
 * error per Fig. 1 region (R0-R5) as nearest-rank percentiles, so a
 * region where the model misleads the tuner shows up as a fat p90.
 *
 * This module deliberately does not depend on simcpu: callers (the
 * trainer) run the model themselves and hand over numbers, keeping
 * obs at the bottom of the library graph.
 */

#ifndef SPG_OBS_DRIFT_HH
#define SPG_OBS_DRIFT_HH

#include <string>
#include <vector>

namespace spg {
namespace obs {

/** One measured-vs-modeled data point. */
struct DriftSample
{
    std::string label;   ///< layer name ("conv1")
    std::string phase;   ///< "FP" / "BP-data" / "BP-weights"
    std::string engine;  ///< engine that ran ("gemm-in-parallel")
    std::string region;  ///< Fig. 1 region ("R2")
    double measured_seconds = 0;
    double modeled_seconds = 0;
    /** Hardware-counter DRAM traffic (LLC misses x line) for the same
     *  execution; -1 when counters were unavailable. */
    double measured_bytes = -1;
    /** modelConvPhase's traffic estimate for the same point. */
    double modeled_bytes = 0;

    /** Signed relative error: (measured - modeled) / measured. */
    double relError() const;

    /** True when the traffic join has both sides of the comparison. */
    bool hasTraffic() const;

    /** Signed traffic error: (measured - modeled) / measured bytes;
     *  0 when !hasTraffic(). */
    double trafficRelError() const;
};

/** Error percentiles over one group of samples. */
struct DriftStats
{
    std::string key;  ///< region name (or "all")
    int samples = 0;
    double p50 = 0;  ///< median absolute relative error
    double p90 = 0;
    double max = 0;
    double mean_signed = 0;  ///< bias: >0 means the model is optimistic

    /** Traffic join (measured LLC-miss bytes vs modeled bytes) over
     *  the subset of samples that carried counters; 0 samples means
     *  the columns print "n/a". */
    int traffic_samples = 0;
    double traffic_p50 = 0;
    double traffic_p90 = 0;
    double traffic_max = 0;
    double traffic_mean_signed = 0;
};

/** Package energy one training epoch drew (RAPL). */
struct EpochEnergy
{
    int epoch = 0;
    double joules = 0;
};

/**
 * One modeled cluster-scaling point (the distrib schedule simulator
 * extrapolating a measured single-node profile to K workers). Plain
 * numbers handed over by the caller — obs stays at the bottom of the
 * library graph, below distrib.
 */
struct ScalingRow
{
    std::string config;  ///< "sparse+ring+overlap" etc.
    int workers = 1;
    double step_ms = 0;     ///< modeled global-step wall-clock
    double comm_ms = 0;     ///< modeled wire time
    double overlap_frac = 1.0;
    double speedup = 1.0;   ///< vs one worker on the same global batch
    double efficiency = 1.0;
};

/** Accumulates samples and summarizes model error per region. */
class DriftReport
{
  public:
    void add(DriftSample sample);

    /** Record the package energy one epoch drew (skip when RAPL is
     *  unavailable — absent rows render as "n/a", not zero). */
    void addEpochEnergy(int epoch, double joules);

    /** Record one modeled cluster-scaling point; printed as its own
     *  table next to the measured single-node numbers. */
    void addScaling(ScalingRow row);

    const std::vector<DriftSample> &samples() const { return rows; }
    const std::vector<ScalingRow> &scaling() const { return scaling_; }
    bool empty() const { return rows.empty(); }

    /** Per-region stats, region name order (R0..R5 sorts naturally). */
    std::vector<DriftStats> byRegion() const;

    /** Stats over every sample. */
    DriftStats overall() const;

    /** JSON document: overall + per-region stats + raw samples. */
    std::string toJson() const;

    /** Render the per-region table (util/table) to @p stream. */
    void print(std::FILE *stream = stdout) const;

    /** toJson() to a file; fatal() on I/O failure. */
    void writeTo(const std::string &path) const;

  private:
    std::vector<DriftSample> rows;
    std::vector<EpochEnergy> energy;
    std::vector<ScalingRow> scaling_;
};

} // namespace obs
} // namespace spg

#endif // SPG_OBS_DRIFT_HH
