/**
 * @file
 * The modeled multicore machine.
 *
 * The host has far fewer cores than the paper's machine, so the
 * paper's multicore *scaling* experiments are regenerated by an
 * analytical, execution-schedule-driven performance model of the
 * paper's machine (Intel Xeon E5-2650, 16 physical cores, 41.6
 * GFlops/core peak).
 * The model is the roofline the paper's own §3 analysis implies:
 * per-core time = max(compute time at an efficiency-derated peak,
 * memory time at a fair share of the shared DRAM bandwidth), plus a
 * fork-join overhead per parallel region. Kernel efficiency factors
 * are calibratable from single-core measurements on the host.
 */

#ifndef SPG_SIMCPU_MACHINE_HH
#define SPG_SIMCPU_MACHINE_HH

#include <string>

namespace spg {

/** Parameters of the modeled machine. */
struct MachineModel
{
    std::string name = "xeon-e5-2650";

    int physical_cores = 16;
    /** Logical cores with SMT; beyond physical, peak is shared. */
    int logical_cores = 32;

    /** Peak single-precision GFlops of one physical core. */
    double peak_gflops_per_core = 41.6;

    /** Total DRAM bandwidth shared by all cores (GB/s). */
    double dram_bw_gbs = 51.2;

    /** Max DRAM bandwidth one core can draw alone (GB/s). */
    double per_core_bw_gbs = 12.0;

    /** Private L2 capacity per core (bytes). */
    double l2_bytes = 256.0 * 1024;

    /** Shared L3 capacity (bytes). */
    double l3_bytes = 20.0 * 1024 * 1024;

    /** Fork-join overhead of one parallel region (seconds). */
    double fork_join_s = 15e-6;

    /** Fraction of peak a well-blocked GEMM micro-kernel achieves. */
    double gemm_efficiency = 0.80;

    /**
     * Skinny-GEMM efficiency half-points: a BLAS GEMM only approaches
     * gemm_efficiency when every dimension is large enough to amortize
     * packing and fill micro-tiles; each dimension d contributes a
     * factor d / (d + d_half). This is what makes Parallel-GEMM's
     * per-core slabs slow (their m/p rows shrink with the core count)
     * while GEMM-in-Parallel keeps full-size operands per core.
     */
    double gemm_m_half = 24.0;
    double gemm_n_half = 48.0;
    double gemm_k_half = 48.0;

    /**
     * @return modeled fraction of peak for one GEMM whose (possibly
     * partitioned) per-core operand block is m x n x k.
     */
    double
    gemmEfficiency(double m, double n, double k) const
    {
        return gemm_efficiency * (m / (m + gemm_m_half)) *
               (n / (n + gemm_n_half)) * (k / (k + gemm_k_half));
    }

    /** Fraction of peak the register-tiled stencil achieves. */
    double stencil_efficiency = 0.60;

    /** Fraction of peak the sparse AXPY inner loops achieve. */
    double axpy_efficiency = 0.35;

    /** @return effective peak GFlops per core when `active` cores run
     *  (SMT: logical cores beyond the physical count share pipes). */
    double
    effectivePeakPerCore(int active) const
    {
        if (active <= physical_cores)
            return peak_gflops_per_core;
        return peak_gflops_per_core * physical_cores / active;
    }

    /** @return DRAM bandwidth share of one of `active` cores (GB/s). */
    double
    bandwidthPerCore(int active) const
    {
        double fair = dram_bw_gbs / (active > 0 ? active : 1);
        return fair < per_core_bw_gbs ? fair : per_core_bw_gbs;
    }

    /** The paper's evaluation machine. */
    static MachineModel xeonE5_2650();

    /**
     * A model of THIS host, calibrated from a measured single-core
     * GEMM rate — used by validation tests and the trainer's drift
     * report, which compare predicted vs. measured kernel times. Its
     * core count is the number of CPUs in the process's affinity mask
     * (at least 1), each counted as a physical core.
     *
     * @param measured_gemm_gflops Sustained single-core SGEMM rate.
     */
    static MachineModel hostCalibrated(double measured_gemm_gflops);

    /**
     * Host model with BOTH roofline axes measured: the compute peak
     * from a timed single-core GEMM and the bandwidth from hardware
     * counters (obs::measuredStreamBandwidthGbs — bytes from LLC
     * misses over a streaming sweep). A non-positive bandwidth falls
     * back to the timed-kernel-only calibration, so callers can pass
     * the counter result through unconditionally.
     */
    static MachineModel hostCalibrated(double measured_gemm_gflops,
                                       double measured_bw_gbs);
};

/**
 * The modeled cluster interconnect, described the same way
 * MachineModel describes the multicore: a peak rate plus a fixed
 * per-operation overhead. One ClusterLink is the NIC + switch hop a
 * worker machine hangs off; the distrib allreduce schedules charge
 * every serialized wire step against it.
 */
struct ClusterLink
{
    /** Per-link bandwidth (GB/s), full duplex. */
    double bandwidth_gbs = 1.25;  // 10 GbE

    /** Per-message latency of one wire step (NIC + switch hop). */
    double latency_s = 25e-6;

    /** Wall-clock of moving @p bytes across the link once. */
    double
    transferSeconds(double bytes) const
    {
        return latency_s + bytes / (bandwidth_gbs * 1e9);
    }
};

} // namespace spg

#endif // SPG_SIMCPU_MACHINE_HH
