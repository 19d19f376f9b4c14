#include "simcpu/machine.hh"

#include <algorithm>

#ifdef __linux__
#include <sched.h>
#endif

namespace spg {

namespace {

/** @return the CPUs this process may run on (at least 1). */
int
affinityCpuCount()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
#endif
    return 1;
}

} // namespace

MachineModel
MachineModel::xeonE5_2650()
{
    return MachineModel{};
}

MachineModel
MachineModel::hostCalibrated(double measured_gemm_gflops)
{
    MachineModel m;
    m.name = "host";
    m.physical_cores = affinityCpuCount();
    m.logical_cores = m.physical_cores;
    // Treat the measured sustained GEMM rate as efficiency x peak.
    m.peak_gflops_per_core = measured_gemm_gflops / m.gemm_efficiency;
    m.dram_bw_gbs = 12.0;
    m.per_core_bw_gbs = 12.0;
    return m;
}

MachineModel
MachineModel::hostCalibrated(double measured_gemm_gflops,
                             double measured_bw_gbs)
{
    MachineModel m = hostCalibrated(measured_gemm_gflops);
    if (measured_bw_gbs > 0) {
        m.dram_bw_gbs = measured_bw_gbs;
        m.per_core_bw_gbs = measured_bw_gbs;
    }
    return m;
}

} // namespace spg
