#include "perf/region.hh"

namespace spg {

Region
classifyRegion(const ConvSpec &spec, double sparsity,
               const RegionThresholds &thresholds)
{
    bool sparse = sparsity >= thresholds.sparse_threshold;
    if (spec.nf >= thresholds.high_feature_count)
        return sparse ? Region::R1 : Region::R0;
    if (spec.nf < thresholds.low_feature_count)
        return sparse ? Region::R5 : Region::R4;
    return sparse ? Region::R3 : Region::R2;
}

std::string
regionName(Region region)
{
    return std::to_string(static_cast<int>(region));
}

std::string
regionPair(const ConvSpec &spec, const RegionThresholds &thresholds)
{
    Region dense = classifyRegion(spec, 0.0, thresholds);
    Region sparse = classifyRegion(spec, 1.0, thresholds);
    return regionName(dense) + "," + regionName(sparse);
}

TechniqueChoice
recommendTechniques(const ConvSpec &spec, double sparsity,
                    const RegionThresholds &thresholds)
{
    TechniqueChoice choice;
    if (spec.nf >= thresholds.high_feature_count)
        choice.fp = "parallel-gemm";
    else if (spec.nf < thresholds.low_feature_count)
        choice.fp = "direct";
    else
        choice.fp = "gemm-in-parallel";

    if (sparsity >= thresholds.sparse_threshold)
        choice.bp = "sparse";
    else if (spec.nf >= thresholds.high_feature_count)
        choice.bp = "parallel-gemm";
    else
        choice.bp = "gemm-in-parallel";
    return choice;
}

} // namespace spg
