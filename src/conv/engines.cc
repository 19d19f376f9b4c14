#include "conv/engines.hh"

namespace spg {

std::vector<std::unique_ptr<ConvEngine>>
makeEngines()
{
    std::vector<std::unique_ptr<ConvEngine>> engines;
    engines.push_back(std::make_unique<UnfoldGemmEngine>());
    engines.push_back(std::make_unique<GemmInParallelEngine>());
    engines.push_back(std::make_unique<UnfoldGemmPackedEngine>());
    engines.push_back(std::make_unique<GemmInParallelPackedEngine>());
    engines.push_back(std::make_unique<StencilEngine>());
    engines.push_back(std::make_unique<DirectEngine>());
    engines.push_back(std::make_unique<SparseBpEngine>());
    engines.push_back(std::make_unique<WinogradEngine>());
    engines.push_back(std::make_unique<SparseDirectFpEngine>());
    return engines;
}

std::unique_ptr<ConvEngine>
makeEngine(const std::string &name)
{
    if (name == "reference")
        return std::make_unique<ReferenceEngine>();
    for (auto &engine : makeEngines())
        if (engine->name() == name)
            return std::move(engine);
    return nullptr;
}

} // namespace spg
