/**
 * @file
 * Convenience umbrella header and engine registry.
 */

#ifndef SPG_CONV_ENGINES_HH
#define SPG_CONV_ENGINES_HH

#include <memory>
#include <vector>

#include "conv/engine.hh"
#include "conv/engine_direct.hh"
#include "conv/engine_gemm.hh"
#include "conv/engine_gemm_packed.hh"
#include "conv/engine_sparse.hh"
#include "conv/engine_sparse_direct.hh"
#include "conv/engine_stencil.hh"
#include "conv/engine_winograd.hh"

namespace spg {

/**
 * @return one instance of every production engine (the reference
 * oracle excluded): parallel-gemm, gemm-in-parallel, their
 * packed-operand variants, stencil, direct, sparse, winograd and
 * sparse-weights-direct. Each engine's supports() and appliesTo() say
 * where it is a candidate; the tuner measures exactly those.
 */
std::vector<std::unique_ptr<ConvEngine>> makeEngines();

/**
 * @return the engine with the given name() — any makeEngines() member
 * or "reference" — or nullptr when unknown.
 */
std::unique_ptr<ConvEngine> makeEngine(const std::string &name);

} // namespace spg

#endif // SPG_CONV_ENGINES_HH
