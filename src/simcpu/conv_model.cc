#include "simcpu/conv_model.hh"

#include <algorithm>
#include <cmath>

#include "perf/roofline.hh"
#include "util/logging.hh"

namespace spg {

namespace {

constexpr double kFloat = 4.0;  ///< bytes per element

/** Unfold+GEMM streaming traffic (elements) of one image, per phase,
 *  exclusive of the in-GEMM operand packing (see packExtraElems). */
double
unfoldTrafficElems(const ConvSpec &spec, Phase phase)
{
    double u = static_cast<double>(spec.unfoldedElems());
    switch (phase) {
      case Phase::Forward:
        // read I, write U; MM reads U + W, writes O.
        return spec.inputElems() + 2 * u + spec.weightElems() +
               spec.outputElems();
      case Phase::BackwardData:
        // MM reads EO + W, writes Ugrad; fold reads Ugrad, writes EI.
        return spec.outputElems() + spec.weightElems() + 2 * u +
               spec.inputElems();
      case Phase::BackwardWeights:
        // unfold I; MM reads EO + U, accumulates dW.
        return spec.inputElems() + 2 * u + spec.outputElems() +
               2 * spec.weightElems();
    }
    return 0;
}

/**
 * The extra traffic the in-GEMM operand packing adds on top of the
 * footprint already counted once per stream: the A-panel write (its
 * re-reads are L2-resident and free under the model's conventions)
 * plus the B-panel write AND kernel re-read (B panels are streamed, so
 * the round trip hits memory).
 *
 * @param a_elems Per-core footprint of the A operand.
 * @param b_elems Per-core footprint of the B operand.
 */
double
packExtraElems(double a_elems, double b_elems)
{
    return a_elems + 2.0 * b_elems;
}

/** Per-image GEMM operand footprints {A, B} for the unfold schedules. */
void
phaseOperandElems(const ConvSpec &spec, Phase phase, double &a_elems,
                  double &b_elems)
{
    double u = static_cast<double>(spec.unfoldedElems());
    switch (phase) {
      case Phase::Forward:  // O = W * U'
        a_elems = spec.weightElems();
        b_elems = u;
        return;
      case Phase::BackwardData:  // U'grad = W^T * EO
        a_elems = spec.weightElems();
        b_elems = spec.outputElems();
        return;
      case Phase::BackwardWeights:  // dW += EO * U'^T
        a_elems = spec.outputElems();
        b_elems = u;
        return;
    }
    a_elems = b_elems = 0;
}

/** The unfold/fold prologue that the baseline runs serially. */
double
serialPrologueElems(const ConvSpec &spec, Phase phase)
{
    double u = static_cast<double>(spec.unfoldedElems());
    switch (phase) {
      case Phase::Forward:
      case Phase::BackwardWeights:
        return spec.inputElems() + u;  // im2col: read I, write U
      case Phase::BackwardData:
        return u + spec.inputElems();  // col2im: read Ugrad, write EI
    }
    return 0;
}

} // namespace

PhaseMm
phaseMm(const ConvSpec &spec, Phase phase)
{
    switch (phase) {
      case Phase::Forward:
        return {spec.gemmM(), spec.gemmN(), spec.gemmK()};
      case Phase::BackwardData:
        return {spec.gemmK(), spec.gemmN(), spec.gemmM()};
      case Phase::BackwardWeights:
        return {spec.gemmM(), spec.gemmK(), spec.gemmN()};
    }
    return {0, 0, 0};
}

SimResult
modelParallelGemmMm(const MachineModel &machine, std::int64_t m,
                    std::int64_t n, std::int64_t k, int cores)
{
    SPG_ASSERT(cores >= 1);
    // Mirror blas/gemm.cc: rows of C when m is big enough, else cols.
    GemmPartition part = (m >= static_cast<std::int64_t>(cores) * 6 ||
                          m >= n)
                             ? GemmPartition::Rows
                             : GemmPartition::Cols;
    double per_core_elems = gemmElementsPerCore(m, n, k, cores, part);
    double mc = part == GemmPartition::Rows
                    ? static_cast<double>(m) / cores
                    : static_cast<double>(m);
    double nc = part == GemmPartition::Cols
                    ? static_cast<double>(n) / cores
                    : static_cast<double>(n);
    SimTask task;
    task.flops = gemmFlopsPerCore(m, n, k, cores);
    task.bytes = kFloat * per_core_elems;
    task.efficiency = machine.gemmEfficiency(mc, nc, k);
    std::vector<std::vector<SimTask>> per_core(cores, {task});
    return simulate(machine, per_core);
}

SimResult
modelGemmInParallelMm(const MachineModel &machine, std::int64_t m,
                      std::int64_t n, std::int64_t k, std::int64_t batch,
                      int cores)
{
    SimTask task;
    task.flops = 2.0 * m * n * k;
    task.bytes = kFloat * (static_cast<double>(m) * k +
                           static_cast<double>(k) * n +
                           static_cast<double>(m) * n);
    task.efficiency = machine.gemmEfficiency(m, n, k);
    return simulateUniform(machine, task, batch, cores);
}

bool
hasConvModel(const std::string &engine)
{
    return engine == "parallel-gemm" || engine == "gemm-in-parallel" ||
           engine == "direct" || engine == "sparse" ||
           engine == "sparse-weights-direct";
}

SimResult
modelConvPhase(const MachineModel &machine, const ConvSpec &spec,
               Phase phase, const std::string &engine, std::int64_t batch,
               int cores, double sparsity,
               const std::vector<std::int64_t> *chunk_map, bool fused_relu,
               double weight_sparsity)
{
    spec.validate();
    SPG_ASSERT(batch >= 1 && cores >= 1);
    // Fused-ReLU epilogue traffic, in float-equivalent elements per
    // image. The byte mask counts as a quarter element per entry. FP
    // stores the mask while the output tile is hot; dense BP stages
    // (mask ? EO : 0) once (read EO + mask, write staging); the
    // mask-fused sparse encode only adds the mask read to its passes.
    double eo_elems = static_cast<double>(spec.outputElems());
    double fused_fp_elems = fused_relu ? 0.25 * eo_elems : 0.0;
    double fused_stage_elems = fused_relu ? 2.25 * eo_elems : 0.0;
    double fused_mask_elems = fused_relu ? 0.25 * eo_elems : 0.0;
    // Image-parallel engines distribute per-image tasks; a measured
    // chunk map replaces the idealized even split for them.
    auto scheduleImages = [&](const SimTask &task, double useful) {
        if (chunk_map && !chunk_map->empty())
            return simulateScheduled(machine, task, batch, *chunk_map,
                                     {}, useful);
        return simulateUniform(machine, task, batch, cores, {}, useful);
    };
    sparsity = std::clamp(sparsity, 0.0, 1.0);
    weight_sparsity = std::clamp(weight_sparsity, 0.0, 1.0);
    PhaseMm mm = phaseMm(spec, phase);
    double dense_flops = 2.0 * mm.m * mm.n * mm.k;
    double useful_one = phase == Phase::Forward
                            ? dense_flops
                            : (1.0 - sparsity) * dense_flops;

    if (engine == "parallel-gemm") {
        // Sequential over images: serial unfold/fold prologue + the
        // partitioned MM, once per image; fork-join per image. The MM
        // partitions rows when there are enough of them.
        GemmPartition part =
            mm.m >= static_cast<std::int64_t>(cores) * 6 || mm.m >= mm.n
                ? GemmPartition::Rows
                : GemmPartition::Cols;
        double mc = part == GemmPartition::Rows
                        ? static_cast<double>(mm.m) / cores
                        : static_cast<double>(mm.m);
        double ncols = part == GemmPartition::Cols
                           ? static_cast<double>(mm.n) / cores
                           : static_cast<double>(mm.n);
        SimTask mm_task;
        mm_task.flops = gemmFlopsPerCore(mm.m, mm.n, mm.k, cores);
        mm_task.bytes =
            kFloat * gemmElementsPerCore(mm.m, mm.n, mm.k, cores, part);
        double a_elems, b_elems;
        phaseOperandElems(spec, phase, a_elems, b_elems);
        double a_core =
            part == GemmPartition::Rows ? a_elems / cores : a_elems;
        double b_core =
            part == GemmPartition::Cols ? b_elems / cores : b_elems;
        // Every core re-packs its operand footprint per image.
        mm_task.bytes += kFloat * packExtraElems(a_core, b_core);
        if (phase == Phase::Forward)
            mm_task.bytes += kFloat * fused_fp_elems / cores;
        mm_task.efficiency = machine.gemmEfficiency(mc, ncols, mm.k);
        SimTask pro;
        pro.bytes = kFloat * serialPrologueElems(spec, phase);
        if (phase != Phase::Forward)
            pro.bytes += kFloat * fused_stage_elems;
        std::vector<std::vector<SimTask>> per_core(cores, {mm_task});
        SimResult one = simulate(machine, per_core, {pro});
        one.seconds *= batch;
        one.total_flops *= batch;
        one.useful_flops = useful_one * batch;
        return one;
    }

    if (engine == "gemm-in-parallel") {
        SimTask task;
        task.flops = dense_flops;
        task.bytes = kFloat * unfoldTrafficElems(spec, phase);
        double a_elems, b_elems;
        phaseOperandElems(spec, phase, a_elems, b_elems);
        task.bytes += kFloat * packExtraElems(a_elems, b_elems);
        task.bytes += kFloat * (phase == Phase::Forward
                                    ? fused_fp_elems
                                    : fused_stage_elems);
        task.efficiency = machine.gemmEfficiency(
            static_cast<double>(mm.m), static_cast<double>(mm.n),
            static_cast<double>(mm.k));
        return scheduleImages(task, useful_one * batch);
    }

    if (engine == "stencil") {
        // The paper's Stencil-Kernel (§4.3) on the modeled machine: no
        // engine implements it (direct is the deployable direct conv).
        SPG_ASSERT(phase == Phase::Forward);
        double in_bytes = kFloat * spec.inputElems();
        double out_plane = kFloat * spec.outY() * spec.outX();
        // Input planes are reused across the Nf output features only
        // if all channels plus one output plane fit in L2.
        double in_reload =
            (in_bytes + out_plane <= machine.l2_bytes) ? 1.0
                                                       : spec.nf;
        double elems = in_reload * spec.inputElems() +
                       spec.weightElems() + 2.0 * spec.outputElems();
        if (spec.sx > 1)
            elems += 2.0 * spec.inputElems();  // Eq. 21 split
        elems += fused_fp_elems;
        SimTask task;
        task.flops = dense_flops;
        task.bytes = kFloat * elems;
        task.efficiency = machine.stencil_efficiency;
        return scheduleImages(task, useful_one * batch);
    }

    if (engine == "sparse") {
        SPG_ASSERT(phase != Phase::Forward);
        double eo = spec.outputElems();
        double nnz = (1.0 - sparsity) * eo;
        double flops = 2.0 * nnz * spec.fy * spec.fx * spec.nc;
        double elems;
        if (phase == Phase::BackwardData) {
            // Fingerprint (r EO) + fused two-pass CHW->CT-CSR build
            // (counts r EO + fill r EO, w 2nnz) + W' transform (~3|W|)
            // + EI staging (zero+write+readback+write = 4|EI|).
            elems = 3.0 * eo + 2.0 * nnz + 3.0 * spec.weightElems() +
                    4.0 * spec.inputElems();
        } else {
            // Encode-once: BP-weights replays the plan built by
            // BP-data, so the encode traffic is charged ONCE per
            // minibatch — only the fingerprint check (r EO) and the
            // plan read (2nnz) remain here.
            elems = eo + 2.0 * nnz + 3.0 * spec.inputElems() +
                    4.0 * spec.weightElems();
        }
        // The mask-fused encode only reads the byte mask alongside EO.
        elems += fused_mask_elems;
        SimTask task;
        task.flops = flops;
        task.bytes = kFloat * elems;
        task.efficiency = machine.axpy_efficiency;
        return scheduleImages(task, flops * batch);
    }

    if (engine == "direct") {
        // Blocked NCHWc register-tiled engine. Channel tails are
        // padded to the 8-lane block, so the executed FLOPs carry the
        // pad ratio; the staging conversions at the layer boundary are
        // charged too, matching how the tuner measures the engine on
        // plain tensors (a negotiated blocked edge elides the FP
        // pack/unpack share at deployment).
        const double blk = 8.0;
        double cbn = std::ceil(static_cast<double>(spec.nc) / blk);
        double kbn = std::ceil(static_cast<double>(spec.nf) / blk);
        double in_pad = cbn * blk * spec.ny * spec.nx;
        double out_pad = kbn * blk * spec.outY() * spec.outX();
        double w_pad = kbn * blk * cbn * blk * spec.fy * spec.fx;
        SimTask task;
        if (phase == Phase::Forward) {
            // Pack in + weights, compute, unpack out. The blocked
            // input image is re-streamed once per feature block unless
            // it stays L2-resident beside an output row. The FP tile
            // accumulates in double for bit-exactness with the
            // reference, halving the vector FMA rate.
            double in_bytes = kFloat * in_pad;
            double out_row = kFloat * spec.outX() * blk;
            double in_reload =
                (in_bytes + out_row <= machine.l2_bytes) ? 1.0 : kbn;
            double elems = spec.inputElems() + in_pad        // pack in
                           + spec.weightElems() + w_pad      // pack w
                           + in_reload * in_pad + w_pad      // compute
                           + out_pad                         // store
                           + out_pad + spec.outputElems()    // unpack
                           + fused_fp_elems;
            task.flops = dense_flops * (cbn * blk / spec.nc) *
                         (kbn * blk / spec.nf);
            task.bytes = kFloat * elems;
            task.efficiency = 0.5 * machine.stencil_efficiency;
        } else if (phase == Phase::BackwardData) {
            // Gather-layout weight pack, blocked EI compute (EO image
            // re-streamed per channel block unless L2-resident), EI
            // unpack. Float FMA at stencil rate; pad lanes only on the
            // input-channel side.
            double w_gather = cbn * blk * spec.nf * spec.fy * spec.fx;
            double eo_bytes = kFloat * spec.outputElems();
            double ei_row = kFloat * spec.nx * blk;
            double eo_reload =
                (eo_bytes + ei_row <= machine.l2_bytes) ? 1.0 : cbn;
            double elems = spec.weightElems() + w_gather     // pack w
                           + eo_reload * spec.outputElems()  // compute
                           + w_gather + in_pad               // store
                           + in_pad + spec.inputElems()      // unpack
                           + fused_stage_elems;
            task.flops = dense_flops * (cbn * blk / spec.nc);
            task.bytes = kFloat * elems;
            task.efficiency = machine.stencil_efficiency;
        } else {
            // Blocked masked EO staging, then one task per (feature
            // block, channel block, kernel row), each streaming the
            // paired EO / input block planes; the fy row tasks of a
            // pair hit L2 when both planes fit. Pad lanes on both
            // sides of the dw tiles.
            double eo_plane = blk * spec.outY() * spec.outX();
            double in_plane = blk * spec.ny * spec.nx;
            double passes =
                kFloat * (eo_plane + in_plane) <= machine.l2_bytes
                    ? 1.0
                    : spec.fy;
            double elems = spec.outputElems() + out_pad      // stage EO
                           + fused_mask_elems
                           + passes * kbn * cbn *
                                 (eo_plane + in_plane)       // compute
                           + 2.0 * w_pad + spec.weightElems();  // dw
            task.flops = dense_flops * (cbn * blk / spec.nc) *
                         (kbn * blk / spec.nf);
            task.bytes = kFloat * elems;
            task.efficiency = machine.stencil_efficiency;
        }
        return scheduleImages(task, useful_one * batch);
    }

    if (engine == "sparse-weights-direct") {
        // CSR-weights FP engine: compute and weight traffic scale with
        // the surviving taps. The encode is once per weight version and
        // amortized across a whole prune interval, so the steady-state
        // model charges only the plan read: value + input-offset per
        // nnz (2 elements under the AIT convention). The input image is
        // re-streamed once per output feature unless it stays
        // L2-resident beside an output plane (same reuse condition as
        // the dense stencil).
        SPG_ASSERT(phase == Phase::Forward);
        double taps = static_cast<double>(spec.nc) * spec.fy * spec.fx;
        double nnz = (1.0 - weight_sparsity) *
                     static_cast<double>(spec.nf) * taps;
        double flops = 2.0 * nnz * spec.outY() * spec.outX();
        double in_bytes = kFloat * spec.inputElems();
        double out_plane =
            kFloat * static_cast<double>(spec.outY()) * spec.outX();
        double in_reload =
            (in_bytes + out_plane <= machine.l2_bytes) ? 1.0
                                                       : spec.nf;
        // Register-tiled, write-once output; per-pixel double
        // accumulation halves the vector FMA rate (bit-exactness with
        // the reference, like the direct engine's FP tile).
        double elems = in_reload * spec.inputElems() + 2.0 * nnz +
                       spec.outputElems() + fused_fp_elems;
        SimTask task;
        task.efficiency = 0.5 * machine.stencil_efficiency;
        task.flops = flops;
        task.bytes = kFloat * elems;
        // Goodput: every executed FLOP lands on a surviving tap.
        return scheduleImages(task, flops * batch);
    }

    panic("no performance model for engine '%s'", engine.c_str());
}

double
modelReluPassSeconds(const MachineModel &machine, std::int64_t elems,
                     int cores)
{
    // One elementwise sweep: read + write every activation, negligible
    // compute — purely memory-bound, evenly divisible across cores.
    SimTask task;
    task.flops = static_cast<double>(elems);
    task.bytes = kFloat * 2.0 * static_cast<double>(elems);
    task.efficiency = machine.axpy_efficiency;
    return simulateUniform(machine, task, cores, cores).seconds;
}

double
modelLayerStepSeconds(const MachineModel &machine, const ConvSpec &spec,
                      const std::string &fp_engine,
                      const std::string &bp_engine, std::int64_t batch,
                      int cores, double sparsity, bool fused_relu)
{
    // With a fused ReLU the phases carry the mask traffic themselves;
    // without one, the network pays two standalone elementwise passes
    // (relu forward + relu backward) per step that fusion eliminates.
    double t = modelConvPhase(machine, spec, Phase::Forward, fp_engine,
                              batch, cores, 0.0, nullptr, fused_relu)
                   .seconds;
    t += modelConvPhase(machine, spec, Phase::BackwardData, bp_engine,
                        batch, cores, sparsity, nullptr, fused_relu)
             .seconds;
    t += modelConvPhase(machine, spec, Phase::BackwardWeights, bp_engine,
                        batch, cores, sparsity, nullptr, fused_relu)
             .seconds;
    return t / batch;
}

} // namespace spg
