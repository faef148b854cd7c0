//===- KernelSpaces.h - Builtin kernel search spaces -----------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// KernelSearchSpec factories for the kernel library: each binds a kernel
/// family's parameterized mapping generator (gemmMapping / attentionMapping
/// driven by a base config plus axis assignments applied via applyTunable)
/// and its static validate() to the autotuner. The default axis sets
/// reproduce the sweeps the paper's Section 5.4 workflow explores: tile
/// sizes, software pipeline depth, and consumer warpgroup count.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_AUTOTUNE_KERNELSPACES_H
#define CYPRESS_AUTOTUNE_KERNELSPACES_H

#include "autotune/MappingSpace.h"
#include "kernels/Kernels.h"

namespace cypress {

/// The Section 5.4 exploration grid for the dense GEMM:
/// U in {64, 128}, V in {128, 256}, PIPE in {2, 3, 4}, WGS in {1, 2}.
std::vector<TuningAxis> gemmSweepAxes();

/// The full guided-search grid: the Section 5.4 axes widened (U/V up to
/// 256, W swept, deeper pipelines) and crossed with the per-stream axes
/// the compiler understands — per-tensor pipeline depths PIPE_A/PIPE_B
/// (0 = the loop depth), exec-unit assignment TMA_A/TMA_B, and the
/// shared-memory occupancy cap SMEM in KiB (0 = machine capacity). The
/// product is ~7.8 * 10^4 points, of which >= 10^4 are statically
/// feasible on H100 — sized for tuneBudgeted's guided search.
std::vector<TuningAxis> gemmGuidedAxes();

/// A search over \p Axes around \p Base (fields not named by an axis keep
/// the base value). Axis names are GemmConfig tunables: "M", "N", "K",
/// "L", "U", "V", "W", "WGS", "PIPE", "WSPEC", "PIPE_A", "PIPE_B",
/// "TMA_A", "TMA_B", "SMEM".
KernelSearchSpec gemmSearchSpec(GemmConfig Base, std::vector<TuningAxis> Axes);

/// The guided attention grid: the sweep axes widened (BC down to 32, WGS
/// and deeper pipelines swept) and crossed with the per-stream K/V
/// pipeline depths and the SMEM occupancy cap. ~2.9 * 10^3 points,
/// >= 10^3 statically feasible on H100.
std::vector<TuningAxis> attentionGuidedAxes();

/// A search over \p Axes around \p Base. Axis names are AttentionConfig
/// tunables: "BATCH", "HEADS", "SEQ", "D", "BR", "BC", "WGS", "PIPE",
/// "STAGE", "PIPE_K", "PIPE_V", "SMEM".
KernelSearchSpec attentionSearchSpec(AttentionConfig Base,
                                     std::vector<TuningAxis> Axes);

} // namespace cypress

#endif // CYPRESS_AUTOTUNE_KERNELSPACES_H
