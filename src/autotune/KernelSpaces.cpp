//===- KernelSpaces.cpp - Builtin kernel search spaces ---------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "autotune/KernelSpaces.h"

using namespace cypress;

namespace {

// An axis whose name the config rejects is a malformed search spec, not a
// prunable candidate — fail loudly.
template <typename ConfigT>
ConfigT configAt(ConfigT Base, const TuningPoint &Point) {
  for (const auto &[Axis, Value] : Point.values())
    if (ErrorOrVoid Applied = applyTunable(Base, Axis, Value); !Applied)
      cypressUnreachable(Applied.diagnostic().message().c_str());
  return Base;
}

GemmConfig gemmConfigAt(GemmConfig Base, const TuningPoint &Point) {
  return configAt(Base, Point);
}

AttentionConfig attentionConfigAt(AttentionConfig Base,
                                  const TuningPoint &Point) {
  return configAt(Base, Point);
}

} // namespace

std::vector<TuningAxis> cypress::gemmSweepAxes() {
  return {{"U", {64, 128}},
          {"V", {128, 256}},
          {"PIPE", {2, 3, 4}},
          {"WGS", {1, 2}}};
}

std::vector<TuningAxis> cypress::gemmGuidedAxes() {
  // 3*3*4*4*3 * 3*3*2*2 * 5 = 77,760 raw points. A 0 on the per-stream
  // depth axes means "inherit PIPE"; a 0 on SMEM means "machine
  // capacity" — so the legacy sweep grid embeds as the all-defaults
  // hyperplane of this space.
  return {{"U", {64, 128, 256}},
          {"V", {64, 128, 256}},
          {"W", {16, 32, 64, 128}},
          {"PIPE", {2, 3, 4, 5}},
          {"WGS", {1, 2, 4}},
          {"PIPE_A", {0, 2, 3}},
          {"PIPE_B", {0, 2, 3}},
          {"TMA_A", {0, 1}},
          {"TMA_B", {0, 1}},
          {"SMEM", {0, 128, 160, 192, 224}}};
}

KernelSearchSpec cypress::gemmSearchSpec(GemmConfig Base,
                                         std::vector<TuningAxis> Axes) {
  KernelSearchSpec Spec;
  Spec.KernelName = "gemm";
  Spec.Axes = std::move(Axes);
  Spec.Register = [](TaskRegistry &Registry) { registerGemmTasks(Registry); };
  Spec.BuildMapping = [Base](const TuningPoint &Point) {
    return gemmMapping(gemmConfigAt(Base, Point));
  };
  Spec.BuildArgs = [Base](const TuningPoint &Point) {
    return gemmArgTypes(gemmConfigAt(Base, Point));
  };
  Spec.Feasible = [Base](const TuningPoint &Point,
                         const MachineModel &Machine) {
    return gemmConfigAt(Base, Point).validate(Machine);
  };
  return Spec;
}

std::vector<TuningAxis> cypress::attentionGuidedAxes() {
  // 3*3*4*3 * 3*3 * 4 = 3,888 raw points.
  return {{"BR", {128, 192, 256}},
          {"BC", {32, 64, 128}},
          {"WGS", {1, 2, 3, 4}},
          {"PIPE", {2, 3, 4}},
          {"PIPE_K", {0, 2, 3}},
          {"PIPE_V", {0, 2, 3}},
          {"SMEM", {0, 160, 192, 224}}};
}

KernelSearchSpec cypress::attentionSearchSpec(AttentionConfig Base,
                                              std::vector<TuningAxis> Axes) {
  KernelSearchSpec Spec;
  Spec.KernelName = "fa";
  Spec.Axes = std::move(Axes);
  Spec.Register = [](TaskRegistry &Registry) {
    registerAttentionTasks(Registry);
  };
  Spec.BuildMapping = [Base](const TuningPoint &Point) {
    return attentionMapping(attentionConfigAt(Base, Point));
  };
  Spec.BuildArgs = [Base](const TuningPoint &Point) {
    return attentionArgTypes(attentionConfigAt(Base, Point));
  };
  Spec.Feasible = [Base](const TuningPoint &Point,
                         const MachineModel &Machine) {
    return attentionConfigAt(Base, Point).validate(Machine);
  };
  return Spec;
}
