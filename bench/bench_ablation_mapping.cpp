//===- bench_ablation_mapping.cpp - Mapping-knob ablations -------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablates the performance-sensitive mapping decisions Sections 3.3-4.2
/// call out, on the 4096^3 GEMM and 8K-sequence attention:
///
///   * software pipeline depth (1 = no pipelining .. 4),
///   * warp specialization on/off,
///   * consumer warpgroup count,
///   * the FA3 staged-scores restructuring on/off.
///
/// Each knob is a pure mapping change; the logical descriptions are
/// untouched, demonstrating the performance/correctness separation of
/// Section 3.5. Every ablation is a one-axis search space driven through
/// the shared autotuner (src/autotune/), so knob settings that reappear
/// across tables (e.g. the tuned default) are evaluated once and replayed
/// from the tuner's cost cache.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"

using namespace cypress;
using namespace cypress::bench;

namespace {

/// The evaluated TFLOP/s of the single-axis candidate with \p Value
/// (0.0 when it was pruned or failed, matching the old rows-of-zeros
/// convention for rejected variants).
double tflopsAt(const TuneResult &Result, const std::string &Axis,
                int64_t Value) {
  for (const CandidateResult &Row : Result.Landscape)
    if (Row.Point.at(Axis) == Value)
      return Row.Status == CandidateStatus::Evaluated ? Row.TFlops : 0.0;
  return 0.0;
}

} // namespace

int main() {
  SimConfig Sim;
  GemmConfig Gemm;
  Gemm.M = Gemm.N = Gemm.K = 4096;

  CompilerSession Session;
  Tuner Tuner(Session);
  auto SweepGemm = [&](const std::string &Axis, std::vector<int64_t> Values) {
    return Tuner.tuneBudgeted(
        gemmSearchSpec(Gemm, {{Axis, std::move(Values)}}),
        MachineModel::h100(), TuneBudget(), Sim);
  };

  {
    Table T("Ablation: GEMM 4096^3 pipeline depth", "PIPE", {"Cypress"});
    TuneResult R = SweepGemm("PIPE", {1, 2, 3, 4});
    for (int64_t Pipe : {1, 2, 3, 4})
      T.row(std::to_string(Pipe), {tflopsAt(R, "PIPE", Pipe)});
  }
  {
    Table T("Ablation: GEMM 4096^3 warp specialization", "Mode", {"Cypress"});
    TuneResult R = SweepGemm("WSPEC", {1, 0});
    for (bool WarpSpec : {true, false})
      T.row(WarpSpec ? "specialized" : "bulk-sync",
            {tflopsAt(R, "WSPEC", WarpSpec ? 1 : 0)});
  }
  {
    Table T("Ablation: GEMM 4096^3 consumer warpgroups", "WGS", {"Cypress"});
    TuneResult R = SweepGemm("WGS", {1, 2});
    for (int64_t Wgs : {1, 2})
      T.row(std::to_string(Wgs), {tflopsAt(R, "WGS", Wgs)});
  }
  {
    Table T("Ablation: Attention 8192 staged scores (FA2 -> FA3)", "Variant",
            {"Cypress"});
    TuneResult R = Tuner.tuneBudgeted(
        attentionSearchSpec(fa2Config(8192), {{"STAGE", {0, 1}}}),
        MachineModel::h100(), TuneBudget(), Sim);
    for (bool Stage : {false, true})
      T.row(Stage ? "staged (FA3)" : "direct (FA2)",
            {tflopsAt(R, "STAGE", Stage ? 1 : 0)});
  }

  CacheStats Cache = Session.cacheStats();
  std::printf("autotuner: %llu pipeline runs, %llu kernel-cache hits, "
              "%zu kernels resident\n",
              (unsigned long long)Cache.Misses,
              (unsigned long long)Cache.Hits, Cache.Entries);
  return 0;
}
