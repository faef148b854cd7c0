//===- mapping_explorer.cpp - Exploring the performance landscape ------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5.4's workflow: tuning a kernel in Cypress means editing the
/// mapping specification, never the logical description. This example is a
/// thin client of the autotuning subsystem (src/autotune/), built on the
/// budgeted anytime API: Tuner::tuneBudgeted brute-forces spaces small
/// enough to afford (like the Section 5.4 grid here, where it degenerates
/// to the exhaustive sweep) and switches to deterministic guided search —
/// successive halving plus elite mutation — when the space runs to 10^4+
/// points. Infeasible mappings (broken WGMMA band splits, register-file
/// or shared-memory overflow) are pruned statically from the
/// MachineModel's capacities before the pass pipeline runs — decisions
/// that in CUTLASS would require non-trivial code changes and in Triton
/// are hard-coded heuristics. The landscape lists the pruned grid points
/// too, each with the reason it was rejected; the summary line counts how
/// many full pipeline runs the pruner and the session's kernel cache
/// saved, and the closing lines show the same search against the
/// 7.8*10^4-point guided space under a 64-evaluation budget.
///
//===----------------------------------------------------------------------===//

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"

#include <cstdio>

using namespace cypress;

int main() {
  GemmConfig Base;
  Base.M = Base.N = Base.K = 4096;

  CompilerSession Session;
  Tuner Tuner(Session);

  // The Section 5.4 exploration grid is 24 points: tuneBudgeted notices it
  // fits the budget and falls back to the exhaustive ranked sweep.
  TuneResult Result = Tuner.tuneBudgeted(gemmSearchSpec(Base, gemmSweepAxes()),
                                         MachineModel::h100(), TuneBudget());

  std::printf("%-28s %12s %10s\n", "mapping", "TFLOP/s", "smem KB");
  for (const CandidateResult &Row : Result.Landscape) {
    if (Row.Status == CandidateStatus::Evaluated) {
      std::printf("%-28s %12.1f %10lld\n", Row.Point.str().c_str(),
                  Row.TFlops, (long long)(Row.SharedBytes / 1024));
    } else {
      std::printf("%-28s %12s   (%s)\n", Row.Point.str().c_str(),
                  candidateStatusName(Row.Status),
                  Row.Detail.substr(0, 48).c_str());
    }
  }

  const TuneStats &Stats = Result.Stats;
  std::printf("\n%zu candidates: %zu pruned statically, %zu kernel-cache "
              "hits, %zu pipelines run (%zu replayed the pass prefix)\n",
              Stats.Candidates, Stats.Pruned, Stats.SessionHits,
              Stats.PipelinesRun, Stats.PrefixReplays);
  if (const CandidateResult *Best = Result.best()) {
    std::printf("best mapping: %s (%.1f TFLOP/s)\n",
                Best->Point.str().c_str(), Best->TFlops);
    // The timer simulates a main loop only until its schedule repeats and
    // extrapolates the remaining whole periods.
    if (ErrorOr<SimResult> Timing = Best->Kernel->runTiming())
      std::printf("  main loop: %lld iterations simulated, %lld "
                  "extrapolated\n",
                  static_cast<long long>(Timing->SimulatedIterations),
                  static_cast<long long>(Timing->ExtrapolatedIterations));
  }

  // The same call against the full guided space — per-stream pipeline
  // depths, exec-unit assignment, and the shared-memory cap crossed with
  // wider tiles — where exhaustive sweeping is off the table. The search
  // is deterministic: rerunning this binary visits the same mappings in
  // the same order and prints the same best.
  TuneBudget Budget;
  Budget.MaxEvals = 64;
  TuneResult Guided = Tuner.tuneBudgeted(
      gemmSearchSpec(Base, gemmGuidedAxes()), MachineModel::h100(), Budget);
  std::printf("\nguided search over the widened space: %zu evaluations in "
              "%zu rounds, %zu pipelines run (%zu replayed the pass "
              "prefix)\n",
              Guided.Stats.Evals, Guided.Stats.Rounds,
              Guided.Stats.PipelinesRun, Guided.Stats.PrefixReplays);
  if (const CandidateResult *Best = Guided.best())
    std::printf("guided best: %s (%.1f TFLOP/s)\n", Best->Point.str().c_str(),
                Best->TFlops);
  return 0;
}
