//===- bench_autotune_guided.cpp - Budgeted-search anytime curves ----------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the budgeted anytime search (Tuner::tuneBudgeted) over the guided
/// mapping spaces — ~7.8*10^4 raw GEMM points and ~3.9*10^3 attention
/// points, far past what the exhaustive sweep will touch — and prints the
/// best-found-vs-budget curve at an evaluation-budget ladder. Later
/// ladder rungs warm-start from the tuner's content-keyed cost cache, so
/// the output also exercises the cache-observability counters: per-run
/// cost-cache hit/miss totals and the per-kernel CompilerSession
/// cacheStats() delta. Under CYPRESS_BENCH_JSON the result is dumped as
/// BENCH_autotune_guided.json (schema in docs/BENCHMARKS.md). Everything
/// except the wall-clock columns is deterministic: the search visits the
/// same points in the same order at any worker count, so the best-found
/// column is exact and scripts/ab_bench.py gates it exactly.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"

using namespace cypress;
using namespace cypress::bench;

namespace {

struct BudgetRun {
  size_t BudgetEvals = 0;
  TuneResult Result;
};

struct KernelReport {
  const char *Kernel = nullptr;
  size_t SpacePoints = 0;
  size_t SpaceFeasible = 0;
  std::vector<BudgetRun> Runs;
  CacheStats SessionDelta;
};

KernelReport runLadder(const char *Kernel, CompilerSession &Session,
                       const KernelSearchSpec &Spec,
                       const std::vector<size_t> &Ladder) {
  KernelReport Report;
  Report.Kernel = Kernel;
  MappingSpace Space(Spec, MachineModel::h100());
  Report.SpacePoints = Space.size();
  Report.SpaceFeasible = Space.feasibleCount();

  CacheStats Before = Session.cacheStats();
  Tuner Tuner(Session);
  for (size_t Budget : Ladder) {
    BudgetRun Run;
    Run.BudgetEvals = Budget;
    TuneBudget Limits;
    Limits.MaxEvals = Budget;
    Run.Result = Tuner.tuneBudgeted(Spec, MachineModel::h100(), Limits);
    Report.Runs.push_back(std::move(Run));
  }
  CacheStats After = Session.cacheStats();
  Report.SessionDelta.Hits = After.Hits - Before.Hits;
  Report.SessionDelta.Misses = After.Misses - Before.Misses;
  Report.SessionDelta.Entries = After.Entries;
  return Report;
}

void printReport(const KernelReport &Report) {
  std::printf("== Guided autotune: %s (%zu points, %zu feasible) ==\n",
              Report.Kernel, Report.SpacePoints, Report.SpaceFeasible);
  std::printf("%10s %8s %8s %10s %8s %10s %10s %10s  %s\n", "budget",
              "evals", "rounds", "pipelines", "replays", "cost-hits",
              "TFLOP/s", "wall ms", "best mapping");
  for (const BudgetRun &Run : Report.Runs) {
    const TuneResult &Result = Run.Result;
    const CandidateResult *Best = Result.best();
    double WallMs =
        Result.Curve.empty() ? 0.0 : Result.Curve.back().ElapsedMs;
    std::printf("%10zu %8zu %8zu %10zu %8zu %10zu %10.1f %10.2f  %s\n",
                Run.BudgetEvals, Result.Stats.Evals, Result.Stats.Rounds,
                Result.Stats.PipelinesRun, Result.Stats.PrefixReplays,
                Result.Stats.CostCacheHits,
                Best ? Best->TFlops : 0.0, WallMs,
                Best ? Best->Point.str().c_str() : "-");
  }
  std::printf("-- session kernel cache: %zu hits, %zu misses, %zu entries\n\n",
              Report.SessionDelta.Hits, Report.SessionDelta.Misses,
              Report.SessionDelta.Entries);
}

void writeReportJson(std::FILE *Out, const KernelReport &Report, bool Last) {
  std::fprintf(Out, "    {\n      \"kernel\": \"%s\",\n", Report.Kernel);
  std::fprintf(Out,
               "      \"space\": {\"points\": %zu, \"feasible\": %zu},\n",
               Report.SpacePoints, Report.SpaceFeasible);
  std::fprintf(Out,
               "      \"session_cache\": {\"hits\": %zu, \"misses\": %zu, "
               "\"entries\": %zu},\n",
               Report.SessionDelta.Hits, Report.SessionDelta.Misses,
               Report.SessionDelta.Entries);
  std::fprintf(Out, "      \"runs\": [\n");
  for (size_t I = 0; I < Report.Runs.size(); ++I) {
    const BudgetRun &Run = Report.Runs[I];
    const TuneResult &Result = Run.Result;
    const TuneStats &Stats = Result.Stats;
    const CandidateResult *Best = Result.best();
    std::fprintf(Out,
                 "        {\"budget_evals\": %zu, \"evals\": %zu, "
                 "\"rounds\": %zu, \"pruned\": %zu, \"pipelines_run\": %zu, "
                 "\"prefix_replays\": %zu, \"cost_cache_hits\": %zu, "
                 "\"cost_cache_misses\": %zu,\n",
                 Run.BudgetEvals, Stats.Evals, Stats.Rounds, Stats.Pruned,
                 Stats.PipelinesRun, Stats.PrefixReplays, Stats.CostCacheHits,
                 Stats.Evals - Stats.CostCacheHits);
    if (Best)
      std::fprintf(Out,
                   "         \"best\": {\"mapping\": \"%s\", \"tflops\": "
                   "%.6g},\n",
                   jsonEscape(Best->Point.str()).c_str(), Best->TFlops);
    else
      std::fprintf(Out, "         \"best\": null,\n");
    std::fprintf(Out, "         \"curve\": [");
    for (size_t J = 0; J < Result.Curve.size(); ++J) {
      const TuneResult::CurvePoint &C = Result.Curve[J];
      std::fprintf(Out,
                   "%s{\"evals\": %zu, \"tflops\": %.6g, \"ms\": %.6g}",
                   J ? ", " : "", C.Evals, C.BestTFlops, C.ElapsedMs);
    }
    std::fprintf(Out, "]}%s\n", I + 1 < Report.Runs.size() ? "," : "");
  }
  std::fprintf(Out, "      ]\n    }%s\n", Last ? "" : ",");
}

} // namespace

int main() {
  CompilerSession Session;

  GemmConfig Gemm;
  Gemm.M = Gemm.N = Gemm.K = 4096;
  KernelReport GemmReport =
      runLadder("gemm", Session, gemmSearchSpec(Gemm, gemmGuidedAxes()),
                {16, 32, 64, 128, 256});
  printReport(GemmReport);

  KernelReport AttnReport = runLadder(
      "fa", Session, attentionSearchSpec(fa2Config(4096), attentionGuidedAxes()),
      {8, 16, 32, 64, 128});
  printReport(AttnReport);

  if (std::FILE *Out = benchJsonOpen("autotune_guided")) {
    std::fprintf(Out, "{\n  \"machine\": \"%s\",\n  \"kernels\": [\n",
                 MachineModel::h100().name().c_str());
    writeReportJson(Out, GemmReport, /*Last=*/false);
    writeReportJson(Out, AttnReport, /*Last=*/true);
    std::fprintf(Out, "  ],\n");
    // The best TFLOP/s at the largest budget is simulated and the search
    // deterministic, so any change is a behaviour change of the search or
    // the cost model, never noise. The single-shot search walls run on the
    // worker pool: reported only.
    std::vector<BenchMetric> Metrics;
    for (const KernelReport *Report : {&GemmReport, &AttnReport}) {
      std::string Kernel = Report->Kernel;
      if (!Report->Runs.empty()) {
        const CandidateResult *Best = Report->Runs.back().Result.best();
        Metrics.push_back({Kernel + " best tflops", Best ? Best->TFlops : 0.0,
                           "TFLOP/s", Gate::Exact});
      }
      for (const BudgetRun &Run : Report->Runs) {
        const std::vector<TuneResult::CurvePoint> &Curve = Run.Result.Curve;
        Metrics.push_back(
            {Kernel + " budget" + std::to_string(Run.BudgetEvals) + " wall_ms",
             Curve.empty() ? 0.0 : Curve.back().ElapsedMs, "ms",
             Gate::Report});
      }
    }
    closeBenchJson(Out, Metrics);
  }
  return 0;
}
