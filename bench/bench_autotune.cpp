//===- bench_autotune.cpp - Autotuner search-landscape driver ----------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the autotuning subsystem over the Section 5.4 GEMM exploration
/// grid and a small attention sweep, printing the ranked landscapes and
/// the search-effort accounting (candidates vs pruned vs pipelines run).
/// Under CYPRESS_BENCH_JSON the full result is dumped as
/// BENCH_autotune.json (schema in docs/BENCHMARKS.md) so plots and CI
/// artifacts can track both the landscape and the pruning efficiency.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"

using namespace cypress;
using namespace cypress::bench;

namespace {

/// One sweep's result plus the session kernel-cache delta it caused
/// (CompilerSession::cacheStats() before/after): the observability
/// counters the JSON summary blocks report alongside the tuner's own
/// cost-cache hit/miss totals.
struct SweepReport {
  TuneResult Result;
  CacheStats SessionDelta;
};

SweepReport runSweep(Tuner &Tuner, CompilerSession &Session,
                     const KernelSearchSpec &Spec, const SimConfig &Sim) {
  SweepReport Report;
  CacheStats Before = Session.cacheStats();
  Report.Result =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget(), Sim);
  CacheStats After = Session.cacheStats();
  Report.SessionDelta.Hits = After.Hits - Before.Hits;
  Report.SessionDelta.Misses = After.Misses - Before.Misses;
  Report.SessionDelta.Entries = After.Entries;
  return Report;
}

void printSweep(const char *Title, const TuneResult &Result) {
  std::printf("== %s ==\n", Title);
  std::printf("%-34s %14s %10s %12s\n", "mapping", "status", "TFLOP/s",
              "smem KB");
  for (const CandidateResult &Row : Result.Landscape)
    std::printf("%-34s %14s %10.1f %12lld\n", Row.Point.str().c_str(),
                candidateStatusName(Row.Status), Row.TFlops,
                (long long)(Row.SharedBytes / 1024));
  const TuneStats &Stats = Result.Stats;
  std::printf("-- %zu candidates, %zu pruned, %zu cost-cache hits, %zu "
              "kernel-cache hits, %zu pipelines run\n\n",
              Stats.Candidates, Stats.Pruned, Stats.CostCacheHits,
              Stats.SessionHits, Stats.PipelinesRun);
}

void writeSweepJson(std::FILE *Out, const char *Kernel,
                    const SweepReport &Report, bool Last) {
  const TuneResult &Result = Report.Result;
  const TuneStats &Stats = Result.Stats;
  double SimMicros = 0.0;
  for (const CandidateResult &Row : Result.Landscape)
    SimMicros += Row.SimulateMicros;
  std::fprintf(Out, "    {\n      \"kernel\": \"%s\",\n", Kernel);
  std::fprintf(Out,
               "      \"stats\": {\"candidates\": %zu, \"pruned\": %zu, "
               "\"evals\": %zu, "
               "\"cost_cache_hits\": %zu, \"cost_cache_misses\": %zu, "
               "\"kernel_cache_hits\": %zu, "
               "\"pipelines_run\": %zu, \"compile_errors\": %zu, "
               "\"sim_us_total\": %.6g},\n",
               Stats.Candidates, Stats.Pruned, Stats.Evals,
               Stats.CostCacheHits, Stats.Evals - Stats.CostCacheHits,
               Stats.SessionHits, Stats.PipelinesRun, Stats.CompileErrors,
               SimMicros);
  std::fprintf(Out,
               "      \"session_cache\": {\"hits\": %zu, \"misses\": %zu, "
               "\"entries\": %zu},\n",
               Report.SessionDelta.Hits, Report.SessionDelta.Misses,
               Report.SessionDelta.Entries);
  if (const CandidateResult *Best = Result.best())
    std::fprintf(Out,
                 "      \"best\": {\"mapping\": \"%s\", \"tflops\": %.6g},\n",
                 jsonEscape(Best->Point.str()).c_str(), Best->TFlops);
  else
    std::fprintf(Out, "      \"best\": null,\n");
  std::fprintf(Out, "      \"candidates\": [\n");
  for (size_t I = 0; I < Result.Landscape.size(); ++I) {
    const CandidateResult &Row = Result.Landscape[I];
    std::fprintf(Out,
                 "        {\"mapping\": \"%s\", \"status\": \"%s\", "
                 "\"tflops\": %.6g, \"smem_bytes\": %lld, "
                 "\"compile_us\": %.6g, \"sim_us\": %.6g, "
                 "\"detail\": \"%s\"}%s\n",
                 jsonEscape(Row.Point.str()).c_str(),
                 candidateStatusName(Row.Status), Row.TFlops,
                 (long long)Row.SharedBytes, Row.CompileMicros,
                 Row.SimulateMicros, jsonEscape(Row.Detail).c_str(),
                 I + 1 < Result.Landscape.size() ? "," : "");
  }
  std::fprintf(Out, "      ]\n    }%s\n", Last ? "" : ",");
}

} // namespace

int main() {
  SimConfig Sim;
  CompilerSession Session;
  Tuner Tuner(Session);

  GemmConfig Gemm;
  Gemm.M = Gemm.N = Gemm.K = 4096;
  SweepReport GemmResult =
      runSweep(Tuner, Session, gemmSearchSpec(Gemm, gemmSweepAxes()), Sim);
  printSweep("Autotune: GEMM 4096^3 mapping landscape", GemmResult.Result);

  AttentionConfig Attn = fa2Config(4096);
  SweepReport AttnResult =
      runSweep(Tuner, Session,
               attentionSearchSpec(Attn, {{"WGS", {2, 3}},
                                          {"BR", {128, 192, 256}},
                                          {"BC", {64, 128}}}),
               Sim);
  printSweep("Autotune: Attention 4096 mapping landscape", AttnResult.Result);

  if (std::FILE *Out = benchJsonOpen("autotune")) {
    std::fprintf(Out, "{\n  \"machine\": \"%s\",\n  \"sweeps\": [\n",
                 MachineModel::h100().name().c_str());
    writeSweepJson(Out, "gemm", GemmResult, /*Last=*/false);
    writeSweepJson(Out, "fa", AttnResult, /*Last=*/true);
    std::fprintf(Out, "  ],\n");
    // Summed per-candidate times are measured under worker-pool
    // concurrency and inflate with contention whatever the code does:
    // reported, never gated.
    std::vector<BenchMetric> Metrics;
    for (auto [Kernel, Report] : {std::pair{"gemm", &GemmResult},
                                  std::pair{"fa", &AttnResult}}) {
      double CompileMicros = 0.0, SimMicros = 0.0;
      for (const CandidateResult &Row : Report->Result.Landscape) {
        CompileMicros += Row.CompileMicros;
        SimMicros += Row.SimulateMicros;
      }
      Metrics.push_back({std::string(Kernel) + " sim_us_total", SimMicros,
                         "us", Gate::Report});
      Metrics.push_back({std::string(Kernel) + " compile_us_total",
                         CompileMicros, "us", Gate::Report});
    }
    closeBenchJson(Out, Metrics);
  }
  return 0;
}
