//===- bench_sim_hotpath.cpp - Simulator hot-path microbenchmark -------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the cost of one timing simulation (`runTiming`) for the
/// paper's headline kernels and for GEMMs whose main loop runs 256 to
/// 1024 iterations, plus the end-to-end wall time of the mapping_explorer
/// tuning grid. Every candidate evaluation in the autotuner
/// bottoms out in runTiming, so µs-per-run here multiplies directly into
/// sweep throughput. Under CYPRESS_BENCH_JSON the results are dumped as
/// BENCH_sim_hotpath.json (schema in docs/BENCHMARKS.md); its `metrics`
/// list gates the per-run and sweep times in scripts/ab_bench.py.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"

#include <chrono>

using namespace cypress;
using namespace cypress::bench;

namespace {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

struct HotpathRow {
  const char *Name;
  const OwnedKernel *Kernel = nullptr;
  int Runs = 0;
  double MicrosPerRun = 0.0;
  double BlockCycles = 0.0;
  double TFlops = 0.0;
  /// Main-loop iterations of one block timed step by step, and skipped by
  /// steady-state extrapolation.
  int64_t SimIters = 0, ExtrapolatedIters = 0;
};

/// One warmup timing run of \p Owned, which reports its cycles and
/// TFLOP/s; MicrosPerRun is left to timeBatch.
HotpathRow warmKernel(const char *Name, const OwnedKernel &Owned, int Runs) {
  HotpathRow Row{Name, &Owned, Runs};
  if (!Owned.Kernel)
    return Row;
  ErrorOr<SimResult> Warm = Owned.Kernel->runTiming();
  if (!Warm) {
    std::fprintf(stderr, "error: %s: %s\n", Name,
                 Warm.diagnostic().message().c_str());
    return Row;
  }
  Row.BlockCycles = Warm->BlockCycles;
  Row.TFlops = Warm->TFlops;
  Row.SimIters = Warm->SimulatedIterations;
  Row.ExtrapolatedIters = Warm->ExtrapolatedIterations;
  return Row;
}

/// Microseconds per run over one batch of `Row.Runs` timing-only
/// simulations of the row's kernel; 0 on failure.
double timeBatch(const HotpathRow &Row) {
  if (!Row.Kernel->Kernel)
    return 0.0;
  Clock::time_point Start = Clock::now();
  for (int I = 0; I < Row.Runs; ++I)
    if (!Row.Kernel->Kernel->runTiming())
      return 0.0;
  return millisSince(Start) * 1000.0 / Row.Runs;
}

/// Checkpoint overhead of one timing run of \p Owned, in batches of
/// \p Runs runs.
CheckpointOverhead measureSimCheckpointOverhead(const OwnedKernel &Owned,
                                                int Runs) {
  if (!Owned.Kernel)
    return CheckpointOverhead();
  return measureCheckpointOverhead([&](const Cancellation *Cancel) {
    Clock::time_point Start = Clock::now();
    for (int I = 0; I < Runs; ++I)
      if (!Owned.Kernel->runTiming(SimConfig(), Cancel))
        return 0.0;
    return millisSince(Start) * 1000.0 / Runs;
  });
}

} // namespace

int main() {
  std::printf("== Simulator hot path (timing-only runs) ==\n");
  std::printf("%-22s %6s %10s %16s %9s %8s %8s\n", "kernel", "runs",
              "us/run", "block cycles", "TFLOP/s", "sim it", "extrap");

  GemmConfig Gemm;
  Gemm.M = Gemm.N = Gemm.K = 4096;
  OwnedKernel GemmKernel = compileOwned(
      "gemm", registerGemmTasks, [&] { return gemmMapping(Gemm); },
      [&] { return gemmArgTypes(Gemm); });

  AttentionConfig Fa2 = fa2Config(4096);
  OwnedKernel Fa2Kernel = compileOwned(
      "fa2", registerAttentionTasks, [&] { return attentionMapping(Fa2); },
      [&] { return attentionArgTypes(Fa2); });

  AttentionConfig Fa3 = fa3Config(4096);
  OwnedKernel Fa3Kernel = compileOwned(
      "fa3", registerAttentionTasks, [&] { return attentionMapping(Fa3); },
      [&] { return attentionArgTypes(Fa3); });

  // An instance-heavy kernel of the shape tune-emit searches: the 16K GEMM
  // with a narrow K tile expands 1024 main-loop iterations per block.
  GemmConfig Deep;
  Deep.M = Deep.N = Deep.K = 16384;
  Deep.W = 16;
  OwnedKernel DeepKernel = compileOwned(
      "gemm", registerGemmTasks, [&] { return gemmMapping(Deep); },
      [&] { return gemmArgTypes(Deep); });

  // The main loop's trip count alone grows 8x between these two (256 and
  // 2048 iterations): with steady-state extrapolation their cost should
  // stay within 2x of each other.
  auto NarrowGemm = [](int64_t K) {
    GemmConfig Config;
    Config.M = Config.N = 4096;
    Config.K = K;
    Config.W = 16;
    return compileOwned(
        "gemm", registerGemmTasks, [&] { return gemmMapping(Config); },
        [&] { return gemmArgTypes(Config); });
  };
  OwnedKernel ShortKKernel = NarrowGemm(4096);
  OwnedKernel LongKKernel = NarrowGemm(32768);

  const int Runs = 200;
  HotpathRow Rows[] = {warmKernel("gemm_4096", GemmKernel, Runs),
                       warmKernel("fa2_4096", Fa2Kernel, Runs),
                       warmKernel("fa3_4096", Fa3Kernel, Runs),
                       warmKernel("gemm_16384_w16", DeepKernel, Runs),
                       warmKernel("gemm_4096_k4096_w16", ShortKKernel, Runs),
                       warmKernel("gemm_4096_k32768_w16", LongKKernel, Runs)};
  // Each round times one batch of every kernel; each row keeps its fastest
  // batch (quietRounds, BenchUtil.h).
  quietRounds([&](bool Measured) {
    for (HotpathRow &Row : Rows) {
      double Micros = timeBatch(Row);
      if (Measured && Micros > 0.0 &&
          (Row.MicrosPerRun == 0.0 || Micros < Row.MicrosPerRun))
        Row.MicrosPerRun = Micros;
    }
  });
  for (const HotpathRow &Row : Rows)
    std::printf("%-22s %6d %10.1f %16.1f %9.1f %8lld %8lld\n", Row.Name,
                Row.Runs, Row.MicrosPerRun, Row.BlockCycles, Row.TFlops,
                static_cast<long long>(Row.SimIters),
                static_cast<long long>(Row.ExtrapolatedIters));
  double KScaling = Rows[4].MicrosPerRun > 0.0
                        ? Rows[5].MicrosPerRun / Rows[4].MicrosPerRun
                        : 0.0;
  std::printf("\nrunTiming K=32768 / K=4096 (W=16): %.2fx\n", KScaling);

  // Cancellation-checkpoint overhead on the simulator hot path: the gemm
  // timing run with a far-future deadline armed (expansion and
  // per-relaxation-step strided polls live) vs the nullptr fast path.
  // Reported, never gated; the percentage is the claim docs/BENCHMARKS.md
  // records.
  CheckpointOverhead Checkpoint =
      measureSimCheckpointOverhead(GemmKernel, Runs);
  std::printf("cancellation checkpoints (gemm_4096): %.1f us/run plain, "
              "%.1f us/run with armed deadline (%+.2f%%)\n",
              Checkpoint.PlainMicros, Checkpoint.DeadlineMicros,
              Checkpoint.overheadPct());

  // The mapping_explorer grid, end to end: enumerate + prune + compile +
  // simulate on a cold session (no kernel- or cost-cache reuse), exactly
  // what one fresh tuning sweep costs. Timed in quietRounds for the same
  // stability reason as above; per-candidate compile/simulate wall times
  // from the fastest sweep's TuneResult split its total.
  std::printf("\n== mapping_explorer grid sweep (cold session) ==\n");
  GemmConfig Base;
  Base.M = Base.N = Base.K = 4096;
  TuneResult Sweep;
  double SweepMillis = 0.0;
  quietRounds([&](bool Measured) {
    CompilerSession Session;
    Tuner SweepTuner(Session);
    Clock::time_point SweepStart = Clock::now();
    TuneResult Result = SweepTuner.tuneBudgeted(
        gemmSearchSpec(Base, gemmSweepAxes()), MachineModel::h100(),
        TuneBudget());
    double Millis = millisSince(SweepStart);
    if (Measured && (SweepMillis == 0.0 || Millis < SweepMillis)) {
      SweepMillis = Millis;
      Sweep = std::move(Result);
    }
  });

  double CompileMicros = 0.0, SimMicros = 0.0;
  for (const CandidateResult &Row : Sweep.Landscape) {
    CompileMicros += Row.CompileMicros;
    SimMicros += Row.SimulateMicros;
  }
  std::printf("%zu candidates (%zu pruned, %zu pipelines run): %.2f ms "
              "wall, %.0f us compiling, %.0f us simulating\n",
              Sweep.Stats.Candidates, Sweep.Stats.Pruned,
              Sweep.Stats.PipelinesRun, SweepMillis, CompileMicros,
              SimMicros);
  if (const CandidateResult *Best = Sweep.best())
    std::printf("best mapping: %s (%.1f TFLOP/s)\n", Best->Point.str().c_str(),
                Best->TFlops);

  if (std::FILE *Out = benchJsonOpen("sim_hotpath")) {
    std::fprintf(Out, "{\n  \"machine\": \"%s\",\n  \"kernels\": [\n",
                 MachineModel::h100().name().c_str());
    for (size_t I = 0; I < sizeof(Rows) / sizeof(Rows[0]); ++I)
      std::fprintf(Out,
                   "    {\"kernel\": \"%s\", \"runs\": %d, "
                   "\"us_per_run\": %.6g, \"block_cycles\": %.17g, "
                   "\"tflops\": %.6g, \"sim_iters\": %lld, "
                   "\"extrapolated_iters\": %lld}%s\n",
                   Rows[I].Name, Rows[I].Runs, Rows[I].MicrosPerRun,
                   Rows[I].BlockCycles, Rows[I].TFlops,
                   static_cast<long long>(Rows[I].SimIters),
                   static_cast<long long>(Rows[I].ExtrapolatedIters),
                   I + 1 < sizeof(Rows) / sizeof(Rows[0]) ? "," : "");
    std::fprintf(Out,
                 "  ],\n  \"k_scaling\": %.4g,\n"
                 "  \"checkpoint_overhead\": {\"plain_us_per_run\": "
                 "%.6g, \"deadline_us_per_run\": %.6g, \"overhead_pct\": "
                 "%.2f},\n",
                 KScaling, Checkpoint.PlainMicros, Checkpoint.DeadlineMicros,
                 Checkpoint.overheadPct());
    std::fprintf(Out,
                 "  \"sweep\": {\"candidates\": %zu, \"pruned\": %zu, "
                 "\"pipelines_run\": %zu, \"wall_ms\": %.6g, "
                 "\"compile_us\": %.6g, \"sim_us\": %.6g},\n",
                 Sweep.Stats.Candidates, Sweep.Stats.Pruned,
                 Sweep.Stats.PipelinesRun, SweepMillis, CompileMicros,
                 SimMicros);
    // Each us_per_run is the best batch of 200 runs and the sweep the best
    // sweep of a quiet window, stable enough to gate. Summed compile time
    // inflates under worker-pool contention.
    std::vector<BenchMetric> Metrics;
    for (const HotpathRow &Row : Rows)
      Metrics.push_back({std::string(Row.Name) + " us_per_run",
                         Row.MicrosPerRun, "us", Gate::Band});
    Metrics.push_back({"sweep wall_ms", SweepMillis, "ms", Gate::Band});
    Metrics.push_back({"sweep sim_us", SimMicros, "us", Gate::Band});
    Metrics.push_back(
        {"sweep compile_us", CompileMicros, "us", Gate::Report});
    Metrics.push_back({"checkpoint overhead_pct", Checkpoint.overheadPct(),
                       "%", Gate::Report});
    closeBenchJson(Out, Metrics);
  }
  return 0;
}
