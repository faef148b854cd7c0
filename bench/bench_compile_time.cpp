//===- bench_compile_time.cpp - Compiler pass throughput ---------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiler-overhead measurements, three layers:
///
///  1. A per-pass breakdown of one full-pipeline compile of each shipped
///     kernel, taken from the pass manager's PipelineStats: wall time,
///     verification time, and IR size after every registered pass. Printed
///     as a table on startup and, when CYPRESS_BENCH_JSON is set, written
///     to `BENCH_compile_time.json` (schema in docs/BENCHMARKS.md).
///
///  2. The cost of serving a batch the session has already compiled: an
///     all-hit CompilerSession::compileAll of four kernels on one worker,
///     i.e. keying plus cache lookup. Written to the same JSON.
///
///  3. google-benchmark microbenchmarks of the default pipeline
///     (`PassPipeline::defaultPipeline().run`) and individual stages, for
///     statistically robust totals.
///
/// Compilation happens once per kernel instantiation, so these times bound
/// the model's static-compilation overhead.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "compiler/PassManager.h"
#include "runtime/Session.h"
#include "support/AllocCounter.h"
#include "support/Cancel.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace cypress;

namespace {

CompileInput gemmInput(TaskRegistry &Registry, MappingSpec &Mapping,
                       std::vector<TensorType> &Args) {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 4096;
  registerGemmTasks(Registry);
  Mapping = gemmMapping(Config);
  Args = gemmArgTypes(Config);
  return {&Registry, &Mapping, &MachineModel::h100(), Args};
}

//===----------------------------------------------------------------------===//
// Per-pass breakdown (PipelineStats)
//===----------------------------------------------------------------------===//

struct KernelBreakdown {
  std::string Kernel;
  PipelineStats Stats;
};

void printBreakdown(std::FILE *Out,
                    const std::vector<KernelBreakdown> &Breakdowns) {
  for (const KernelBreakdown &B : Breakdowns) {
    std::fprintf(Out, "== per-pass breakdown: %s ==\n", B.Kernel.c_str());
    std::fprintf(Out, "%-22s%12s%12s%8s%8s%9s%10s%8s%8s\n", "pass",
                 "time_us", "verify_us", "ops", "events", "tensors",
                 "rewrites", "pops", "allocs");
    for (const PassStat &S : B.Stats.Passes)
      std::fprintf(Out, "%-22s%12.1f%12.1f%8zu%8zu%9zu%10llu%8llu%8llu\n",
                   S.Name.c_str(), S.Micros, S.VerifyMicros, S.OpsAfter,
                   S.EventsAfter, S.TensorsAfter,
                   static_cast<unsigned long long>(S.Rewrites),
                   static_cast<unsigned long long>(S.WorklistPops),
                   static_cast<unsigned long long>(S.HeapAllocs));
    std::fprintf(Out, "%-22s%12.1f\n\n", "total", B.Stats.TotalMicros);
    if (!allocCounterActive())
      std::fprintf(Out, "(alloc counter compiled out in this build; "
                        "allocs column reads 0)\n\n");
  }
}

/// Checkpoint overhead of the full-pipeline gemm compile: every
/// inter-pass and worklist checkpoint live when armed.
bench::CheckpointOverhead measurePipelineCheckpointOverhead() {
  TaskRegistry Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;
  CompileInput Input = gemmInput(Registry, Mapping, Args);
  PassPipeline Pipeline = PassPipeline::defaultPipeline();
  return bench::measureCheckpointOverhead([&](const Cancellation *Cancel) {
    PipelineStats Stats;
    ErrorOr<IRModule> Module = Pipeline.run(Input, nullptr, &Stats, Cancel);
    if (!Module) {
      std::fprintf(stderr, "error: checkpoint bench: %s\n",
                   Module.diagnostic().str().c_str());
      return 0.0;
    }
    return Stats.TotalMicros;
  });
}

/// BENCH_compile_time.json via the same CYPRESS_BENCH_JSON convention as
/// the Table drivers (value = directory, "1" = cwd).
void maybeWriteJson(const std::vector<KernelBreakdown> &Breakdowns,
                    const bench::CheckpointOverhead &Checkpoint,
                    double HitBatchMicros) {
  std::FILE *Out = bench::benchJsonOpen("compile_time");
  if (!Out)
    return;
  std::fprintf(Out,
               "{\n  \"checkpoint_overhead\": {\"plain_us\": %.3f, "
               "\"deadline_us\": %.3f, \"overhead_pct\": %.2f},\n",
               Checkpoint.PlainMicros, Checkpoint.DeadlineMicros,
               Checkpoint.overheadPct());
  std::fprintf(Out, "  \"kernels\": [\n");
  for (size_t I = 0; I < Breakdowns.size(); ++I) {
    const KernelBreakdown &B = Breakdowns[I];
    std::fprintf(Out, "    {\"kernel\": \"%s\", \"total_us\": %.3f,\n",
                 B.Kernel.c_str(), B.Stats.TotalMicros);
    std::fprintf(Out, "     \"passes\": [\n");
    for (size_t J = 0; J < B.Stats.Passes.size(); ++J) {
      const PassStat &S = B.Stats.Passes[J];
      std::fprintf(Out,
                   "       {\"pass\": \"%s\", \"time_us\": %.3f, "
                   "\"verify_us\": %.3f, \"ops\": %zu, \"events\": %zu, "
                   "\"tensors\": %zu, \"rewrites\": %llu, "
                   "\"worklist_pops\": %llu, \"heap_allocs\": %llu}%s\n",
                   S.Name.c_str(), S.Micros, S.VerifyMicros, S.OpsAfter,
                   S.EventsAfter, S.TensorsAfter,
                   static_cast<unsigned long long>(S.Rewrites),
                   static_cast<unsigned long long>(S.WorklistPops),
                   static_cast<unsigned long long>(S.HeapAllocs),
                   J + 1 < B.Stats.Passes.size() ? "," : "");
    }
    std::fprintf(Out, "     ]}%s\n", I + 1 < Breakdowns.size() ? "," : "");
  }
  std::fprintf(Out, "  ],\n");
  // Single-threaded pipeline totals, each the fastest of a quiet window:
  // gated, so a pass that slows shows here.
  std::vector<bench::BenchMetric> Metrics;
  for (const KernelBreakdown &B : Breakdowns)
    Metrics.push_back({B.Kernel + " total_us", B.Stats.TotalMicros, "us",
                       bench::Gate::Band});
  // Keying plus lookup: a regression in how keys are built shows here.
  Metrics.push_back({"hit_batch_4 us_per_batch", HitBatchMicros, "us",
                     bench::Gate::Band});
  Metrics.push_back({"checkpoint overhead_pct", Checkpoint.overheadPct(), "%",
                     bench::Gate::Report});
  bench::closeBenchJson(Out, Metrics);
}

/// Full-pipeline compiles of every kernel in bench::quietRounds — the
/// shared quiet-window methodology of the timed benches — keeping each
/// kernel's fastest measured compile; the per-kernel totals are gated by
/// scripts/ab_bench.py. A kernel that fails to compile is left out.
std::vector<KernelBreakdown> compileBestOf(
    const std::vector<std::pair<const char *, CompileInput>> &Kernels) {
  std::vector<std::optional<PipelineStats>> Best(Kernels.size());
  std::vector<bool> Failed(Kernels.size());
  PassPipeline Pipeline = PassPipeline::defaultPipeline();
  // The allocs column reports the fastest (warm) repeat, i.e. the steady
  // state the alloc-counting test asserts; counting is a thread-local
  // increment per allocation, far below timing noise.
  Pipeline.setCountAllocs(true);
  bench::quietRounds([&](bool Measured) {
    for (size_t I = 0; I < Kernels.size(); ++I) {
      if (Failed[I])
        continue;
      PipelineStats Stats;
      ErrorOr<IRModule> Module =
          Pipeline.run(Kernels[I].second, nullptr, &Stats);
      if (!Module) {
        std::fprintf(stderr, "error: %s: %s\n", Kernels[I].first,
                     Module.diagnostic().str().c_str());
        Failed[I] = true;
        continue;
      }
      if (Measured && (!Best[I] || Stats.TotalMicros < Best[I]->TotalMicros))
        Best[I] = std::move(Stats);
    }
  });
  std::vector<KernelBreakdown> Breakdowns;
  for (size_t I = 0; I < Kernels.size(); ++I)
    if (!Failed[I] && Best[I])
      Breakdowns.push_back({Kernels[I].first, std::move(*Best[I])});
  return Breakdowns;
}

/// Microseconds per all-hit compileAll of a 4-kernel batch (GEMM and FA2
/// at two sizes each) on a one-worker session, so the batch runs on the
/// calling thread: the fastest quietRounds round of kHitBatches batches.
/// Nothing compiles once the warmup round has filled the cache.
double measureHitBatch() {
  constexpr int kHitBatches = 1000;
  TaskRegistry GemmRegistry, AttnRegistry;
  registerGemmTasks(GemmRegistry);
  registerAttentionTasks(AttnRegistry);
  std::vector<MappingSpec> Mappings;
  Mappings.reserve(4); // The requests point into it: no reallocation.
  std::vector<CompilerSession::Request> Batch;
  for (int64_t Size : {2048, 4096}) {
    GemmConfig Gemm;
    Gemm.M = Gemm.N = Gemm.K = Size;
    Mappings.push_back(gemmMapping(Gemm));
    Batch.push_back({{&GemmRegistry, &Mappings.back(), &MachineModel::h100(),
                      gemmArgTypes(Gemm)},
                     "gemm",
                     ""});
    AttentionConfig Attn = fa2Config(Size);
    Mappings.push_back(attentionMapping(Attn));
    Batch.push_back({{&AttnRegistry, &Mappings.back(), &MachineModel::h100(),
                      attentionArgTypes(Attn)},
                     "attention",
                     ""});
  }

  SessionConfig Config;
  Config.Workers = 1;
  CompilerSession Session(Config);
  double Best = 0.0;
  bench::quietRounds([&](bool Measured) {
    auto Start = std::chrono::steady_clock::now();
    for (int I = 0; I < kHitBatches; ++I) {
      auto Results = Session.compileAll(Batch);
      benchmark::DoNotOptimize(Results.data());
    }
    double Micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - Start)
                        .count() /
                    kHitBatches;
    if (Measured && (Best == 0.0 || Micros < Best))
      Best = Micros;
  });
  CacheStats Stats = Session.cacheStats();
  if (Stats.Entries != Batch.size() || Stats.Misses != Batch.size())
    std::fprintf(stderr, "error: hit-batch bench compiled %llu times\n",
                 static_cast<unsigned long long>(Stats.Misses));
  return Best;
}

void reportPerPassBreakdown(std::FILE *Out) {
  TaskRegistry GemmRegistry;
  MappingSpec GemmMapping;
  std::vector<TensorType> GemmArgs;
  CompileInput Gemm = gemmInput(GemmRegistry, GemmMapping, GemmArgs);

  AttentionConfig Config = fa2Config(4096);
  TaskRegistry AttnRegistry;
  registerAttentionTasks(AttnRegistry);
  MappingSpec AttnMapping = attentionMapping(Config);
  std::vector<TensorType> AttnArgs = attentionArgTypes(Config);
  CompileInput Attn{&AttnRegistry, &AttnMapping, &MachineModel::h100(),
                    AttnArgs};

  std::vector<KernelBreakdown> Breakdowns =
      compileBestOf({{"gemm_4096", Gemm}, {"attention_fa2_4096", Attn}});

  printBreakdown(Out, Breakdowns);

  bench::CheckpointOverhead Checkpoint = measurePipelineCheckpointOverhead();
  std::fprintf(Out,
               "cancellation checkpoints (gemm_4096 pipeline): %.1f us "
               "plain, %.1f us with armed deadline (%+.2f%%)\n\n",
               Checkpoint.PlainMicros, Checkpoint.DeadlineMicros,
               Checkpoint.overheadPct());

  double HitBatchMicros = measureHitBatch();
  std::fprintf(Out,
               "session hit path: %.2f us per all-hit compileAll of a "
               "4-kernel batch (1 worker)\n\n",
               HitBatchMicros);

  maybeWriteJson(Breakdowns, Checkpoint, HitBatchMicros);
}

//===----------------------------------------------------------------------===//
// google-benchmark microbenchmarks
//===----------------------------------------------------------------------===//

void BM_CompileGemmFull(benchmark::State &State) {
  TaskRegistry Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;
  CompileInput Input = gemmInput(Registry, Mapping, Args);
  for (auto _ : State) {
    ErrorOr<IRModule> Module = PassPipeline::defaultPipeline().run(Input);
    benchmark::DoNotOptimize(&Module);
  }
}
BENCHMARK(BM_CompileGemmFull);

void BM_DependenceAnalysis(benchmark::State &State) {
  TaskRegistry Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;
  CompileInput Input = gemmInput(Registry, Mapping, Args);
  for (auto _ : State) {
    ErrorOr<IRModule> Module = runDependenceAnalysis(Input);
    benchmark::DoNotOptimize(&Module);
  }
}
BENCHMARK(BM_DependenceAnalysis);

void BM_CopyElimination(benchmark::State &State) {
  TaskRegistry Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;
  CompileInput Input = gemmInput(Registry, Mapping, Args);
  for (auto _ : State) {
    State.PauseTiming();
    ErrorOr<IRModule> Module = runDependenceAnalysis(Input);
    (void)runVectorization(*Module, *Input.Machine);
    State.ResumeTiming();
    (void)runCopyElimination(*Module);
  }
}
BENCHMARK(BM_CopyElimination);

void BM_CompileAttentionFull(benchmark::State &State) {
  AttentionConfig Config = fa2Config(4096);
  TaskRegistry Registry;
  registerAttentionTasks(Registry);
  MappingSpec Mapping = attentionMapping(Config);
  std::vector<TensorType> Args = attentionArgTypes(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(), Args};
  for (auto _ : State) {
    ErrorOr<IRModule> Module = PassPipeline::defaultPipeline().run(Input);
    benchmark::DoNotOptimize(&Module);
  }
}
BENCHMARK(BM_CompileAttentionFull);

void BM_SimulateGemmTiming(benchmark::State &State) {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 4096;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  std::vector<TensorType> Args = gemmArgTypes(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(), Args};
  SharedAllocation Alloc;
  ErrorOr<IRModule> Module =
      PassPipeline::defaultPipeline().run(Input, &Alloc);
  LeafRegistry Leaves = LeafRegistry::builtins();
  SimConfig Sim;
  for (auto _ : State) {
    ErrorOr<SimResult> Result = simulate(*Module, Alloc, Sim, Leaves);
    benchmark::DoNotOptimize(&Result);
  }
}
BENCHMARK(BM_SimulateGemmTiming);

} // namespace

int main(int argc, char **argv) {
  // Keep stdout machine-parsable when the user asked google-benchmark for
  // a structured format: route the breakdown tables to stderr then.
  bool StructuredStdout = false;
  for (int I = 1; I < argc; ++I)
    if (std::strncmp(argv[I], "--benchmark_format", 18) == 0 ||
        std::strncmp(argv[I], "--benchmark_out", 15) == 0)
      StructuredStdout = true;
  reportPerPassBreakdown(StructuredStdout ? stderr : stdout);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
