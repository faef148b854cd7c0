//===- bench_emit.cpp - CUDA emitter wall-time microbenchmark -----------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the cost of one CUDA emission (`CompiledKernel::emitCuda`) for
/// the six kernels pinned by tests/goldens, best-of-N batches like
/// bench_sim_hotpath. Emission runs once per autotuner winner and once per
/// ahead-of-time build, so it is a latency number rather than a throughput
/// one; the benchmark exists to keep it visibly cheap (well under a
/// simulation) and to surface the emission stats the golden suite pins.
/// Under CYPRESS_BENCH_JSON the results are dumped as BENCH_emit.json
/// (schema in docs/BENCHMARKS.md); scripts/ab_bench.py reports the emission
/// times beside the base build's without gating on them.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <chrono>

using namespace cypress;
using namespace cypress::bench;

namespace {

using Clock = std::chrono::steady_clock;

struct EmitRow {
  const char *Name;
  int Runs = 0;
  double MicrosPerEmit = 0.0;
  CudaEmitStats Stats;
  int64_t Bytes = 0;
};

/// Times `Runs` emissions per batch (after one warmup emission that also
/// records the stats and source size) and keeps the fastest batch —
/// minimum-of-N for stability on shared runners, as everywhere else in
/// bench/.
EmitRow timeEmit(const char *Name, const OwnedKernel &Owned, int Runs,
                 int Batches = 5) {
  EmitRow Row;
  Row.Name = Name;
  Row.Runs = Runs;
  if (!Owned.Kernel)
    return Row;
  CompiledKernel::CudaEmission Warm = Owned.Kernel->emitCuda();
  Row.Stats = Warm.Stats;
  Row.Bytes = static_cast<int64_t>(Warm.Source.size());
  for (int Batch = 0; Batch < Batches; ++Batch) {
    Clock::time_point Start = Clock::now();
    for (int I = 0; I < Runs; ++I) {
      CompiledKernel::CudaEmission Emission = Owned.Kernel->emitCuda();
      if (Emission.Source.size() != Warm.Source.size())
        std::fprintf(stderr, "error: %s: nondeterministic emission\n", Name);
    }
    double Micros =
        std::chrono::duration<double, std::micro>(Clock::now() - Start)
            .count() /
        Runs;
    if (Batch == 0 || Micros < Row.MicrosPerEmit)
      Row.MicrosPerEmit = Micros;
  }
  return Row;
}

} // namespace

int main() {
  GemmConfig Gemm;
  GemmConfig GemmSmall;
  GemmSmall.M = 256;
  GemmSmall.N = 512;
  GemmSmall.K = 128;
  AttentionConfig Fa2 = fa2Config(4096);
  AttentionConfig Fa3 = fa3Config(4096);

  OwnedKernel Kernels[] = {
      compileOwned(
          "gemm", registerGemmTasks, [&] { return gemmMapping(Gemm); },
          [&] { return gemmArgTypes(Gemm); }),
      compileOwned(
          "gemm", registerGemmTasks, [&] { return gemmMapping(GemmSmall); },
          [&] { return gemmArgTypes(GemmSmall); }),
      compileOwned(
          "fa", registerAttentionTasks,
          [&] { return attentionMapping(Fa2); },
          [&] { return attentionArgTypes(Fa2); }),
      compileOwned(
          "fa", registerAttentionTasks,
          [&] { return attentionMapping(Fa3); },
          [&] { return attentionArgTypes(Fa3); }),
      compileOwned(
          "dual", registerDualGemmTasks,
          [&] { return dualGemmMapping(Gemm); },
          [&] { return dualGemmArgTypes(Gemm); }),
      compileOwned(
          "gemmred", registerGemmRedTasks,
          [&] { return gemmRedMapping(Gemm); },
          [&] { return gemmRedArgTypes(Gemm); })};
  const char *Names[] = {"gemm_4096", "gemm_small",    "fa2_4096",
                         "fa3_4096",  "dual_gemm_4096", "gemm_red_4096"};
  constexpr size_t NumKernels = sizeof(Kernels) / sizeof(Kernels[0]);

  std::printf("== CUDA emission (emitCuda wall time) ==\n");
  std::printf("%-16s %8s %12s %8s %10s %8s %8s\n", "kernel", "runs",
              "us/emit", "bytes", "mbarriers", "waits", "lines");

  const int Runs = 200;
  EmitRow Rows[NumKernels];
  for (size_t I = 0; I < NumKernels; ++I) {
    Rows[I] = timeEmit(Names[I], Kernels[I], Runs);
    std::printf("%-16s %8d %12.2f %8lld %10lld %8lld %8lld\n", Rows[I].Name,
                Rows[I].Runs, Rows[I].MicrosPerEmit,
                static_cast<long long>(Rows[I].Bytes),
                static_cast<long long>(Rows[I].Stats.Mbarriers),
                static_cast<long long>(Rows[I].Stats.MbarrierWaits),
                static_cast<long long>(Rows[I].Stats.Lines));
  }

  if (std::FILE *Out = benchJsonOpen("emit")) {
    std::fprintf(Out, "{\n  \"machine\": \"%s\",\n  \"kernels\": [\n",
                 MachineModel::h100().name().c_str());
    for (size_t I = 0; I < NumKernels; ++I)
      std::fprintf(Out,
                   "    {\"kernel\": \"%s\", \"runs\": %d, "
                   "\"us_per_emit\": %.6g, \"bytes\": %lld, "
                   "\"mbarriers\": %lld, \"mbarrier_waits\": %lld, "
                   "\"mbarrier_arrives\": %lld, \"named_barriers\": %lld, "
                   "\"tma_copies\": %lld, \"wgmma_calls\": %lld, "
                   "\"lines\": %lld}%s\n",
                   Rows[I].Name, Rows[I].Runs, Rows[I].MicrosPerEmit,
                   static_cast<long long>(Rows[I].Bytes),
                   static_cast<long long>(Rows[I].Stats.Mbarriers),
                   static_cast<long long>(Rows[I].Stats.MbarrierWaits),
                   static_cast<long long>(Rows[I].Stats.MbarrierArrives),
                   static_cast<long long>(Rows[I].Stats.NamedBarriers),
                   static_cast<long long>(Rows[I].Stats.TmaCopies),
                   static_cast<long long>(Rows[I].Stats.WgmmaCalls),
                   static_cast<long long>(Rows[I].Stats.Lines),
                   I + 1 < NumKernels ? "," : "");
    std::fprintf(Out, "  ],\n");
    // A string-building loop is far more allocator-sensitive than the
    // simulator hot path: reported, not gated.
    std::vector<BenchMetric> Metrics;
    for (const EmitRow &Row : Rows)
      Metrics.push_back({std::string(Row.Name) + " us_per_emit",
                         Row.MicrosPerEmit, "us", Gate::Report});
    closeBenchJson(Out, Metrics);
  }
  return 0;
}
