//===- TuneEmit.cpp - "Tune this spec, emit the winner" requests ----------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tune-emit workload. Each request builds a new Tuner on the
/// long-lived session, runs a budgeted search over the GEMM or attention
/// guided space at one problem shape, and emits CUDA for the winner. A new
/// Tuner owns a new task registry, whose identity is part of every cache
/// key, so every evaluation runs the pass pipeline and the timing
/// simulator; the session cache keeps every kernel and grows for the whole
/// run.
///
/// The budget is evaluations only (no wall clock or deadline), so a run
/// serves the same requests, finds the same winners and emits the same
/// code on every host.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Families.h"

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"
#include "runtime/Session.h"

#include <cmath>
#include <cstdio>

using namespace cypress;

namespace perfbench {
namespace {

constexpr size_t MaxEvals = 64;

/// One kind of request: a problem shape of one family. Every cycle of the
/// stream serves each kind once.
struct Kind {
  bool Attention = false;
  int64_t M = 0, N = 0, K = 0; ///< GEMM shape.
  bool Staged = false;         ///< FA3 (staged scores) instead of FA2.
  int64_t SeqLen = 0;
};

const std::vector<Kind> &kinds() {
  static const std::vector<Kind> Kinds = {
      {false, 4096, 8192, 8192, false, 0},
      {false, 8192, 8192, 8192, false, 0},
      {false, 4096, 16384, 16384, false, 0},
      {false, 16384, 16384, 16384, false, 0},
      {true, 0, 0, 0, false, 8192},
      {true, 0, 0, 0, false, 16384},
      {true, 0, 0, 0, true, 8192},
      {true, 0, 0, 0, true, 16384},
  };
  return Kinds;
}

struct Request {
  Kind K;
  std::string Label;

  KernelSearchSpec spec() const {
    if (K.Attention)
      return attentionSearchSpec(K.Staged ? fa3Config(K.SeqLen)
                                          : fa2Config(K.SeqLen),
                                 attentionGuidedAxes());
    GemmConfig Base;
    Base.M = K.M;
    Base.N = K.N;
    Base.K = K.K;
    return gemmSearchSpec(Base, gemmGuidedAxes());
  }
};

class TuneEmit final : public Workload {
public:
  size_t cycle() const override { return kinds().size(); }

  void setUp(const RunOptions &Options) override {
    newSession();

    // The stream: each cycle is a seeded permutation of the kinds, and
    // each GEMM request's orientation (M x N or N x M) is seeded too.
    SplitMix64 Rng = seededRng(Options.Seed, /*Tag=*/1);
    Stream.clear();
    while (Stream.size() < Options.Requests)
      for (size_t Index : shuffled(kinds().size(), Rng)) {
        Request R{kinds()[Index], ""};
        if (!R.K.Attention && Rng.nextBelow(2) != 0)
          std::swap(R.K.M, R.K.N);
        char Buf[96];
        if (R.K.Attention)
          std::snprintf(Buf, sizeof(Buf), "%s seq%lld",
                        R.K.Staged ? "fa3" : "fa2", (long long)R.K.SeqLen);
        else
          std::snprintf(Buf, sizeof(Buf), "gemm %lldx%lldx%lld",
                        (long long)R.K.M, (long long)R.K.N,
                        (long long)R.K.K);
        R.Label = Buf;
        Stream.push_back(std::move(R));
      }

    // Ready state: one request per family at shapes the stream does not
    // use, so thread-local scratch, pooled buffers and interned expressions
    // are warm before the first timed request.
    TuneBudget Budget;
    Budget.MaxEvals = MaxEvals;
    {
      Tuner Warm(*Session);
      Warm.tuneBudgeted(gemmSearchSpec(GemmConfig(), gemmGuidedAxes()),
                        MachineModel::h100(), Budget);
    }
    {
      Tuner Warm(*Session);
      Warm.tuneBudgeted(attentionSearchSpec(fa2Config(4096),
                                            attentionGuidedAxes()),
                        MachineModel::h100(), Budget);
    }

    LogTFlops = 0.0;
    CudaBytes = 0.0;
    Served = 0;
    Seq = Digest();
  }

  Outcome serve(size_t Index, bool Traced, Tracer &T,
                LayerStats &Layers) override {
    const Request &R = Stream[Index];
    KernelSearchSpec Spec = R.spec();
    TuneBudget Budget;
    Budget.MaxEvals = MaxEvals;

    Outcome Out;
    TuneResult Result;
    CompiledKernel::CudaEmission Emission;
    T.beginRequest(Index, Traced);
    {
      Tracer::Scope Span(T, "autotune.tune");
      Tuner Tn(*Session);
      Result = Tn.tuneBudgeted(Spec, MachineModel::h100(), Budget);
    }
    const CandidateResult *Best = Result.best();
    if (Best) {
      Tracer::Scope Span(T, "compiler.emit");
      Emission = Best->Kernel->emitCuda();
    }
    Out.WallUs = T.endRequest();

    Out.Failure = check(Result, Emission);
    Seq.add(R.Label);
    if (Best) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), " %.17g %zu", Best->TFlops,
                    Emission.Source.size());
      Seq.add(Best->Point.str() + Buf);
      LogTFlops += std::log(Best->TFlops);
      CudaBytes += static_cast<double>(Emission.Source.size());
      ++Served;
    }
    if (Traced)
      record(Result, Emission, T, Layers);
    return Out;
  }

  ExactResults finish() override {
    ExactResults Exact;
    if (Served) {
      Exact.TFlopsGeomean = std::exp(LogTFlops / static_cast<double>(Served));
      Exact.CudaKbMean = CudaBytes / 1024.0 / static_cast<double>(Served);
    }
    Exact.StreamDigest = Seq.value();
    return Exact;
  }

private:
  /// The winner must exist, the search must have completed, a fresh
  /// timing run of the winner must reproduce the tuner's TFLOP/s exactly,
  /// and the emitted source must hold one __global__ definition per
  /// kernel the emitter reports.
  static std::string check(const TuneResult &Result,
                           const CompiledKernel::CudaEmission &Emission) {
    const CandidateResult *Best = Result.best();
    if (!Best)
      return "no evaluated candidate";
    if (Result.Partial)
      return "search ended partial";
    ErrorOr<SimResult> Again = Best->Kernel->runTiming();
    if (!Again)
      return "winner re-timing failed: " + Again.diagnostic().message();
    if (Again->TFlops != Best->TFlops) {
      char Buf[128];
      std::snprintf(Buf, sizeof(Buf),
                    "winner re-timed at %.17g TFLOP/s, tuner saw %.17g",
                    Again->TFlops, Best->TFlops);
      return Buf;
    }
    int64_t Globals = 0;
    for (size_t Pos = Emission.Source.find("__global__");
         Pos != std::string::npos;
         Pos = Emission.Source.find("__global__", Pos + 1))
      ++Globals;
    if (Globals != Emission.Stats.Kernels || Globals == 0)
      return "emitted " + std::to_string(Globals) +
             " __global__ definitions, stats report " +
             std::to_string(Emission.Stats.Kernels);
    return "";
  }

  static void record(const TuneResult &Result,
                     const CompiledKernel::CudaEmission &Emission,
                     const Tracer &T, LayerStats &Layers) {
    const TuneStats &S = Result.Stats;
    Layers.add("autotune.tune_ms", T.lastDurationUs("autotune.tune") / 1e3);
    Layers.add("autotune.evals", static_cast<double>(S.Evals));
    Layers.add("autotune.pipelines_run", static_cast<double>(S.PipelinesRun));
    Layers.add("autotune.pruned", static_cast<double>(S.Pruned));
    Layers.add("autotune.rounds", static_cast<double>(S.Rounds));
    Layers.add("autotune.cost_cache_hits",
               static_cast<double>(S.CostCacheHits));
    Layers.add("runtime.hits", static_cast<double>(S.SessionHits));
    Layers.add("runtime.kernels", static_cast<double>(S.Compiled));
    for (const CandidateResult &Row : Result.Landscape) {
      if (Row.Status == CandidateStatus::Evaluated)
        Layers.add("autotune.evaluated", 1.0);
      if (Row.CostCacheHit)
        continue;
      Layers.add("sim.timing_us", Row.SimulateMicros);
      // A new Tuner's registry makes every compile a session miss, so
      // every kernel in the landscape ran its pipeline in this request.
      if (Row.Kernel)
        Layers.addPipeline(Row.Kernel->stats());
    }
    Layers.add("compiler.emit_us", T.lastDurationUs("compiler.emit"));
    Layers.add("compiler.emit_lines",
               static_cast<double>(Emission.Stats.Lines));
  }

  std::vector<Request> Stream;
  double LogTFlops = 0.0;
  double CudaBytes = 0.0;
  size_t Served = 0;
  Digest Seq;
};

} // namespace

std::unique_ptr<Workload> makeTuneEmit() {
  return std::make_unique<TuneEmit>();
}

} // namespace perfbench
