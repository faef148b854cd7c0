//===- SimulatorParityTest.cpp - Simulator hot-path parity tests --------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the simulator's observable results against golden values recorded
/// from the pre-rewrite (ordered-map) implementation, so the dense-table
/// timing engine of PR 4 — and any future hot-path work — must stay
/// result-identical while getting faster. Compares the steady-state
/// extrapolation against timing every iteration on sampled mappings of all
/// six families. Also checks that the tuner's batched (worker-pool)
/// candidate evaluation produces exactly the landscape a sequential sweep
/// does.
///
//===----------------------------------------------------------------------===//

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"
#include "TestKernels.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <memory>

using namespace cypress;
using namespace cypress::testkernels;

namespace {

/// Golden values recorded from the pre-rewrite simulator (ordered-map
/// implementation, commit 627d726) at these exact configurations. The
/// tolerance is relative 1e-9 — tight enough that any semantic change to
/// scheduling or the cost model fails, loose enough for cross-compiler
/// floating-point contraction differences.
void expectGolden(const ErrorOr<SimResult> &Result, double BlockCycles,
                  double TFlops, double TotalFlops, int64_t Blocks,
                  int64_t Waves) {
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  EXPECT_NEAR(Result->BlockCycles, BlockCycles, 1e-9 * BlockCycles);
  EXPECT_NEAR(Result->TFlops, TFlops, 1e-9 * TFlops);
  EXPECT_NEAR(Result->TotalFlops, TotalFlops, 1e-9 * TotalFlops);
  EXPECT_EQ(Result->Blocks, Blocks);
  EXPECT_EQ(Result->Waves, Waves);
  EXPECT_TRUE(Result->Races.empty())
      << "first race: " << (Result->Races.empty() ? "" : Result->Races[0]);
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden timing parity
//===----------------------------------------------------------------------===//

TEST(SimulatorParity, GemmHeadlineGolden) {
  Compiled G = compileGemm(headlineGemmConfig());
  ASSERT_NE(G.Kernel, nullptr) << G.Error;
  ErrorOr<SimResult> Result = G.Kernel->runTiming();
  expectGolden(Result, 66537.710867254267, 901.41412686954015,
               137472507904.0, 512, 4);
  ASSERT_TRUE(Result);
  EXPECT_NEAR(Result->TmaBusyCycles, 61755.076923076827, 1e-6);
  EXPECT_NEAR(Result->TensorCoreBusyCycles, 62880.172405715792, 1e-6);
}

TEST(SimulatorParity, GemmSmallGolden) {
  Compiled G = compileGemm(smallGemmConfig());
  ASSERT_NE(G.Kernel, nullptr) << G.Error;
  expectGolden(G.Kernel->runTiming(), 5622.5438492170742,
               8.3324289939645197, 33816576.0, 4, 1);
}

TEST(SimulatorParity, AttentionFa2Golden) {
  Compiled C = compileAttention(fa2Config(4096));
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  expectGolden(C.Kernel->runTiming(), 116608.87399318923,
               791.94619599599901, 105916710912.0, 256, 2);
}

TEST(SimulatorParity, AttentionFa3Golden) {
  Compiled C = compileAttention(fa3Config(4096));
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  expectGolden(C.Kernel->runTiming(), 118976.87399318925,
               777.75836622158124, 106118037504.0, 256, 2);
}

TEST(SimulatorParity, AttentionShortSequenceGolden) {
  Compiled C = compileAttention(fa2Config(1024));
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  expectGolden(C.Kernel->runTiming(), 32140.68003675872,
               345.53303429831527, 6623342592.0, 64, 1);
}

namespace {

/// Goldens at long main-loop trip counts, recorded by the simulator that
/// times every iteration (commit ec5b2dd). Busy cycles are pinned at the
/// same relative tolerance as the cycle counts.
void expectLongGolden(const ErrorOr<SimResult> &Result, double BlockCycles,
                      double TFlops, double TotalFlops, int64_t Blocks,
                      int64_t Waves, double TmaBusy, double TcBusy) {
  expectGolden(Result, BlockCycles, TFlops, TotalFlops, Blocks, Waves);
  ASSERT_TRUE(Result);
  EXPECT_NEAR(Result->TmaBusyCycles, TmaBusy, 1e-9 * TmaBusy);
  EXPECT_NEAR(Result->TensorCoreBusyCycles, TcBusy, 1e-9 * TcBusy);
}

} // namespace

TEST(SimulatorParity, GemmLongKGolden) {
  // 2048 main-loop iterations per block.
  GemmConfig Config;
  Config.M = Config.N = 4096;
  Config.K = 32768;
  Config.W = 16;
  Compiled G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr) << G.Error;
  expectLongGolden(G.Kernel->runTiming(), 839526.42218500457,
                   574.38341685233672, 1099545182208.0, 512, 4,
                   485218.46153845801, 503041.3792457463);
}

TEST(SimulatorParity, AttentionFa2LongSequenceGolden) {
  Compiled C = compileAttention(fa2Config(16384));
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  expectLongGolden(C.Kernel->runTiming(), 454481.64981890196,
                   817.55676469973366, 1694440292352.0, 1024, 8,
                   163209.84615384578, 377281.03443428909);
}

TEST(SimulatorParity, AttentionFa3LongSequenceGolden) {
  Compiled C = compileAttention(fa3Config(16384));
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  expectLongGolden(C.Kernel->runTiming(), 463953.64981890173,
                   802.39490857027511, 1697661517824.0, 1024, 8,
                   163209.84615384578, 377281.03443428909);
}

//===----------------------------------------------------------------------===//
// Steady-state extrapolation against full timing
//===----------------------------------------------------------------------===//

namespace {

/// Times \p Kernel both ways: extrapolated (the public path) and with every
/// iteration simulated (the oracle). Cycles, busy cycles and flops agree
/// to 1e-9 relative and the race lists are identical. Returns the
/// extrapolated iterations, so callers can check the path was taken.
int64_t expectExtrapolationMatchesFullTiming(const CompiledKernel &Kernel) {
  ErrorOr<SimResult> Fast = Kernel.runTiming();
  ErrorOr<SimResult> Full = detail::simulateEveryIteration(
      Kernel.module(), Kernel.sharedPlan(), SimConfig());
  EXPECT_EQ(static_cast<bool>(Fast), static_cast<bool>(Full));
  if (!Fast || !Full) {
    if (!Fast && !Full) {
      EXPECT_EQ(Fast.diagnostic().str(), Full.diagnostic().str());
    }
    return 0;
  }
  auto Near = [](double A, double B) {
    return std::abs(A - B) <= 1e-9 * std::max(std::abs(B), 1.0);
  };
  EXPECT_PRED2(Near, Fast->BlockCycles, Full->BlockCycles);
  EXPECT_PRED2(Near, Fast->TFlops, Full->TFlops);
  EXPECT_PRED2(Near, Fast->TotalFlops, Full->TotalFlops);
  EXPECT_PRED2(Near, Fast->TmaBusyCycles, Full->TmaBusyCycles);
  EXPECT_PRED2(Near, Fast->TensorCoreBusyCycles, Full->TensorCoreBusyCycles);
  EXPECT_EQ(Fast->Races, Full->Races);
  EXPECT_EQ(Full->ExtrapolatedIterations, 0);
  EXPECT_EQ(Fast->SimulatedIterations + Fast->ExtrapolatedIterations,
            Full->SimulatedIterations);
  return Fast->ExtrapolatedIterations;
}

/// The GEMM config at a seeded feasible point of the guided GEMM space
/// around \p Base (the sampler of PrefixReplay.GemmReplaysMatchFreshCompiles).
GemmConfig sampleGemm(const MappingSpace &Space, const GemmConfig &Base,
                      SplitMix64 &Rng) {
  while (true) {
    MappingSpace::Candidate Cand =
        Space.candidateAt(static_cast<size_t>(Rng.nextBelow(Space.size())));
    if (!Cand.feasible())
      continue;
    GemmConfig Config = Base;
    for (const auto &[Name, Value] : Cand.Point.values())
      EXPECT_TRUE(applyTunable(Config, Name, Value));
    return Config;
  }
}

AttentionConfig sampleAttention(const MappingSpace &Space,
                                const AttentionConfig &Base,
                                SplitMix64 &Rng) {
  while (true) {
    MappingSpace::Candidate Cand =
        Space.candidateAt(static_cast<size_t>(Rng.nextBelow(Space.size())));
    if (!Cand.feasible())
      continue;
    AttentionConfig Config = Base;
    for (const auto &[Name, Value] : Cand.Point.values())
      EXPECT_TRUE(applyTunable(Config, Name, Value));
    return Config;
  }
}

} // namespace

TEST(SteadyState, ExtrapolationMatchesFullTimingOnSampledMappings) {
  const MachineModel &H100 = MachineModel::h100();
  SplitMix64 Rng(/*Seed=*/23);
  int64_t Extrapolated = 0;
  size_t Timed = 0;

  // GEMM-shaped families at K up to 32768 (W = 16: 2048 iterations).
  GemmConfig GemmBase;
  GemmBase.M = GemmBase.N = 4096;
  MappingSpace GemmSpace(gemmSearchSpec(GemmBase, gemmGuidedAxes()), H100);
  for (int Family = 0; Family < 4; ++Family) {
    for (int Sample = 0; Sample < 6; ++Sample) {
      GemmConfig Config = sampleGemm(GemmSpace, GemmBase, Rng);
      Config.K = int64_t(4096) << Rng.nextBelow(4);
      if (Family == 1)
        Config.L = 2;
      SCOPED_TRACE(formatString("family %d U%lld V%lld W%lld K%lld PIPE%lld "
                                "WGS%lld",
                                Family, (long long)Config.U,
                                (long long)Config.V, (long long)Config.W,
                                (long long)Config.K, (long long)Config.Pipe,
                                (long long)Config.WGS));
      Compiled C = Family == 0   ? compileGemm(Config)
                   : Family == 1 ? compileBatchedGemm(Config)
                   : Family == 2 ? compileDualGemm(Config)
                                 : compileGemmRed(Config);
      if (!C.Kernel)
        continue; // The fused variants need more shared memory.
      Extrapolated += expectExtrapolationMatchesFullTiming(*C.Kernel);
      ++Timed;
    }
  }

  // FA2 and FA3 at sequence lengths up to 32768.
  for (bool Staged : {false, true}) {
    AttentionConfig Base = Staged ? fa3Config(4096) : fa2Config(4096);
    MappingSpace Space(attentionSearchSpec(Base, attentionGuidedAxes()),
                       H100);
    for (int Sample = 0; Sample < 6; ++Sample) {
      AttentionConfig Config = sampleAttention(Space, Base, Rng);
      Config.SeqLen = int64_t(4096) << Rng.nextBelow(4);
      SCOPED_TRACE(formatString("%s BR%lld BC%lld WGS%lld PIPE%lld SEQ%lld",
                                Staged ? "fa3" : "fa2", (long long)Config.BR,
                                (long long)Config.BC, (long long)Config.WGS,
                                (long long)Config.Pipe,
                                (long long)Config.SeqLen));
      Compiled C = compileAttention(Config);
      if (!C.Kernel)
        continue;
      Extrapolated += expectExtrapolationMatchesFullTiming(*C.Kernel);
      ++Timed;
    }
  }
  EXPECT_GT(Timed, 24u);
  EXPECT_GT(Extrapolated, 0);
}

TEST(SteadyState, LongMainLoopsAreExtrapolated) {
  // The long-trip-count goldens reach most of their iterations by
  // extrapolation, and still meet the full timer.
  GemmConfig Config;
  Config.M = Config.N = 4096;
  Config.K = 32768;
  Config.W = 16;
  Compiled G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr) << G.Error;
  ErrorOr<SimResult> Result = G.Kernel->runTiming();
  ASSERT_TRUE(Result);
  EXPECT_EQ(Result->SimulatedIterations + Result->ExtrapolatedIterations,
            2048);
  EXPECT_GT(Result->ExtrapolatedIterations, 1900);
  expectExtrapolationMatchesFullTiming(*G.Kernel);

  Compiled A = compileAttention(fa3Config(16384));
  ASSERT_NE(A.Kernel, nullptr) << A.Error;
  EXPECT_GT(expectExtrapolationMatchesFullTiming(*A.Kernel), 0);
}

//===----------------------------------------------------------------------===//
// Pooled scratch reuse and functional mode
//===----------------------------------------------------------------------===//

TEST(SimulatorParity, RepeatedRunsBitIdentical) {
  // The timing scratch is pooled across runs; reuse must not leak state
  // between simulations (same kernel, and interleaved different kernels).
  Compiled G = compileGemm(headlineGemmConfig());
  Compiled A = compileAttention(fa2Config(1024));
  ASSERT_NE(G.Kernel, nullptr) << G.Error;
  ASSERT_NE(A.Kernel, nullptr) << A.Error;
  ErrorOr<SimResult> GemmFirst = G.Kernel->runTiming();
  ErrorOr<SimResult> AttnFirst = A.Kernel->runTiming();
  ASSERT_TRUE(GemmFirst);
  ASSERT_TRUE(AttnFirst);
  for (int I = 0; I < 3; ++I) {
    ErrorOr<SimResult> GemmAgain = G.Kernel->runTiming();
    ErrorOr<SimResult> AttnAgain = A.Kernel->runTiming();
    ASSERT_TRUE(GemmAgain);
    ASSERT_TRUE(AttnAgain);
    EXPECT_EQ(GemmAgain->BlockCycles, GemmFirst->BlockCycles);
    EXPECT_EQ(GemmAgain->TFlops, GemmFirst->TFlops);
    EXPECT_EQ(AttnAgain->BlockCycles, AttnFirst->BlockCycles);
    EXPECT_EQ(AttnAgain->TFlops, AttnFirst->TFlops);
  }
}

TEST(SimulatorParity, FunctionalModeKeepsTimingAndComputesGemm) {
  // runFunctional = timing plus functional execution: the timing half must
  // report the same golden cycles, and the functional half the right
  // numbers.
  GemmConfig Config = smallGemmConfig();
  Compiled G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr) << G.Error;

  KernelBuffers Buffers = gemmInputs(Config);
  TensorData &C = Buffers.Data[0];
  TensorData &A = Buffers.Data[1];
  TensorData &B = Buffers.Data[2];

  ErrorOr<SimResult> Result = G.Kernel->runFunctional(Buffers.ptrs());
  expectGolden(Result, 5622.5438492170742, 8.3324289939645197, 33816576.0,
               4, 1);
  ASSERT_TRUE(Result);
  EXPECT_TRUE(Result->FunctionalRan);

  for (int64_t I : {int64_t(0), int64_t(17), int64_t(255)}) {
    for (int64_t J : {int64_t(0), int64_t(63), int64_t(511)}) {
      float Ref = 0.0f;
      for (int64_t K = 0; K < Config.K; ++K)
        Ref += A.at({I, K}) * B.at({K, J});
      EXPECT_NEAR(C.at({I, J}), Ref, 1e-2f) << "C(" << I << ", " << J << ")";
    }
  }
}

TEST(SimulatorParity, FunctionalAttentionDeterministic) {
  // The odometer enumeration of processor instances must visit the same
  // instances in the same order as the recursive enumerator it replaced:
  // repeated functional runs produce bit-identical outputs.
  AttentionConfig Config = smallAttentionConfig();
  Compiled C = compileAttention(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  KernelBuffers One = attentionInputs(Config);
  KernelBuffers Two = attentionInputs(Config);
  ASSERT_TRUE(C.Kernel->runFunctional(One.ptrs()));
  ASSERT_TRUE(C.Kernel->runFunctional(Two.ptrs()));
  const TensorData &O1 = One.Data[0], &O2 = Two.Data[0];
  for (int64_t I = 0; I < O1.type().Dims.numElements(); ++I)
    ASSERT_EQ(O1.at(I), O2.at(I)) << "element " << I;
}

//===----------------------------------------------------------------------===//
// Batched vs sequential tuner evaluation
//===----------------------------------------------------------------------===//

TEST(SimulatorParity, BatchedTunerMatchesSequential) {
  // The tuner evaluates candidates on the session's worker pool; the
  // merged landscape must be exactly what a one-worker (sequential) sweep
  // produces — same order, same statuses, same TFLOP/s bits.
  GemmConfig Base;
  Base.M = Base.N = Base.K = 4096;

  SessionConfig Sequential;
  Sequential.Workers = 1;
  CompilerSession SeqSession(Sequential);
  Tuner SeqTuner(SeqSession);
  TuneResult SeqResult = SeqTuner.tuneBudgeted(
      gemmSearchSpec(Base, gemmSweepAxes()), MachineModel::h100(),
      TuneBudget());

  SessionConfig Batched;
  Batched.Workers = 4;
  CompilerSession BatchSession(Batched);
  Tuner BatchTuner(BatchSession);
  TuneResult BatchResult = BatchTuner.tuneBudgeted(
      gemmSearchSpec(Base, gemmSweepAxes()), MachineModel::h100(),
      TuneBudget());

  ASSERT_EQ(SeqResult.Landscape.size(), BatchResult.Landscape.size());
  for (size_t I = 0; I < SeqResult.Landscape.size(); ++I) {
    const CandidateResult &Seq = SeqResult.Landscape[I];
    const CandidateResult &Batch = BatchResult.Landscape[I];
    EXPECT_EQ(Seq.Point.str(), Batch.Point.str()) << "row " << I;
    EXPECT_EQ(Seq.Status, Batch.Status) << "row " << I;
    EXPECT_EQ(Seq.TFlops, Batch.TFlops) << "row " << I;
    EXPECT_EQ(Seq.SharedBytes, Batch.SharedBytes) << "row " << I;
  }
  ASSERT_NE(SeqResult.best(), nullptr);
  ASSERT_NE(BatchResult.best(), nullptr);
  EXPECT_EQ(SeqResult.best()->Point.str(), BatchResult.best()->Point.str());

  // Evaluated rows carry their simulate wall time (cache-replayed rows
  // report the original evaluation's, like CompileMicros).
  for (const CandidateResult &Row : BatchResult.Landscape) {
    if (Row.Status == CandidateStatus::Evaluated) {
      EXPECT_GT(Row.SimulateMicros, 0.0);
    }
  }
}
