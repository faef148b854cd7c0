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
/// result-identical while getting faster. Also checks that the tuner's
/// batched (worker-pool) candidate evaluation produces exactly the
/// landscape a sequential sweep does.
///
//===----------------------------------------------------------------------===//

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"
#include "TestKernels.h"

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
