//===- BackendExecTest.cpp - Differential execution of the CPU lowering -------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential verification of the emitted-kernel schedule: the scalar CPU
/// lowering (src/backend) executes the post-pipeline IR the way the CUDA
/// emitter prints it — per-agent streams, event waits, pipeline lag — and
/// its outputs must match `runFunctional`'s program-order execution on the
/// same seeded inputs for every kernel family the paper evaluates. A
/// divergence means warp specialization or pipelining produced a schedule
/// that computes something other than the task program.
///
/// Each family also pins the lowered schedule's exact LoweredStats. The
/// harness itself is pinned too: two lowered runs must be bit-identical
/// (the agent scheduler is deterministic), an injected corruption must
/// make the differ fail (the comparison actually compares), and a
/// hand-built unexecutable schedule must surface as a deadlock in both
/// the lowering and the timing simulator.
///
//===----------------------------------------------------------------------===//

#include "backend/CpuLowering.h"
#include "TestKernels.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <memory>

using namespace cypress;
using namespace cypress::testkernels;

namespace {

/// Tolerances for functional-vs-lowered comparison. Both executors run the
/// same scalar leaves in the same per-warpgroup order and quantize f16
/// stores identically, so agreement is tight; 4 ulps + 1e-5 absorbs any
/// libm/contraction variance without hiding a real scheduling bug.
constexpr int64_t MaxUlps = 4;
constexpr float AbsTol = 1e-5f;

/// Runs \p Compiled both ways on identical inputs and compares every
/// entry buffer (outputs and inputs — the lowering must not clobber
/// arguments the functional path leaves alone). \p Expected pins the
/// lowered schedule exactly: the agent machine is deterministic, so any
/// change to instance expansion, ownership, or readiness moves a count.
void expectDifferentialMatch(Compiled &C, KernelBuffers &&Functional,
                             KernelBuffers &&Lowered,
                             const LoweredStats &Expected) {
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  ErrorOr<SimResult> Ref = C.Kernel->runFunctional(Functional.ptrs());
  ASSERT_TRUE(Ref) << (Ref ? "" : Ref.diagnostic().message());
  ASSERT_TRUE(Ref->FunctionalRan);

  ErrorOr<LoweredStats> Stats =
      runCpuLowered(C.Kernel->module(), LeafRegistry::sharedBuiltins(),
                    Lowered.ptrs());
  ASSERT_TRUE(Stats) << (Stats ? "" : Stats.diagnostic().message());
  EXPECT_EQ(Stats->Blocks, Expected.Blocks);
  EXPECT_EQ(Stats->Agents, Expected.Agents);
  EXPECT_EQ(Stats->Instances, Expected.Instances);
  EXPECT_EQ(Stats->Stalls, Expected.Stalls);

  for (size_t I = 0; I < Functional.Data.size(); ++I)
    EXPECT_EQ("", compareTensors(Lowered.Data[I], Functional.Data[I],
                                 MaxUlps, AbsTol))
        << "entry argument " << I;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential execution: the six kernel families
//===----------------------------------------------------------------------===//

TEST(BackendExec, GemmMatchesFunctional) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemm(Config);
  expectDifferentialMatch(C, gemmInputs(Config), gemmInputs(Config),
                          {4, 3, 56, 16});
}

TEST(BackendExec, GemmDeepPipelineMatchesFunctional) {
  // The headline mapping's shape is infeasible for scalar execution, but
  // its defining features — 3-deep pipeline with more K steps than the
  // pipeline depth, so the lag edges actually gate — fit at 256 K.
  GemmConfig Config = smallGemmConfig();
  Config.K = 256;
  Compiled C = compileGemm(Config);
  expectDifferentialMatch(C, gemmInputs(Config), gemmInputs(Config),
                          {4, 3, 88, 36});
}

TEST(BackendExec, BatchedGemmMatchesFunctional) {
  GemmConfig Config = smallGemmConfig();
  Config.L = 2;
  Compiled C = compileBatchedGemm(Config);
  expectDifferentialMatch(C, batchedGemmInputs(Config),
                          batchedGemmInputs(Config), {8, 3, 112, 32});
}

TEST(BackendExec, AttentionFa2MatchesFunctional) {
  AttentionConfig Config = smallAttentionConfig(/*StageScores=*/false);
  Compiled C = compileAttention(Config);
  expectDifferentialMatch(C, attentionInputs(Config),
                          attentionInputs(Config), {4, 4, 328, 144});
}

TEST(BackendExec, AttentionFa3MatchesFunctional) {
  AttentionConfig Config = smallAttentionConfig(/*StageScores=*/true);
  Compiled C = compileAttention(Config);
  expectDifferentialMatch(C, attentionInputs(Config),
                          attentionInputs(Config), {4, 4, 400, 208});
}

TEST(BackendExec, DualGemmMatchesFunctional) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileDualGemm(Config);
  expectDifferentialMatch(C, dualGemmInputs(Config),
                          dualGemmInputs(Config), {4, 3, 64, 16});
}

TEST(BackendExec, GemmReductionMatchesFunctional) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemmRed(Config);
  expectDifferentialMatch(C, gemmRedInputs(Config), gemmRedInputs(Config),
                          {4, 3, 96, 16});
}

TEST(BackendExec, NonWarpSpecializedMatchesFunctional) {
  // With warp specialization off the agent machine degenerates to a single
  // compute stream; the DMA-tagged ops must still execute (ownership is
  // gated on the grid flag, as in the simulator).
  GemmConfig Config = smallGemmConfig();
  Config.Pipe = 1;
  Config.WarpSpecialize = false;
  Compiled C = compileGemm(Config);
  expectDifferentialMatch(C, gemmInputs(Config), gemmInputs(Config),
                          {4, 3, 56, 12});
}

//===----------------------------------------------------------------------===//
// Harness self-checks
//===----------------------------------------------------------------------===//

TEST(BackendExec, LoweredRunsBitIdentical) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemm(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  KernelBuffers One = gemmInputs(Config);
  KernelBuffers Two = gemmInputs(Config);
  ASSERT_TRUE(runCpuLowered(C.Kernel->module(),
                            LeafRegistry::sharedBuiltins(), One.ptrs()));
  ASSERT_TRUE(runCpuLowered(C.Kernel->module(),
                            LeafRegistry::sharedBuiltins(), Two.ptrs()));
  const TensorData &C1 = One.Data[0], &C2 = Two.Data[0];
  for (int64_t I = 0, E = C1.shape().numElements(); I < E; ++I)
    ASSERT_EQ(C1.at(I), C2.at(I)) << "element " << I;
}

TEST(BackendExec, DifferInjectedCorruptionFails) {
  // Prove the comparison can fail: perturb one lowered output element past
  // both tolerances and require a nonempty report naming it.
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemm(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  KernelBuffers Functional = gemmInputs(Config);
  KernelBuffers Lowered = gemmInputs(Config);
  ASSERT_TRUE(C.Kernel->runFunctional(Functional.ptrs()));
  ASSERT_TRUE(runCpuLowered(C.Kernel->module(),
                            LeafRegistry::sharedBuiltins(),
                            Lowered.ptrs()));

  TensorData &Out = Lowered.Data[0];
  Out.set(int64_t(12345), Out.at(int64_t(12345)) + 1.0f);
  std::string Report =
      compareTensors(Out, Functional.Data[0], MaxUlps, AbsTol);
  EXPECT_NE("", Report);
  EXPECT_NE(Report.find("12345"), std::string::npos) << Report;
}

TEST(BackendExec, StatsReflectWarpSpecialization) {
  GemmConfig Config = smallGemmConfig();
  Compiled C = compileGemm(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  KernelBuffers Buffers = gemmInputs(Config);
  ErrorOr<LoweredStats> Stats = runCpuLowered(
      C.Kernel->module(), LeafRegistry::sharedBuiltins(), Buffers.ptrs());
  ASSERT_TRUE(Stats) << (Stats ? "" : Stats.diagnostic().message());
  // 256x512 with 128x256 tiles = 4 blocks; 1 DMA agent + 2 warpgroups.
  EXPECT_EQ(Stats->Blocks, 4);
  EXPECT_EQ(Stats->Agents, 3);
  // The DMA agent runs ahead of compute, so it must have stalled at least
  // once on the pipeline's backward (lag) edges.
  EXPECT_GT(Stats->Stalls, 0);
}

//===----------------------------------------------------------------------===//
// Deadlock diagnostics
//===----------------------------------------------------------------------===//

TEST(BackendExec, UnexecutableScheduleDeadlocksBothExecutors) {
  // One block whose first compute instance waits, with no lag, on an event
  // the next instruction of the same warpgroup stream produces: no agent
  // can ever advance. Both executors of the agent schedule must report the
  // deadlock instead of spinning or running the consumer early (the
  // unregistered callees would fail differently if either ran).
  IRModule Module;
  EventId Late = Module.addEvent("late", EventType{});

  auto Grid = std::make_unique<Operation>();
  Grid->Kind = OpKind::PFor;
  Grid->Id = Module.freshOpId();
  Grid->LoopVar = Module.freshLoopVar();
  Grid->LoopHi = ScalarExpr(1);
  Grid->PForProc = Processor::Block;
  Grid->WarpSpecialize = true;
  auto AppendCall = [&](const char *Callee) -> Operation & {
    auto Op = std::make_unique<Operation>();
    Op->Kind = OpKind::Call;
    Op->Id = Module.freshOpId();
    Op->Callee = Callee;
    Grid->Body.Ops.push_back(std::move(Op));
    return *Grid->Body.Ops.back();
  };
  AppendCall("consumer").Preconds.push_back(EventRef::unit(Late));
  AppendCall("producer").Result = Late;
  Module.root().Ops.push_back(std::move(Grid));

  ErrorOr<LoweredStats> Lowered =
      runCpuLowered(Module, LeafRegistry::sharedBuiltins(), {});
  ASSERT_FALSE(Lowered);
  EXPECT_NE(Lowered.diagnostic().message().find("lowered-execution deadlock"),
            std::string::npos)
      << Lowered.diagnostic().message();

  ErrorOr<SimResult> Timed = simulate(Module, SharedAllocation(), SimConfig(),
                                      LeafRegistry::sharedBuiltins());
  ASSERT_FALSE(Timed);
  EXPECT_NE(Timed.diagnostic().message().find("simulation deadlock"),
            std::string::npos)
      << Timed.diagnostic().message();
}
