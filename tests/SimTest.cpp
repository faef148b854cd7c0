//===- SimTest.cpp - Simulator substrate tests ---------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the simulated H100 substrate: the builtin leaf functions, the
/// timing model's qualitative properties (async overlap, pipeline scaling,
/// bandwidth/throughput limits, wave quantization), and the race detector.
///
//===----------------------------------------------------------------------===//

#include "compiler/PassManager.h"
#include "kernels/Kernels.h"
#include "runtime/Runtime.h"
#include "sim/AgentSchedule.h"
#include "sim/LeafRegistry.h"
#include "sim/Simulator.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

using namespace cypress;

//===----------------------------------------------------------------------===//
// Leaf functions
//===----------------------------------------------------------------------===//

namespace {

TensorData makeTensor(Shape S, ElementType E = ElementType::F32) {
  return TensorData(TensorType{std::move(S), E});
}

} // namespace

TEST(Leaves, WgmmaAccumulates) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData C = makeTensor(Shape({2, 2}));
  TensorData A = makeTensor(Shape({2, 3}), ElementType::F16);
  TensorData B = makeTensor(Shape({3, 2}), ElementType::F16);
  // A = [[1,2,3],[4,5,6]], B = [[1,0],[0,1],[1,1]].
  float AValues[] = {1, 2, 3, 4, 5, 6};
  float BValues[] = {1, 0, 0, 1, 1, 1};
  for (int I = 0; I < 6; ++I) {
    A.set(I, AValues[I]);
    B.set(I, BValues[I]);
  }
  C.set({0, 0}, 10.0f); // Pre-existing accumulator value.
  std::vector<TensorView> Args = {TensorView::whole(C),
                                  TensorView::whole(A),
                                  TensorView::whole(B)};
  R.lookup("wgmma_fp16")(Args, {});
  EXPECT_FLOAT_EQ(C.at({0, 0}), 10 + 1 + 3);
  EXPECT_FLOAT_EQ(C.at({0, 1}), 2 + 3);
  EXPECT_FLOAT_EQ(C.at({1, 0}), 4 + 6);
  EXPECT_FLOAT_EQ(C.at({1, 1}), 5 + 6);
}

TEST(Leaves, WgmmaBtSetOverwrites) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData S = makeTensor(Shape({2, 2}));
  TensorData Q = makeTensor(Shape({2, 2}), ElementType::F16);
  TensorData K = makeTensor(Shape({2, 2}), ElementType::F16);
  Q.set({0, 0}, 1.0f);
  Q.set({0, 1}, 2.0f);
  K.set({1, 0}, 3.0f);
  K.set({1, 1}, 4.0f);
  S.set({0, 1}, 99.0f); // Must be overwritten, not accumulated.
  std::vector<TensorView> Args = {TensorView::whole(S),
                                  TensorView::whole(Q),
                                  TensorView::whole(K)};
  R.lookup("wgmma_fp16_bt_set")(Args, {});
  // S[0][1] = Q[0,:] . K[1,:] = 1*3 + 2*4.
  EXPECT_FLOAT_EQ(S.at({0, 1}), 11.0f);
  EXPECT_FLOAT_EQ(S.at({0, 0}), 0.0f);
}

TEST(Leaves, ClearAndStore) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData T = makeTensor(Shape({4, 4}));
  T.fill(5.0f);
  std::vector<TensorView> ClearArgs = {TensorView::whole(T)};
  R.lookup("clear")(ClearArgs, {});
  for (int64_t I = 0; I < 16; ++I)
    EXPECT_EQ(T.at(I), 0.0f);

  TensorData Src = makeTensor(Shape({4, 4}));
  Src.fill(2.5f);
  TensorData Dst = makeTensor(Shape({4, 4}), ElementType::F16);
  std::vector<TensorView> StoreArgs = {TensorView::whole(Dst),
                                       TensorView::whole(Src)};
  R.lookup("store")(StoreArgs, {});
  EXPECT_EQ(Dst.at({3, 3}), 2.5f);
}

TEST(Leaves, RowSumTile) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData Y = makeTensor(Shape({1, 3}));
  TensorData A = makeTensor(Shape({3, 4}), ElementType::F16);
  for (int64_t I = 0; I < 12; ++I)
    A.set(I, 1.0f);
  Y.set({0, 1}, 7.0f); // Accumulates.
  std::vector<TensorView> Args = {TensorView::whole(Y),
                                  TensorView::whole(A)};
  R.lookup("row_sum_tile")(Args, {});
  EXPECT_FLOAT_EQ(Y.at({0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(Y.at({0, 1}), 11.0f);
}

TEST(Leaves, OnlineSoftmaxMatchesBatchSoftmax) {
  // Running the online update over column blocks must equal one-shot
  // softmax: P sums to 1 after finalize, weighted V reproduced.
  LeafRegistry R = LeafRegistry::builtins();
  const int64_t M = 4, N = 6, D = 2;
  TensorData SFull = makeTensor(Shape({M, N}));
  SplitMix64 Rng(3);
  for (int64_t I = 0; I < M * N; ++I)
    SFull.set(I, static_cast<float>(Rng.nextIn(-2, 2)));

  TensorData Mx = makeTensor(Shape({M}));
  TensorData L = makeTensor(Shape({M}));
  TensorData O = makeTensor(Shape({M, D}));
  std::vector<TensorView> InitArgs = {TensorView::whole(Mx),
                                      TensorView::whole(L)};
  R.lookup("softmax_init")(InitArgs, {});

  // Two blocks of 3 columns; V = ones so O accumulates sum of P per row.
  for (int64_t Block = 0; Block < 2; ++Block) {
    TensorData SBlock = makeTensor(Shape({M, 3}));
    for (int64_t I = 0; I < M; ++I)
      for (int64_t J = 0; J < 3; ++J)
        SBlock.set({I, J}, SFull.at({I, Block * 3 + J}));
    std::vector<TensorView> StepArgs = {
        TensorView::whole(SBlock), TensorView::whole(Mx),
        TensorView::whole(L), TensorView::whole(O)};
    R.lookup("softmax_step")(StepArgs, {65536}); // Scale = 1.0.
    // O += P . V with V = ones(3, D).
    TensorData V = makeTensor(Shape({3, D}), ElementType::F16);
    V.fill(1.0f);
    std::vector<TensorView> PvArgs = {TensorView::whole(O),
                                      TensorView::whole(SBlock),
                                      TensorView::whole(V)};
    R.lookup("wgmma_fp16")(PvArgs, {});
  }
  std::vector<TensorView> FinArgs = {TensorView::whole(O),
                                     TensorView::whole(L)};
  R.lookup("softmax_finalize")(FinArgs, {});
  // P rows sum to 1, so O = 1 everywhere.
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < D; ++J)
      EXPECT_NEAR(O.at({I, J}), 1.0f, 1e-5f);
}

TEST(Leaves, DualWgmma) {
  LeafRegistry R = LeafRegistry::builtins();
  TensorData C = makeTensor(Shape({1, 1}));
  TensorData A = makeTensor(Shape({1, 2}), ElementType::F16);
  TensorData B1 = makeTensor(Shape({2, 1}), ElementType::F16);
  TensorData B2 = makeTensor(Shape({2, 1}), ElementType::F16);
  A.set({0, 0}, 2.0f);
  A.set({0, 1}, 3.0f);
  B1.set({0, 0}, 1.0f);
  B2.set({1, 0}, 5.0f);
  std::vector<TensorView> Args = {
      TensorView::whole(C), TensorView::whole(A), TensorView::whole(B1),
      TensorView::whole(B2)};
  R.lookup("dual_wgmma")(Args, {});
  // 2*(1+0) + 3*(0+5) = 17.
  EXPECT_FLOAT_EQ(C.at({0, 0}), 17.0f);
}

TEST(Leaves, ViewsRespectCoordinateMaps) {
  // A leaf driven through a rect view writes the mapped region only.
  LeafRegistry R = LeafRegistry::builtins();
  TensorData Big = makeTensor(Shape({8, 8}));
  Big.fill(1.0f);
  TensorView Window(Big, SubTensor::rect(Shape({2, 2}), {4, 4}));
  std::vector<TensorView> Args = {Window};
  R.lookup("clear")(Args, {});
  EXPECT_EQ(Big.at({4, 4}), 0.0f);
  EXPECT_EQ(Big.at({5, 5}), 0.0f);
  EXPECT_EQ(Big.at({3, 3}), 1.0f);
  EXPECT_EQ(Big.at({6, 6}), 1.0f);
}

//===----------------------------------------------------------------------===//
// Timing model properties
//===----------------------------------------------------------------------===//

namespace {

struct CompiledGemm {
  std::unique_ptr<TaskRegistry> Registry;
  std::unique_ptr<MappingSpec> Mapping;
  std::unique_ptr<CompiledKernel> Kernel;
};

CompiledGemm compileGemm(const GemmConfig &Config) {
  CompiledGemm Result;
  Result.Registry = std::make_unique<TaskRegistry>();
  registerGemmTasks(*Result.Registry);
  Result.Mapping = std::make_unique<MappingSpec>(gemmMapping(Config));
  CompileInput Input{Result.Registry.get(), Result.Mapping.get(),
                     &MachineModel::h100(), gemmArgTypes(Config)};
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Input, "gemm");
  EXPECT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
  if (Kernel)
    Result.Kernel = std::move(*Kernel);
  return Result;
}

} // namespace

TEST(Timing, PipeliningHidesLatencyProgressively) {
  double Last = 0.0;
  for (int64_t Pipe : {1, 2, 3}) {
    GemmConfig Config;
    Config.M = Config.N = Config.K = 4096;
    Config.Pipe = Pipe;
    CompiledGemm G = compileGemm(Config);
    ASSERT_NE(G.Kernel, nullptr);
    double TFlops = G.Kernel->runTiming()->TFlops;
    EXPECT_GT(TFlops, Last) << "pipeline depth " << Pipe;
    Last = TFlops;
  }
}

TEST(Timing, WarpSpecializationWins) {
  GemmConfig On, Off;
  On.M = On.N = On.K = 4096;
  Off = On;
  Off.WarpSpecialize = false;
  CompiledGemm GOn = compileGemm(On);
  CompiledGemm GOff = compileGemm(Off);
  ASSERT_NE(GOn.Kernel, nullptr);
  ASSERT_NE(GOff.Kernel, nullptr);
  double TOn = GOn.Kernel->runTiming()->TFlops;
  double TOff = GOff.Kernel->runTiming()->TFlops;
  EXPECT_GT(TOn, 1.2 * TOff);
}

TEST(Timing, ThroughputBelowMachinePeak) {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 8192;
  CompiledGemm G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr);
  SimConfig Sim;
  ErrorOr<SimResult> Result = G.Kernel->runTiming(Sim);
  ASSERT_TRUE(Result);
  double Peak = Sim.TensorCoreFlopsPerCycle * Sim.NumSMs * Sim.ClockGHz *
                1e9 / 1e12;
  EXPECT_LT(Result->TFlops, Peak);
  EXPECT_GT(Result->TFlops, 0.75 * Peak); // Near-roofline when tuned.
}

TEST(Timing, WaveQuantizationVisible) {
  // 4096^2 output with 128x256 tiles = 512 blocks = 3.88 SM waves; 4608^2
  // gives 648 blocks = 4.9 waves. Efficiency (TFLOPs relative to block
  // count) must dip when a wave is nearly empty.
  GemmConfig A;
  A.M = A.N = 4096;
  A.K = 4096;
  GemmConfig B = A;
  B.M = 4352; // 34 x 16 = 544 blocks: a nearly-empty fifth wave.
  B.N = 4096;
  CompiledGemm GA = compileGemm(A);
  CompiledGemm GB = compileGemm(B);
  ASSERT_NE(GA.Kernel, nullptr);
  ASSERT_NE(GB.Kernel, nullptr);
  ErrorOr<SimResult> RA = GA.Kernel->runTiming();
  ErrorOr<SimResult> RB = GB.Kernel->runTiming();
  ASSERT_TRUE(RA);
  ASSERT_TRUE(RB);
  EXPECT_EQ(RA->Waves, 4);
  EXPECT_EQ(RB->Waves, 5);
  // Per-wave efficiency of B is worse: it computes only 6% more FLOPs but
  // needs a whole extra wave.
  EXPECT_LT(RB->TFlops, RA->TFlops);
}

TEST(Timing, TmaAndTensorCoreOverlap) {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 4096;
  CompiledGemm G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr);
  ErrorOr<SimResult> Result = G.Kernel->runTiming();
  ASSERT_TRUE(Result);
  // Both engines busy most of the block: their busy cycles together exceed
  // the block duration, which is only possible with overlap.
  EXPECT_GT(Result->TmaBusyCycles + Result->TensorCoreBusyCycles,
            1.5 * Result->BlockCycles);
}

TEST(Timing, DramFloorForMemoryBoundShapes) {
  // A skinny GEMM (K = 64) moves far more bytes per FLOP; the DRAM floor
  // must bind and throughput must fall far below the compute roofline.
  GemmConfig Config;
  Config.M = Config.N = 8192;
  Config.K = 64;
  Config.W = 64;
  Config.Pipe = 2;
  CompiledGemm G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr);
  ErrorOr<SimResult> Result = G.Kernel->runTiming();
  ASSERT_TRUE(Result);
  EXPECT_LT(Result->TFlops, 250.0);
}

TEST(Timing, FunctionalAndTimingAgreeOnFlops) {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  CompiledGemm G = compileGemm(Config);
  ASSERT_NE(G.Kernel, nullptr);
  ErrorOr<SimResult> Result = G.Kernel->runTiming();
  ASSERT_TRUE(Result);
  // Useful FLOPs from leaf annotations = 2MNK (plus epsilon for clears).
  EXPECT_NEAR(Result->TotalFlops, gemmFlops(Config),
              0.02 * gemmFlops(Config));
}

//===----------------------------------------------------------------------===//
// Race detector
//===----------------------------------------------------------------------===//

namespace {

/// Compiles the 4096^2 GEMM with the default pipeline, at depth \p K.
IRModule compileGemmModule(SharedAllocation &Alloc, int64_t K = 4096) {
  GemmConfig Config;
  Config.M = Config.N = 4096;
  Config.K = K;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     gemmArgTypes(Config)};
  ErrorOr<IRModule> Module =
      PassPipeline::defaultPipeline().run(Input, &Alloc);
  EXPECT_TRUE(Module) << (Module ? "" : Module.diagnostic().message());
  return Module ? std::move(*Module) : IRModule();
}

/// Drops every pipeline-lag precondition of \p Module; returns how many.
size_t dropLagEdges(IRModule &Module) {
  size_t Dropped = 0;
  walkOps(Module.root(), [&](Operation &Op) {
    size_t Before = Op.Preconds.size();
    Op.Preconds.erase(std::remove_if(Op.Preconds.begin(), Op.Preconds.end(),
                                     [](const EventRef &Ref) {
                                       return Ref.IterLag > 0;
                                     }),
                      Op.Preconds.end());
    Dropped += Before - Op.Preconds.size();
  });
  return Dropped;
}

/// Times \p Module under \p Alloc.
SimResult timeModule(IRModule Module, SharedAllocation Alloc) {
  CompiledKernel Kernel(std::move(Module), std::move(Alloc), "gemm");
  ErrorOr<SimResult> Result = Kernel.runTiming();
  EXPECT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  return Result ? *Result : SimResult();
}

} // namespace

TEST(RaceDetector, DroppedPipelineLagEdgesRaceOnReusedBuffer) {
  // The compiled GEMM guards each pipelined tile against reuse with an
  // `@lag(PIPE)` precondition: the DMA agent may refill buffer k mod PIPE
  // only after the consumer of iteration k - PIPE released it. Dropping
  // those edges lets the refill of A overlap the wgmma still reading it.
  SharedAllocation Alloc;
  IRModule Module = compileGemmModule(Alloc);
  IRModule Stripped = compileGemmModule(Alloc);
  EXPECT_EQ(dropLagEdges(Stripped), 2u);

  SimResult Clean = timeModule(std::move(Module), Alloc);
  SimResult Racy = timeModule(std::move(Stripped), Alloc);
  EXPECT_TRUE(Clean.Races.empty());
  ASSERT_EQ(Racy.Races.size(), 9u);
  for (const std::string &Race : Racy.Races)
    EXPECT_NE(Race.find("shared-memory hazard between gemm_tile.A.7 and "
                        "gemm_tile.A.7"),
              std::string::npos)
        << Race;
  // The dropped edges never bind the schedule: only the refills' access
  // windows move, not the block time.
  EXPECT_NEAR(Clean.BlockCycles, 66537.71, 0.01);
  EXPECT_NEAR(Racy.BlockCycles, 66537.71, 0.01);
}

TEST(RaceDetector, DroppedLagEdgesRaceAtLongTripCount) {
  // The same stripped GEMM with 512 main-loop iterations: the timer that
  // extrapolates the steady state must report exactly the hazards of the
  // timer that simulates every iteration, in the same order.
  SharedAllocation Alloc;
  IRModule Module = compileGemmModule(Alloc, 32768);
  IRModule Stripped = compileGemmModule(Alloc, 32768);
  EXPECT_EQ(dropLagEdges(Stripped), 2u);

  ErrorOr<SimResult> Full = detail::simulateEveryIteration(
      Stripped, Alloc, SimConfig());
  ASSERT_TRUE(Full) << Full.diagnostic().message();
  SimResult Clean = timeModule(std::move(Module), Alloc);
  SimResult Racy = timeModule(std::move(Stripped), Alloc);
  EXPECT_TRUE(Clean.Races.empty());
  EXPECT_GT(Clean.ExtrapolatedIterations, 400);
  ASSERT_EQ(Racy.Races.size(), 9u);
  EXPECT_EQ(Racy.Races, Full->Races);
  for (const std::string &Race : Racy.Races)
    EXPECT_NE(Race.find("shared-memory hazard between gemm_tile.A.7 and "
                        "gemm_tile.A.7"),
              std::string::npos)
        << Race;
  EXPECT_EQ(Racy.BlockCycles, Full->BlockCycles);
  EXPECT_NEAR(Clean.BlockCycles, Racy.BlockCycles,
              1e-9 * Racy.BlockCycles);
}

namespace {

/// One SIMT call of a hand-built block: its cost, and whether it reads or
/// writes the block's one shared tile.
struct TileCall {
  double Flops = 0.0;
  bool Touches = false;
  bool Writes = false;
};

/// Times one warp-specialized block whose DMA agent runs \p Dma and whose
/// one compute warpgroup runs \p Compute, with no event between them.
SimResult timeUnsynchronized(std::initializer_list<TileCall> Dma,
                             std::initializer_list<TileCall> Compute) {
  IRModule Module;
  TensorId Tile =
      Module.addTensor("tile", TensorType{Shape({64}), ElementType::F32},
                       Memory::Shared);
  auto Grid = std::make_unique<Operation>();
  Grid->Kind = OpKind::PFor;
  Grid->Id = Module.freshOpId();
  Grid->LoopVar = Module.freshLoopVar();
  Grid->LoopHi = ScalarExpr(1);
  Grid->PForProc = Processor::Block;
  Grid->WarpSpecialize = true;
  auto Append = [&](const TileCall &Call, bool OnDma) {
    auto Op = std::make_unique<Operation>();
    Op->Kind = OpKind::Call;
    Op->Id = Module.freshOpId();
    Op->Callee = "busy";
    Op->Flops = Call.Flops;
    Op->DmaAgent = OnDma;
    if (Call.Touches) {
      Op->Args.push_back(TensorSlice::whole(Tile));
      Op->ArgIsWritten.push_back(Call.Writes);
    }
    Grid->Body.Ops.push_back(std::move(Op));
  };
  for (const TileCall &Call : Dma)
    Append(Call, true);
  for (const TileCall &Call : Compute)
    Append(Call, false);
  Module.root().Ops.push_back(std::move(Grid));

  SharedAllocation Alloc;
  Alloc.Entries.push_back({Tile, 0, 256});
  Alloc.TotalBytes = 256;
  Alloc.buildIndex();
  ErrorOr<SimResult> Result =
      simulate(Module, Alloc, SimConfig(), LeafRegistry::sharedBuiltins());
  EXPECT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  return Result ? *Result : SimResult();
}

} // namespace

TEST(RaceDetector, UnsynchronizedAccessesRaceInEitherOrder) {
  // Both agents start at cycle 0. A short call delays the second access,
  // which starts while the first, a long call, is still in flight.
  const TileCall Short{2560.0, false, false};
  const TileCall Read{0.0, true, false}, Write{0.0, true, true};
  const TileCall LongRead{25600.0, true, false};
  const TileCall LongWrite{25600.0, true, true};

  SimResult WriteDuringRead = timeUnsynchronized({Short, Write}, {LongRead});
  ASSERT_EQ(WriteDuringRead.Races.size(), 1u);
  EXPECT_NE(WriteDuringRead.Races[0].find("between tile and tile"),
            std::string::npos)
      << WriteDuringRead.Races[0];

  SimResult ReadDuringWrite = timeUnsynchronized({LongWrite}, {Short, Read});
  EXPECT_EQ(ReadDuringWrite.Races.size(), 1u);

  // Reads never race each other.
  EXPECT_TRUE(timeUnsynchronized({LongRead}, {Short, Read}).Races.empty());
}

TEST(PooledArena, ClearKeepsCapacityOnlyUpToTheCeiling) {
  // The simulator's per-thread arenas survive across runs, but one
  // outsized block must not pin its memory to the thread for good.
  std::vector<double> Small(1024);
  clearPooled(Small);
  EXPECT_TRUE(Small.empty());
  EXPECT_GE(Small.capacity(), 1024u);
  std::vector<double> Outsized(PooledArenaBytes / sizeof(double) + 1);
  clearPooled(Outsized);
  EXPECT_TRUE(Outsized.empty());
  EXPECT_EQ(Outsized.capacity(), 0u);
}
