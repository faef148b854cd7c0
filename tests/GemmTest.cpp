//===- GemmTest.cpp - End-to-end GEMM kernel tests ---------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the Figure 5 GEMM program: compile through all six
/// stages, execute functionally on the simulator, and compare against a
/// naive reference. The central property (Section 3): mapping decisions
/// affect performance only, never results.
///
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "kernels/Kernels.h"
#include "runtime/Runtime.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace cypress;

namespace {

/// Naive FP16-quantized reference: C = A x B with FP32 accumulation.
void referenceGemm(const TensorData &A, const TensorData &B, TensorData &C) {
  int64_t M = C.shape().dim(0), N = C.shape().dim(1);
  int64_t K = A.shape().dim(1);
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Acc = 0.0f;
      for (int64_t KK = 0; KK < K; ++KK)
        Acc += A.at({I, KK}) * B.at({KK, J});
      C.set({I, J}, Acc);
    }
}

GemmConfig smallConfig() {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  Config.U = 128;
  Config.V = 256;
  Config.W = 64;
  Config.WGS = 2;
  Config.Pipe = 3;
  return Config;
}

std::unique_ptr<CompiledKernel> compileGemm(const GemmConfig &Config) {
  auto Registry = std::make_shared<TaskRegistry>();
  registerGemmTasks(*Registry);
  auto Mapping = std::make_shared<MappingSpec>(gemmMapping(Config));
  CompileInput Input;
  Input.Registry = Registry.get();
  Input.Mapping = Mapping.get();
  Input.Machine = &MachineModel::h100();
  Input.EntryArgTypes = gemmArgTypes(Config);
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Input, "gemm");
  EXPECT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());
  if (!Kernel)
    return nullptr;
  // Keep registry/mapping alive for the kernel's lifetime via static
  // storage in tests (kernels hold no references after compilation).
  static std::vector<std::shared_ptr<TaskRegistry>> Registries;
  static std::vector<std::shared_ptr<MappingSpec>> Mappings;
  Registries.push_back(Registry);
  Mappings.push_back(Mapping);
  return std::move(*Kernel);
}

} // namespace

TEST(Gemm, CompilesCleanly) {
  auto Kernel = compileGemm(smallConfig());
  ASSERT_NE(Kernel, nullptr);
  // The lowered module still verifies.
  EXPECT_TRUE(verifyModule(Kernel->module()));
}

TEST(Gemm, AccumulatorStaysInRegisters) {
  auto Kernel = compileGemm(smallConfig());
  ASSERT_NE(Kernel, nullptr);
  // The block accumulator was mapped to `none`: after copy elimination no
  // surviving operation may reference a none-memory tensor, and the k-loop
  // body must not spill the accumulator (no register<->register copies of
  // the accumulator inside the loop).
  walkOps(Kernel->module().root(), [&](const Operation &Op) {
    if (Op.Kind == OpKind::Copy) {
      EXPECT_NE(Kernel->module().tensor(Op.CopySrc.Tensor).Mem,
                Memory::None);
      EXPECT_NE(Kernel->module().tensor(Op.CopyDst.Tensor).Mem,
                Memory::None);
    }
  });
}

TEST(Gemm, MainLoopUsesTma) {
  auto Kernel = compileGemm(smallConfig());
  ASSERT_NE(Kernel, nullptr);
  int TmaLoads = 0;
  walkOps(Kernel->module().root(), [&](const Operation &Op) {
    if (Op.Kind == OpKind::Copy && Op.Unit == ExecUnit::TMA)
      ++TmaLoads;
  });
  // A and B tile loads plus the staged store-out.
  EXPECT_GE(TmaLoads, 3);
}

TEST(Gemm, FunctionalMatchesReference) {
  GemmConfig Config = smallConfig();
  auto Kernel = compileGemm(Config);
  ASSERT_NE(Kernel, nullptr);

  TensorData C(gemmArgTypes(Config)[0]);
  TensorData A(gemmArgTypes(Config)[1]);
  TensorData B(gemmArgTypes(Config)[2]);
  fillRandomFp16(A.raw(), 11);
  fillRandomFp16(B.raw(), 22);

  ErrorOr<SimResult> Result = Kernel->runFunctional({&C, &A, &B});
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  EXPECT_TRUE(Result->FunctionalRan);
  EXPECT_TRUE(Result->Races.empty())
      << "first race: " << (Result->Races.empty() ? "" : Result->Races[0]);

  TensorData Ref(gemmArgTypes(Config)[0]);
  referenceGemm(A, B, Ref);
  EXPECT_LT(C.maxAbsDiff(Ref), 0.25) // FP16 storage tolerance over K=128.
      << "functional GEMM diverges from the reference";
}

TEST(Gemm, SingleWarpgroupExceedsRegisterFile) {
  // Section 3.4: the 128x256 FP32 accumulator on a single warpgroup needs
  // 256 registers per thread, over the 255-register CUDA limit; the
  // compiler must reject the mapping rather than mis-compile.
  GemmConfig Config = smallConfig();
  Config.WGS = 1;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  CompileInput Input;
  Input.Registry = &Registry;
  Input.Mapping = &Mapping;
  Input.Machine = &MachineModel::h100();
  Input.EntryArgTypes = gemmArgTypes(Config);
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Input, "gemm");
  ASSERT_FALSE(Kernel);
  EXPECT_NE(Kernel.diagnostic().message().find("register"),
            std::string::npos);
}

TEST(Gemm, MappingChangesPerformanceNotResults) {
  GemmConfig Fast = smallConfig();
  GemmConfig Slow = smallConfig();
  Slow.Pipe = 1;
  Slow.WarpSpecialize = false;

  auto KernelFast = compileGemm(Fast);
  auto KernelSlow = compileGemm(Slow);
  ASSERT_NE(KernelFast, nullptr);
  ASSERT_NE(KernelSlow, nullptr);

  TensorData A(gemmArgTypes(Fast)[1]);
  TensorData B(gemmArgTypes(Fast)[2]);
  fillRandomFp16(A.raw(), 5);
  fillRandomFp16(B.raw(), 6);

  TensorData CFast(gemmArgTypes(Fast)[0]);
  TensorData CSlow(gemmArgTypes(Fast)[0]);
  ASSERT_TRUE(KernelFast->runFunctional({&CFast, &A, &B}));
  ASSERT_TRUE(KernelSlow->runFunctional({&CSlow, &A, &B}));

  // Identical results (bit-for-bit: same arithmetic, same order per tile).
  EXPECT_EQ(CFast.maxAbsDiff(CSlow), 0.0);

  // And the tuned mapping is actually faster.
  ErrorOr<SimResult> TFast = KernelFast->runTiming();
  ErrorOr<SimResult> TSlow = KernelSlow->runTiming();
  ASSERT_TRUE(TFast);
  ASSERT_TRUE(TSlow);
  EXPECT_LT(TFast->BlockCycles, TSlow->BlockCycles);
}

TEST(Gemm, TimingIsComputeBoundAtLargeSizes) {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 4096;
  auto Kernel = compileGemm(Config);
  ASSERT_NE(Kernel, nullptr);
  ErrorOr<SimResult> Result = Kernel->runTiming();
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  // Tensor-core occupancy should dominate the block schedule.
  EXPECT_GT(Result->TensorCoreBusyCycles, 0.6 * Result->BlockCycles);
  // Throughput lands in a plausible Hopper range (hundreds of TFLOP/s).
  EXPECT_GT(Result->TFlops, 400.0);
  EXPECT_LT(Result->TFlops, 989.0);
}

TEST(Gemm, CudaSourceHasWarpSpecializedStructure) {
  auto Kernel = compileGemm(smallConfig());
  ASSERT_NE(Kernel, nullptr);
  std::string Cuda = Kernel->emitCuda().Source;
  EXPECT_NE(Cuda.find("__global__"), std::string::npos);
  EXPECT_NE(Cuda.find("is_dma_warp"), std::string::npos);
  EXPECT_NE(Cuda.find("cp_async_bulk_tensor"), std::string::npos);
  EXPECT_NE(Cuda.find("wgmma"), std::string::npos);
  EXPECT_NE(Cuda.find("extern __shared__"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Batched GEMM
//===----------------------------------------------------------------------===//

TEST(BatchedGemm, FunctionalMatchesPerBatchReference) {
  GemmConfig Config = smallConfig();
  Config.L = 2;
  Config.K = 128;

  auto Registry = std::make_shared<TaskRegistry>();
  registerBatchedGemmTasks(*Registry);
  MappingSpec Mapping = batchedGemmMapping(Config);
  CompileInput Input;
  Input.Registry = Registry.get();
  Input.Mapping = &Mapping;
  Input.Machine = &MachineModel::h100();
  Input.EntryArgTypes = batchedGemmArgTypes(Config);
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Input, "bgemm");
  ASSERT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());

  TensorData C(batchedGemmArgTypes(Config)[0]);
  TensorData A(batchedGemmArgTypes(Config)[1]);
  TensorData B(batchedGemmArgTypes(Config)[2]);
  fillRandomFp16(A.raw(), 31);
  fillRandomFp16(B.raw(), 32);

  ASSERT_TRUE((*Kernel)->runFunctional({&C, &A, &B}));

  // Per-batch reference on the stacked layout.
  for (int64_t Batch = 0; Batch < Config.L; ++Batch) {
    for (int64_t I = 0; I < Config.M; I += 64) { // Spot rows.
      for (int64_t J = 0; J < Config.N; J += 128) {
        float Acc = 0.0f;
        for (int64_t KK = 0; KK < Config.K; ++KK)
          Acc += A.at({Batch * Config.M + I, KK}) *
                 B.at({Batch * Config.K + KK, J});
        EXPECT_NEAR(C.at({Batch * Config.M + I, J}), Acc, 0.25)
            << "batch " << Batch << " element (" << I << "," << J << ")";
      }
    }
  }
}
