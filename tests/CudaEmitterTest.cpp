//===- CudaEmitterTest.cpp - Golden-emit and structural emitter tests ---------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins `emitCudaSource` byte-for-byte for the six kernels the paper
/// evaluates (tests/goldens/*.cu), the same discipline CompilerParityTest
/// applies to the mid-end: an intentional emitter change regenerates the
/// goldens with CYPRESS_UPDATE_GOLDENS=1; an unintentional one fails with
/// the first divergence. Structural smoke checks cross-validate the text
/// against the post-pipeline IR it was printed from — every leaf call
/// appears, barrier declarations match the emission stats, and the stats
/// match what the IR implies — so the goldens cannot drift into pinning
/// wrong output.
///
/// The emitted text is compiled by nvcc only in the opt-in CI step (no
/// CUDA toolchain in the default environment); offline verification of the
/// *semantics* is BackendExecTest's differential execution.
///
//===----------------------------------------------------------------------===//

#include "TestKernels.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace cypress;
using namespace cypress::testkernels;

#ifndef CYPRESS_GOLDEN_DIR
#error "CYPRESS_GOLDEN_DIR must point at tests/goldens"
#endif

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(CYPRESS_GOLDEN_DIR) + "/" + Name + ".cu";
}

/// Byte-compares \p Source against the named golden (or rewrites it under
/// CYPRESS_UPDATE_GOLDENS=1), reporting the first divergence compactly.
void checkGolden(const std::string &Name, const std::string &Source) {
  ASSERT_FALSE(Source.empty());

  const char *Update = std::getenv("CYPRESS_UPDATE_GOLDENS");
  if (Update && *Update && std::string(Update) != "0") {
    std::ofstream Out(goldenPath(Name), std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << goldenPath(Name);
    Out << Source;
    return;
  }

  std::ifstream In(goldenPath(Name), std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden " << goldenPath(Name)
                         << " (record with CYPRESS_UPDATE_GOLDENS=1)";
  std::ostringstream Golden;
  Golden << In.rdbuf();
  std::string Expected = Golden.str();

  if (Source == Expected)
    return;
  size_t Pos = 0;
  while (Pos < Source.size() && Pos < Expected.size() &&
         Source[Pos] == Expected[Pos])
    ++Pos;
  size_t LineStart = Expected.rfind('\n', Pos);
  LineStart = LineStart == std::string::npos ? 0 : LineStart + 1;
  FAIL() << Name << ": emitted CUDA diverges from golden at byte " << Pos
         << "\n  golden: " << Expected.substr(LineStart, 120)
         << "\n  actual: " << Source.substr(LineStart, 120);
}

/// Structural cross-checks of one emission against the IR that drove it.
void checkStructure(const CompiledKernel &Kernel,
                    const CompiledKernel::CudaEmission &Emission) {
  const std::string &Source = Emission.Source;
  const CudaEmitStats &Stats = Emission.Stats;

  // Every Call leaf in the post-pipeline IR appears in the emitted source
  // as a call site ("callee(").
  int64_t Calls = 0, Copies = 0, Grids = 0;
  walkOps(Kernel.module().root(), [&](const Operation &Op) {
    if (Op.Kind == OpKind::Call) {
      ++Calls;
      EXPECT_NE(Source.find(Op.Callee + "("), std::string::npos)
          << "leaf " << Op.Callee << " missing from emitted source";
    } else if (Op.Kind == OpKind::Copy) {
      ++Copies;
    } else if (Op.Kind == OpKind::PFor &&
               Op.PForProc == Processor::Block) {
      ++Grids;
    }
  });
  EXPECT_EQ(Stats.Kernels, Grids);
  EXPECT_EQ(Stats.TmaCopies + Stats.SimtCopies, Copies);
  EXPECT_EQ(Stats.WgmmaCalls + Stats.SimtCalls, Calls);

  // Stats match the text: one __shared__ cuda::barrier declaration per
  // counted mbarrier, one wgmma commit per Tensor Core call, TMA
  // intrinsics as counted.
  auto CountOf = [&](const std::string &Needle) {
    int64_t Count = 0;
    for (size_t Pos = Source.find(Needle); Pos != std::string::npos;
         Pos = Source.find(Needle, Pos + Needle.size()))
      ++Count;
    return Count;
  };
  EXPECT_EQ(CountOf("__shared__ cuda::barrier"), Stats.Mbarriers);
  EXPECT_EQ(CountOf("warpgroup_commit_batch();"), Stats.WgmmaCalls);
  EXPECT_EQ(CountOf("cp_async_bulk_tensor"), Stats.TmaCopies);
  EXPECT_EQ(CountOf(".wait("), Stats.MbarrierWaits);
  EXPECT_EQ(CountOf(".arrive();"), Stats.MbarrierArrives);
  EXPECT_EQ(CountOf("named_barrier"), Stats.NamedBarriers);
  EXPECT_EQ(CountOf("\n"), Stats.Lines);
  EXPECT_EQ(CountOf("__global__"), Stats.Kernels);

  // Every mbarrier connects the two agents: in a warp-specialized kernel
  // the producer and consumer sit in different branches of the
  // is_dma_warp split, so each declared barrier must have at least one
  // wait and one arrive in the text.
  if (Stats.Mbarriers > 0) {
    EXPECT_GT(Stats.MbarrierWaits, 0);
    EXPECT_GT(Stats.MbarrierArrives, 0);
  }
}

void checkKernel(const std::string &GoldenName, Compiled &C) {
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  CompiledKernel::CudaEmission Emission = C.Kernel->emitCuda();
  checkStructure(*C.Kernel, Emission);
  checkGolden(GoldenName, Emission.Source);
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden emissions: the six pinned kernels (same configs as the IR parity
// goldens; emission is cheap at headline scale).
//===----------------------------------------------------------------------===//

TEST(CudaEmitterGolden, Gemm4096) {
  Compiled C = compileGemm(headlineGemmConfig());
  checkKernel("gemm_4096", C);
}

TEST(CudaEmitterGolden, GemmSmall) {
  Compiled C = compileGemm(smallGemmConfig());
  checkKernel("gemm_small", C);
}

TEST(CudaEmitterGolden, AttentionFa2_4096) {
  Compiled C = compileAttention(fa2Config(4096));
  checkKernel("attention_fa2_4096", C);
}

TEST(CudaEmitterGolden, AttentionFa3_4096) {
  Compiled C = compileAttention(fa3Config(4096));
  checkKernel("attention_fa3_4096", C);
}

TEST(CudaEmitterGolden, DualGemm4096) {
  Compiled C = compileDualGemm(headlineGemmConfig());
  checkKernel("dual_gemm_4096", C);
}

TEST(CudaEmitterGolden, GemmReduction4096) {
  Compiled C = compileGemmRed(headlineGemmConfig());
  checkKernel("gemm_red_4096", C);
}

//===----------------------------------------------------------------------===//
// Emission semantics beyond the goldens
//===----------------------------------------------------------------------===//

TEST(CudaEmitterStats, WarpSpecializedGemmShape) {
  Compiled C = compileGemm(smallGemmConfig());
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  CudaEmitStats Stats = C.Kernel->emitCuda().Stats;
  EXPECT_EQ(Stats.Kernels, 1);
  // A and B main-loop tiles plus the store staging tile arrive via TMA.
  EXPECT_GT(Stats.TmaCopies, 0);
  EXPECT_GT(Stats.WgmmaCalls, 0);
  // The pipelined schedule needs barriers in both directions (copy->wgmma
  // availability and wgmma->copy buffer reuse).
  EXPECT_GT(Stats.Mbarriers, 2);
  EXPECT_GT(Stats.SharedTensors, 0);
  EXPECT_GT(Stats.RegisterTensors, 0);
}

TEST(CudaEmitterStats, StatsOverloadMatchesPlainEmission) {
  // A direct emission into a reused stats object matches the kernel's own
  // emission: the counters restart instead of accumulating.
  Compiled C = compileGemm(smallGemmConfig());
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  CompiledKernel::CudaEmission Emission = C.Kernel->emitCuda();
  CudaEmitStats Stats;
  Stats.Lines = 1000000;
  EXPECT_EQ(emitCudaSource(C.Kernel->module(), C.Kernel->sharedPlan(),
                           C.Kernel->name(), Stats),
            Emission.Source);
  EXPECT_EQ(Stats.Lines, Emission.Stats.Lines);
  EXPECT_EQ(Stats.Mbarriers, Emission.Stats.Mbarriers);
}

TEST(CudaEmitterStats, EmissionIsDeterministic) {
  Compiled C = compileAttention(fa2Config(4096));
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  EXPECT_EQ(C.Kernel->emitCuda().Source, C.Kernel->emitCuda().Source);
}

TEST(CudaEmitterStats, NonWarpSpecializedHasNoDmaSplit) {
  GemmConfig Config = smallGemmConfig();
  Config.Pipe = 1;
  Config.WarpSpecialize = false;
  Compiled C = compileGemm(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  CompiledKernel::CudaEmission Emission = C.Kernel->emitCuda();
  EXPECT_EQ(Emission.Source.find("is_dma_warp"), std::string::npos);
  EXPECT_EQ(Emission.Stats.Mbarriers, 0);
  // All ops must still be emitted: the DMA tags are dormant without warp
  // specialization.
  int64_t Copies = 0;
  walkOps(C.Kernel->module().root(), [&](const Operation &Op) {
    if (Op.Kind == OpKind::Copy)
      ++Copies;
  });
  EXPECT_EQ(Emission.Stats.TmaCopies + Emission.Stats.SimtCopies, Copies);
}
