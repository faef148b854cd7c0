//===- PassManagerTest.cpp - Pass pipeline infrastructure tests ------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the instrumented pass pipeline: registered pass ordering,
/// per-pass statistics, inter-stage verification catching an injected
/// malformed module, pass provenance on diagnostics, and IR dumping.
///
//===----------------------------------------------------------------------===//

#include "compiler/PassManager.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace cypress;

namespace {

/// A small GEMM compile input with owned registry/mapping.
struct GemmInput {
  TaskRegistry Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;

  explicit GemmInput(int64_t Size = 512) {
    GemmConfig Config;
    Config.M = Config.N = Config.K = Size;
    registerGemmTasks(Registry);
    Mapping = gemmMapping(Config);
    Args = gemmArgTypes(Config);
  }

  CompileInput input() const {
    return {&Registry, &Mapping, &MachineModel::h100(), Args};
  }
};

/// A pass that deliberately breaks the IR: it makes the first operation
/// wait on an event id that does not exist.
std::unique_ptr<Pass> makeCorruptingPass() {
  return std::make_unique<FunctionPass>(
      "corrupt-module", [](PipelineState &State) {
        if (!State.Module.root().Ops.empty())
          State.Module.root().Ops.front()->Preconds.push_back(
              EventRef::unit(1u << 20));
        return ErrorOrVoid::success();
      });
}

} // namespace

TEST(PassManager, DefaultPipelineOrder) {
  PassPipeline Pipeline = PassPipeline::defaultPipeline();
  const char *Expected[] = {
      "dependence-analysis", "vectorization",       "copy-elimination",
      "assign-exec-units",   "resource-allocation", "repair-event-scopes",
      "warp-specialization"};
  ASSERT_EQ(Pipeline.size(), std::size(Expected));
  for (size_t I = 0; I < Pipeline.size(); ++I)
    EXPECT_STREQ(Pipeline.pass(I).name(), Expected[I]) << "at position " << I;
  // Resource allocation defers verification to repair-event-scopes.
  EXPECT_FALSE(Pipeline.pass(4).verifyAfter());
  EXPECT_TRUE(Pipeline.pass(5).verifyAfter());
}

TEST(PassManager, StatsPopulated) {
  GemmInput Gemm;
  PipelineStats Stats;
  SharedAllocation Alloc;
  ErrorOr<IRModule> Module =
      PassPipeline::defaultPipeline().run(Gemm.input(), &Alloc, &Stats);
  ASSERT_TRUE(Module) << (Module ? "" : Module.diagnostic().message());

  ASSERT_EQ(Stats.Passes.size(), 7u);
  EXPECT_GT(Stats.TotalMicros, 0.0);
  for (const PassStat &Stat : Stats.Passes) {
    EXPECT_FALSE(Stat.Name.empty());
    EXPECT_GE(Stat.Micros, 0.0);
    EXPECT_GT(Stat.OpsAfter, 0u) << Stat.Name;
    EXPECT_GT(Stat.EventsAfter, 0u) << Stat.Name;
    EXPECT_GT(Stat.TensorsAfter, 0u) << Stat.Name;
  }
  // Lookup by name works and copy elimination shrinks the module.
  const PassStat *Dep = Stats.pass("dependence-analysis");
  const PassStat *Cpe = Stats.pass("copy-elimination");
  ASSERT_NE(Dep, nullptr);
  ASSERT_NE(Cpe, nullptr);
  EXPECT_LT(Cpe->OpsAfter, Dep->OpsAfter);
  EXPECT_EQ(Stats.pass("no-such-pass"), nullptr);
}

TEST(PassManager, VerifierCatchesInjectedMalformedModule) {
  GemmInput Gemm;
  PassPipeline Pipeline;
  Pipeline.addPass(createDependenceAnalysisPass());
  Pipeline.addPass(makeCorruptingPass());

  PipelineStats Stats;
  ErrorOr<IRModule> Module = Pipeline.run(Gemm.input(), nullptr, &Stats);
  ASSERT_FALSE(Module);
  EXPECT_NE(Module.diagnostic().message().find(
                "verification failed after pass 'corrupt-module'"),
            std::string::npos)
      << Module.diagnostic().message();
  EXPECT_NE(Module.diagnostic().message().find("unknown event"),
            std::string::npos);
  EXPECT_EQ(Module.diagnostic().passName(), "corrupt-module");
  // Both passes ran and were measured before the failure surfaced.
  EXPECT_EQ(Stats.Passes.size(), 2u);
}

TEST(PassManager, DiagnosticsCarryPassProvenance) {
  GemmInput Gemm;
  CompileInput Input = Gemm.input();
  Input.EntryArgTypes.clear(); // Wrong entrypoint arity.
  ErrorOr<IRModule> Module = PassPipeline::defaultPipeline().run(Input);
  ASSERT_FALSE(Module);
  EXPECT_EQ(Module.diagnostic().passName(), "dependence-analysis");
  // str() prefixes the provenance; message() stays the raw text.
  EXPECT_EQ(Module.diagnostic().str(),
            "[dependence-analysis] " + Module.diagnostic().message());
}

TEST(PassManager, PrintIRAfterAllDumpsEveryPass) {
  GemmInput Gemm;
  std::ostringstream Dump;
  PassPipeline Pipeline = PassPipeline::defaultPipeline();
  Pipeline.setPrintIRAfterAll(true);
  Pipeline.setPrintStream(Dump);
  ASSERT_TRUE(Pipeline.run(Gemm.input()));
  std::string Text = Dump.str();
  EXPECT_NE(Text.find("IR after dependence-analysis"), std::string::npos);
  EXPECT_NE(Text.find("IR after warp-specialization"), std::string::npos);
  EXPECT_NE(Text.find("pfor"), std::string::npos);
}
