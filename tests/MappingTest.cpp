//===- MappingTest.cpp - Mapping specification validation ---------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the mapping half of the programming model (Section 3.3):
/// dispatch resolution through Calls lists, the static validation the
/// compiler performs before lowering, and the fingerprint a spec records
/// at construction (every field of every instance, kept by copies).
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "mapping/Mapping.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

using namespace cypress;

namespace {

/// A tiny two-level registry: a host task dispatching to a block leaf.
TaskRegistry tinyRegistry() {
  TaskRegistry Registry;
  Registry.addInner(
      "work", "work_host", {{"T", 2, ElementType::F16, Privilege::Write}},
      [](InnerContext &Ctx, std::vector<TensorHandle> Args) {
        Ctx.prange({ScalarExpr(2)}, [&](std::vector<ScalarExpr>) {
          Ctx.launch("work", {Args[0]});
        });
      });
  Registry.addLeaf("work", "work_leaf",
                   {{"T", 2, ElementType::F16, Privilege::Write}},
                   {"clear", ExecUnit::SIMT, nullptr});
  return Registry;
}

MappingSpec tinyMapping() {
  TaskMapping Host;
  Host.Instance = "host";
  Host.Variant = "work_host";
  Host.Proc = Processor::Host;
  Host.Mems = {Memory::Global};
  Host.Entrypoint = true;
  Host.Calls = {"leaf"};
  TaskMapping Leaf;
  Leaf.Instance = "leaf";
  Leaf.Variant = "work_leaf";
  Leaf.Proc = Processor::Block;
  Leaf.Mems = {Memory::Shared};
  return MappingSpec({Host, Leaf});
}

} // namespace

TEST(Mapping, LookupAndEntrypoint) {
  MappingSpec Spec = tinyMapping();
  EXPECT_TRUE(Spec.hasInstance("host"));
  EXPECT_FALSE(Spec.hasInstance("nope"));
  EXPECT_EQ(Spec.entrypoint().Instance, "host");
}

TEST(Mapping, DispatchResolvesThroughCalls) {
  TaskRegistry Registry = tinyRegistry();
  MappingSpec Spec = tinyMapping();
  ErrorOr<std::string> Target =
      Spec.dispatch(Registry, Spec.instance("host"), "work");
  ASSERT_TRUE(Target);
  EXPECT_EQ(*Target, "leaf");

  ErrorOr<std::string> Missing =
      Spec.dispatch(Registry, Spec.instance("host"), "unknown_task");
  ASSERT_FALSE(Missing);
  EXPECT_NE(Missing.diagnostic().message().find("no dispatch target"),
            std::string::npos);
}

TEST(Mapping, ValidatesCleanSpec) {
  TaskRegistry Registry = tinyRegistry();
  EXPECT_TRUE(tinyMapping().validate(Registry, MachineModel::h100()));
}

TEST(Mapping, RejectsUnknownVariant) {
  TaskRegistry Registry = tinyRegistry();
  MappingSpec Spec = tinyMapping();
  std::vector<TaskMapping> Instances = Spec.instances();
  Instances[1].Variant = "does_not_exist";
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("unknown variant"),
            std::string::npos);
}

TEST(Mapping, RejectsArityMismatch) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  Instances[0].Mems = {Memory::Global, Memory::Global};
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("params"), std::string::npos);
}

TEST(Mapping, RejectsInaccessibleLeafMemory) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  Instances[1].Proc = Processor::Host; // Host cannot address shared memory.
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("not addressable"),
            std::string::npos);
}

TEST(Mapping, RejectsMissingEntrypoint) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  Instances[0].Entrypoint = false;
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("entrypoint"),
            std::string::npos);
}

TEST(Mapping, RejectsOutwardDispatch) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  // Child at Host while parent is Host is fine; child *outward* of parent
  // is not: make the leaf run at Host and the host task at Block.
  Instances[0].Proc = Processor::Block;
  Instances[1].Proc = Processor::Host;
  Instances[1].Mems = {Memory::Global};
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("outward"), std::string::npos);
}

TEST(Mapping, RejectsZeroPipelineDepth) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<TaskMapping> Instances = tinyMapping().instances();
  Instances[0].PipelineDepth = 0;
  ErrorOrVoid Result =
      MappingSpec(Instances).validate(Registry, MachineModel::h100());
  ASSERT_FALSE(Result);
}

TEST(Mapping, FingerprintIsContentKeyed) {
  // Equal specs built independently fingerprint identically; any knob the
  // lowering can see (tunables, pipeline depth, placements) changes it.
  GemmConfig Config;
  MappingSpec A = gemmMapping(Config);
  MappingSpec B = gemmMapping(Config);
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  EXPECT_TRUE(A == B);

  GemmConfig Deeper = Config;
  Deeper.Pipe += 1;
  MappingSpec C = gemmMapping(Deeper);
  EXPECT_NE(A.fingerprint(), C.fingerprint());
  EXPECT_TRUE(A != C);

  std::vector<TaskMapping> Instances = A.instances();
  Instances[0].Tunables["U"] += 64;
  EXPECT_NE(A.fingerprint(), MappingSpec(Instances).fingerprint());
}

TEST(Mapping, FingerprintCoversEveryTaskMappingField) {
  // The fingerprint is recorded once, at construction, so a field it
  // leaves out would let two different mappings share a kernel. Perturb
  // each TaskMapping field alone: the fingerprint and the session key must
  // both move, and no two perturbations may collide.
  TaskMapping Base;
  Base.Instance = "leaf";
  Base.Variant = "work_leaf";
  Base.Proc = Processor::Block;
  Base.Mems = {Memory::Shared};
  Base.Tunables = {{"U", 64}};
  Base.ProcTunables = {{"P", Processor::Warpgroup}};
  Base.TempMems = {{"acc", Memory::Register}};
  Base.Calls = {"other"};
  Base.ArgPipeline = {{"T", 2}};
  Base.SimtCopyParams = {"T"};
  Base.PipelineDepth = 2;
  Base.SharedLimitBytes = 4096;
  using Edit = std::function<void(TaskMapping &)>;
  const std::vector<std::pair<const char *, Edit>> Edits = {
      {"instance", [](TaskMapping &M) { M.Instance = "leaf2"; }},
      {"variant", [](TaskMapping &M) { M.Variant = "work_leaf2"; }},
      {"processor", [](TaskMapping &M) { M.Proc = Processor::Warpgroup; }},
      {"memories", [](TaskMapping &M) { M.Mems = {Memory::Global}; }},
      {"tunables", [](TaskMapping &M) { M.Tunables["U"] = 128; }},
      {"processor tunables",
       [](TaskMapping &M) { M.ProcTunables["P"] = Processor::Warp; }},
      {"temporary memories",
       [](TaskMapping &M) { M.TempMems["acc"] = Memory::Shared; }},
      {"calls", [](TaskMapping &M) { M.Calls.push_back("third"); }},
      {"argument pipeline", [](TaskMapping &M) { M.ArgPipeline["T"] = 3; }},
      {"SIMT copy parameters",
       [](TaskMapping &M) { M.SimtCopyParams.clear(); }},
      {"entry point", [](TaskMapping &M) { M.Entrypoint = true; }},
      {"warp specialization",
       [](TaskMapping &M) { M.WarpSpecialize = true; }},
      {"pipeline depth", [](TaskMapping &M) { M.PipelineDepth = 3; }},
      {"shared limit", [](TaskMapping &M) { M.SharedLimitBytes = 8192; }},
  };

  TaskRegistry Registry = tinyRegistry();
  std::vector<TensorType> Args = {{Shape({64, 64}), ElementType::F16}};
  auto KeyOf = [&](const MappingSpec &Spec) {
    return CompilerSession::cacheKey(
        {&Registry, &Spec, &MachineModel::h100(), Args});
  };
  MappingSpec BaseSpec({Base});
  std::set<std::string> Fingerprints = {BaseSpec.fingerprint()};
  std::set<std::string> Keys = {KeyOf(BaseSpec)};
  for (const auto &[Field, Perturb] : Edits) {
    TaskMapping Changed = Base;
    Perturb(Changed);
    MappingSpec Spec({Changed});
    EXPECT_TRUE(Fingerprints.insert(Spec.fingerprint()).second) << Field;
    EXPECT_TRUE(Keys.insert(KeyOf(Spec)).second) << Field;
    EXPECT_TRUE(Spec != BaseSpec) << Field;
  }
}

TEST(Mapping, CopiesKeepTheFingerprint) {
  MappingSpec Original = gemmMapping(GemmConfig());
  MappingSpec Copied(Original);
  EXPECT_EQ(Copied.fingerprint(), Original.fingerprint());
  EXPECT_TRUE(Copied == Original);

  MappingSpec Assigned = tinyMapping();
  ASSERT_NE(Assigned.fingerprint(), Original.fingerprint());
  Assigned = Original;
  EXPECT_EQ(Assigned.fingerprint(), Original.fingerprint());
  EXPECT_TRUE(Assigned == Original);

  // Rebuilding from the instances reproduces the recorded fingerprint.
  EXPECT_EQ(MappingSpec(Original.instances()).fingerprint(),
            Original.fingerprint());
  // A default spec fingerprints as the empty mapping.
  EXPECT_EQ(MappingSpec().fingerprint(), "mapping{}");
}

TEST(Mapping, ShippedKernelMappingsValidate) {
  // Every shipped kernel's tuned mapping must pass validation.
  {
    TaskRegistry Registry;
    registerGemmTasks(Registry);
    EXPECT_TRUE(
        gemmMapping(GemmConfig()).validate(Registry, MachineModel::h100()));
  }
  {
    TaskRegistry Registry;
    registerDualGemmTasks(Registry);
    EXPECT_TRUE(dualGemmMapping(GemmConfig())
                    .validate(Registry, MachineModel::h100()));
  }
  {
    TaskRegistry Registry;
    registerGemmRedTasks(Registry);
    EXPECT_TRUE(gemmRedMapping(GemmConfig())
                    .validate(Registry, MachineModel::h100()));
  }
  {
    TaskRegistry Registry;
    registerAttentionTasks(Registry);
    EXPECT_TRUE(attentionMapping(fa2Config(4096))
                    .validate(Registry, MachineModel::h100()));
    EXPECT_TRUE(attentionMapping(fa3Config(4096))
                    .validate(Registry, MachineModel::h100()));
  }
}

TEST(Task, PrivilegeLattice) {
  EXPECT_TRUE(privilegeAllows(Privilege::ReadWrite, Privilege::Read));
  EXPECT_TRUE(privilegeAllows(Privilege::ReadWrite, Privilege::Write));
  EXPECT_TRUE(privilegeAllows(Privilege::Read, Privilege::Read));
  EXPECT_FALSE(privilegeAllows(Privilege::Read, Privilege::Write));
  EXPECT_FALSE(privilegeAllows(Privilege::Read, Privilege::ReadWrite));
  EXPECT_FALSE(privilegeAllows(Privilege::Write, Privilege::ReadWrite));
  EXPECT_TRUE(privilegeAllows(Privilege::Write, Privilege::Write));
}

TEST(Task, RegistryVariantsOf) {
  TaskRegistry Registry = tinyRegistry();
  std::vector<std::string> Variants = Registry.variantsOf("work");
  EXPECT_EQ(Variants.size(), 2u);
  EXPECT_TRUE(Registry.hasVariant("work_host"));
  EXPECT_EQ(Registry.variant("work_leaf").Kind, VariantKind::Leaf);
}
