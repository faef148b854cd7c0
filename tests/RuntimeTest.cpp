//===- RuntimeTest.cpp - Host API surface tests --------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the public runtime API a downstream user programs against:
/// compile-time error propagation, custom leaf registration, artifact
/// accessors (IR dump, CUDA source, shared-memory plan), and a
/// user-defined task tree built from scratch rather than the shipped
/// kernels — the "new kernels not supported by vendor libraries" use case
/// the paper's introduction motivates.
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "runtime/Runtime.h"
#include "runtime/Session.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <thread>

using namespace cypress;

namespace {

/// A user kernel the library does not ship: element-wise AXPY-like update
/// Out = X + X (computed through a custom leaf), tiled over blocks and
/// split across warpgroups.
struct UserKernel {
  TaskRegistry Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;

  UserKernel() {
    Registry.addInner(
        "axpy", "axpy_host",
        {{"Out", 2, ElementType::F32, Privilege::Write},
         {"X", 2, ElementType::F32, Privilege::Read}},
        [](InnerContext &Ctx, std::vector<TensorHandle> Handles) {
          const Shape &S = Ctx.shapeOf(Handles[0]);
          int64_t U = Ctx.tunable("U");
          PartitionHandle OutPart =
              Ctx.partitionByBlocks(Handles[0], Shape({U, S.dim(1)}));
          PartitionHandle XPart =
              Ctx.partitionByBlocks(Handles[1], Shape({U, S.dim(1)}));
          Ctx.prange({ScalarExpr(S.dim(0) / U)},
                     [&](std::vector<ScalarExpr> I) {
                       Ctx.launch("axpy",
                                  {Ctx.index(OutPart, {I[0], ScalarExpr(0)}),
                                   Ctx.index(XPart, {I[0], ScalarExpr(0)})});
                     });
        });
    Registry.addInner(
        "axpy", "axpy_block",
        {{"Out", 2, ElementType::F32, Privilege::Write},
         {"X", 2, ElementType::F32, Privilege::Read}},
        [](InnerContext &Ctx, std::vector<TensorHandle> Handles) {
          const Shape &S = Ctx.shapeOf(Handles[0]);
          int64_t Wgs = Ctx.tunable("WGS");
          PartitionHandle OutPart = Ctx.partitionByBlocks(
              Handles[0], Shape({S.dim(0) / Wgs, S.dim(1)}));
          PartitionHandle XPart = Ctx.partitionByBlocks(
              Handles[1], Shape({S.dim(0) / Wgs, S.dim(1)}));
          Ctx.prange({ScalarExpr(Wgs)}, [&](std::vector<ScalarExpr> I) {
            Ctx.launch("axpy",
                       {Ctx.index(OutPart, {I[0], ScalarExpr(0)}),
                        Ctx.index(XPart, {I[0], ScalarExpr(0)})});
          });
        });
    Registry.addLeaf("axpy", "axpy_leaf",
                     {{"Out", 2, ElementType::F32, Privilege::Write},
                      {"X", 2, ElementType::F32, Privilege::Read}},
                     {"user_double", ExecUnit::SIMT,
                      [](const std::vector<Shape> &Shapes) {
                        return static_cast<double>(
                            Shapes[0].numElements());
                      }});

    std::vector<TaskMapping> Instances;
    TaskMapping Host;
    Host.Instance = "host";
    Host.Variant = "axpy_host";
    Host.Proc = Processor::Host;
    Host.Mems = {Memory::Global, Memory::Global};
    Host.Tunables = {{"U", 64}};
    Host.Entrypoint = true;
    Host.Calls = {"blk"};
    Instances.push_back(Host);
    TaskMapping Blk;
    Blk.Instance = "blk";
    Blk.Variant = "axpy_block";
    Blk.Proc = Processor::Block;
    Blk.Mems = {Memory::Global, Memory::Global};
    Blk.Tunables = {{"WGS", 2}};
    Blk.Calls = {"wg"};
    Instances.push_back(Blk);
    TaskMapping Wg;
    Wg.Instance = "wg";
    Wg.Variant = "axpy_leaf";
    Wg.Proc = Processor::Warpgroup;
    // Stage the tile through shared memory on the way in, registers out.
    Wg.Mems = {Memory::Register, Memory::Shared};
    Instances.push_back(Wg);
    Mapping = MappingSpec(std::move(Instances));
    Args = {{Shape({128, 64}), ElementType::F32},
            {Shape({128, 64}), ElementType::F32}};
  }
};

} // namespace

TEST(Runtime, UserKernelWithCustomLeaf) {
  UserKernel User;
  CompileInput Input{&User.Registry, &User.Mapping, &MachineModel::h100(),
                     User.Args};
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Input, "axpy");
  ASSERT_TRUE(Kernel) << (Kernel ? "" : Kernel.diagnostic().message());

  (*Kernel)->addLeaf("user_double",
                     [](std::vector<TensorView> &Args,
                        const std::vector<int64_t> &) {
                       TensorView &Out = Args[0];
                       TensorView &X = Args[1];
                       int64_t Count = Out.shape().numElements();
                       for (int64_t I = 0; I < Count; ++I) {
                         std::vector<int64_t> Idx =
                             Out.shape().delinearize(I);
                         Out.set(Idx, 2.0f * X.at(Idx));
                       }
                     });

  TensorData Out(User.Args[0]);
  TensorData X(User.Args[1]);
  fillRandomFp16(X.raw(), 77);
  ErrorOr<SimResult> Result = (*Kernel)->runFunctional({&Out, &X});
  ASSERT_TRUE(Result) << (Result ? "" : Result.diagnostic().message());
  for (int64_t I = 0; I < 128; I += 17)
    for (int64_t J = 0; J < 64; J += 13)
      EXPECT_FLOAT_EQ(Out.at({I, J}), 2.0f * X.at({I, J}));
}

TEST(Runtime, MissingLeafImplementationDiagnosed) {
  UserKernel User;
  CompileInput Input{&User.Registry, &User.Mapping, &MachineModel::h100(),
                     User.Args};
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Input, "axpy");
  ASSERT_TRUE(Kernel);
  TensorData Out(User.Args[0]);
  TensorData X(User.Args[1]);
  // No addLeaf("user_double"): the functional run must fail cleanly.
  ErrorOr<SimResult> Result = (*Kernel)->runFunctional({&Out, &X});
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("user_double"),
            std::string::npos);
}

TEST(Runtime, CompileErrorsPropagate) {
  UserKernel User;
  CompileInput Input{&User.Registry, &User.Mapping, &MachineModel::h100(),
                     {}}; // Wrong arity.
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Input, "axpy");
  ASSERT_FALSE(Kernel);
  EXPECT_NE(Kernel.diagnostic().message().find("entrypoint"),
            std::string::npos);
}

TEST(Runtime, ArtifactAccessors) {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     gemmArgTypes(Config)};
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Input, "artifacts");
  ASSERT_TRUE(Kernel);

  EXPECT_EQ((*Kernel)->name(), "artifacts");
  // IR dump uses the paper's notation.
  std::string Ir = (*Kernel)->irDump();
  EXPECT_NE(Ir.find("pfor"), std::string::npos);
  EXPECT_NE(Ir.find("on tma"), std::string::npos);
  EXPECT_NE(Ir.find("@lag("), std::string::npos);
  // Shared plan covers the tiles and fits the machine.
  const SharedAllocation &Plan = (*Kernel)->sharedPlan();
  EXPECT_FALSE(Plan.Entries.empty());
  EXPECT_LE(Plan.TotalBytes, H100Constants::SharedMemoryBytes);
  // The CUDA source names the kernel.
  EXPECT_NE((*Kernel)->emitCuda().Source.find("artifacts_kernel"),
            std::string::npos);
}

TEST(Runtime, TimingIsDeterministic) {
  GemmConfig Config;
  Config.M = 256;
  Config.N = 512;
  Config.K = 128;
  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);
  CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                     gemmArgTypes(Config)};
  auto Kernel = compileKernel(Input, "det");
  ASSERT_TRUE(Kernel);
  double First = (*Kernel)->runTiming()->BlockCycles;
  double Second = (*Kernel)->runTiming()->BlockCycles;
  EXPECT_EQ(First, Second);
}

//===----------------------------------------------------------------------===//
// CompilerSession: the caching, concurrent serving layer
//===----------------------------------------------------------------------===//

namespace {

/// Owned gemm compile input for session tests.
struct SessionGemm {
  TaskRegistry Registry;
  MappingSpec Mapping;
  std::vector<TensorType> Args;

  explicit SessionGemm(int64_t Size) {
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

} // namespace

TEST(Session, PipelineStatsSurfacedFromCompiledKernel) {
  SessionGemm Gemm(512);
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Gemm.input(), "stats");
  ASSERT_TRUE(Kernel);
  const PipelineStats &Stats = (*Kernel)->stats();
  ASSERT_EQ(Stats.Passes.size(), 7u);
  EXPECT_GT(Stats.TotalMicros, 0.0);
  EXPECT_NE(Stats.pass("warp-specialization"), nullptr);
}

TEST(Session, CacheHitReturnsIdenticalKernel) {
  SessionGemm Gemm(512);
  CompilerSession Session;

  auto First = Session.compile(Gemm.input(), "gemm");
  ASSERT_TRUE(First) << (First ? "" : First.diagnostic().message());
  auto Second = Session.compile(Gemm.input(), "gemm");
  ASSERT_TRUE(Second);

  EXPECT_EQ(First->get(), Second->get()); // Same object, not a recompile.
  EXPECT_EQ(Session.stats().Hits, 1u);
  EXPECT_EQ(Session.stats().Misses, 1u);
  EXPECT_EQ(Session.cacheStats().Entries, 1u);
}

TEST(Session, DifferentInputsMissTheCache) {
  SessionGemm Small(512), Large(1024);
  CompilerSession Session;

  auto First = Session.compile(Small.input(), "gemm");
  auto Second = Session.compile(Large.input(), "gemm");
  ASSERT_TRUE(First);
  ASSERT_TRUE(Second);
  EXPECT_NE(First->get(), Second->get());
  EXPECT_EQ(Session.stats().Hits, 0u);
  EXPECT_EQ(Session.stats().Misses, 2u);
  EXPECT_NE(CompilerSession::cacheKey(Small.input()),
            CompilerSession::cacheKey(Large.input()));
}

TEST(Session, CacheHitIsAtLeastTenTimesFasterThanColdCompile) {
  SessionGemm Gemm(4096);
  CompilerSession Session;
  using Clock = std::chrono::steady_clock;

  Clock::time_point ColdStart = Clock::now();
  auto Cold = Session.compile(Gemm.input(), "gemm");
  double ColdMicros =
      std::chrono::duration<double, std::micro>(Clock::now() - ColdStart)
          .count();
  ASSERT_TRUE(Cold);

  // Best hit of a few trials, so one scheduler hiccup cannot fail the
  // assertion; each trial still includes full key construction.
  double HitMicros = std::numeric_limits<double>::infinity();
  for (int Trial = 0; Trial < 5; ++Trial) {
    Clock::time_point HitStart = Clock::now();
    auto Hit = Session.compile(Gemm.input(), "gemm");
    double Micros =
        std::chrono::duration<double, std::micro>(Clock::now() - HitStart)
            .count();
    ASSERT_TRUE(Hit);
    EXPECT_EQ(Hit->get(), Cold->get());
    HitMicros = std::min(HitMicros, Micros);
  }

  EXPECT_GE(ColdMicros, 10.0 * HitMicros)
      << "cold " << ColdMicros << "us vs hit " << HitMicros << "us";
}

TEST(Session, CompileAllIsConcurrentDeterministicAndDeduplicated) {
  SessionGemm Small(512), Large(1024);
  TaskRegistry AttnRegistry;
  registerAttentionTasks(AttnRegistry);
  AttentionConfig AttnConfig = fa2Config(2048);
  MappingSpec AttnMapping = attentionMapping(AttnConfig);
  std::vector<TensorType> AttnArgs = attentionArgTypes(AttnConfig);
  CompileInput Attn{&AttnRegistry, &AttnMapping, &MachineModel::h100(),
                    AttnArgs};

  SessionConfig Config;
  Config.Workers = 4;
  CompilerSession Session(Config);
  std::vector<CompilerSession::Request> Requests = {
      {Small.input(), "gemm_small", {}},
      {Large.input(), "gemm_large", {}},
      {Attn, "attention", {}},
      {Small.input(), "gemm_small_again", {}},
      {Large.input(), "gemm_large_again", {}},
      {Attn, "attention_again", {}}};

  std::vector<uint8_t> Hits;
  auto Results = Session.compileAll(Requests, &Hits);
  ASSERT_EQ(Results.size(), Requests.size());
  // The per-request hit flags are positional and agree exactly with the
  // session counters (this session saw no other traffic).
  ASSERT_EQ(Hits.size(), Requests.size());
  uint64_t FlaggedHits = 0;
  for (uint8_t Hit : Hits)
    FlaggedHits += Hit ? 1 : 0;
  EXPECT_EQ(FlaggedHits, Session.stats().Hits);
  EXPECT_EQ(Hits.size() - FlaggedHits, Session.stats().Misses);
  for (size_t I = 0; I < Results.size(); ++I)
    ASSERT_TRUE(Results[I]) << "request " << I << ": "
                            << Results[I].diagnostic().message();

  // Duplicate inputs share one kernel, whichever worker compiled it.
  EXPECT_EQ(Results[0]->get(), Results[3]->get());
  EXPECT_EQ(Results[1]->get(), Results[4]->get());
  EXPECT_EQ(Results[2]->get(), Results[5]->get());
  EXPECT_EQ(Session.cacheStats().Entries, 3u);

  // Concurrent compilation is deterministic: bit-identical IR to a fresh
  // serial compile of the same inputs.
  ErrorOr<std::unique_ptr<CompiledKernel>> Serial =
      compileKernel(Small.input(), "serial");
  ASSERT_TRUE(Serial);
  EXPECT_EQ((*Results[0])->irDump(), (*Serial)->irDump());
}

TEST(Session, NestedCompileAllFromPostCompileRunsInline) {
  // A PostCompile hook batches more requests onto the same two-worker
  // session while the outer batch is still draining. The outer batch runs
  // on its own thread so that a deadlock fails this test after a bound
  // instead of hanging the suite; the shared state outlives a stuck thread.
  using KernelResults =
      std::vector<ErrorOr<std::shared_ptr<const CompiledKernel>>>;
  struct State {
    SessionGemm Small{512}, Large{1024};
    CompilerSession Session{[] {
      SessionConfig Config;
      Config.Workers = 2;
      return Config;
    }()};
    std::vector<KernelResults> Inner;
    KernelResults Outer;
    std::promise<void> Done;
  };
  auto S = std::make_shared<State>();
  std::future<void> Done = S->Done.get_future();
  std::thread Batch([S] {
    std::vector<CompilerSession::Request> Outer = {
        {S->Small.input(), "outer_small", {}},
        {S->Large.input(), "outer_large", {}}};
    std::vector<CompilerSession::Request> Inner = {
        {S->Large.input(), "inner_large", {}},
        {S->Small.input(), "inner_small", {}}};
    S->Inner.resize(Outer.size());
    S->Outer = S->Session.compileAll(
        Outer, nullptr,
        [&](size_t I, const ErrorOr<std::shared_ptr<const CompiledKernel>> &) {
          S->Inner[I] = S->Session.compileAll(Inner);
        });
    S->Done.set_value();
  });
  if (Done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    Batch.detach();
    FAIL() << "compileAll issued from a PostCompile hook deadlocked";
  }
  Batch.join();

  ASSERT_EQ(S->Outer.size(), 2u);
  for (const auto &Result : S->Outer)
    ASSERT_TRUE(Result) << Result.diagnostic().message();
  for (const KernelResults &Inner : S->Inner) {
    ASSERT_EQ(Inner.size(), 2u);
    ASSERT_TRUE(Inner[0]) << Inner[0].diagnostic().message();
    ASSERT_TRUE(Inner[1]) << Inner[1].diagnostic().message();
    // One kernel per key, whichever batch compiled it first.
    EXPECT_EQ(Inner[0]->get(), S->Outer[1]->get());
    EXPECT_EQ(Inner[1]->get(), S->Outer[0]->get());
  }
  EXPECT_EQ(S->Session.cacheStats().Entries, 2u);
}

TEST(Session, CacheStatsSnapshotsHitsMissesAndEntries) {
  SessionGemm Small(512), Large(1024);
  CompilerSession Session;

  CacheStats Empty = Session.cacheStats();
  EXPECT_EQ(Empty.Hits, 0u);
  EXPECT_EQ(Empty.Misses, 0u);
  EXPECT_EQ(Empty.Entries, 0u);
  EXPECT_FALSE(Session.isCached(Small.input()));

  ASSERT_TRUE(Session.compile(Small.input(), "gemm"));
  EXPECT_TRUE(Session.isCached(Small.input()));
  EXPECT_FALSE(Session.isCached(Large.input()));
  ASSERT_TRUE(Session.compile(Small.input(), "gemm"));
  ASSERT_TRUE(Session.compile(Large.input(), "gemm"));

  CacheStats Stats = Session.cacheStats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 2u);
  EXPECT_EQ(Stats.Entries, 2u);
  // One consistent snapshot: the counters match the legacy accessors.
  EXPECT_EQ(Stats.Hits, Session.stats().Hits);
  EXPECT_EQ(Stats.Misses, Session.stats().Misses);

  // Clearing drops the kernels but keeps the monotonic counters; probing
  // never counts as a hit or miss.
  Session.clearCache();
  EXPECT_FALSE(Session.isCached(Small.input()));
  CacheStats Cleared = Session.cacheStats();
  EXPECT_EQ(Cleared.Entries, 0u);
  EXPECT_EQ(Cleared.Hits, 1u);
  EXPECT_EQ(Cleared.Misses, 2u);
}

TEST(Session, KeyNamesTheRegistryByItsUidAlone) {
  SessionGemm Gemm(512);
  std::string Prefix = "registry#" + std::to_string(Gemm.Registry.uid()) +
                       '|' + Gemm.Mapping.fingerprint() + '|';
  std::string Key = CompilerSession::cacheKey(Gemm.input());
  EXPECT_EQ(Key.compare(0, Prefix.size(), Prefix), 0) << Key;
}

TEST(Session, EveryMachineFieldMovesTheKey) {
  // The machine's part of the key is recorded at construction: a field it
  // left out would let two machines share kernels.
  SessionGemm Gemm(512);
  const MachineModel &H100 = MachineModel::h100();
  auto KeyOn = [&](const MachineModel &Machine) {
    CompileInput Input = Gemm.input();
    Input.Machine = &Machine;
    return CompilerSession::cacheKey(Input);
  };
  std::vector<MachineModel> Variants;
  Variants.emplace_back("h100x", H100.levels(), H100.memories());
  for (size_t I = 0; I < H100.levels().size(); ++I) {
    std::vector<ProcessorLevel> Levels = H100.levels();
    ++Levels[I].FanOut;
    Variants.emplace_back(H100.name(), Levels, H100.memories());
    Levels = H100.levels();
    ++Levels[I].ThreadsPerInstance;
    Variants.emplace_back(H100.name(), Levels, H100.memories());
  }
  {
    // Swapping two level kinds keeps every memory scope present.
    std::vector<ProcessorLevel> Levels = H100.levels();
    std::swap(Levels[3].Kind, Levels[4].Kind);
    Variants.emplace_back(H100.name(), Levels, H100.memories());
  }
  for (size_t I = 0; I < H100.memories().size(); ++I) {
    std::vector<MemoryLevel> Memories = H100.memories();
    Memories[I].Kind = Memory::None;
    Variants.emplace_back(H100.name(), H100.levels(), Memories);
    Memories = H100.memories();
    Memories[I].Scope = Memories[I].Scope == Processor::Warp
                            ? Processor::Thread
                            : Processor::Warp;
    Variants.emplace_back(H100.name(), H100.levels(), Memories);
    Memories = H100.memories();
    ++Memories[I].CapacityBytes;
    Variants.emplace_back(H100.name(), H100.levels(), Memories);
  }

  std::set<std::string> Keys = {KeyOn(H100)};
  for (size_t I = 0; I < Variants.size(); ++I)
    EXPECT_TRUE(Keys.insert(KeyOn(Variants[I])).second) << "variant " << I;
  EXPECT_EQ(Keys.size(), Variants.size() + 1);
}

TEST(Session, CopiedSpecsAndMachinesKeepTheirKeys) {
  SessionGemm Gemm(512);
  const std::string Key = CompilerSession::cacheKey(Gemm.input());
  const MachineModel &H100 = MachineModel::h100();

  MappingSpec CopiedSpec(Gemm.Mapping);
  MachineModel CopiedMachine(H100);
  CompileInput Input = Gemm.input();
  Input.Mapping = &CopiedSpec;
  Input.Machine = &CopiedMachine;
  EXPECT_EQ(CompilerSession::cacheKey(Input), Key);

  MappingSpec AssignedSpec = SessionGemm(1024).Mapping;
  MachineModel AssignedMachine("other", H100.levels(), {});
  Input.Mapping = &AssignedSpec;
  Input.Machine = &AssignedMachine;
  EXPECT_NE(CompilerSession::cacheKey(Input), Key);
  AssignedSpec = Gemm.Mapping;
  AssignedMachine = H100;
  EXPECT_EQ(CompilerSession::cacheKey(Input), Key);
  EXPECT_EQ(CompilerSession::structureKey(Input),
            CompilerSession::structureKey(Gemm.input()));
}

TEST(Session, SeparatelyBuiltEqualSpecsHitTheSameKernel) {
  SessionGemm Gemm(512);
  GemmConfig Config;
  Config.M = Config.N = Config.K = 512;
  MappingSpec Rebuilt = gemmMapping(Config);
  ASSERT_NE(&Rebuilt, &Gemm.Mapping);
  CompileInput Input = Gemm.input();
  Input.Mapping = &Rebuilt;

  CompilerSession Session;
  auto First = Session.compile(Gemm.input(), "gemm");
  auto Second = Session.compile(Input, "gemm");
  ASSERT_TRUE(First);
  ASSERT_TRUE(Second);
  EXPECT_EQ(First->get(), Second->get());
  EXPECT_EQ(Session.stats().Hits, 1u);
  EXPECT_EQ(Session.stats().Misses, 1u);
}

TEST(Session, IdenticallyFilledRegistriesNeverShareAKernel) {
  // Inner bodies are opaque, so equal structure proves nothing: each
  // registry is its own program.
  SessionGemm First(512), Second(512);
  CompilerSession Session;

  auto FromFirst = Session.compile(First.input(), "gemm");
  auto FromSecond = Session.compile(Second.input(), "gemm");
  auto Again = Session.compile(First.input(), "gemm");
  ASSERT_TRUE(FromFirst);
  ASSERT_TRUE(FromSecond);
  ASSERT_TRUE(Again);
  EXPECT_NE(FromFirst->get(), FromSecond->get());
  EXPECT_EQ(FromFirst->get(), Again->get());
  EXPECT_EQ(Session.stats().Hits, 1u);
  EXPECT_EQ(Session.stats().Misses, 2u);
}

TEST(Session, RefilledMovedFromRegistryNeverHitsTheMovedToKernels) {
  SessionGemm Gemm(512);
  CompilerSession Session;
  CompileInput Input = Gemm.input();
  auto CompileWith = [&](const TaskRegistry &Registry) {
    Input.Registry = &Registry;
    auto Kernel = Session.compile(Input, "gemm");
    EXPECT_TRUE(Kernel);
    return Kernel ? Kernel->get() : nullptr;
  };

  TaskRegistry Source;
  registerGemmTasks(Source);
  const CompiledKernel *Original = CompileWith(Source);

  // The moved-to registry holds the same bodies and keeps the kernels.
  TaskRegistry Constructed(std::move(Source));
  EXPECT_EQ(CompileWith(Constructed), Original);
  TaskRegistry Assigned;
  Assigned = std::move(Constructed);
  EXPECT_EQ(CompileWith(Assigned), Original);

  // Refilled moved-from registries are new programs.
  registerGemmTasks(Source);
  registerGemmTasks(Constructed);
  const CompiledKernel *FromSource = CompileWith(Source);
  const CompiledKernel *FromConstructed = CompileWith(Constructed);
  EXPECT_NE(FromSource, Original);
  EXPECT_NE(FromConstructed, Original);
  EXPECT_NE(FromSource, FromConstructed);
  EXPECT_EQ(Session.stats().Hits, 2u);
  EXPECT_EQ(Session.stats().Misses, 3u);
}

TEST(Session, CompileErrorsAreReportedNotCached) {
  SessionGemm Gemm(512);
  CompilerSession Session;
  CompileInput Bad = Gemm.input();
  Bad.EntryArgTypes.clear(); // Wrong entrypoint arity.
  auto Result = Session.compile(Bad, "bad");
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("entrypoint"),
            std::string::npos);
  EXPECT_EQ(Result.diagnostic().passName(), "dependence-analysis");
  EXPECT_EQ(Session.cacheStats().Entries, 0u);
  // Failed compiles still count as misses: Hits + Misses == compile calls.
  EXPECT_EQ(Session.stats().Misses, 1u);
  EXPECT_EQ(Session.stats().Hits, 0u);
}
