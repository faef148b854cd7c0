//===- AutotuneTest.cpp - Autotuning subsystem tests -------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers src/autotune/: MappingSpace enumeration order and static
/// pruning (smem overflow, WGMMA band splits, register budget — rejected
/// without ever invoking the pass pipeline), the Tuner's agreement with a
/// brute-force exhaustive sweep, its search-effort accounting, its
/// rejection of mappings that race on shared memory, the content-keyed
/// cost cache, and the per-search prefix memo: a compile
/// replayed from a sibling mapping's pass prefix is identical to a fresh
/// one.
///
//===----------------------------------------------------------------------===//

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"
#include "runtime/Runtime.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

using namespace cypress;

namespace {

GemmConfig smallGemm() {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 512;
  return Config;
}

/// The explorer grid of Section 5.4 around a small problem.
std::vector<TuningAxis> smallAxes() {
  return {{"U", {64, 128}}, {"V", {128, 256}}, {"PIPE", {1, 2}},
          {"WGS", {1, 2}}};
}

} // namespace

//===----------------------------------------------------------------------===//
// MappingSpace: enumeration and static pruning
//===----------------------------------------------------------------------===//

TEST(MappingSpace, EnumeratesCartesianProductInSweepOrder) {
  KernelSearchSpec Spec = gemmSearchSpec(smallGemm(), smallAxes());
  MappingSpace Space(Spec, MachineModel::h100());

  EXPECT_EQ(Space.size(), 16u);
  EXPECT_EQ(Space.feasibleCount() + Space.prunedCount(), Space.size());

  // Last axis spins fastest: the first two points differ only in WGS.
  const TuningPoint &First = Space.candidates()[0].Point;
  const TuningPoint &Second = Space.candidates()[1].Point;
  EXPECT_EQ(First.str(), "U=64 V=128 PIPE=1 WGS=1");
  EXPECT_EQ(Second.str(), "U=64 V=128 PIPE=1 WGS=2");
  EXPECT_EQ(First.at("U"), 64);
  EXPECT_EQ(First.getOr("PIPE", -1), 1);
  EXPECT_EQ(First.getOr("ABSENT", -1), -1);
  EXPECT_FALSE(First.has("ABSENT"));
  EXPECT_NE(First, Second);
}

TEST(MappingSpace, PrunesBadBandSplitWithDiagnostic) {
  // U=64 with WGS=2 leaves 32-row splits: not a whole WGMMA band.
  KernelSearchSpec Spec =
      gemmSearchSpec(smallGemm(), {{"U", {64}}, {"WGS", {2}}});
  MappingSpace Space(Spec, MachineModel::h100());
  ASSERT_EQ(Space.size(), 1u);
  ASSERT_FALSE(Space.candidates()[0].feasible());
  EXPECT_NE(Space.candidates()[0].Rejection->message().find("WGMMA"),
            std::string::npos);
}

TEST(MappingSpace, PrunesSharedMemoryOverflow) {
  // (U*W + W*V)*2 bytes * PIPE = (16 + 32) KB * 5 = 240 KB > 227 KB, and
  // the A/B pipeline buffers are concurrently live so nothing can alias.
  KernelSearchSpec Spec =
      gemmSearchSpec(smallGemm(),
                     {{"U", {128}}, {"V", {256}}, {"PIPE", {5}},
                      {"WGS", {2}}});
  MappingSpace Space(Spec, MachineModel::h100());
  ASSERT_EQ(Space.prunedCount(), 1u);
  EXPECT_NE(Space.candidates()[0].Rejection->message().find("shared memory"),
            std::string::npos);
}

TEST(MappingSpace, PrunesRegisterOverflow) {
  // One warpgroup's 128x256 FP32 accumulator needs 1024 bytes per thread;
  // the H100 register file provides 255 * 4 = 1020.
  KernelSearchSpec Spec =
      gemmSearchSpec(smallGemm(),
                     {{"U", {128}}, {"V", {256}}, {"WGS", {1}}});
  MappingSpace Space(Spec, MachineModel::h100());
  ASSERT_EQ(Space.prunedCount(), 1u);
  EXPECT_NE(Space.candidates()[0].Rejection->message().find("register"),
            std::string::npos);
}

TEST(MappingSpace, CapacityPrunesAgreeWithTheCompiler) {
  // Soundness: every candidate pruned for a machine-capacity reason (not
  // the band rule, which is real-hardware policy the permissive simulator
  // does not model) must also be rejected by the actual pass pipeline, and
  // every feasible candidate must compile.
  GemmConfig Base = smallGemm();
  KernelSearchSpec Spec = gemmSearchSpec(
      Base, {{"U", {64, 128}}, {"V", {128, 256}}, {"PIPE", {2, 5}},
             {"WGS", {1, 2}}});
  MappingSpace Space(Spec, MachineModel::h100());
  ASSERT_GT(Space.prunedCount(), 0u);
  for (const MappingSpace::Candidate &Cand : Space.candidates()) {
    TaskRegistry Registry;
    Spec.Register(Registry);
    MappingSpec Mapping = Spec.BuildMapping(Cand.Point);
    std::vector<TensorType> Args = Spec.BuildArgs(Cand.Point);
    CompileInput Input{&Registry, &Mapping, &MachineModel::h100(), Args};
    ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
        compileKernel(Input, "gemm");
    if (Cand.feasible()) {
      EXPECT_TRUE(Kernel) << Cand.Point.str() << ": "
                          << Kernel.diagnostic().message();
    } else if (Cand.Rejection->message().find("WGMMA") == std::string::npos) {
      EXPECT_FALSE(Kernel) << Cand.Point.str()
                           << " pruned for a capacity reason ("
                           << Cand.Rejection->message()
                           << ") but the pipeline accepted it";
    }
  }
}

TEST(MappingSpace, AttentionCapacityPrunesAgreeWithTheCompiler) {
  // Same soundness bar as the GEMM test above, for attention: the
  // validate() lower bounds encode aliasing assumptions about the
  // allocator (K/V pipeline buffers may alias each other, staging may
  // alias the loop), so pin them to the real pipeline: every
  // capacity-pruned candidate must fail compilation, every feasible one
  // must compile.
  KernelSearchSpec Spec = attentionSearchSpec(
      fa2Config(2048),
      {{"WGS", {2, 3}}, {"BR", {128, 192}}, {"BC", {64, 128}},
       {"PIPE", {2, 6}}});
  MappingSpace Space(Spec, MachineModel::h100());
  ASSERT_GT(Space.prunedCount(), 0u);
  for (const MappingSpace::Candidate &Cand : Space.candidates()) {
    TaskRegistry Registry;
    Spec.Register(Registry);
    MappingSpec Mapping = Spec.BuildMapping(Cand.Point);
    std::vector<TensorType> Args = Spec.BuildArgs(Cand.Point);
    CompileInput Input{&Registry, &Mapping, &MachineModel::h100(), Args};
    ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
        compileKernel(Input, "fa");
    if (Cand.feasible()) {
      EXPECT_TRUE(Kernel) << Cand.Point.str() << ": "
                          << Kernel.diagnostic().message();
    } else if (Cand.Rejection->message().find("WGMMA") == std::string::npos) {
      EXPECT_FALSE(Kernel) << Cand.Point.str()
                           << " pruned for a capacity reason ("
                           << Cand.Rejection->message()
                           << ") but the pipeline accepted it";
    }
  }
}

TEST(MappingSpace, AttentionPrunesBadConfigs) {
  // fa2Config's BR=192 split over 2 warpgroups is 96 rows: no band fit.
  AttentionConfig Base = fa2Config(2048);
  KernelSearchSpec Spec =
      attentionSearchSpec(Base, {{"WGS", {2, 3}}, {"PIPE", {2, 6}}});
  MappingSpace Space(Spec, MachineModel::h100());
  ASSERT_EQ(Space.size(), 4u);
  // WGS=2 both pruned (band); WGS=3 PIPE=6 pruned (smem: 48 KB Q + 6 * 32
  // KB K/V = 240 KB > 227 KB); WGS=3 PIPE=2 feasible.
  EXPECT_EQ(Space.prunedCount(), 3u);
  EXPECT_TRUE(Space.candidates()[2].feasible());
  EXPECT_NE(
      Space.candidates()[3].Rejection->message().find("shared memory"),
      std::string::npos);
}

//===----------------------------------------------------------------------===//
// Tuner: pruning short-circuits the pipeline
//===----------------------------------------------------------------------===//

TEST(Tuner, PrunedCandidatesNeverReachThePipeline) {
  CompilerSession Session;
  Tuner Tuner(Session);
  KernelSearchSpec Spec = gemmSearchSpec(smallGemm(), smallAxes());
  MappingSpace Space(Spec, MachineModel::h100());

  TuneResult Result =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget());

  ASSERT_EQ(Result.Stats.Candidates, 16u);
  EXPECT_EQ(Result.Landscape.size(), Result.Stats.Candidates);
  EXPECT_EQ(Result.Stats.Pruned, Space.prunedCount());
  EXPECT_GT(Result.Stats.Pruned, 0u);
  // Every pipeline run the session saw came from a feasible candidate:
  // pruned ones were rejected before compilation.
  EXPECT_EQ(Session.stats().Misses, Space.feasibleCount());
  EXPECT_EQ(Result.Stats.PipelinesRun, Space.feasibleCount());
  EXPECT_EQ(Result.Stats.Compiled, Space.feasibleCount());
  for (const CandidateResult &Row : Result.Landscape) {
    if (Row.Status == CandidateStatus::Pruned) {
      EXPECT_EQ(Row.Kernel, nullptr);
      EXPECT_FALSE(Row.Detail.empty());
      EXPECT_EQ(Row.CompileMicros, 0.0);
    } else {
      EXPECT_EQ(Row.Status, CandidateStatus::Evaluated);
      EXPECT_NE(Row.Kernel, nullptr);
      EXPECT_GT(Row.TFlops, 0.0);
    }
  }
}

TEST(Tuner, RankedLandscapeMatchesBruteForceExhaustiveSweep) {
  // The pre-refactor sweep: nested loops, the inline band check, a cold
  // compile per candidate, first strict maximum of the rank key wins.
  GemmConfig Base = smallGemm();
  SimConfig Sim;
  double BestTFlops = -1.0;
  std::string BestName;
  size_t BruteForcePipelines = 0;
  for (int64_t U : {64, 128}) {
    for (int64_t V : {128, 256}) {
      for (int64_t Pipe : {1, 2}) {
        for (int64_t Wgs : {1, 2}) {
          GemmConfig Config = Base;
          Config.U = U;
          Config.V = V;
          Config.Pipe = Pipe;
          Config.WGS = Wgs;
          if (U / Wgs % 64 != 0)
            continue;
          TaskRegistry Registry;
          registerGemmTasks(Registry);
          MappingSpec Mapping = gemmMapping(Config);
          std::vector<TensorType> Args = gemmArgTypes(Config);
          CompileInput Input{&Registry, &Mapping, &MachineModel::h100(),
                             Args};
          auto Kernel = compileKernel(Input, "gemm");
          ++BruteForcePipelines;
          if (!Kernel)
            continue;
          ErrorOr<SimResult> Timing = (*Kernel)->runTiming(Sim);
          ASSERT_TRUE(Timing);
          if (tflopsRankKey(Timing->TFlops) > tflopsRankKey(BestTFlops)) {
            BestTFlops = Timing->TFlops;
            BestName = "U=" + std::to_string(U) + " V=" + std::to_string(V) +
                       " PIPE=" + std::to_string(Pipe) +
                       " WGS=" + std::to_string(Wgs);
          }
        }
      }
    }
  }

  CompilerSession Session;
  Tuner Tuner(Session);
  TuneResult Result = Tuner.tuneBudgeted(gemmSearchSpec(Base, smallAxes()),
                                         MachineModel::h100(), TuneBudget(),
                                         Sim);

  const CandidateResult *Best = Result.best();
  ASSERT_NE(Best, nullptr);
  EXPECT_EQ(Best->Point.str(), BestName);
  EXPECT_DOUBLE_EQ(Best->TFlops, BestTFlops);
  // The acceptance bar: same best mapping, strictly fewer pipeline runs
  // (static pruning catches what the brute-force sweep only discovers by
  // compiling).
  EXPECT_LT(Result.Stats.PipelinesRun, BruteForcePipelines);
}

//===----------------------------------------------------------------------===//
// Tuner: caches
//===----------------------------------------------------------------------===//

TEST(Tuner, CostCacheReplaysRepeatedSweepsWithoutCompiling) {
  CompilerSession Session;
  Tuner Tuner(Session);
  KernelSearchSpec Spec = gemmSearchSpec(smallGemm(), smallAxes());

  TuneResult First =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget());
  uint64_t MissesAfterFirst = Session.stats().Misses;
  ASSERT_GT(Tuner.costCacheSize(), 0u);

  TuneResult Second =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget());
  EXPECT_EQ(Second.Stats.CostCacheHits,
            Second.Stats.Candidates - Second.Stats.Pruned);
  EXPECT_EQ(Second.Stats.PipelinesRun, 0u);
  EXPECT_EQ(Second.Stats.Compiled, 0u);
  EXPECT_EQ(Session.stats().Misses, MissesAfterFirst);

  ASSERT_NE(Second.best(), nullptr);
  EXPECT_EQ(Second.best()->Point, First.best()->Point);
  EXPECT_DOUBLE_EQ(Second.best()->TFlops, First.best()->TFlops);
  EXPECT_TRUE(Second.best()->CostCacheHit);
  // The replay shares the cached kernel object, not a recompile.
  EXPECT_EQ(Second.best()->Kernel.get(), First.best()->Kernel.get());
}

TEST(Tuner, DifferentSimConfigsDoNotShareCostEntries) {
  CompilerSession Session;
  Tuner Tuner(Session);
  // SIMT-pinned A tiles, so the SIMT global bandwidth counts too.
  KernelSearchSpec Spec =
      gemmSearchSpec(smallGemm(), {{"PIPE", {2}}, {"TMA_A", {0}}});

  SimConfig Fast;
  TuneResult First =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget(), Fast);
  SimConfig Slow;
  Slow.TensorCoreFlopsPerCycle /= 2.0;
  TuneResult Second =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget(), Slow);

  // The kernel compile is shared through the session, but the evaluation
  // is not: a different machine calibration is a different cost.
  EXPECT_EQ(Second.Stats.CostCacheHits, 0u);
  EXPECT_EQ(Second.Stats.SessionHits, 1u);
  ASSERT_NE(First.best(), nullptr);
  ASSERT_NE(Second.best(), nullptr);
  EXPECT_GT(First.best()->TFlops, Second.best()->TFlops);

  // Every field is part of the calibration: perturbing any one of them
  // alone must miss the warm cost cache and report what a fresh tuner
  // times.
  const std::vector<std::pair<const char *, void (*)(SimConfig &)>> Fields =
      {{"ClockGHz", [](SimConfig &C) { C.ClockGHz *= 0.5; }},
       {"TensorCoreFlopsPerCycle",
        [](SimConfig &C) { C.TensorCoreFlopsPerCycle *= 0.25; }},
       {"TmaBytesPerCycle", [](SimConfig &C) { C.TmaBytesPerCycle *= 0.5; }},
       {"SimtGlobalBytesPerCycle",
        [](SimConfig &C) { C.SimtGlobalBytesPerCycle *= 0.01; }},
       {"SimtLocalBytesPerCycle",
        [](SimConfig &C) { C.SimtLocalBytesPerCycle *= 0.01; }},
       {"SimtFlopsPerCycle",
        [](SimConfig &C) { C.SimtFlopsPerCycle *= 0.5; }},
       {"GlobalLatency", [](SimConfig &C) { C.GlobalLatency *= 2.0; }},
       {"TensorCoreLatency",
        [](SimConfig &C) { C.TensorCoreLatency *= 2.0; }},
       {"SimtLatency", [](SimConfig &C) { C.SimtLatency *= 2.0; }},
       {"BarrierLatency", [](SimConfig &C) { C.BarrierLatency = 300.0; }},
       {"DramBytesPerSec", [](SimConfig &C) { C.DramBytesPerSec *= 0.01; }},
       {"NumSMs", [](SimConfig &C) { C.NumSMs = 4; }},
       {"BlockOverhead", [](SimConfig &C) { C.BlockOverhead *= 100.0; }}};
  ASSERT_EQ(Fields.size() * sizeof(double), sizeof(SimConfig));
  for (const auto &[Name, Perturb] : Fields) {
    SCOPED_TRACE(Name);
    SimConfig Sim;
    Perturb(Sim);
    TuneResult Warm =
        Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget(), Sim);
    class Tuner Fresh(Session);
    TuneResult Cold =
        Fresh.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget(), Sim);
    EXPECT_EQ(Warm.Stats.CostCacheHits, 0u);
    ASSERT_NE(Warm.best(), nullptr);
    ASSERT_NE(Cold.best(), nullptr);
    EXPECT_EQ(Warm.best()->TFlops, Cold.best()->TFlops);
  }
}

TEST(Tuner, RankingTiesTFlopsAFewUlpsApartInEvaluationOrder) {
  // Extrapolated and fully timed runs of one mapping may differ in the
  // last bits; such rows tie, and the earlier evaluation ranks first.
  auto Row = [](const char *Name, double TFlops, CandidateStatus Status) {
    CandidateResult R;
    R.Point = TuningPoint({{Name, 0}});
    R.Status = Status;
    R.TFlops = TFlops;
    return R;
  };
  const double Base = 901.4;
  double Up = Base;
  for (int I = 0; I < 4; ++I)
    Up = std::nextafter(Up, 2 * Base);
  std::vector<CandidateResult> Landscape = {
      Row("error", 0.0, CandidateStatus::CompileError),
      Row("first", Base, CandidateStatus::Evaluated),
      Row("pruned", 0.0, CandidateStatus::Pruned),
      Row("second", Up, CandidateStatus::Evaluated),
      Row("slower", Base * (1 - 1e-6), CandidateStatus::Evaluated),
      Row("third", std::nextafter(Base, 0.0), CandidateStatus::Evaluated),
      Row("faster", Base * (1 + 1e-6), CandidateStatus::Evaluated)};
  rankLandscape(Landscape);
  std::vector<std::string> Order;
  for (const CandidateResult &R : Landscape)
    Order.push_back(R.Point.values()[0].first);
  EXPECT_EQ(Order,
            (std::vector<std::string>{"faster", "first", "second", "third",
                                      "slower", "error", "pruned"}));

  EXPECT_LT(tflopsRankKey(Base), tflopsRankKey(Base * (1 + 1e-8)));
  EXPECT_LT(tflopsRankKey(std::nan("")), tflopsRankKey(1e-9));
  EXPECT_EQ(tflopsRankKey(0.0), tflopsRankKey(-1.0));
}

TEST(Tuner, OverlappingSweepsShareTheSessionKernelCache) {
  CompilerSession Session;
  Tuner Tuner(Session);
  GemmConfig Base = smallGemm();

  // PIPE=2 appears in both sweeps with identical full configs; the second
  // sweep's evaluation replays from the cost cache (same kernel, same sim).
  TuneResult First = Tuner.tuneBudgeted(
      gemmSearchSpec(Base, {{"PIPE", {1, 2}}}), MachineModel::h100(),
      TuneBudget());
  TuneResult Second = Tuner.tuneBudgeted(
      gemmSearchSpec(Base, {{"PIPE", {2, 3}}}), MachineModel::h100(),
      TuneBudget());
  EXPECT_EQ(Second.Stats.CostCacheHits, 1u);
  EXPECT_EQ(Second.Stats.PipelinesRun, 1u);

  Tuner.clearCostCache();
  EXPECT_EQ(Tuner.costCacheSize(), 0u);
  // With the cost cache cleared, the session's kernel cache still spares
  // the pipeline: all three depths are resident.
  TuneResult Third = Tuner.tuneBudgeted(
      gemmSearchSpec(Base, {{"PIPE", {1, 2, 3}}}), MachineModel::h100(),
      TuneBudget());
  EXPECT_EQ(Third.Stats.PipelinesRun, 0u);
  EXPECT_EQ(Third.Stats.SessionHits, 3u);
}

TEST(Tuner, CompileErrorsAreReportedWithPassProvenance) {
  // Disable pruning so a register-infeasible candidate reaches the pass
  // pipeline: the tuner must surface the allocator's diagnostic, tagged
  // with the failing pass, instead of caching or mis-ranking it.
  GemmConfig Bad;
  Bad.M = Bad.N = Bad.K = 512;
  Bad.U = 128;
  Bad.V = 256;
  Bad.WGS = 1; // 1024 bytes/thread of accumulator: register overflow.
  KernelSearchSpec Spec = gemmSearchSpec(Bad, {{"PIPE", {2}}});
  Spec.Feasible = nullptr; // Disable pruning: the pipeline must catch it.

  CompilerSession Session;
  Tuner Tuner(Session);
  TuneResult Result =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget());
  ASSERT_EQ(Result.Landscape.size(), 1u);
  EXPECT_EQ(Result.Landscape[0].Status, CandidateStatus::CompileError);
  EXPECT_NE(Result.Landscape[0].Detail.find("resource-allocation"),
            std::string::npos);
  EXPECT_EQ(Result.best(), nullptr);
  EXPECT_EQ(Result.Stats.CompileErrors, 1u);
}

TEST(Tuner, RacingMappingsAreRejectedNeverRanked) {
  // FA2 at sequence 4096 with K pipelined deeper than V: the allocator
  // aliases two multi-buffered tiles (ROADMAP item 1), so the simulator
  // reports shared-memory hazards. Its race-free PIPE_V = 3 sibling times
  // the same, and ties keep evaluation order, so ranked by speed alone the
  // racing mapping (enumerated first) would win.
  KernelSearchSpec Spec = attentionSearchSpec(
      fa2Config(4096), {{"BR", {192}},
                        {"BC", {128}},
                        {"WGS", {3}},
                        {"PIPE", {2}},
                        {"PIPE_K", {3}},
                        {"PIPE_V", {2, 3}},
                        {"SMEM", {0}}});
  CompilerSession Session;
  Tuner Tuner(Session);
  TuneResult Result =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget());
  ASSERT_EQ(Result.Landscape.size(), 2u);
  EXPECT_EQ(Result.Stats.RaceRejections, 1u);

  const CandidateResult *Best = Result.best();
  ASSERT_NE(Best, nullptr);
  EXPECT_EQ(Best->Point.at("PIPE_V"), 3);
  ErrorOr<SimResult> BestTiming = Best->Kernel->runTiming();
  ASSERT_TRUE(BestTiming);
  EXPECT_TRUE(BestTiming->Races.empty());

  const CandidateResult &Racer = Result.Landscape[1];
  EXPECT_EQ(Racer.Point.at("PIPE_V"), 2);
  EXPECT_EQ(Racer.Status, CandidateStatus::SimError);
  EXPECT_EQ(Racer.TFlops, 0.0);
  ErrorOr<SimResult> RacerTiming = Racer.Kernel->runTiming();
  ASSERT_TRUE(RacerTiming);
  ASSERT_FALSE(RacerTiming->Races.empty());
  EXPECT_NE(Racer.Detail.find(RacerTiming->Races.front()), std::string::npos)
      << Racer.Detail;
  EXPECT_GE(tflopsRankKey(RacerTiming->TFlops), tflopsRankKey(Best->TFlops));

  // Only the race-free row is memoized: a repeat sweep replays it from the
  // cost cache and rejects the racing one again.
  EXPECT_EQ(Tuner.costCacheSize(), 1u);
  TuneResult Again =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget());
  EXPECT_EQ(Again.Stats.CostCacheHits, 1u);
  EXPECT_EQ(Again.Stats.RaceRejections, 1u);
  ASSERT_NE(Again.best(), nullptr);
  EXPECT_EQ(Again.best()->Point.at("PIPE_V"), 3);
}

//===----------------------------------------------------------------------===//
// Lazy enumeration and the guided spaces
//===----------------------------------------------------------------------===//

TEST(MappingSpace, LazyEnumerationMatchesMaterializedPointForPoint) {
  // The lazy index decode must reproduce the eager odometer exactly:
  // same points, same order, same verdicts — flat indices are part of the
  // guided search's determinism contract.
  GemmConfig Base = smallGemm();
  KernelSearchSpec Spec = gemmSearchSpec(Base, gemmGuidedAxes());
  MappingSpace Space(Spec, MachineModel::h100());
  const std::vector<MappingSpace::Candidate> &All = Space.candidates();
  ASSERT_EQ(All.size(), Space.size());
  size_t Feasible = 0;
  std::unordered_set<uint64_t> Fingerprints;
  Fingerprints.reserve(Space.size());
  for (size_t I = 0; I < Space.size(); ++I) {
    MappingSpace::Candidate Lazy = Space.candidateAt(I);
    ASSERT_EQ(Lazy.Point, All[I].Point) << "index " << I;
    ASSERT_EQ(Lazy.feasible(), All[I].feasible()) << "index " << I;
    Feasible += Lazy.feasible() ? 1 : 0;
    // Distinct points must get distinct 64-bit fingerprints (the guided
    // search's visited-set would silently skip points on a collision).
    EXPECT_TRUE(Fingerprints.insert(Lazy.Point.fingerprint()).second)
        << "fingerprint collision at index " << I;
  }
  EXPECT_EQ(Space.feasibleCount(), Feasible);
  // Equal points hash equal, across separately-built instances.
  EXPECT_EQ(Space.pointAt(7).fingerprint(),
            Space.candidateAt(7).Point.fingerprint());
}

TEST(MappingSpace, GuidedSpacesClearTheScaleFloors) {
  // The tentpole's space-size bar: >= 10^4 statically feasible gemm
  // points and >= 10^3 attention points on H100.
  KernelSearchSpec Gemm = gemmSearchSpec(GemmConfig(), gemmGuidedAxes());
  MappingSpace GemmSpace(Gemm, MachineModel::h100());
  EXPECT_GE(GemmSpace.size(), 10000u);
  EXPECT_GE(GemmSpace.feasibleCount(), 10000u);

  KernelSearchSpec Attn =
      attentionSearchSpec(fa2Config(4096), attentionGuidedAxes());
  MappingSpace AttnSpace(Attn, MachineModel::h100());
  EXPECT_GE(AttnSpace.feasibleCount(), 1000u);
}

TEST(MappingSpace, GemmStreamAxisPrunesAgreeWithTheCompiler) {
  // Same soundness bar as CapacityPrunesAgreeWithTheCompiler, for every
  // new axis: per-stream pipeline depths (PIPE_A/PIPE_B), exec-unit
  // assignment (TMA_A/TMA_B), and the shared-memory cap (SMEM). A
  // capacity rejection must imply a pipeline rejection, and every
  // feasible point must compile — including SIMT-pinned copies and
  // per-stream depths the allocator sizes individually.
  GemmConfig Base = smallGemm();
  KernelSearchSpec Spec = gemmSearchSpec(
      Base, {{"U", {128}}, {"V", {256}}, {"PIPE", {2}}, {"WGS", {2}},
             {"PIPE_A", {0, 5}}, {"PIPE_B", {0, 5}}, {"TMA_A", {0, 1}},
             {"TMA_B", {0, 1}}, {"SMEM", {0, 64}}});
  MappingSpace Space(Spec, MachineModel::h100());
  ASSERT_GT(Space.prunedCount(), 0u);
  ASSERT_GT(Space.feasibleCount(), 0u);
  for (const MappingSpace::Candidate &Cand : Space.candidates()) {
    TaskRegistry Registry;
    Spec.Register(Registry);
    MappingSpec Mapping = Spec.BuildMapping(Cand.Point);
    std::vector<TensorType> Args = Spec.BuildArgs(Cand.Point);
    CompileInput Input{&Registry, &Mapping, &MachineModel::h100(), Args};
    ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
        compileKernel(Input, "gemm");
    if (Cand.feasible()) {
      EXPECT_TRUE(Kernel) << Cand.Point.str() << ": "
                          << Kernel.diagnostic().message();
    } else if (Cand.Rejection->message().find("WGMMA") == std::string::npos) {
      EXPECT_FALSE(Kernel) << Cand.Point.str()
                           << " pruned for a capacity reason ("
                           << Cand.Rejection->message()
                           << ") but the pipeline accepted it";
    }
  }
}

TEST(MappingSpace, AttentionStreamAxisPrunesAgreeWithTheCompiler) {
  // The attention analogue: PIPE_K/PIPE_V overrides and the SMEM cap.
  KernelSearchSpec Spec = attentionSearchSpec(
      fa2Config(2048),
      {{"BC", {64, 128}}, {"PIPE", {2}}, {"PIPE_K", {0, 6}},
       {"PIPE_V", {0, 6}}, {"SMEM", {0, 96}}});
  MappingSpace Space(Spec, MachineModel::h100());
  ASSERT_GT(Space.prunedCount(), 0u);
  ASSERT_GT(Space.feasibleCount(), 0u);
  for (const MappingSpace::Candidate &Cand : Space.candidates()) {
    TaskRegistry Registry;
    Spec.Register(Registry);
    MappingSpec Mapping = Spec.BuildMapping(Cand.Point);
    std::vector<TensorType> Args = Spec.BuildArgs(Cand.Point);
    CompileInput Input{&Registry, &Mapping, &MachineModel::h100(), Args};
    ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
        compileKernel(Input, "fa");
    if (Cand.feasible()) {
      EXPECT_TRUE(Kernel) << Cand.Point.str() << ": "
                          << Kernel.diagnostic().message();
    } else if (Cand.Rejection->message().find("WGMMA") == std::string::npos) {
      EXPECT_FALSE(Kernel) << Cand.Point.str()
                           << " pruned for a capacity reason ("
                           << Cand.Rejection->message()
                           << ") but the pipeline accepted it";
    }
  }
}

//===----------------------------------------------------------------------===//
// Budgeted anytime search
//===----------------------------------------------------------------------===//

namespace {

/// The full visit record of a budgeted run: every landscape row's point in
/// ranked order plus the curve's evaluation counts. Two runs with the same
/// signature visited the same points in the same batches and agreed on
/// every comparison.
std::string visitSignature(const TuneResult &Result) {
  std::string Sig;
  for (const CandidateResult &Row : Result.Landscape) {
    Sig += Row.Point.str();
    Sig += '|';
  }
  for (const TuneResult::CurvePoint &C : Result.Curve) {
    Sig += std::to_string(C.Evals);
    Sig += ';';
  }
  return Sig;
}

} // namespace

TEST(Tuner, GuidedSearchIsDeterministicAcrossWorkerCountsAndReruns) {
  // The determinism contract, pinned the way SimulatorParityTest pins
  // batched evaluation: identical best and identical visit sequence at 1, 2, and 8
  // workers, on repeat runs, and with a warm cost cache.
  KernelSearchSpec Spec = gemmSearchSpec(GemmConfig(), gemmGuidedAxes());
  TuneBudget Budget;
  Budget.MaxEvals = 32;

  std::string Reference;
  std::string BestPoint;
  double BestTFlops = 0.0;
  for (unsigned Workers : {1u, 2u, 8u}) {
    SessionConfig Config;
    Config.Workers = Workers;
    CompilerSession Session(Config);
    Tuner Tuner(Session);
    TuneResult Cold =
        Tuner.tuneBudgeted(Spec, MachineModel::h100(), Budget);
    ASSERT_NE(Cold.best(), nullptr);
    if (Reference.empty()) {
      Reference = visitSignature(Cold);
      BestPoint = Cold.best()->Point.str();
      BestTFlops = Cold.best()->TFlops;
    }
    EXPECT_EQ(visitSignature(Cold), Reference) << Workers << " workers";
    EXPECT_EQ(Cold.best()->Point.str(), BestPoint);
    EXPECT_DOUBLE_EQ(Cold.best()->TFlops, BestTFlops);

    // Warm rerun on the same tuner: every evaluation replays from the
    // cost cache, and the visit sequence must not move an inch.
    TuneResult Warm =
        Tuner.tuneBudgeted(Spec, MachineModel::h100(), Budget);
    EXPECT_EQ(Warm.Stats.CostCacheHits, Warm.Stats.Evals);
    EXPECT_EQ(Warm.Stats.PipelinesRun, 0u);
    EXPECT_EQ(visitSignature(Warm), Reference);
  }
}

TEST(Tuner, GuidedFindsLegacyBestWithHalfThePipelines) {
  // The acceptance bar on the legacy 24-point grid: within 1% of the
  // exhaustive best while running at most half the pipelines.
  KernelSearchSpec Spec = gemmSearchSpec(GemmConfig(), gemmSweepAxes());

  CompilerSession ExhaustiveSession;
  Tuner Exhaustive(ExhaustiveSession);
  TuneResult Full =
      Exhaustive.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget());
  ASSERT_NE(Full.best(), nullptr);

  CompilerSession GuidedSession;
  Tuner Guided(GuidedSession);
  TuneBudget Budget;
  Budget.MaxEvals = Full.Stats.PipelinesRun / 2;
  TuneResult Result =
      Guided.tuneBudgeted(Spec, MachineModel::h100(), Budget);
  ASSERT_NE(Result.best(), nullptr);
  EXPECT_LE(Result.Stats.PipelinesRun, Full.Stats.PipelinesRun / 2);
  EXPECT_GE(Result.best()->TFlops, 0.99 * Full.best()->TFlops);
  ASSERT_FALSE(Result.Curve.empty());
  EXPECT_EQ(Result.Curve.back().Evals, Result.Stats.Evals);
}

TEST(Tuner, BudgetedFallsBackToExhaustiveOnSmallSpaces) {
  // Spaces brute force can afford get brute force: one round, every
  // feasible point evaluated, and every pruned point listed after the
  // evaluated rows, in enumeration order, with its rejection.
  KernelSearchSpec Spec = gemmSearchSpec(smallGemm(), smallAxes());
  MappingSpace Space(Spec, MachineModel::h100());
  CompilerSession Session;
  Tuner Tuner(Session);
  TuneResult Result =
      Tuner.tuneBudgeted(Spec, MachineModel::h100(), TuneBudget());
  ASSERT_NE(Result.best(), nullptr);
  EXPECT_EQ(Result.Stats.Rounds, 1u);
  EXPECT_EQ(Result.Stats.Evals, Space.feasibleCount());
  EXPECT_EQ(Result.Stats.Pruned, Space.prunedCount());
  ASSERT_EQ(Result.Landscape.size(), Space.size());

  size_t Row = Space.feasibleCount();
  for (size_t I = 0; I < Row; ++I)
    EXPECT_EQ(Result.Landscape[I].Status, CandidateStatus::Evaluated);
  for (const MappingSpace::Candidate &Cand : Space.candidates()) {
    if (Cand.feasible())
      continue;
    const CandidateResult &Pruned = Result.Landscape[Row++];
    EXPECT_EQ(Pruned.Point, Cand.Point);
    EXPECT_EQ(Pruned.Status, CandidateStatus::Pruned);
    EXPECT_EQ(Pruned.Kernel, nullptr);
    EXPECT_EQ(Pruned.Detail, Cand.Rejection->message());
  }
  EXPECT_EQ(Row, Space.size());
}

TEST(Tuner, WallClockBudgetStillCompletesOneRound) {
  // The anytime contract: even an already-expired wall budget yields a
  // best-effort candidate from one completed round.
  KernelSearchSpec Spec = gemmSearchSpec(GemmConfig(), gemmGuidedAxes());
  CompilerSession Session;
  Tuner Tuner(Session);
  TuneBudget Budget;
  Budget.WallClockMs = 0.0001;
  TuneResult Result = Tuner.tuneBudgeted(Spec, MachineModel::h100(), Budget);
  EXPECT_EQ(Result.Stats.Rounds, 1u);
  ASSERT_NE(Result.best(), nullptr);
  EXPECT_GT(Result.best()->TFlops, 0.0);
}

TEST(Tuner, AttentionSweepFindsThePaperTuning) {
  // On the default attention axes the paper's FA2 tuning (three consumer
  // warpgroups over 192-row query blocks) must at least compile and land
  // in the evaluated part of the landscape.
  CompilerSession Session;
  Tuner Tuner(Session);
  TuneResult Result = Tuner.tuneBudgeted(
      attentionSearchSpec(fa2Config(2048),
                          {{"WGS", {3}}, {"BR", {192}}, {"BC", {64, 128}}}),
      MachineModel::h100(), TuneBudget());
  ASSERT_NE(Result.best(), nullptr);
  EXPECT_EQ(Result.best()->Point.at("BR"), 192);
  EXPECT_GT(Result.best()->TFlops, 0.0);
}

//===----------------------------------------------------------------------===//
// Prefix replay: siblings that differ only in depth/limit knobs
//===----------------------------------------------------------------------===//

namespace {

/// Axes that move only the mapping's depth and limit knobs (pipeline
/// depths, exec-unit pins, shared-memory cap), which the structure key
/// leaves out.
bool isKnobAxis(const std::string &Name) {
  return Name == "PIPE" || Name == "SMEM" || Name.rfind("PIPE_", 0) == 0 ||
         Name.rfind("TMA_", 0) == 0;
}

/// Samples \p Samples feasible points of \p Spec. Each is compiled twice:
/// once after a sibling (the point with its knob axes redrawn) has put its
/// prefix into a memo shared by the whole sample, and once fresh through
/// PassPipeline::defaultPipeline().run. Everything downstream must agree:
/// the IR, the shared-memory plan, the emitted CUDA and the timed cycles.
/// Sharing one memo across points of different structure is what makes a
/// too-coarse structure key fail here.
void expectReplaysMatchFreshCompiles(const KernelSearchSpec &Spec,
                                     uint64_t Seed, size_t Samples) {
  TaskRegistry Registry;
  Spec.Register(Registry);
  const MachineModel &Machine = MachineModel::h100();
  MappingSpace Space(Spec, Machine);
  SplitMix64 Rng(Seed);
  PassPipeline Pipeline = PassPipeline::defaultPipeline();
  PrefixMemo Memo;

  size_t Checked = 0, Compiled = 0;
  for (size_t Attempt = 0; Checked < Samples && Attempt < 100 * Samples;
       ++Attempt) {
    MappingSpace::Candidate Cand =
        Space.candidateAt(static_cast<size_t>(Rng.nextBelow(Space.size())));
    if (!Cand.feasible())
      continue;
    std::vector<std::pair<std::string, int64_t>> Knobs = Cand.Point.values();
    for (size_t I = 0; I < Knobs.size(); ++I)
      if (isKnobAxis(Knobs[I].first)) {
        const std::vector<int64_t> &Values = Space.axes()[I].Values;
        Knobs[I].second = Values[Rng.nextBelow(Values.size())];
      }
    TuningPoint Sibling(std::move(Knobs));
    SCOPED_TRACE(Cand.Point.str() + " replayed from " + Sibling.str());

    MappingSpec SiblingMapping = Spec.BuildMapping(Sibling);
    CompileInput SiblingInput{&Registry, &SiblingMapping, &Machine,
                              Spec.BuildArgs(Sibling)};
    MappingSpec Mapping = Spec.BuildMapping(Cand.Point);
    CompileInput Input{&Registry, &Mapping, &Machine,
                       Spec.BuildArgs(Cand.Point)};
    ASSERT_EQ(CompilerSession::structureKey(SiblingInput),
              CompilerSession::structureKey(Input));

    (void)Pipeline.run(SiblingInput, nullptr, nullptr, nullptr, &Memo,
                       CompilerSession::structureKey(SiblingInput));
    size_t ReplaysBefore = Memo.replays();
    SharedAllocation ReplayAlloc;
    PipelineStats ReplayStats;
    ErrorOr<IRModule> Replayed =
        Pipeline.run(Input, &ReplayAlloc, &ReplayStats, nullptr, &Memo,
                     CompilerSession::structureKey(Input));
    SharedAllocation FreshAlloc;
    PipelineStats FreshStats;
    ErrorOr<IRModule> Fresh =
        PassPipeline::defaultPipeline().run(Input, &FreshAlloc, &FreshStats);
    ++Checked;

    ASSERT_EQ(Memo.replays(), ReplaysBefore + 1);
    ASSERT_FALSE(ReplayStats.Passes.empty());
    EXPECT_TRUE(ReplayStats.Passes[0].Replayed);
    ASSERT_EQ(ReplayStats.Passes.size(), FreshStats.Passes.size());
    for (size_t I = 0; I < FreshStats.Passes.size(); ++I) {
      EXPECT_EQ(ReplayStats.Passes[I].Name, FreshStats.Passes[I].Name);
      EXPECT_EQ(ReplayStats.Passes[I].Replayed, I < 3);
      EXPECT_EQ(ReplayStats.Passes[I].OpsAfter, FreshStats.Passes[I].OpsAfter);
      EXPECT_EQ(ReplayStats.Passes[I].EventsAfter,
                FreshStats.Passes[I].EventsAfter);
      EXPECT_EQ(ReplayStats.Passes[I].Rewrites, FreshStats.Passes[I].Rewrites);
    }
    ASSERT_EQ(static_cast<bool>(Replayed), static_cast<bool>(Fresh));
    if (!Fresh) {
      EXPECT_EQ(Replayed.diagnostic().str(), Fresh.diagnostic().str());
      continue;
    }
    ++Compiled;
    EXPECT_EQ(printModule(*Replayed), printModule(*Fresh));
    EXPECT_EQ(ReplayAlloc.TotalBytes, FreshAlloc.TotalBytes);
    ASSERT_EQ(ReplayAlloc.Entries.size(), FreshAlloc.Entries.size());
    for (size_t I = 0; I < FreshAlloc.Entries.size(); ++I) {
      EXPECT_EQ(ReplayAlloc.Entries[I].Tensor, FreshAlloc.Entries[I].Tensor);
      EXPECT_EQ(ReplayAlloc.Entries[I].Offset, FreshAlloc.Entries[I].Offset);
      EXPECT_EQ(ReplayAlloc.Entries[I].Bytes, FreshAlloc.Entries[I].Bytes);
    }
    EXPECT_EQ(ReplayAlloc.AliasedPairs, FreshAlloc.AliasedPairs);

    CompiledKernel ReplayKernel(std::move(*Replayed), std::move(ReplayAlloc),
                                Spec.KernelName, std::move(ReplayStats));
    CompiledKernel FreshKernel(std::move(*Fresh), std::move(FreshAlloc),
                               Spec.KernelName, std::move(FreshStats));
    EXPECT_EQ(ReplayKernel.emitCuda().Source, FreshKernel.emitCuda().Source);
    ErrorOr<SimResult> ReplayTiming = ReplayKernel.runTiming();
    ErrorOr<SimResult> FreshTiming = FreshKernel.runTiming();
    ASSERT_TRUE(ReplayTiming && FreshTiming);
    EXPECT_EQ(ReplayTiming->BlockCycles, FreshTiming->BlockCycles);
  }
  EXPECT_EQ(Checked, Samples);
  // Most feasible points compile; the rest must fail identically.
  EXPECT_GT(Compiled, Samples / 2);
}

} // namespace

TEST(PrefixReplay, GemmReplaysMatchFreshCompiles) {
  GemmConfig Base;
  Base.M = Base.N = Base.K = 16384;
  expectReplaysMatchFreshCompiles(gemmSearchSpec(Base, gemmGuidedAxes()),
                                  /*Seed=*/20, /*Samples=*/100);
}

TEST(PrefixReplay, AttentionReplaysMatchFreshCompiles) {
  expectReplaysMatchFreshCompiles(
      attentionSearchSpec(fa2Config(16384), attentionGuidedAxes()),
      /*Seed=*/21, /*Samples=*/100);
  // The staged (FA3) variant adds a score tensor and its own loop nest.
  expectReplaysMatchFreshCompiles(
      attentionSearchSpec(fa3Config(16384), attentionGuidedAxes()),
      /*Seed=*/22, /*Samples=*/30);
}

TEST(PrefixReplay, ConcurrentSearchReplaysAndMatchesSerialSearch) {
  // Four workers insert into and replay from one search's memo at once;
  // the landscape must still equal a one-worker search's row for row.
  KernelSearchSpec Spec =
      attentionSearchSpec(fa2Config(16384), attentionGuidedAxes());
  TuneBudget Budget;
  Budget.MaxEvals = 32;
  std::vector<TuneResult> Results;
  for (unsigned Workers : {4u, 1u}) {
    SessionConfig Config;
    Config.Workers = Workers;
    CompilerSession Session(Config);
    Tuner Tuner(Session);
    Results.push_back(Tuner.tuneBudgeted(Spec, MachineModel::h100(), Budget));
    const TuneStats &Stats = Results.back().Stats;
    EXPECT_GT(Stats.PrefixReplays, 0u) << Workers << " workers";
    EXPECT_LT(Stats.PrefixReplays, Stats.PipelinesRun);
  }
  const TuneResult &Parallel = Results[0], &Serial = Results[1];
  ASSERT_EQ(Parallel.Landscape.size(), Serial.Landscape.size());
  for (size_t I = 0; I < Serial.Landscape.size(); ++I) {
    const CandidateResult &A = Parallel.Landscape[I], &B = Serial.Landscape[I];
    EXPECT_EQ(A.Point.str(), B.Point.str());
    EXPECT_EQ(A.Status, B.Status);
    EXPECT_EQ(A.TFlops, B.TFlops);
    EXPECT_EQ(A.SharedBytes, B.SharedBytes);
  }
}
