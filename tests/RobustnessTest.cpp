//===- RobustnessTest.cpp - Serving-core hardening tests -----------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault matrix for the hardened serving core: cooperative deadlines
/// and cancellation (support/Cancel.h) observed by the pass pipeline, the
/// simulator, and the CPU lowering; CompilerSession admission control,
/// shutdown, and worker-throw containment; and the deterministic fault
/// injector (support/FaultInjection.h) that drives all of it. The
/// invariants under test: every failure is a structured Diagnostic (never
/// a crash, hang, or partial cache entry), transient failures are never
/// memoized, and the tuner degrades gracefully — quarantining faulted
/// candidates while keeping its landscape bit-identical at any worker
/// count under the same seed and fault spec.
///
/// Most tests install their fault plan explicitly through ScopedFaultSpec
/// so they are deterministic under any environment; the FaultMatrix test
/// at the bottom instead consumes whatever CYPRESS_FAULT_SPEC armed — the
/// CI fault-injection job runs it across a spec matrix.
///
//===----------------------------------------------------------------------===//

#include "autotune/KernelSpaces.h"
#include "autotune/Tuner.h"
#include "backend/CpuLowering.h"
#include "kernels/Kernels.h"
#include "runtime/Session.h"
#include "sim/AgentSchedule.h"
#include "support/FaultInjection.h"
#include "TestKernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace cypress;

namespace {

/// Installs a fault spec for one test block; the destructor reinstalls the
/// plan that was active before (for a top-level scope, whatever
/// CYPRESS_FAULT_SPEC armed — with fresh '@n' counters), so a binary run
/// with the environment armed still feeds the FaultMatrix test its plan.
/// Tests whose expectations assume fault-free serving install "" to
/// disarm explicitly.
class ScopedFaultSpec {
public:
  explicit ScopedFaultSpec(const std::string &Spec)
      : Saved(FaultPlan::global().spec()) {
    ErrorOrVoid Ok = FaultPlan::global().configure(Spec);
    EXPECT_TRUE(Ok) << (Ok ? "" : Ok.diagnostic().message());
  }
  ~ScopedFaultSpec() { FaultPlan::global().configure(Saved); }

private:
  std::string Saved;
};

/// The session-level compile fixture RuntimeTest pins: a square GEMM whose
/// registry/mapping/arg-types live as long as the test.
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

GemmConfig smallGemm() {
  GemmConfig Config;
  Config.M = Config.N = Config.K = 512;
  return Config;
}

/// The explorer grid AutotuneTest sweeps (16 points, a few statically
/// pruned).
std::vector<TuningAxis> smallAxes() {
  return {{"U", {64, 128}}, {"V", {128, 256}}, {"PIPE", {1, 2}},
          {"WGS", {1, 2}}};
}

} // namespace

//===----------------------------------------------------------------------===//
// Cancellation primitives
//===----------------------------------------------------------------------===//

TEST(Robustness, DeadlinePrimitives) {
  EXPECT_FALSE(Deadline::never().active());
  EXPECT_FALSE(Deadline::never().expired());
  EXPECT_GT(Deadline::never().remainingMicros(), 1e17);

  Deadline Past = Deadline::afterMicros(-1000.0);
  EXPECT_TRUE(Past.active());
  EXPECT_TRUE(Past.expired());
  EXPECT_LT(Past.remainingMicros(), 0.0);

  Deadline Future = Deadline::afterMillis(60000.0);
  EXPECT_TRUE(Future.active());
  EXPECT_FALSE(Future.expired());

  // An inert Cancellation never enables a check — the parity-suite
  // guarantee that plumbing nullptr/default changes nothing.
  EXPECT_FALSE(Cancellation().active());
  EXPECT_FALSE(CancelCheck().enabled());
  EXPECT_FALSE(CancelCheck(Cancellation()).enabled());

  EXPECT_EQ(cancelDiagnostic(Diagnostic::Code::Cancelled, "work").message(),
            "request cancelled during work");
  EXPECT_EQ(
      cancelDiagnostic(Diagnostic::Code::DeadlineExceeded, "work").message(),
      "deadline exceeded during work");
}

TEST(Robustness, CancelCheckPollsTokensEveryCallAndClockByStride) {
  // Tokens fire on the very next poll regardless of stride.
  CancelToken Token;
  CancelCheck OnToken(Cancellation(Deadline::never(), &Token), /*Stride=*/64);
  EXPECT_TRUE(OnToken.enabled());
  EXPECT_FALSE(OnToken.shouldStop());
  Token.cancel();
  EXPECT_TRUE(OnToken.shouldStop());
  EXPECT_EQ(OnToken.code(), Diagnostic::Code::Cancelled);
  EXPECT_TRUE(OnToken.shouldStop()) << "a fired check must latch";

  // The clock is only consulted every Stride-th strided poll...
  CancelCheck Strided(Cancellation(Deadline::afterMicros(-1.0)), /*Stride=*/4);
  EXPECT_FALSE(Strided.shouldStop());
  EXPECT_FALSE(Strided.shouldStop());
  EXPECT_FALSE(Strided.shouldStop());
  EXPECT_TRUE(Strided.shouldStop());
  EXPECT_EQ(Strided.code(), Diagnostic::Code::DeadlineExceeded);

  // ...but boundary checkpoints are exact.
  CancelCheck Exact(Cancellation(Deadline::afterMicros(-1.0)));
  EXPECT_TRUE(Exact.shouldStopNow());
  Diagnostic Diag = Exact.diagnostic("tuner round");
  EXPECT_EQ(Diag.code(), Diagnostic::Code::DeadlineExceeded);
  EXPECT_TRUE(Diag.isTransient());
}

//===----------------------------------------------------------------------===//
// Fault-spec parsing and determinism
//===----------------------------------------------------------------------===//

TEST(Robustness, FaultSpecParsesAndRejectsMalformed) {
  ScopedFaultSpec Restore(""); // Reinstalls any env plan on scope exit.
  FaultPlan &Plan = FaultPlan::global();

  EXPECT_TRUE(Plan.configure(
      "seed=7; fail-pass=copy-elimination@2, worker-throw~0.25;"
      "slow-pass:1000"));
  EXPECT_TRUE(Plan.armed());

  EXPECT_FALSE(Plan.configure("bogus-site"));
  EXPECT_FALSE(Plan.configure("fail-pass@0")) << "'@n' is 1-based";
  EXPECT_FALSE(Plan.configure("worker-throw~1.5")) << "p must be in [0,1]";
  EXPECT_FALSE(Plan.configure("seed=notanumber"));

  // A failed configure must not leave a half-installed plan behind, and an
  // empty spec disarms everything.
  EXPECT_TRUE(Plan.configure(""));
  EXPECT_FALSE(Plan.armed());
  EXPECT_FALSE(faultFires(FaultSite::FailPass, "vectorization"));
}

TEST(Robustness, ProbabilisticClausesAreDeterministicPerKey) {
  ScopedFaultSpec Spec("seed=1;worker-throw~0.5");
  FaultPlan &Plan = FaultPlan::global();

  std::vector<bool> First;
  for (int I = 0; I < 32; ++I)
    First.push_back(
        Plan.shouldFire(FaultSite::WorkerThrow, "key" + std::to_string(I)));

  // Decisions hash content, never a counter: reconfiguring and replaying
  // the same keys reproduces the exact pattern.
  ASSERT_TRUE(Plan.configure("seed=1;worker-throw~0.5"));
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(Plan.shouldFire(FaultSite::WorkerThrow,
                              "key" + std::to_string(I)),
              First[I])
        << "key" << I;

  // With p=0.5 over 32 keys both outcomes must occur (the pattern is a
  // pure function of the seed, so this cannot flake).
  EXPECT_NE(std::count(First.begin(), First.end(), true), 0);
  EXPECT_NE(std::count(First.begin(), First.end(), true), 32);
}

//===----------------------------------------------------------------------===//
// Structured error taxonomy
//===----------------------------------------------------------------------===//

TEST(Robustness, DeterministicPassRejectionIsInfeasibleAndCacheable) {
  ScopedFaultSpec Disarm("");
  SessionGemm Gemm(512);
  CompileInput Bad = Gemm.input();
  Bad.EntryArgTypes.clear();

  CompilerSession Session;
  auto Result = Session.compile(Bad, "bad");
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.diagnostic().code(), Diagnostic::Code::Infeasible);
  EXPECT_FALSE(Result.diagnostic().isTransient())
      << "a pure-input rejection may be memoized by the tuner's cost cache";
  EXPECT_EQ(Result.diagnostic().passName(), "dependence-analysis");
}

//===----------------------------------------------------------------------===//
// Deadlines and cancellation through the session
//===----------------------------------------------------------------------===//

TEST(Robustness, CompileDeadlineReturnsStructuredErrorAndNothingIsCached) {
  // 20 ms per pass makes the 7-pass pipeline blow a 30 ms deadline at an
  // inter-pass checkpoint, deterministically.
  ScopedFaultSpec Spec("slow-pass:20000");
  SessionGemm Gemm(512);
  CompilerSession Session;

  CompileOptions Options;
  Options.DeadlineAt = Deadline::afterMillis(30.0);
  auto Result = Session.compile(Gemm.input(), "gemm", Options);
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.diagnostic().code(), Diagnostic::Code::DeadlineExceeded);
  EXPECT_NE(Result.diagnostic().message().find("deadline exceeded"),
            std::string::npos);
  EXPECT_EQ(Session.cacheStats().Entries, 0u) << "an abandoned compile must "
                                            "never become a cache entry";
  EXPECT_FALSE(Session.isCached(Gemm.input()));

  // The same input without a deadline compiles fine (the slow-pass clause
  // only delays), and the cache recovers.
  auto Retry = Session.compile(Gemm.input(), "gemm");
  ASSERT_TRUE(Retry) << Retry.diagnostic().message();
  EXPECT_EQ(Session.cacheStats().Entries, 1u);
}

TEST(Robustness, PreCancelledTokenShedsMissesButServesHits) {
  ScopedFaultSpec Disarm("");
  SessionGemm Gemm(512);
  CompilerSession Session;

  CancelToken Token;
  Token.cancel();
  CompileOptions Cancelled;
  Cancelled.Cancel = &Token;

  // A cancelled request sheds before any pipeline work...
  auto Shed = Session.compile(Gemm.input(), "gemm", Cancelled);
  ASSERT_FALSE(Shed);
  EXPECT_EQ(Shed.diagnostic().code(), Diagnostic::Code::Cancelled);
  EXPECT_NE(Shed.diagnostic().message().find("queued compilation"),
            std::string::npos);
  EXPECT_EQ(Session.cacheStats().Entries, 0u);

  // ...but once a kernel exists, even a cancelled request is served from
  // the cache — hits cost microseconds, cheaper than the diagnostic.
  auto Warm = Session.compile(Gemm.input(), "gemm");
  ASSERT_TRUE(Warm);
  auto Hit = Session.compile(Gemm.input(), "gemm", Cancelled);
  ASSERT_TRUE(Hit);
  EXPECT_EQ(Hit->get(), Warm->get());
  EXPECT_EQ(Session.stats().Hits, 1u);
}

//===----------------------------------------------------------------------===//
// Injected pipeline faults
//===----------------------------------------------------------------------===//

TEST(Robustness, InjectedPassFailureIsContainedAndNotCached) {
  ScopedFaultSpec Spec("fail-pass=vectorization@1");
  SessionGemm Gemm(512);
  CompilerSession Session;

  auto Result = Session.compile(Gemm.input(), "gemm");
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.diagnostic().code(), Diagnostic::Code::Internal)
      << "injected failures must stay transient, not be reclassified "
         "Infeasible like genuine pass rejections";
  EXPECT_TRUE(Result.diagnostic().isTransient());
  EXPECT_EQ(Result.diagnostic().passName(), "vectorization");
  EXPECT_NE(Result.diagnostic().message().find("injected failure"),
            std::string::npos);
  EXPECT_EQ(Session.cacheStats().Entries, 0u);

  // The '@1' clause is spent: the retry compiles and repopulates.
  auto Retry = Session.compile(Gemm.input(), "gemm");
  ASSERT_TRUE(Retry) << Retry.diagnostic().message();
  EXPECT_EQ(Session.cacheStats().Entries, 1u);
}

TEST(Robustness, InjectedPrefixFaultsReachReplayedCompilesToo) {
  // A search: copy elimination fails for every candidate, so no prefix
  // ever completes, nothing is memoized, replayed or cached, and every row
  // carries the injected diagnostic.
  {
    ScopedFaultSpec Spec("fail-pass=copy-elimination");
    CompilerSession Session;
    Tuner SearchTuner(Session);
    TuneBudget Budget;
    Budget.MaxEvals = 16;
    TuneResult Result = SearchTuner.tuneBudgeted(
        gemmSearchSpec(GemmConfig(), gemmGuidedAxes()), MachineModel::h100(),
        Budget);
    EXPECT_EQ(Result.Stats.Evals, 16u);
    EXPECT_EQ(Result.Stats.PrefixReplays, 0u);
    EXPECT_EQ(Result.Stats.Quarantined, Result.Stats.Evals);
    for (const CandidateResult &Row : Result.Landscape) {
      EXPECT_EQ(Row.Status, CandidateStatus::CompileError) << Row.Point.str();
      EXPECT_NE(Row.Detail.find("injected failure in pass 'copy-elimination'"),
                std::string::npos)
          << Row.Detail;
    }
    EXPECT_EQ(Session.cacheStats().Entries, 0u);
    EXPECT_EQ(SearchTuner.costCacheSize(), 0u);
  }

  // Replayed compiles: a memoized prefix skips the passes' work but not
  // their fault sites or checkpoints.
  SessionGemm Gemm(512);
  CompileInput Input = Gemm.input();
  const std::string Key = CompilerSession::structureKey(Input);
  PassPipeline Pipeline = PassPipeline::defaultPipeline();
  PrefixMemo Memo;
  {
    ScopedFaultSpec Disarm("");
    ASSERT_TRUE(Pipeline.run(Input, nullptr, nullptr, nullptr, &Memo, Key));
  }
  for (const char *Pass :
       {"dependence-analysis", "vectorization", "copy-elimination"}) {
    ScopedFaultSpec Spec(std::string("fail-pass=") + Pass);
    PipelineStats Stats;
    ErrorOr<IRModule> Module =
        Pipeline.run(Input, nullptr, &Stats, nullptr, &Memo, Key);
    ASSERT_FALSE(Module) << Pass;
    EXPECT_EQ(Module.diagnostic().passName(), Pass);
    EXPECT_NE(Module.diagnostic().message().find("injected failure"),
              std::string::npos);
    EXPECT_TRUE(Module.diagnostic().isTransient());
    for (const PassStat &Stat : Stats.Passes)
      EXPECT_TRUE(Stat.Replayed) << Stat.Name;
  }
  EXPECT_EQ(Memo.replays(), 0u) << "no replay completed its prefix";

  ScopedFaultSpec Disarm("");
  CancelToken Token;
  Token.cancel();
  Cancellation Cancelled(Deadline(), &Token);
  ErrorOr<IRModule> Stopped =
      Pipeline.run(Input, nullptr, nullptr, &Cancelled, &Memo, Key);
  ASSERT_FALSE(Stopped);
  EXPECT_EQ(Stopped.diagnostic().code(), Diagnostic::Code::Cancelled);
  EXPECT_NE(Stopped.diagnostic().message().find(
                "compilation (before pass 'dependence-analysis')"),
            std::string::npos)
      << Stopped.diagnostic().message();

  // A deadline that expires while a replayed pass is delayed stops the
  // pipeline at the next replayed pass's checkpoint.
  {
    ScopedFaultSpec Slow("slow-pass=vectorization:200000");
    Cancellation Expiring(Deadline::afterMillis(50));
    PipelineStats Stats;
    ErrorOr<IRModule> Late =
        Pipeline.run(Input, nullptr, &Stats, &Expiring, &Memo, Key);
    ASSERT_FALSE(Late);
    EXPECT_EQ(Late.diagnostic().code(), Diagnostic::Code::DeadlineExceeded);
    EXPECT_NE(Late.diagnostic().message().find(
                  "compilation (before pass 'copy-elimination')"),
              std::string::npos)
        << Late.diagnostic().message();
    ASSERT_EQ(Stats.Passes.size(), 2u);
    EXPECT_TRUE(Stats.Passes[1].Replayed);
  }

  // Disarmed, the memoized prefix replays to the same kernel.
  SharedAllocation Alloc;
  ErrorOr<IRModule> Replayed =
      Pipeline.run(Input, &Alloc, nullptr, nullptr, &Memo, Key);
  ASSERT_TRUE(Replayed);
  EXPECT_EQ(Memo.replays(), 1u);
  ErrorOr<IRModule> Fresh = PassPipeline::defaultPipeline().run(Input);
  ASSERT_TRUE(Fresh);
  EXPECT_EQ(printModule(*Replayed), printModule(*Fresh));
}

TEST(Robustness, InjectedAllocFailureSurfacesInResourceAllocation) {
  ScopedFaultSpec Spec("fail-pass=resource-allocation");
  SessionGemm Gemm(512);
  CompilerSession Session;

  auto Result = Session.compile(Gemm.input(), "gemm");
  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.diagnostic().code(), Diagnostic::Code::Internal);
  EXPECT_EQ(Result.diagnostic().passName(), "resource-allocation");
  EXPECT_EQ(Session.cacheStats().Entries, 0u);
}

//===----------------------------------------------------------------------===//
// Admission control and shutdown
//===----------------------------------------------------------------------===//

TEST(Robustness, AdmissionBoundShedsBatchTailWithOverloaded) {
  ScopedFaultSpec Disarm("");
  SessionConfig Config;
  Config.Workers = 2;
  Config.MaxQueuedRequests = 2;
  CompilerSession Session(Config);
  SessionGemm Gemm(512);

  std::vector<CompilerSession::Request> Batch(
      5, {Gemm.input(), "gemm", std::string()});
  auto Results = Session.compileAll(Batch);
  ASSERT_EQ(Results.size(), 5u);

  // Admission is a positional prefix: the first two run, the tail sheds.
  for (size_t I = 0; I < 2; ++I)
    EXPECT_TRUE(Results[I]) << "request " << I << ": "
                            << Results[I].diagnostic().message();
  for (size_t I = 2; I < 5; ++I) {
    ASSERT_FALSE(Results[I]) << "request " << I;
    EXPECT_EQ(Results[I].diagnostic().code(), Diagnostic::Code::Overloaded);
    EXPECT_NE(Results[I].diagnostic().message().find("overloaded"),
              std::string::npos);
  }

  // Slots are returned when the batch finishes: a follow-up request admits.
  auto After = Session.compile(Gemm.input(), "gemm");
  EXPECT_TRUE(After) << After.diagnostic().message();
}

TEST(Robustness, ShutdownDrainRejectsNewWorkKeepsCacheReadable) {
  ScopedFaultSpec Disarm("");
  SessionGemm Gemm(512);
  CompilerSession Session;
  auto Warm = Session.compile(Gemm.input(), "gemm");
  ASSERT_TRUE(Warm);

  Session.shutdown(ShutdownMode::Drain);
  EXPECT_FALSE(Session.acceptingRequests());

  auto Rejected = Session.compile(Gemm.input(), "gemm");
  ASSERT_FALSE(Rejected);
  EXPECT_EQ(Rejected.diagnostic().code(), Diagnostic::Code::Cancelled);
  EXPECT_NE(Rejected.diagnostic().message().find("shut down"),
            std::string::npos);

  auto BatchResults = Session.compileAll(
      {{Gemm.input(), "gemm", std::string()}});
  ASSERT_EQ(BatchResults.size(), 1u);
  EXPECT_FALSE(BatchResults[0]);

  // Cache inspection still works after shutdown, and shutdown is
  // idempotent.
  EXPECT_EQ(Session.cacheStats().Entries, 1u);
  EXPECT_TRUE(Session.isCached(Gemm.input()));
  EXPECT_EQ(Session.cacheStats().Entries, 1u);
  Session.shutdown(ShutdownMode::Drain);
}

TEST(Robustness, ShutdownAbortCancelsInFlightRequests) {
  // Park the in-flight compile in a 300 ms injected stall at vectorization
  // so shutdown(Abort) provably overlaps it; the session token is then
  // observed at the next inter-pass checkpoint.
  ScopedFaultSpec Spec("slow-pass=vectorization:300000");
  SessionGemm Gemm(512);
  CompilerSession Session;

  ErrorOr<std::shared_ptr<const CompiledKernel>> Result =
      Diagnostic("never ran");
  std::thread Client([&] { Result = Session.compile(Gemm.input(), "gemm"); });

  // The miss is counted before the pipeline starts — once it shows, the
  // request is in flight.
  while (Session.stats().Misses == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  Session.shutdown(ShutdownMode::Abort); // Returns only once drained.
  Client.join();

  ASSERT_FALSE(Result);
  EXPECT_EQ(Result.diagnostic().code(), Diagnostic::Code::Cancelled);
  EXPECT_EQ(Session.cacheStats().Entries, 0u)
      << "an aborted compile must not leave a partial cache entry";
}

//===----------------------------------------------------------------------===//
// Worker-throw containment and the concurrent-miss loser path
//===----------------------------------------------------------------------===//

TEST(Robustness, WorkerThrowCostsOneRequestNotThePool) {
  ScopedFaultSpec Spec("worker-throw@1");
  SessionGemm Small(512), Medium(1024), Large(2048);
  SessionConfig Config;
  Config.Workers = 2;
  CompilerSession Session(Config);

  std::vector<CompilerSession::Request> Batch = {
      {Small.input(), "gemm", std::string()},
      {Medium.input(), "gemm", std::string()},
      {Large.input(), "gemm", std::string()},
  };
  auto Results = Session.compileAll(Batch);
  ASSERT_EQ(Results.size(), 3u);

  // Exactly one request (whichever query arrived first) pays for the
  // throw; the pool and the other requests are untouched.
  size_t Failed = 0;
  for (const auto &R : Results) {
    if (R)
      continue;
    ++Failed;
    EXPECT_EQ(R.diagnostic().code(), Diagnostic::Code::Internal);
    EXPECT_NE(R.diagnostic().message().find("injected worker exception"),
              std::string::npos);
  }
  EXPECT_EQ(Failed, 1u);
  EXPECT_EQ(Session.cacheStats().Entries, 2u) << "the thrown compile must not "
                                            "poison the cache";

  // The pool keeps serving: the clause is spent, so a rerun of the same
  // batch compiles the missing kernel and hits the other two.
  auto Retry = Session.compileAll(Batch);
  for (size_t I = 0; I < Retry.size(); ++I)
    EXPECT_TRUE(Retry[I]) << "request " << I << ": "
                          << Retry[I].diagnostic().message();
  EXPECT_EQ(Session.cacheStats().Entries, 3u);
}

TEST(Robustness, ConcurrentMissLoserSurfacesItsOwnError) {
  // Two racing misses on one key: the injected stall at dependence-analysis
  // holds both in the pipeline long enough that both must miss, and the
  // '@2' clause fails exactly the second to reach vectorization. The loser
  // must report its own diagnostic — not silently pick up the winner's
  // kernel — and the cache must keep exactly the winner.
  ScopedFaultSpec Spec(
      "slow-pass=dependence-analysis:100000;fail-pass=vectorization@2");
  SessionGemm Gemm(512);
  CompilerSession Session;

  std::atomic<int> Ready{0};
  auto Race = [&](ErrorOr<std::shared_ptr<const CompiledKernel>> &Out) {
    Ready.fetch_add(1);
    while (Ready.load() < 2) {
    }
    Out = Session.compile(Gemm.input(), "gemm");
  };
  ErrorOr<std::shared_ptr<const CompiledKernel>> A = Diagnostic("never ran");
  ErrorOr<std::shared_ptr<const CompiledKernel>> B = Diagnostic("never ran");
  std::thread T1([&] { Race(A); });
  std::thread T2([&] { Race(B); });
  T1.join();
  T2.join();

  ASSERT_NE(bool(A), bool(B)) << "exactly one racer must fail";
  const Diagnostic &Loser = A ? B.diagnostic() : A.diagnostic();
  EXPECT_EQ(Loser.code(), Diagnostic::Code::Internal);
  EXPECT_NE(Loser.message().find("injected failure"), std::string::npos);

  EXPECT_EQ(Session.cacheStats().Entries, 1u);
  EXPECT_EQ(Session.stats().Misses, 2u);
  auto Hit = Session.compile(Gemm.input(), "gemm");
  ASSERT_TRUE(Hit);
  EXPECT_EQ(Hit->get(), (A ? A : B)->get());
}

//===----------------------------------------------------------------------===//
// Deadlines in the simulator and the CPU lowering
//===----------------------------------------------------------------------===//

TEST(Robustness, SimulatorHonorsDeadlineAndInertCancellationIsFree) {
  ScopedFaultSpec Disarm("");
  testkernels::Compiled C = testkernels::compileGemm(
      testkernels::smallGemmConfig());
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  Cancellation Expired(Deadline::afterMicros(-1.0));
  ErrorOr<SimResult> Timed = C.Kernel->runTiming(SimConfig(), &Expired);
  ASSERT_FALSE(Timed);
  EXPECT_EQ(Timed.diagnostic().code(), Diagnostic::Code::DeadlineExceeded);

  // An inactive Cancellation must be indistinguishable from passing
  // nullptr — the golden parity suites rely on this.
  Cancellation Inert;
  ErrorOr<SimResult> Plain = C.Kernel->runTiming();
  ErrorOr<SimResult> WithInert = C.Kernel->runTiming(SimConfig(), &Inert);
  ASSERT_TRUE(Plain);
  ASSERT_TRUE(WithInert);
  EXPECT_EQ(Plain->TFlops, WithInert->TFlops);
}

TEST(Robustness, DeadlineAndTokenStopLongTimingRuns) {
  ScopedFaultSpec Disarm("");
  // 131072 main-loop iterations: the extrapolating timer finishes in
  // microseconds, but timing every iteration takes far longer than the
  // budgets below, so the expansion and relaxation checkpoints must fire.
  GemmConfig Config;
  Config.M = Config.N = 4096;
  Config.K = int64_t(1) << 21;
  Config.W = 16;
  testkernels::Compiled C = testkernels::compileGemm(Config);
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  ErrorOr<SimResult> Fast = C.Kernel->runTiming();
  ASSERT_TRUE(Fast) << Fast.diagnostic().message();
  EXPECT_GT(Fast->ExtrapolatedIterations, 130000);

  auto TimeEveryIteration = [&](const Cancellation &Cancel) {
    return detail::simulateEveryIteration(
        C.Kernel->module(), C.Kernel->sharedPlan(), SimConfig(), &Cancel);
  };
  ErrorOr<SimResult> Late =
      TimeEveryIteration(Cancellation(Deadline::afterMillis(2.0)));
  ASSERT_FALSE(Late);
  EXPECT_EQ(Late.diagnostic().code(), Diagnostic::Code::DeadlineExceeded);
  EXPECT_NE(Late.diagnostic().message().find("simulation"),
            std::string::npos);

  CancelToken Token;
  std::thread Canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Token.cancel();
  });
  ErrorOr<SimResult> Stopped =
      TimeEveryIteration(Cancellation(Deadline::never(), &Token));
  Canceller.join();
  ASSERT_FALSE(Stopped);
  EXPECT_EQ(Stopped.diagnostic().code(), Diagnostic::Code::Cancelled);
}

TEST(Robustness, LazyExpansionPollsCancellationPerStep) {
  ScopedFaultSpec Disarm("");
  testkernels::Compiled C = testkernels::compileGemm(
      testkernels::headlineGemmConfig());
  ASSERT_NE(C.Kernel, nullptr) << C.Error;
  const Operation *Grid = nullptr;
  for (const std::unique_ptr<Operation> &Op : C.Kernel->module().root().Ops)
    if (Op->Kind == OpKind::PFor)
      Grid = Op.get();
  ASSERT_NE(Grid, nullptr);
  ScalarEnv BlockEnv;
  for (Processor Proc : {Processor::Block, Processor::Warpgroup,
                         Processor::Warp, Processor::Thread})
    BlockEnv.ProcIndices[Proc] = 0;

  CancelToken Token;
  Cancellation Cancel(Deadline::never(), &Token);
  AgentSchedule Model;
  ASSERT_TRUE(Model.build(C.Kernel->module(), *Grid, BlockEnv, "probe",
                          &Cancel));
  ASSERT_TRUE(Model.expandNext());
  Token.cancel();
  EXPECT_FALSE(Model.expandNext());
  ASSERT_TRUE(Model.failure());
  EXPECT_EQ(Model.failure()->code(), Diagnostic::Code::Cancelled);
  EXPECT_NE(Model.failure()->message().find("probe expansion"),
            std::string::npos);
}

TEST(Robustness, CpuLoweredExecutionHonorsCancellation) {
  ScopedFaultSpec Disarm("");
  testkernels::Compiled C = testkernels::compileGemm(
      testkernels::smallGemmConfig());
  ASSERT_NE(C.Kernel, nullptr) << C.Error;

  CancelToken Token;
  Token.cancel();
  Cancellation Cancel(Deadline::never(), &Token);
  testkernels::KernelBuffers Buffers =
      testkernels::gemmInputs(testkernels::smallGemmConfig());
  ErrorOr<LoweredStats> Stats = runCpuLowered(
      C.Kernel->module(), LeafRegistry::sharedBuiltins(), Buffers.ptrs(),
      &Cancel);
  ASSERT_FALSE(Stats);
  EXPECT_EQ(Stats.diagnostic().code(), Diagnostic::Code::Cancelled);
  EXPECT_NE(Stats.diagnostic().message().find("lowered-execution"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Tuner degradation
//===----------------------------------------------------------------------===//

TEST(Robustness, TunerQuarantineIsDeterministicAcrossWorkerCounts) {
  // Probabilistic worker throws are keyed on mapping fingerprints (pure
  // content), so the same candidates fail in every fresh session at any
  // worker count — the PR-8 bit-identical-landscape contract must survive
  // the fault matrix.
  ScopedFaultSpec Spec("seed=9;worker-throw~0.5");
  KernelSearchSpec SearchSpec = gemmSearchSpec(smallGemm(), smallAxes());

  auto Sweep = [&](unsigned Workers) {
    SessionConfig Config;
    Config.Workers = Workers;
    CompilerSession Session(Config);
    Tuner SweepTuner(Session);
    TuneResult Result =
        SweepTuner.tuneBudgeted(SearchSpec, MachineModel::h100(),
                                TuneBudget());
    EXPECT_EQ(SweepTuner.costCacheSize(),
              Result.Stats.Evals - Result.Stats.Quarantined)
        << "quarantined evaluations must never be memoized";
    return Result;
  };

  TuneResult R1 = Sweep(1), R2 = Sweep(2), R4 = Sweep(4);

  EXPECT_GT(R1.Stats.Quarantined, 0u);
  EXPECT_LT(R1.Stats.Quarantined, R1.Stats.Evals)
      << "seed 9 must fail some candidates and spare others";
  EXPECT_TRUE(R1.Partial);

  for (const TuneResult *Other : {&R2, &R4}) {
    EXPECT_EQ(Other->Stats.Evals, R1.Stats.Evals);
    EXPECT_EQ(Other->Stats.Quarantined, R1.Stats.Quarantined);
    EXPECT_EQ(Other->Partial, R1.Partial);
    ASSERT_EQ(Other->Landscape.size(), R1.Landscape.size());
    for (size_t I = 0; I < R1.Landscape.size(); ++I) {
      const CandidateResult &Lhs = R1.Landscape[I];
      const CandidateResult &Rhs = Other->Landscape[I];
      EXPECT_EQ(Lhs.Point.str(), Rhs.Point.str()) << "row " << I;
      EXPECT_EQ(Lhs.Status, Rhs.Status) << "row " << I;
      EXPECT_EQ(Lhs.Detail, Rhs.Detail) << "row " << I;
      EXPECT_EQ(Lhs.TFlops, Rhs.TFlops) << "row " << I;
    }
  }
}

TEST(Robustness, TunerDeadlineAndCancelReturnPartialBestSoFar) {
  ScopedFaultSpec Disarm("");
  Tuner DeadlineTuner;
  TuneBudget Expired;
  Expired.DeadlineAt = Deadline::afterMicros(-1.0);
  TuneResult R = DeadlineTuner.tuneBudgeted(
      gemmSearchSpec(smallGemm(), smallAxes()), MachineModel::h100(),
      Expired);
  EXPECT_TRUE(R.Partial);
  EXPECT_EQ(R.Stats.Evals, 0u);

  CancelToken Token;
  Token.cancel();
  TuneBudget Cancelled;
  Cancelled.Cancel = &Token;
  Tuner CancelTuner;
  TuneResult C = CancelTuner.tuneBudgeted(
      gemmSearchSpec(smallGemm(), smallAxes()), MachineModel::h100(),
      Cancelled);
  EXPECT_TRUE(C.Partial);
  EXPECT_EQ(C.Stats.Evals, 0u);
}

TEST(Robustness, CostCacheSelfHealsInjectedCorruption) {
  ScopedFaultSpec Disarm(""); // The healing sweeps below must run clean.
  KernelSearchSpec SearchSpec = gemmSearchSpec(smallGemm(), smallAxes());
  Tuner SweepTuner;

  TuneResult First;
  {
    // Corrupt every cost-cache insert; the returned rows are built before
    // the insert, so the first landscape is still clean.
    ScopedFaultSpec Spec("cost-corrupt");
    First = SweepTuner.tuneBudgeted(SearchSpec, MachineModel::h100(),
                                    TuneBudget());
  }
  size_t Evaluated = 0;
  for (const CandidateResult &Row : First.Landscape)
    if (Row.Status == CandidateStatus::Evaluated) {
      ++Evaluated;
      EXPECT_FALSE(std::isnan(Row.TFlops));
      EXPECT_GT(Row.TFlops, 0.0);
    }
  ASSERT_GT(Evaluated, 0u);

  // The replaying sweep detects every NaN entry, discards it, and
  // re-evaluates (through the session's kernel cache, so no pipeline
  // reruns) — corruption never reaches a ranked landscape.
  TuneResult Second = SweepTuner.tuneBudgeted(SearchSpec,
                                              MachineModel::h100(),
                                              TuneBudget());
  EXPECT_EQ(Second.Stats.CostCacheHits, Second.Stats.Evals - Evaluated)
      << "corrupt entries must re-evaluate, intact ones must replay";
  EXPECT_EQ(Second.Stats.PipelinesRun, 0u);
  ASSERT_EQ(Second.Landscape.size(), First.Landscape.size());
  for (size_t I = 0; I < First.Landscape.size(); ++I) {
    EXPECT_EQ(Second.Landscape[I].Point.str(),
              First.Landscape[I].Point.str());
    EXPECT_EQ(Second.Landscape[I].TFlops, First.Landscape[I].TFlops)
        << "row " << I;
  }

  // Healed: a third sweep replays everything from the cost cache.
  TuneResult Third = SweepTuner.tuneBudgeted(SearchSpec,
                                             MachineModel::h100(),
                                             TuneBudget());
  EXPECT_EQ(Third.Stats.CostCacheHits, Third.Stats.Evals);
}

//===----------------------------------------------------------------------===//
// The environment-driven fault matrix (CI runs this across specs)
//===----------------------------------------------------------------------===//

TEST(Robustness, FaultMatrixServesStructuredResultsUnderEnvSpec) {
  // Consumes whatever CYPRESS_FAULT_SPEC armed (a malformed spec aborts in
  // FaultPlan::global; an unset one makes this a clean-path run). The
  // invariants hold under every spec the CI matrix installs: structured
  // diagnostics, no crashes or hangs, no poisoned caches, no NaN ranks.
  SessionConfig Config;
  Config.Workers = 4;
  Config.MaxQueuedRequests = 8;
  CompilerSession Session(Config);
  SessionGemm Small(512), Large(1024);

  CompileOptions Options;
  Options.DeadlineAt = Deadline::afterMillis(60000.0);
  std::vector<CompilerSession::Request> Batch = {
      {Small.input(), "gemm", std::string()},
      {Large.input(), "gemm", std::string()},
      {Small.input(), "gemm", std::string()},
      {Large.input(), "gemm", std::string()},
  };
  for (int Round = 0; Round < 3; ++Round) {
    auto Results = Session.compileAll(Batch, nullptr, nullptr, Options);
    ASSERT_EQ(Results.size(), Batch.size());
    for (size_t I = 0; I < Results.size(); ++I) {
      if (Results[I]) {
        EXPECT_NE(Results[I]->get(), nullptr);
        continue;
      }
      EXPECT_FALSE(Results[I].diagnostic().message().empty())
          << "round " << Round << " request " << I;
    }
  }
  // Only genuinely compiled kernels may be resident.
  EXPECT_LE(Session.cacheStats().Entries, 2u);

  Tuner MatrixTuner(Session);
  TuneBudget Budget;
  Budget.DeadlineAt = Deadline::afterMillis(60000.0);
  TuneResult Result = MatrixTuner.tuneBudgeted(
      gemmSearchSpec(smallGemm(), smallAxes()), MachineModel::h100(),
      Budget);
  for (const CandidateResult &Row : Result.Landscape) {
    if (Row.Status == CandidateStatus::Evaluated) {
      EXPECT_FALSE(std::isnan(Row.TFlops)) << Row.Point.str();
      EXPECT_GT(Row.TFlops, 0.0) << Row.Point.str();
    } else {
      EXPECT_FALSE(Row.Detail.empty()) << Row.Point.str();
    }
  }
  EXPECT_EQ(MatrixTuner.costCacheSize(),
            Result.Stats.Evals - Result.Stats.CostCacheHits -
                Result.Stats.Quarantined);
}
