//===- PassManager.cpp - Instrumented compiler pass pipeline ---------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "compiler/PassManager.h"

#include "support/AllocCounter.h"
#include "support/FaultInjection.h"
#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>

using namespace cypress;

Pass::~Pass() = default;

namespace {

using Clock = std::chrono::steady_clock;

double microsSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - Start)
      .count();
}

} // namespace

/// The replayed stand-in for prefix pass \p Index: dependence analysis
/// becomes mapping validation (its only read of the knobs a structure key
/// leaves out), a clone of the memoized module and this mapping's stamps;
/// the later prefix passes have nothing left to do.
ErrorOrVoid PassPipeline::replayPass(size_t Index, const PrefixEntry &Entry,
                                     const CompileInput &Input,
                                     PipelineState &State) {
  if (Index != 0)
    return ErrorOrVoid::success();
  if (ErrorOrVoid Valid =
          Input.Mapping->validate(*Input.Registry, *Input.Machine);
      !Valid)
    return Valid.diagnostic();
  State.Module = Entry.Module.clone();
  applyMappingStamps(State.Module, Entry.Stamps, *Input.Mapping);
  return ErrorOrVoid::success();
}

PassPipeline::PassPipeline() {
  const char *Env = std::getenv("CYPRESS_PRINT_IR_AFTER_ALL");
  PrintIRAfterAll = Env && *Env && std::string(Env) != "0";
}

ErrorOr<IRModule> PassPipeline::run(const CompileInput &Input,
                                    SharedAllocation *AllocOut,
                                    PipelineStats *StatsOut,
                                    const Cancellation *Cancel,
                                    PrefixMemo *Memo,
                                    const std::string &MemoKey) const {
  PipelineState State;
  State.Input = &Input;
  CancelCheck Check;
  if (Cancel) {
    Check = CancelCheck(*Cancel);
    State.Cancel = &Check;
  }

  PipelineStats Stats;
  Clock::time_point PipelineStart = Clock::now();
  // The counter is global but thread-local in what it counts, so enabling
  // it here only perturbs other threads by the cost of a relaxed load per
  // allocation; the per-pass diffs below see this thread alone.
  bool WasCounting = allocCountingEnabled();
  if (CountAllocs)
    setAllocCounting(true);
  auto Finish = [&]() {
    if (CountAllocs)
      setAllocCounting(WasCounting);
    Stats.TotalMicros = microsSince(PipelineStart);
    if (StatsOut)
      *StatsOut = std::move(Stats);
  };

  // Prefix replay: off while dumping IR, so every dump is a real run.
  size_t Prefix = std::min(ReplayablePrefix, Passes.size());
  if (!Memo || PrintIRAfterAll)
    Prefix = 0;
  std::shared_ptr<const PrefixEntry> Replay =
      Prefix ? Memo->find(MemoKey) : nullptr;

  for (size_t I = 0; I < Passes.size(); ++I) {
    Pass *P = Passes[I].get();
    bool Replayed = Replay && I < Prefix;
    // Between-pass checkpoint: the exact variant, since pass boundaries
    // are rare enough that a real clock read per pass is free.
    if (Check.enabled() && Check.shouldStopNow()) {
      Finish();
      return Check.diagnostic(
          formatString("compilation (before pass '%s')", P->name()));
    }

    // Injected faults surface here, at the boundary a real wedged or
    // buggy pass would, and return directly so the Infeasible
    // reclassification below never touches them: injected failures are
    // transient by definition and must stay uncacheable.
    if (FaultPlan::global().armed()) {
      int64_t DelayMicros = 0;
      if (faultFires(FaultSite::SlowPass, P->name(), &DelayMicros) &&
          DelayMicros > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(DelayMicros));
      if (faultFires(FaultSite::FailPass, P->name())) {
        Finish();
        Diagnostic Diag(Diagnostic::Code::Internal,
                        formatString("injected failure in pass '%s'",
                                     P->name()));
        Diag.setPass(P->name());
        return Diag;
      }
    }

    PassStat Stat;
    Stat.Name = P->name();
    State.Counters = PassCounters();

    uint64_t AllocsBefore = CountAllocs ? threadAllocCount() : 0;
    Clock::time_point PassStart = Clock::now();
    ErrorOrVoid Result = Replayed ? replayPass(I, *Replay, Input, State)
                                  : P->run(State);
    Stat.Micros = microsSince(PassStart);
    if (CountAllocs)
      Stat.HeapAllocs = threadAllocCount() - AllocsBefore;
    if (Replayed) {
      const PassStat &Memoized = Replay->Stats[I];
      Stat.Rewrites = Memoized.Rewrites;
      Stat.WorklistPops = Memoized.WorklistPops;
      Stat.OpsAfter = Memoized.OpsAfter;
      Stat.EventsAfter = Memoized.EventsAfter;
      Stat.TensorsAfter = Memoized.TensorsAfter;
      Stat.Replayed = true;
    } else {
      Stat.Rewrites = State.Counters.Rewrites;
      Stat.WorklistPops = State.Counters.WorklistPops;
      Stat.OpsAfter = countOps(State.Module);
      Stat.EventsAfter = State.Module.numEvents();
      Stat.TensorsAfter = State.Module.tensors().size();
    }

    if (!Result) {
      Stats.Passes.push_back(std::move(Stat));
      Finish();
      Diagnostic Diag = Result.diagnostic();
      if (Diag.passName().empty())
        Diag.setPass(P->name());
      // An uncoded pass rejection is a deterministic property of the
      // input (the pipeline is pure), so classify it Infeasible; coded
      // diagnostics — checkpoint exits above all — pass through.
      if (Diag.code() == Diagnostic::Code::Internal)
        Diag.setCode(Diagnostic::Code::Infeasible);
      return Diag;
    }

    if (PrintIRAfterAll) {
      std::ostream &OS = PrintStream ? *PrintStream : std::cerr;
      OS << "// --- IR after " << P->name() << " ---\n"
         << printModule(State.Module) << '\n';
    }

    if (P->verifyAfter() && !Replayed) {
      Clock::time_point VerifyStart = Clock::now();
      ErrorOrVoid Verified = verifyModule(State.Module);
      Stat.VerifyMicros = microsSince(VerifyStart);
      if (!Verified) {
        Stats.Passes.push_back(std::move(Stat));
        Finish();
        Diagnostic Diag(Diagnostic::Code::VerifyFailed,
                        formatString(
                            "verification failed after pass '%s': %s",
                            P->name(),
                            Verified.diagnostic().message().c_str()));
        Diag.setPass(P->name());
        return Diag;
      }
    }
    Stats.Passes.push_back(std::move(Stat));

    if (Prefix && I + 1 == Prefix) {
      if (Replay) {
        Memo->noteReplay();
      } else {
        auto Entry = std::make_shared<PrefixEntry>();
        Entry->Module = State.Module.clone();
        Entry->Stamps = std::move(State.Stamps);
        Entry->Stats = Stats.Passes;
        Memo->insert(MemoKey, std::move(Entry));
      }
    }
  }

  if (AllocOut)
    *AllocOut = std::move(State.Alloc);
  Finish();
  return std::move(State.Module);
}

PassPipeline PassPipeline::defaultPipeline() {
  PassPipeline Pipeline;
  Pipeline.addPass(createDependenceAnalysisPass());
  Pipeline.addPass(createVectorizationPass());
  Pipeline.addPass(createCopyEliminationPass());
  Pipeline.addPass(createAssignExecUnitsPass());
  Pipeline.addPass(createResourceAllocationPass());
  Pipeline.addPass(createRepairEventScopesPass());
  Pipeline.addPass(createWarpSpecializationPass());
  Pipeline.ReplayablePrefix = 3; // Through copy elimination.
  return Pipeline;
}
