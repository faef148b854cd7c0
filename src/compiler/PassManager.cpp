//===- PassManager.cpp - Instrumented compiler pass pipeline ---------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "compiler/PassManager.h"

#include "support/AllocCounter.h"
#include "support/FaultInjection.h"
#include "support/Format.h"

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string_view>
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

PassPipeline::PassPipeline() {
  const char *Env = std::getenv("CYPRESS_PRINT_IR_AFTER_ALL");
  PrintIRAfterAll = Env && *Env && std::string(Env) != "0";
}

ErrorOr<IRModule> PassPipeline::run(const CompileInput &Input,
                                    SharedAllocation *AllocOut,
                                    PipelineStats *StatsOut,
                                    const Cancellation *Cancel) const {
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

  for (const std::unique_ptr<Pass> &P : Passes) {
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
      if (std::string_view(P->name()) == "resource-allocation" &&
          faultFires(FaultSite::AllocFail, P->name())) {
        Finish();
        Diagnostic Diag(Diagnostic::Code::Internal,
                        "injected shared-memory allocation failure");
        Diag.setPass(P->name());
        return Diag;
      }
    }

    PassStat Stat;
    Stat.Name = P->name();
    State.Counters = PassCounters();

    uint64_t AllocsBefore = CountAllocs ? threadAllocCount() : 0;
    Clock::time_point PassStart = Clock::now();
    ErrorOrVoid Result = P->run(State);
    Stat.Micros = microsSince(PassStart);
    if (CountAllocs)
      Stat.HeapAllocs = threadAllocCount() - AllocsBefore;
    Stat.Rewrites = State.Counters.Rewrites;
    Stat.WorklistPops = State.Counters.WorklistPops;
    Stat.OpsAfter = countOps(State.Module);
    Stat.EventsAfter = State.Module.numEvents();
    Stat.TensorsAfter = State.Module.tensors().size();

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

    if (VerifyEachPass && P->verifyAfter()) {
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
  return Pipeline;
}
