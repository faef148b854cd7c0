//===- Simulator.cpp - Discrete-event Hopper SM simulator ------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of both execution modes described in Simulator.h. The
/// timing model treats the TMA and Tensor Core as asynchronous units — the
/// issuing agent only pays an issue cost, and downstream operations wait on
/// the completion events the compiler wired — so schedules that overlap
/// copies, matrix ops, and SIMT math are rewarded exactly as on Hopper.
///
/// The timing model runs on the block's agent schedule (AgentSchedule.h),
/// which it shares with the CPU lowering: per-agent instance streams whose
/// waits are resolved to slots of a dense completion table, so readiness
/// checks are array loads. The timer attaches only what is timing-specific
/// — per-op costs and per-instance shared-memory byte ranges (recorded
/// through the schedule's expansion hook) — stores completion cycles in
/// the table, and caches each agent's head readiness between steps. The
/// schedule and every timing table are pooled in a thread-local scratch
/// that survives across simulation runs, which makes repeated `runTiming`
/// calls (the autotuner's candidate evaluation loop) allocation-free in
/// steady state.
///
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "sim/AgentSchedule.h"
#include "support/Format.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <array>
#include <unordered_map>

using namespace cypress;

namespace {

//===----------------------------------------------------------------------===//
// Timing simulation of one block
//===----------------------------------------------------------------------===//

/// Per-op execution cost, computed once per op.
struct Cost {
  double IssueCycles = 0;   ///< Time the issuing agent is occupied.
  double UnitCycles = 0;    ///< Occupancy of the shared unit (TMA/TC).
  double Latency = 0;       ///< Extra completion latency after transfer.
  enum class UnitKind : uint8_t { None, Tma, TensorCore } Unit = UnitKind::None;
};

/// One shared-memory operand of an op, planned once per op: an instance
/// touches bytes [Offset + Buf * BufBytes, + BufBytes), with Buf its
/// pipeline buffer index.
struct SmemOperand {
  TensorId Tensor = InvalidTensorId;
  int64_t Offset = 0, BufBytes = 0;
  AgentSchedule::IndexPlan Buf;
  bool Write = false;
};

/// Static half of a shared-memory access trace entry; Start/End are filled
/// in when the instance executes.
struct SmemPre {
  TensorId Tensor = InvalidTensorId;
  OpId Op = ~0u;
  int64_t Lo = 0, Hi = 0; ///< Byte range.
  size_t IterHash = 0;
  int32_t Wg = -1;
  bool Write = false;
};

/// Shared-memory access trace entry for the WAR race detector.
struct SmemAccess {
  TensorId Tensor;
  int64_t Lo = 0, Hi = 0; ///< Byte range.
  double Start = 0, End = 0;
  bool Write = false;
  /// Identity of the accessing instance (op id, warpgroup, iteration hash)
  /// so an instance is never raced against itself.
  OpId Op = ~0u;
  int64_t Wg = -1;
  size_t IterHash = 0;
  uint64_t Seq = 0; ///< Position in the block's access order.
};

/// A hazard between two accesses, \p First issued before \p Second.
struct RacePair {
  SmemAccess First, Second;
  bool operator<(const RacePair &O) const {
    return First.Seq != O.First.Seq ? First.Seq < O.First.Seq
                                    : Second.Seq < O.Second.Seq;
  }
};

/// Cached readiness of an agent's next instance. Exact because completion
/// slots are written once: a ready head keeps its wait until its agent
/// issues, and a blocked head cannot become ready before the slot it
/// blocked on completes.
struct AgentHead {
  enum class State : uint8_t { Unknown, Ready, Blocked };
  double Wait = 0.0;
  uint32_t Blocker = AgentSchedule::NoSlot;
  State Is = State::Unknown;
};

/// The timer at one iteration boundary of a ring loop: the accumulators,
/// and the state as Signatures[SigOff, SigOff + SigLen) (see
/// BlockTimer::atBoundary).
struct Boundary {
  int64_t Iter = 0;
  double Origin = 0; ///< Start of the latest issued instance.
  double Flops = 0, TmaBusy = 0, TcBusy = 0;
  uint32_t SigOff = 0, SigLen = 0;
};

/// All per-run state of the timing simulator, pooled across runs: every
/// table is cleared but keeps its capacity (up to PooledArenaBytes), so
/// steady-state simulation performs no allocation. One scratch exists per
/// thread (runTiming is const and may be called concurrently on shared
/// kernels).
struct TimerScratch {
  AgentSchedule Model;
  std::vector<Cost> Costs; ///< Per dense op (copies and calls reached).
  /// Op I's shared-memory operands are
  /// Operands[OperandBegin[I], OperandBegin[I + 1]).
  std::vector<SmemOperand> Operands;
  std::vector<uint32_t> OperandBegin;
  std::vector<SmemPre> SmemPres;
  /// Instance I's ranges start at SmemPres[SmemBegin[I]] and end where the
  /// next instance's start (or the arena ends).
  std::vector<uint32_t> SmemBegin;
  /// Accesses in flight, for the race sweep.
  std::vector<SmemAccess> ActiveReads, ActiveWrites;
  // Scheduler scratch.
  std::vector<uint64_t> Issued;
  std::vector<double> Ready;
  std::vector<AgentHead> Heads;
  // Steady-state detection.
  std::vector<Boundary> Boundaries;
  std::vector<double> Signatures;
};

TimerScratch &timerScratch() {
  static thread_local TimerScratch Scratch;
  return Scratch;
}

/// Times one block on the shared agent schedule: attaches per-op costs and
/// per-instance shared-memory ranges to it, picks instances in time order
/// against TMA and Tensor Core occupancy, and sweeps the accesses for
/// write-after-read hazards as they issue.
///
/// When \p Extrapolate is set, the timer compares its state at successive
/// boundaries of a ring loop's iterations. Once the state at iteration
/// i + p equals the state at i shifted by a time Delta, and the matched
/// run covers one period plus the longest access, it skips the remaining
/// whole periods: every time shifts by their count times Delta, and busy
/// cycles and flops grow by their per-period increments. It then times the
/// tail and the epilogue. docs/ARCHITECTURE.md argues why the skipped
/// periods hold no race the simulated ones do not show. A race seen by an
/// extrapolating run stops it: the caller reruns without extrapolation,
/// which times every iteration and lists the hazards.
class BlockTimer final : public AgentSchedule::ExpansionHook {
public:
  BlockTimer(const IRModule &Module, const SharedAllocation &Alloc,
             const SimConfig &Config, const Operation &Grid,
             TimerScratch &S, const Cancellation *Cancel, bool Extrapolate)
      : Module(Module), Alloc(Alloc), Config(Config), Grid(Grid), S(S),
        M(S.Model), Cancel(Cancel), Extrapolate(Extrapolate) {
    if (Cancel)
      SchedCheck = CancelCheck(*Cancel);
  }

  ErrorOr<SimResult> run() {
    ScalarEnv BlockEnv;
    BlockEnv.ProcIndices[Processor::Block] = 0;
    BlockEnv.ProcIndices[Processor::Warpgroup] = 0;
    BlockEnv.ProcIndices[Processor::Warp] = 0;
    BlockEnv.ProcIndices[Processor::Thread] = 0;
    clearPooled(S.SmemPres);
    clearPooled(S.SmemBegin);
    clearPooled(S.ActiveReads);
    clearPooled(S.ActiveWrites);
    clearPooled(S.Boundaries);
    clearPooled(S.Signatures);
    if (ErrorOrVoid Built =
            M.build(Module, Grid, BlockEnv, "simulation", Cancel, this);
        !Built)
      return Built.diagnostic();
    schedule();
    if (Failure)
      return *Failure;

    SimResult Result;
    Result.BlockCycles = Finish;
    Result.TotalFlops = BlockFlops;
    Result.TmaBusyCycles = TmaBusy;
    Result.TensorCoreBusyCycles = TcBusy;
    Result.SimulatedIterations = M.expandedIterations();
    Result.ExtrapolatedIterations = Skipped;
    for (const RacePair &Race : Races) {
      const SmemAccess &A = Race.First, &B = Race.Second;
      Result.Races.push_back(formatString(
          "shared-memory hazard between %s and %s (aliased bytes "
          "[%lld, %lld) overlap in time)",
          Module.tensor(A.Tensor).Name.c_str(),
          Module.tensor(B.Tensor).Name.c_str(),
          static_cast<long long>(std::max(A.Lo, B.Lo)),
          static_cast<long long>(std::min(A.Hi, B.Hi))));
    }
    return Result;
  }

  //===--- Per-op plans and shared-memory ranges (expansion hook) ---------===//

  /// Costs every reached copy and call and plans its shared-memory
  /// operands.
  void onOps() override {
    uint32_t NumOps = static_cast<uint32_t>(M.numOps());
    S.Costs.assign(NumOps, Cost());
    clearPooled(S.Operands);
    clearPooled(S.OperandBegin);
    S.OperandBegin.resize(NumOps + 1);
    for (uint32_t I = 0; I != NumOps; ++I) {
      S.OperandBegin[I] = static_cast<uint32_t>(S.Operands.size());
      const AgentSchedule::OpRec &Rec = M.op(I);
      if (!Rec.Visited || Rec.Op->Kind == OpKind::For)
        continue;
      const Operation &Op = *Rec.Op;
      S.Costs[I] = costOf(Op);
      if (Op.Kind == OpKind::Copy) {
        planOperand(Op.CopySrc, false);
        planOperand(Op.CopyDst, true);
      } else {
        for (size_t A = 0; A < Op.Args.size(); ++A)
          planOperand(Op.Args[A], Op.ArgIsWritten[A]);
      }
    }
    S.OperandBegin[NumOps] = static_cast<uint32_t>(S.Operands.size());
  }

  /// Records the byte ranges of the shared-memory operands of one instance
  /// (the buffer index evaluates under the instance's environment).
  void onInstance(const ScalarEnv &Env,
                  const AgentSchedule::InstRec &Inst) override {
    S.SmemBegin.push_back(static_cast<uint32_t>(S.SmemPres.size()));
    uint32_t Begin = S.OperandBegin[Inst.OpIdx];
    uint32_t End = S.OperandBegin[Inst.OpIdx + 1];
    if (Begin == End)
      return;
    if (Inst.CoordOff != HashCoordOff) {
      // Instances of one loop iteration share their coordinates' offset.
      const int64_t *Coords = M.coords(Inst);
      IterHash = 0;
      for (uint32_t D = 0; D < Inst.Depth; ++D)
        IterHash = IterHash * 1000003u + static_cast<size_t>(Coords[D] + 1);
      HashCoordOff = Inst.CoordOff;
    }
    for (uint32_t I = Begin; I != End; ++I) {
      const SmemOperand &O = S.Operands[I];
      int64_t Lo = O.Offset + O.Buf.evaluate(Env, Inst.Wg) * O.BufBytes;
      S.SmemPres.push_back({O.Tensor, Inst.Op->Id, Lo, Lo + O.BufBytes,
                            IterHash, Inst.Wg, O.Write});
    }
  }

  /// Drops the ranges of the instances the model dropped.
  void onCompact(uint32_t Count) override {
    uint32_t Cut = Count < S.SmemBegin.size()
                       ? S.SmemBegin[Count]
                       : static_cast<uint32_t>(S.SmemPres.size());
    S.SmemPres.erase(S.SmemPres.begin(), S.SmemPres.begin() + Cut);
    S.SmemBegin.erase(S.SmemBegin.begin(), S.SmemBegin.begin() + Count);
    for (uint32_t &Begin : S.SmemBegin)
      Begin -= Cut;
    HashCoordOff = ~0u; // The coordinate offsets moved.
  }

private:
  void planOperand(const TensorSlice &Slice, bool Write) {
    const IRTensor &T = Module.tensor(Slice.Tensor);
    if (T.Mem != Memory::Shared)
      return;
    const SharedAllocation::Entry *Entry = Alloc.find(Slice.Tensor);
    if (!Entry)
      return;
    int64_t BufBytes = Entry->Bytes / std::max<int64_t>(T.PipelineDepth, 1);
    S.Operands.push_back({Slice.Tensor, Entry->Offset, BufBytes,
                          AgentSchedule::IndexPlan::of(Slice.BufferIndex),
                          Write});
  }

  //===--- Cost model -------------------------------------------------------===//

  Cost costOf(const Operation &Op) const {
    Cost C;
    if (Op.Kind == OpKind::Copy) {
      int64_t Bytes = Module.sliceBytes(Op.CopySrc);
      Memory Src = Module.tensor(Op.CopySrc.Tensor).Mem;
      Memory Dst = Module.tensor(Op.CopyDst.Tensor).Mem;
      bool Global = Src == Memory::Global || Dst == Memory::Global;
      if (Op.Unit == ExecUnit::TMA) {
        C.Unit = Cost::UnitKind::Tma;
        C.IssueCycles = Config.SimtLatency;
        C.UnitCycles = static_cast<double>(Bytes) / Config.TmaBytesPerCycle;
        C.Latency = Config.GlobalLatency;
      } else if (Global) {
        // SIMT path to global memory (the no-TMA fallback).
        C.IssueCycles = Config.SimtLatency +
                        static_cast<double>(Bytes) /
                            Config.SimtGlobalBytesPerCycle;
        C.Latency = Config.GlobalLatency;
      } else {
        C.IssueCycles = Config.SimtLatency +
                        static_cast<double>(Bytes) /
                            Config.SimtLocalBytesPerCycle;
      }
      return C;
    }
    assert(Op.Kind == OpKind::Call && "costOf expects copies or calls");
    if (Op.Unit == ExecUnit::TensorCore) {
      C.Unit = Cost::UnitKind::TensorCore;
      C.IssueCycles = Config.SimtLatency;
      C.UnitCycles = Op.Flops / Config.TensorCoreFlopsPerCycle;
      C.Latency = Config.TensorCoreLatency;
    } else {
      C.IssueCycles = Config.SimtLatency +
                      Op.Flops / Config.SimtFlopsPerCycle;
    }
    return C;
  }

  //===--- Scheduling --------------------------------------------------------===//

  void schedule() {
    size_t NumAgents = M.numAgents();
    S.Issued.assign(NumAgents, 0);
    S.Ready.assign(NumAgents, 0.0);
    S.Heads.assign(NumAgents, AgentHead());

    // Time-ordered scheduling: of all agents whose next instruction has
    // satisfied preconditions, execute the one that can start earliest.
    // (Greedy per-agent draining would let one warpgroup book the shared
    // Tensor Core arbitrarily far ahead of its peers, which the hardware
    // warp scheduler does not do.) Every completion lands at or after the
    // start of the instance that produced it, so instances issue in
    // non-decreasing start order.
    while (true) {
      // Relaxation checkpoint: one strided poll per scheduling step, so a
      // deadline cuts even a pathological event graph off instead of
      // spinning to the end of its streams.
      if (SchedCheck.enabled() && SchedCheck.shouldStop()) {
        fail(SchedCheck.diagnostic("simulation event relaxation"));
        return;
      }
      supply();
      if (Failure)
        return;
      size_t BestAgent = ~size_t(0);
      double BestStart = 0.0;
      bool AnyPending = false;
      for (size_t Agent = 0; Agent < NumAgents; ++Agent) {
        if (!M.hasHead(Agent))
          continue;
        AnyPending = true;
        AgentHead &Head = S.Heads[Agent];
        if (Head.Is == AgentHead::State::Blocked &&
            !M.completed(Head.Blocker))
          continue;
        if (Head.Is != AgentHead::State::Ready) {
          bool IsReady = M.ready(M.inst(M.head(Agent)), Config.BarrierLatency,
                                 Head.Wait, Head.Blocker);
          Head.Is = IsReady ? AgentHead::State::Ready
                            : AgentHead::State::Blocked;
          if (!IsReady)
            continue;
        }
        double Start = std::max(S.Ready[Agent], Head.Wait);
        if (BestAgent == ~size_t(0) || Start < BestStart) {
          BestAgent = Agent;
          BestStart = Start;
        }
      }
      if (!AnyPending)
        break;
      if (BestAgent == ~size_t(0)) {
        for (size_t Agent = 0; Agent < NumAgents; ++Agent)
          if (M.hasHead(Agent)) {
            fail(formatString(
                "simulation deadlock: agent %zu blocked at instruction %zu "
                "(missing event producer)",
                Agent, static_cast<size_t>(S.Issued[Agent])));
            return;
          }
      }
      executeInstance(M.head(BestAgent), S.Ready[BestAgent],
                      S.Heads[BestAgent].Wait);
      M.pop(BestAgent);
      ++S.Issued[BestAgent];
      S.Heads[BestAgent] = AgentHead();
      if (Extrapolate && !Races.empty())
        return; // Rerun without extrapolation to list the hazards.
    }
    for (size_t Agent = 0; Agent < NumAgents; ++Agent)
      Finish = std::max(Finish, S.Ready[Agent]);
    // Outstanding async completions also bound the block time.
    Finish = std::max(Finish, LastCompletion);
  }

  /// Expands steps until every agent that may still receive an instance
  /// has one queued, so no agent that could issue is missing its head.
  void supply() {
    for (size_t Agent = 0; Agent < M.numAgents(); ++Agent)
      while (M.needsExpansion(Agent)) {
        if (Extrapolate)
          atBoundary();
        if (!M.expandNext())
          break;
      }
    if (M.failure())
      fail(*M.failure());
  }

  void executeInstance(uint32_t InstIdx, double &Ready, double WaitTime) {
    const AgentSchedule::InstRec &Inst = M.inst(InstIdx);
    const Operation &Op = *Inst.Op;
    const Cost &C = S.Costs[Inst.OpIdx];

    double Start = std::max(Ready, WaitTime);
    assert(Start >= LastStart && "instances issue in start order");
    LastStart = Start;
    double Completion;
    if (C.Unit == Cost::UnitKind::Tma) {
      double UnitStart = std::max(Start + C.IssueCycles, TmaFree);
      TmaFree = UnitStart + C.UnitCycles;
      TmaBusy += C.UnitCycles;
      Completion = TmaFree + C.Latency;
      Ready = Start + C.IssueCycles; // Issuing agent moves on (async).
    } else if (C.Unit == Cost::UnitKind::TensorCore) {
      double UnitStart = std::max(Start + C.IssueCycles, TcFree);
      TcFree = UnitStart + C.UnitCycles;
      TcBusy += C.UnitCycles;
      Completion = TcFree + C.Latency;
      Ready = Start + C.IssueCycles; // wgmma is asynchronous too.
    } else {
      Completion = Start + C.IssueCycles;
      Ready = Completion;
    }
    LastCompletion = std::max(LastCompletion, Completion);

    if (Op.Kind == OpKind::Call)
      BlockFlops += Op.Flops;

    M.complete(Inst, Completion);

    uint32_t End = InstIdx + 1 < S.SmemBegin.size()
                       ? S.SmemBegin[InstIdx + 1]
                       : static_cast<uint32_t>(S.SmemPres.size());
    for (uint32_t I = S.SmemBegin[InstIdx]; I != End; ++I) {
      const SmemPre &Pre = S.SmemPres[I];
      SmemAccess Access{Pre.Tensor, Pre.Lo,    Pre.Hi, Start,
                        Completion, Pre.Write, Pre.Op, Pre.Wg,
                        Pre.IterHash, NumAccesses++};
      MaxSpan = std::max(MaxSpan, Completion - Start);
      sweep(Access);
    }
  }

  //===--- Steady state ---------------------------------------------------===//

  /// Called before each expansion step. At a boundary of a ring loop whose
  /// iterations repeat, records the state relative to the latest start:
  /// per agent the ready time, the TMA and Tensor Core free times, the
  /// latest completion, then the model's queue lengths, completion slots
  /// and open loop (AgentSchedule::appendSignature). A time that can no
  /// longer bind any later start (below origin - barrier cost) is clamped
  /// there. The state determines the rest of the run, so a match with an
  /// earlier boundary means the schedule repeats from there on.
  void atBoundary() {
    uint32_t LoopOp;
    int64_t Iter, Hi;
    if (!M.atRingIteration(LoopOp, Iter, Hi))
      return;
    if (LoopOp != SteadyLoop) {
      SteadyLoop = LoopOp;
      clearPooled(S.Boundaries);
      clearPooled(S.Signatures);
      RunPeriod = 0;
      Periodic = M.ringPeriodic(Phase, From) &&
                 operandsPeriodic(LoopOp, Phase, From);
    }
    if (!Periodic || Iter < From || !M.queuedFrom(From))
      return;

    Boundary B;
    B.Iter = Iter;
    B.Origin = LastStart;
    B.Flops = BlockFlops;
    B.TmaBusy = TmaBusy;
    B.TcBusy = TcBusy;
    B.SigOff = static_cast<uint32_t>(S.Signatures.size());
    double Floor = -Config.BarrierLatency;
    auto Push = [&](double V) {
      S.Signatures.push_back(std::max(V - B.Origin, Floor));
    };
    for (double Ready : S.Ready)
      Push(Ready);
    Push(TmaFree);
    Push(TcFree);
    Push(LastCompletion);
    M.appendSignature(S.Signatures, B.Origin, Floor);
    B.SigLen = static_cast<uint32_t>(S.Signatures.size()) - B.SigOff;
    S.Boundaries.push_back(B);

    // The most recent match is the shortest period.
    const Boundary *Match = nullptr;
    for (size_t I = S.Boundaries.size() - 1; I-- > 0;) {
      const Boundary &Prev = S.Boundaries[I];
      if ((Iter - Prev.Iter) % Phase == 0 && sameState(Prev, B)) {
        Match = &Prev;
        break;
      }
    }
    if (!Match) {
      RunPeriod = 0;
    } else {
      int64_t Period = Iter - Match->Iter;
      if (Period != RunPeriod) {
        RunPeriod = Period;
        RunOrigin = Match->Origin;
      }
      // Skip only once the repeating run spans one period plus the
      // longest access, with every access still in flight issued inside
      // it (the race argument in docs/ARCHITECTURE.md).
      double Delta = B.Origin - Match->Origin;
      int64_t Periods = (Hi - Iter) / Period;
      if (Periods > 0 && B.Origin - RunOrigin >= Delta + MaxSpan &&
          inFlightSince(RunOrigin, B.Origin)) {
        skip(*Match, B, Periods, Period, Delta);
        return;
      }
    }
    if (S.Boundaries.size() > 2 * MaxHistory)
      trimHistory();
  }

  /// True when the timer's own per-iteration inputs repeat: every buffer
  /// index of an operand in the loop's body is periodic in its variable.
  bool operandsPeriodic(uint32_t LoopOp, int64_t &Period, int64_t &From) {
    LoopVarId Var = M.op(LoopOp).Op->LoopVar;
    for (uint32_t I = 0; I != M.numOps(); ++I) {
      const AgentSchedule::OpRec &Rec = M.op(I);
      if (Rec.Depth == 0 || M.chain(Rec)[0] != LoopOp)
        continue;
      for (uint32_t O = S.OperandBegin[I]; O != S.OperandBegin[I + 1]; ++O)
        if (!S.Operands[O].Buf.periodicIn(Var, Period, From))
          return false;
    }
    return true;
  }

  bool sameState(const Boundary &A, const Boundary &B) const {
    if (A.SigLen != B.SigLen)
      return false;
    // Rounding noise of absolute times, far below any cost difference.
    double Tol = 1e-12 * std::max(B.Origin, 1e6);
    const double *X = S.Signatures.data() + A.SigOff;
    const double *Y = S.Signatures.data() + B.SigOff;
    for (uint32_t I = 0; I != A.SigLen; ++I) {
      if (std::isnan(X[I]) || std::isnan(Y[I])) {
        if (std::isnan(X[I]) != std::isnan(Y[I]))
          return false;
      } else if (std::fabs(X[I] - Y[I]) > Tol) {
        return false;
      }
    }
    return true;
  }

  /// True when every access that can still overlap a later one (it ends
  /// after \p Now) started at or after \p Since.
  bool inFlightSince(double Since, double Now) const {
    for (const std::vector<SmemAccess> *Active :
         {&S.ActiveReads, &S.ActiveWrites})
      for (const SmemAccess &A : *Active)
        if (A.End > Now && A.Start < Since)
          return false;
    return true;
  }

  /// Skips \p Periods periods of \p Period iterations from boundary \p B,
  /// whose state repeats \p Match's shifted by \p Delta.
  void skip(const Boundary &Match, const Boundary &B, int64_t Periods,
            int64_t Period, double Delta) {
    double Shift = Delta * static_cast<double>(Periods);
    double Count = static_cast<double>(Periods);
    int64_t Iterations = Period * Periods;
    M.advance(Shift, Iterations);
    for (size_t Agent = 0; Agent < M.numAgents(); ++Agent) {
      S.Ready[Agent] += Shift;
      S.Heads[Agent] = AgentHead();
      S.Issued[Agent] += static_cast<uint64_t>(Iterations) *
                         M.iterationInstances(Agent);
    }
    TmaFree += Shift;
    TcFree += Shift;
    LastCompletion += Shift;
    LastStart += Shift;
    BlockFlops += Count * (B.Flops - Match.Flops);
    TmaBusy += Count * (B.TmaBusy - Match.TmaBusy);
    TcBusy += Count * (B.TcBusy - Match.TcBusy);
    for (std::vector<SmemAccess> *Active : {&S.ActiveReads, &S.ActiveWrites})
      for (SmemAccess &A : *Active) {
        A.Start += Shift;
        A.End += Shift;
      }
    Skipped += Iterations;
    Periodic = false; // Fewer than one period is left.
  }

  void trimHistory() {
    size_t Drop = S.Boundaries.size() - MaxHistory;
    uint32_t Cut = S.Boundaries[Drop].SigOff;
    S.Boundaries.erase(S.Boundaries.begin(), S.Boundaries.begin() + Drop);
    S.Signatures.erase(S.Signatures.begin(), S.Signatures.begin() + Cut);
    for (Boundary &B : S.Boundaries)
      B.SigOff -= Cut;
  }

  //===--- Race detection ----------------------------------------------------===//

  static bool isRacePair(const SmemAccess &A, const SmemAccess &B) {
    // Same-tensor conflicts are real too: an unsynchronized loop would
    // overwrite a buffer another iteration is still reading. Only the
    // exact same instance (and the read side of its own write) is exempt.
    if (A.Op == B.Op && A.Wg == B.Wg && A.IterHash == B.IterHash)
      return false;
    if (!(A.Write || B.Write))
      return false;
    // Distinct warpgroups touch disjoint slices of per-warpgroup tensors;
    // the byte-range trace is per-tensor, so cross-warpgroup pairs on the
    // same tensor cannot be classified and are skipped.
    if (A.Tensor == B.Tensor && A.Wg != B.Wg)
      return false;
    bool AddrOverlap = A.Lo < B.Hi && B.Lo < A.Hi;
    bool TimeOverlap = A.Start < B.End && B.Start < A.End;
    return AddrOverlap && TimeOverlap;
  }

  /// Drops the accesses in \p Active that ended by \p B's start (they
  /// cannot overlap any later access either) and records the hazards
  /// the rest form with \p B.
  void sweepActive(std::vector<SmemAccess> &Active, const SmemAccess &B) {
    size_t Keep = 0;
    for (const SmemAccess &A : Active) {
      if (A.End <= B.Start)
        continue;
      if (isRacePair(A, B))
        noteRace({A, B});
      Active[Keep++] = A;
    }
    Active.resize(Keep);
  }

  /// Keeps the MaxRaces first hazards in (first access, second access)
  /// order. The sweep finds them ordered by their second access, and an
  /// access that stays in flight long may still form an earlier one.
  void noteRace(const RacePair &Race) {
    if (Races.size() == MaxRaces && !(Race < Races.back()))
      return;
    Races.insert(std::upper_bound(Races.begin(), Races.end(), Race), Race);
    if (Races.size() > MaxRaces)
      Races.pop_back();
  }

  /// Interval sweep, fed in issue (= start) order: an access only needs
  /// checking against the accesses still in flight when it starts, and a
  /// read only against in-flight writes, so the all-clear case (every
  /// healthy kernel) is near-linear.
  void sweep(const SmemAccess &B) {
    sweepActive(S.ActiveWrites, B);
    if (B.Write)
      sweepActive(S.ActiveReads, B);
    (B.Write ? S.ActiveWrites : S.ActiveReads).push_back(B);
  }

  void fail(std::string Message) {
    if (!Failure)
      Failure = Diagnostic(std::move(Message));
  }
  void fail(Diagnostic Diag) {
    if (!Failure)
      Failure = std::move(Diag);
  }

  /// Boundaries kept for period search: periods up to this many
  /// iterations are found.
  static constexpr size_t MaxHistory = 64;

  const IRModule &Module;
  const SharedAllocation &Alloc;
  const SimConfig &Config;
  const Operation &Grid;
  TimerScratch &S;
  AgentSchedule &M;
  const Cancellation *Cancel = nullptr;
  CancelCheck SchedCheck; ///< The scheduling loop's poll.
  const bool Extrapolate;

  /// Hazards listed per block: enough evidence.
  static constexpr size_t MaxRaces = 9;

  std::vector<RacePair> Races; ///< Sorted; at most MaxRaces.
  uint64_t NumAccesses = 0;

  double TmaFree = 0, TcFree = 0;
  double TmaBusy = 0, TcBusy = 0;
  double Finish = 0, LastCompletion = 0;
  double LastStart = 0; ///< Start of the latest issued instance.
  double MaxSpan = 0;   ///< Longest shared-memory access so far.
  /// Iteration hash of the coordinates at HashCoordOff.
  size_t IterHash = 0;
  uint32_t HashCoordOff = ~0u;
  double BlockFlops = 0;
  std::optional<Diagnostic> Failure;

  // Steady-state detection for the ring loop SteadyLoop.
  uint32_t SteadyLoop = ~0u;
  bool Periodic = false;
  int64_t Phase = 1, From = 0;
  int64_t RunPeriod = 0; ///< Period of the current repeating run.
  double RunOrigin = 0;  ///< Origin of the run's first boundary.
  int64_t Skipped = 0;   ///< Iterations extrapolated.
};

} // namespace

//===----------------------------------------------------------------------===//
// Functional execution
//===----------------------------------------------------------------------===//

namespace {

/// Storage key of one tensor instance: the values of the processor indices
/// the tensor's alloc context names, inline (the context is at most one
/// index per machine processor level).
struct StorageKey {
  std::array<int64_t, 6> Values{};
  uint32_t Len = 0;

  bool operator==(const StorageKey &Other) const {
    if (Len != Other.Len)
      return false;
    for (uint32_t I = 0; I < Len; ++I)
      if (Values[I] != Other.Values[I])
        return false;
    return true;
  }
};

struct StorageKeyHash {
  size_t operator()(const StorageKey &Key) const {
    uint64_t Hash = 1469598103934665603ull;
    for (uint32_t I = 0; I < Key.Len; ++I)
      Hash = (Hash ^ static_cast<uint64_t>(Key.Values[I])) *
             1099511628211ull;
    return static_cast<size_t>(Hash ^ Key.Len);
  }
};

class FunctionalExec {
public:
  FunctionalExec(const IRModule &Module, const LeafRegistry &Leaves,
                 const std::vector<TensorData *> &EntryBuffers)
      : Module(Module), Leaves(Leaves), EntryBuffers(EntryBuffers) {}

  ErrorOrVoid run() {
    // Map alloc contexts (which processor dims key a tensor's storage):
    // flat per-tensor pointers into the IR, no ordered map.
    AllocContext.assign(Module.tensors().size(), nullptr);
    Storage.resize(Module.tensors().size());
    walkOps(Module.root(), [&](const Operation &Op) {
      if (Op.Kind == OpKind::Alloc)
        AllocContext[Op.AllocTensor] = &Op.VecContext;
    });
    execBlockSeq(Module.root(), BaseEnv());
    if (Failure)
      return *Failure;
    return ErrorOrVoid::success();
  }

private:
  ScalarEnv BaseEnv() const {
    ScalarEnv Env;
    Env.ProcIndices[Processor::Block] = 0;
    Env.ProcIndices[Processor::Warpgroup] = 0;
    Env.ProcIndices[Processor::Warp] = 0;
    Env.ProcIndices[Processor::Thread] = 0;
    return Env;
  }

  /// Storage key: the values of the processor indices the tensor's alloc
  /// context names, plus the block index (block-scoped reuse is fine since
  /// blocks execute sequentially, but register tensors per warp/thread need
  /// distinct instances).
  StorageKey storageKey(TensorId Tensor, const ScalarEnv &Env) {
    StorageKey Key;
    const InlineVector<EventDim, 4> *Ctx = AllocContext[Tensor];
    if (!Ctx)
      return Key;
    if (Ctx->size() > Key.Values.size()) {
      fail("alloc context deeper than the machine processor hierarchy");
      return Key;
    }
    for (const EventDim &Dim : *Ctx)
      Key.Values[Key.Len++] = Env.ProcIndices.at(Dim.Proc);
    return Key;
  }

  TensorData &storage(TensorId Tensor, const ScalarEnv &Env, int64_t Buf) {
    const IRTensor &T = Module.tensor(Tensor);
    if (T.IsEntryArg) {
      for (size_t I = 0; I < Module.entryArgs().size(); ++I)
        if (Module.entryArgs()[I] == Tensor)
          return *EntryBuffers[I];
      cypressUnreachable("entry arg not found");
    }
    auto &Buffers = Storage[Tensor][storageKey(Tensor, Env)];
    if (Buffers.empty())
      Buffers.assign(static_cast<size_t>(std::max<int64_t>(T.PipelineDepth,
                                                           1)),
                     TensorData(T.Type));
    assert(Buf >= 0 &&
           Buf < static_cast<int64_t>(Buffers.size()) &&
           "pipeline buffer index out of range");
    return Buffers[static_cast<size_t>(Buf)];
  }

  /// Executes a block sequentially under \p Env (loop vars bound).
  void execBlockSeq(const IRBlock &Block, ScalarEnv Env) {
    for (const std::unique_ptr<Operation> &Op : Block.Ops) {
      if (Failure)
        return;
      switch (Op->Kind) {
      case OpKind::MakePart:
        break;
      case OpKind::Alloc:
        execAlloc(*Op, Env);
        break;
      case OpKind::For: {
        int64_t Lo = Op->LoopLo.evaluate(Env);
        int64_t Hi = Op->LoopHi.evaluate(Env);
        for (int64_t K = Lo; K < Hi; ++K) {
          Env.LoopVars[Op->LoopVar] = K;
          execBlockSeq(Op->Body, Env);
        }
        Env.LoopVars.erase(Op->LoopVar);
        break;
      }
      case OpKind::PFor: {
        // Grid (or host-level) parallel loop: iterations are independent by
        // construction; execute sequentially.
        int64_t Lo = Op->LoopLo.evaluate(Env);
        int64_t Hi = Op->LoopHi.evaluate(Env);
        for (int64_t K = Lo; K < Hi; ++K) {
          Env.LoopVars[Op->LoopVar] = K;
          if (Op->PForProc == Processor::Block)
            Env.ProcIndices[Processor::Block] = K;
          execBlockSeq(Op->Body, Env);
        }
        Env.LoopVars.erase(Op->LoopVar);
        break;
      }
      case OpKind::Copy:
      case OpKind::Call:
        forEachProcInstance(*Op, Env, [&](const ScalarEnv &InstEnv) {
          if (Op->Kind == OpKind::Copy)
            execCopy(*Op, InstEnv);
          else
            execCall(*Op, InstEnv);
        });
        break;
      }
    }
  }

  /// Iterates all combinations of the op's flattened processor dims with an
  /// iterative odometer (innermost dim fastest, matching a nested loop).
  template <typename Fn>
  void forEachProcInstance(const Operation &Op, const ScalarEnv &Env,
                           Fn &&Body) {
    const InlineVector<EventDim, 4> &Dims = Op.VecContext;
    ScalarEnv InstEnv = Env;
    if (Dims.empty()) {
      Body(InstEnv);
      return;
    }
    for (const EventDim &Dim : Dims)
      if (Dim.Extent <= 0)
        return;
    Odometer.assign(Dims.size(), 0);
    while (true) {
      for (size_t D = 0; D < Dims.size(); ++D)
        InstEnv.ProcIndices[Dims[D].Proc] = Odometer[D];
      Body(InstEnv);
      size_t D = Dims.size();
      while (D-- > 0) {
        if (++Odometer[D] < Dims[D].Extent)
          break;
        Odometer[D] = 0;
      }
      if (D == ~size_t(0))
        return; // Every dimension wrapped: enumeration complete.
    }
  }

  void execAlloc(const Operation &Op, const ScalarEnv &Env) {
    // (Re)create every instance of the allocation for the current block:
    // enumerate the alloc's own context dims.
    forEachProcInstance(Op, Env, [&](const ScalarEnv &InstEnv) {
      const IRTensor &T = Module.tensor(Op.AllocTensor);
      auto &Buffers =
          Storage[Op.AllocTensor][storageKey(Op.AllocTensor, InstEnv)];
      Buffers.assign(static_cast<size_t>(std::max<int64_t>(T.PipelineDepth,
                                                           1)),
                     TensorData(T.Type));
    });
  }

  void execCopy(const Operation &Op, const ScalarEnv &Env) {
    TensorView Src(storage(Op.CopySrc.Tensor, Env,
                           Op.CopySrc.BufferIndex.evaluate(Env)),
                   Module.resolveSlice(Op.CopySrc, Env));
    TensorView Dst(storage(Op.CopyDst.Tensor, Env,
                           Op.CopyDst.BufferIndex.evaluate(Env)),
                   Module.resolveSlice(Op.CopyDst, Env));
    if (ErrorOrVoid Copied = copyElements(Dst, Src); !Copied)
      fail(Copied.diagnostic().message());
  }

  void execCall(const Operation &Op, const ScalarEnv &Env) {
    if (!Leaves.has(Op.Callee)) {
      fail(formatString("no functional implementation registered for leaf "
                        "%s",
                        Op.Callee.c_str()));
      return;
    }
    std::vector<TensorView> Views;
    for (const TensorSlice &Slice : Op.Args) {
      SubTensor Map = Module.resolveSlice(Slice, Env);
      TensorData &Data =
          storage(Slice.Tensor, Env, Slice.BufferIndex.evaluate(Env));
      Views.emplace_back(Data, std::move(Map));
    }
    std::vector<int64_t> Scalars;
    for (const ScalarExpr &Expr : Op.ScalarArgs)
      Scalars.push_back(Expr.evaluate(Env));
    Leaves.lookup(Op.Callee)(Views, Scalars);
  }

  void fail(std::string Message) {
    if (!Failure)
      Failure = Diagnostic(std::move(Message));
  }

  const IRModule &Module;
  const LeafRegistry &Leaves;
  const std::vector<TensorData *> &EntryBuffers;
  /// TensorId -> the alloc op's processor context (null = no alloc seen).
  std::vector<const InlineVector<EventDim, 4> *> AllocContext;
  /// TensorId -> storage-key -> pipeline buffers.
  std::vector<std::unordered_map<StorageKey, std::vector<TensorData>,
                                 StorageKeyHash>>
      Storage;
  std::vector<int64_t> Odometer;
  std::optional<Diagnostic> Failure;
};

} // namespace

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

namespace {

/// Times every block-level grid of \p Module (see simulate()).
ErrorOr<SimResult> timeGrids(const IRModule &Module,
                             const SharedAllocation &Alloc,
                             const SimConfig &Config,
                             const Cancellation *Cancel, bool Extrapolate) {
  SimResult Total;
  bool FoundGrid = false;

  // Entry checkpoint: a request that arrives already cancelled or past
  // its deadline never touches the scratch tables.
  if (Cancel) {
    CancelCheck Entry(*Cancel);
    if (Entry.enabled() && Entry.shouldStopNow())
      return Entry.diagnostic("simulation");
  }

  for (const std::unique_ptr<Operation> &Op : Module.root().Ops) {
    if (Op->Kind != OpKind::PFor || Op->PForProc != Processor::Block)
      continue;
    FoundGrid = true;
    ScalarEnv Env;
    Env.ProcIndices[Processor::Block] = 0;
    int64_t Blocks = Op->LoopHi.evaluate(Env) - Op->LoopLo.evaluate(Env);

    ErrorOr<SimResult> BlockResult = BlockTimer(Module, Alloc, Config, *Op,
                                                timerScratch(), Cancel,
                                                Extrapolate)
                                         .run();
    // An extrapolating run stops at its first race.
    if (BlockResult && Extrapolate && !BlockResult->Races.empty())
      BlockResult = BlockTimer(Module, Alloc, Config, *Op, timerScratch(),
                               Cancel, /*Extrapolate=*/false)
                        .run();
    if (!BlockResult)
      return BlockResult.diagnostic();

    int64_t Waves = ceilDiv(Blocks, Config.NumSMs);
    double Cycles =
        BlockResult->BlockCycles * static_cast<double>(Waves) +
        Config.BlockOverhead;
    double Seconds = Cycles / (Config.ClockGHz * 1e9);

    Total.BlockCycles += BlockResult->BlockCycles;
    Total.TotalSeconds += Seconds;
    Total.TotalFlops +=
        BlockResult->TotalFlops * static_cast<double>(Blocks);
    Total.Blocks += Blocks;
    Total.Waves += Waves;
    Total.TmaBusyCycles += BlockResult->TmaBusyCycles;
    Total.TensorCoreBusyCycles += BlockResult->TensorCoreBusyCycles;
    Total.SimulatedIterations += BlockResult->SimulatedIterations;
    Total.ExtrapolatedIterations += BlockResult->ExtrapolatedIterations;
    for (std::string &Race : BlockResult->Races)
      Total.Races.push_back(std::move(Race));
  }

  if (!FoundGrid)
    return Diagnostic("module has no block-level parallel loop to simulate");

  // DRAM floor: every kernel argument crosses the pins at least once.
  double Compulsory = 0;
  for (TensorId Id : Module.entryArgs())
    Compulsory += static_cast<double>(Module.tensor(Id).Type.sizeBytes());
  Total.TotalSeconds =
      std::max(Total.TotalSeconds, Compulsory / Config.DramBytesPerSec);

  if (Total.TotalSeconds > 0)
    Total.TFlops = Total.TotalFlops / Total.TotalSeconds / 1e12;
  return Total;
}

} // namespace

std::string SimConfig::fingerprint() const {
  return formatString("sim{%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
                      "%.17g,%.17g,%.17g,%lld,%.17g}",
                      ClockGHz, TensorCoreFlopsPerCycle, TmaBytesPerCycle,
                      SimtGlobalBytesPerCycle, SimtLocalBytesPerCycle,
                      SimtFlopsPerCycle, GlobalLatency, TensorCoreLatency,
                      SimtLatency, BarrierLatency, DramBytesPerSec,
                      static_cast<long long>(NumSMs), BlockOverhead);
}

ErrorOr<SimResult> cypress::simulate(const IRModule &Module,
                                     const SharedAllocation &Alloc,
                                     const SimConfig &Config,
                                     const LeafRegistry &Leaves,
                                     const std::vector<TensorData *> &EntryBuffers,
                                     const Cancellation *Cancel) {
  ErrorOr<SimResult> Total =
      timeGrids(Module, Alloc, Config, Cancel, /*Extrapolate=*/true);
  if (!Total || EntryBuffers.empty())
    return Total;
  FunctionalExec Exec(Module, Leaves, EntryBuffers);
  if (ErrorOrVoid Err = Exec.run(); !Err)
    return Err.diagnostic();
  Total->FunctionalRan = true;
  return Total;
}

ErrorOr<SimResult>
cypress::detail::simulateEveryIteration(const IRModule &Module,
                                        const SharedAllocation &Alloc,
                                        const SimConfig &Config,
                                        const Cancellation *Cancel) {
  return timeGrids(Module, Alloc, Config, Cancel, /*Extrapolate=*/false);
}
