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
/// which it shares with the CPU lowering: per-agent instance streams,
/// precondition descriptors, and a dense completion table whose readiness
/// checks are array loads. The timer attaches only what is timing-specific
/// — per-op costs and per-instance shared-memory byte ranges (recorded
/// through the schedule's expansion hook) — and stores completion cycles
/// in the table. The schedule and every timing table are pooled in a
/// thread-local scratch that survives across simulation runs, which makes
/// repeated `runTiming` calls (the autotuner's candidate evaluation loop)
/// allocation-free in steady state.
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
};

/// One expansion shard's shared-memory ranges: Begin[i] is where the
/// shard's i-th instance's entries start in Pres.
struct SmemShard {
  std::vector<SmemPre> Pres;
  std::vector<uint32_t> Begin;
};

/// All per-run state of the timing simulator, pooled across runs: every
/// table is cleared but keeps its capacity, so steady-state simulation
/// performs no allocation. One scratch exists per thread (runTiming is
/// const and may be called concurrently on shared kernels).
struct TimerScratch {
  AgentSchedule Model;
  std::vector<Cost> Costs; ///< Per dense op (copies and calls reached).
  std::vector<SmemShard> SmemShards;
  std::vector<SmemPre> SmemPres;
  /// Instance I's ranges are SmemPres[SmemBegin[I], SmemBegin[I + 1]).
  std::vector<uint32_t> SmemBegin;
  std::vector<SmemAccess> Accesses;
  // Scheduler / race-detector scratch.
  std::vector<size_t> Cursor;
  std::vector<double> Ready;
  std::vector<uint32_t> RaceOrder, RaceActive;
};

TimerScratch &timerScratch() {
  static thread_local TimerScratch Scratch;
  return Scratch;
}

/// Times one block on the shared agent schedule: attaches per-op costs and
/// per-instance shared-memory ranges to it, picks instances in time order
/// against TMA and Tensor Core occupancy, and sweeps the resulting access
/// trace for write-after-read hazards.
class BlockTimer final : public AgentSchedule::ExpansionHook {
public:
  BlockTimer(const IRModule &Module, const SharedAllocation &Alloc,
             const SimConfig &Config, const Operation &Grid,
             TimerScratch &S, const SimHints *Hints, SimWorkerPool *Pool,
             const Cancellation *Cancel)
      : Module(Module), Alloc(Alloc), Config(Config), Grid(Grid), S(S),
        M(S.Model), Hints(Hints), Pool(Pool), Cancel(Cancel) {
    if (Cancel)
      SchedCheck = CancelCheck(*Cancel);
  }

  ErrorOr<SimResult> run() {
    ScalarEnv BlockEnv;
    BlockEnv.ProcIndices[Processor::Block] = 0;
    BlockEnv.ProcIndices[Processor::Warpgroup] = 0;
    BlockEnv.ProcIndices[Processor::Warp] = 0;
    BlockEnv.ProcIndices[Processor::Thread] = 0;
    if (ErrorOrVoid Built = M.build(Module, Grid, BlockEnv, "simulation",
                                    Cancel, Pool, this, Hints);
        !Built)
      return Built.diagnostic();
    mergeSmemShards();
    computeCosts();
    S.Accesses.clear();
    schedule();
    if (Failure)
      return *Failure;
    detectRaces();

    SimResult Result;
    Result.BlockCycles = Finish;
    Result.TotalFlops = BlockFlops;
    Result.TmaBusyCycles = TmaBusy;
    Result.TensorCoreBusyCycles = TcBusy;
    Result.Races = std::move(Races);
    return Result;
  }

  //===--- Shared-memory ranges (expansion hook) --------------------------===//

  void beginShards(size_t NumShards) override {
    if (S.SmemShards.size() < NumShards)
      S.SmemShards.resize(NumShards);
    for (size_t I = 0; I < NumShards; ++I) {
      S.SmemShards[I].Pres.clear();
      S.SmemShards[I].Begin.clear();
      if (Hints && Hints->NumOps)
        S.SmemShards[I].Pres.reserve(Hints->NumOps / NumShards + 1);
    }
    NumSmemShards = NumShards;
  }

  /// Records the byte ranges of the shared-memory operands of one instance
  /// (the buffer index evaluates under the instance's environment).
  void onInstance(size_t Shard, const ScalarEnv &Env, const Operation &Op,
                  int32_t Wg, const int64_t *Coords,
                  uint32_t Depth) override {
    SmemShard &B = S.SmemShards[Shard];
    B.Begin.push_back(static_cast<uint32_t>(B.Pres.size()));
    size_t IterHash = 0;
    for (uint32_t D = 0; D < Depth; ++D)
      IterHash = IterHash * 1000003u + static_cast<size_t>(Coords[D] + 1);
    auto Record = [&](const TensorSlice &Slice, bool Write) {
      const IRTensor &T = Module.tensor(Slice.Tensor);
      if (T.Mem != Memory::Shared)
        return;
      const SharedAllocation::Entry *Entry = Alloc.find(Slice.Tensor);
      if (!Entry)
        return;
      int64_t BufBytes = Entry->Bytes / std::max<int64_t>(T.PipelineDepth, 1);
      int64_t Buf = Slice.BufferIndex.evaluate(Env);
      int64_t Lo = Entry->Offset + Buf * BufBytes;
      B.Pres.push_back(
          {Slice.Tensor, Op.Id, Lo, Lo + BufBytes, IterHash, Wg, Write});
    };
    if (Op.Kind == OpKind::Copy) {
      Record(Op.CopySrc, false);
      Record(Op.CopyDst, true);
    } else if (Op.Kind == OpKind::Call) {
      for (size_t I = 0; I < Op.Args.size(); ++I)
        Record(Op.Args[I], Op.ArgIsWritten[I]);
    }
  }

private:
  /// Concatenates the shard ranges in shard order, which is the model's
  /// instance order.
  void mergeSmemShards() {
    S.SmemPres.clear();
    S.SmemBegin.clear();
    for (size_t I = 0; I < NumSmemShards; ++I) {
      const SmemShard &B = S.SmemShards[I];
      uint32_t Base = static_cast<uint32_t>(S.SmemPres.size());
      for (uint32_t Off : B.Begin)
        S.SmemBegin.push_back(Base + Off);
      S.SmemPres.insert(S.SmemPres.end(), B.Pres.begin(), B.Pres.end());
    }
    S.SmemBegin.push_back(static_cast<uint32_t>(S.SmemPres.size()));
  }

  //===--- Cost model -------------------------------------------------------===//

  void computeCosts() {
    S.Costs.assign(M.numOps(), Cost());
    for (uint32_t I = 0, E = static_cast<uint32_t>(M.numOps()); I != E; ++I) {
      const AgentSchedule::OpRec &Rec = M.op(I);
      if (Rec.Visited && Rec.Op->Kind != OpKind::For)
        S.Costs[I] = costOf(*Rec.Op);
    }
  }

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
    S.Cursor.assign(NumAgents, 0);
    S.Ready.assign(NumAgents, 0.0);

    // Time-ordered scheduling: of all agents whose next instruction has
    // satisfied preconditions, execute the one that can start earliest.
    // (Greedy per-agent draining would let one warpgroup book the shared
    // Tensor Core arbitrarily far ahead of its peers, which the hardware
    // warp scheduler does not do.)
    while (true) {
      // Relaxation checkpoint: one strided poll per scheduling step, so a
      // deadline cuts even a pathological event graph off instead of
      // spinning to the end of its streams.
      if (SchedCheck.enabled() && SchedCheck.shouldStop()) {
        fail(SchedCheck.diagnostic("simulation event relaxation"));
        return;
      }
      size_t BestAgent = ~size_t(0);
      double BestStart = 0.0, BestWait = 0.0;
      bool AnyPending = false;
      for (size_t Agent = 0; Agent < NumAgents; ++Agent) {
        const std::vector<uint32_t> &Stream = M.stream(Agent);
        if (S.Cursor[Agent] >= Stream.size())
          continue;
        AnyPending = true;
        double WaitTime = 0.0;
        if (!M.ready(M.inst(Stream[S.Cursor[Agent]]), Config.BarrierLatency,
                     WaitTime))
          continue;
        double Start = std::max(S.Ready[Agent], WaitTime);
        if (BestAgent == ~size_t(0) || Start < BestStart) {
          BestAgent = Agent;
          BestStart = Start;
          BestWait = WaitTime;
        }
      }
      if (!AnyPending)
        break;
      if (BestAgent == ~size_t(0)) {
        for (size_t Agent = 0; Agent < NumAgents; ++Agent)
          if (S.Cursor[Agent] < M.stream(Agent).size()) {
            fail(formatString(
                "simulation deadlock: agent %zu blocked at instruction %zu "
                "(missing event producer)",
                Agent, S.Cursor[Agent]));
            return;
          }
      }
      executeInstance(M.stream(BestAgent)[S.Cursor[BestAgent]],
                      S.Ready[BestAgent], BestWait);
      ++S.Cursor[BestAgent];
    }
    for (size_t Agent = 0; Agent < NumAgents; ++Agent)
      Finish = std::max(Finish, S.Ready[Agent]);
    // Outstanding async completions also bound the block time.
    Finish = std::max(Finish, LastCompletion);
  }

  void executeInstance(uint32_t InstIdx, double &Ready, double WaitTime) {
    const AgentSchedule::InstRec &Inst = M.inst(InstIdx);
    const Operation &Op = *Inst.Op;
    const Cost &C = S.Costs[Inst.OpIdx];

    double Start = std::max(Ready, WaitTime);
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

    for (uint32_t I = S.SmemBegin[InstIdx], E = S.SmemBegin[InstIdx + 1];
         I != E; ++I) {
      const SmemPre &Pre = S.SmemPres[I];
      S.Accesses.push_back({Pre.Tensor, Pre.Lo, Pre.Hi, Start, Completion,
                            Pre.Write, Pre.Op, Pre.Wg, Pre.IterHash});
    }
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

  /// Interval sweep over the access trace ordered by start time: an access
  /// only needs checking against the accesses still in flight when it
  /// starts, so the all-clear case (every healthy kernel) is near-linear.
  bool anyRace() {
    size_t N = S.Accesses.size();
    if (N < 2)
      return false;
    S.RaceOrder.resize(N);
    for (size_t I = 0; I < N; ++I)
      S.RaceOrder[I] = static_cast<uint32_t>(I);
    std::sort(S.RaceOrder.begin(), S.RaceOrder.end(),
              [&](uint32_t A, uint32_t B) {
                return S.Accesses[A].Start < S.Accesses[B].Start ||
                       (S.Accesses[A].Start == S.Accesses[B].Start && A < B);
              });
    S.RaceActive.clear();
    for (uint32_t Idx : S.RaceOrder) {
      const SmemAccess &B = S.Accesses[Idx];
      size_t Keep = 0;
      for (uint32_t ActiveIdx : S.RaceActive) {
        const SmemAccess &A = S.Accesses[ActiveIdx];
        if (A.End <= B.Start)
          continue; // Expired: can never overlap anything later either.
        if (isRacePair(A, B))
          return true;
        S.RaceActive[Keep++] = ActiveIdx;
      }
      S.RaceActive.resize(Keep);
      S.RaceActive.push_back(Idx);
    }
    return false;
  }

  void detectRaces() {
    // Fast path: prove the trace race-free with the interval sweep. Only
    // when a hazard exists does the exact pairwise scan run, so diagnostics
    // keep their historical order and cap.
    if (!anyRace())
      return;
    for (size_t I = 0; I < S.Accesses.size(); ++I) {
      for (size_t J = I + 1; J < S.Accesses.size(); ++J) {
        const SmemAccess &A = S.Accesses[I];
        const SmemAccess &B = S.Accesses[J];
        if (!isRacePair(A, B))
          continue;
        Races.push_back(formatString(
            "shared-memory hazard between %s and %s (aliased bytes "
            "[%lld, %lld) overlap in time)",
            Module.tensor(A.Tensor).Name.c_str(),
            Module.tensor(B.Tensor).Name.c_str(),
            static_cast<long long>(std::max(A.Lo, B.Lo)),
            static_cast<long long>(std::min(A.Hi, B.Hi))));
        if (Races.size() > 8)
          return; // Enough evidence.
      }
    }
  }

  void fail(std::string Message) {
    if (!Failure)
      Failure = Diagnostic(std::move(Message));
  }
  void fail(Diagnostic Diag) {
    if (!Failure)
      Failure = std::move(Diag);
  }

  const IRModule &Module;
  const SharedAllocation &Alloc;
  const SimConfig &Config;
  const Operation &Grid;
  TimerScratch &S;
  AgentSchedule &M;
  const SimHints *Hints;
  SimWorkerPool *Pool; ///< Null: expand in one shard on this thread.
  const Cancellation *Cancel = nullptr;
  CancelCheck SchedCheck; ///< The scheduling loop's (main-thread) poll.
  size_t NumSmemShards = 0;

  std::vector<std::string> Races;

  double TmaFree = 0, TcFree = 0;
  double TmaBusy = 0, TcBusy = 0;
  double Finish = 0, LastCompletion = 0;
  double BlockFlops = 0;
  std::optional<Diagnostic> Failure;
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

ErrorOr<SimResult> cypress::simulate(const IRModule &Module,
                                     const SharedAllocation &Alloc,
                                     const SimConfig &Config,
                                     const LeafRegistry &Leaves,
                                     const std::vector<TensorData *> &EntryBuffers,
                                     const SimHints *Hints,
                                     SimWorkerPool *Pool,
                                     const Cancellation *Cancel) {
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

    BlockTimer Timer(Module, Alloc, Config, *Op, timerScratch(), Hints,
                     Pool, Cancel);
    ErrorOr<SimResult> BlockResult = Timer.run();
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

  if (!EntryBuffers.empty()) {
    FunctionalExec Exec(Module, Leaves, EntryBuffers);
    if (ErrorOrVoid Err = Exec.run(); !Err)
      return Err.diagnostic();
    Total.FunctionalRan = true;
  }
  return Total;
}
