//===- CpuLowering.cpp - Scalar CPU lowering of the emitted kernel --------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential backstop for the CUDA emitter (see CpuLowering.h). The
/// interpreter deliberately mirrors the *structure* the emitter prints —
/// per-agent instruction streams advanced in order, event waits resolved
/// against completed (event, warpgroup, iteration) keys — rather than
/// reusing the functional executor's program-order walk, so that a
/// scheduling bug in warp specialization or pipelining shows up as either
/// a deadlock or a wrong answer instead of being masked by shared code.
///
/// The agent-ownership and precondition-readiness rules are kept in lock
/// step with the timing simulator's BlockTimer (src/sim/Simulator.cpp):
///
///  * agent 0 is the DMA warp, agents 1..W the compute warpgroups, and an
///    op belongs to the DMA agent iff the grid is warp-specialized and the
///    warp-spec pass tagged it;
///  * ops with a warpgroup dimension run once per warpgroup (DMA-owned
///    instances all land on agent 0, with their per-warpgroup
///    preconditions still checked individually);
///  * precondition keys are the consumer's iteration coordinates at the
///    producer's loop depth; pipeline lag subtracts from the innermost
///    coordinate and is vacuously satisfied for the first LAG iterations;
///  * a `for` op's completion event becomes available when every body
///    instance of that loop instance has executed;
///  * `for` preconditions gate through their body instances' edges (both
///    agents enter the loop header freely), matching the simulator.
///
/// Data effects reuse only the module-level slice resolution; storage
/// management and the copy/call element loops are written independently of
/// FunctionalExec so the two executors do not share bugs.
///
//===----------------------------------------------------------------------===//

#include "backend/CpuLowering.h"

#include "sim/TensorView.h"
#include "support/Format.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>

using namespace cypress;

namespace {

/// Warpgroup replication count of an op (1 when it has no warpgroup dim).
int64_t warpgroupExtent(const Operation &Op) {
  for (const EventDim &Dim : Op.VecContext)
    if (Dim.Proc == Processor::Warpgroup)
      return Dim.Extent;
  return 1;
}

bool hasWarpgroupDim(const Operation &Op) {
  for (const EventDim &Dim : Op.VecContext)
    if (Dim.Proc == Processor::Warpgroup)
      return true;
  return false;
}

/// One precondition of one instance with the warpgroup index expression
/// already evaluated (it depends only on the instance's environment).
struct PrecondDesc {
  EventId Event = InvalidEventId;
  int64_t IterLag = 0;
  int32_t WantWg = -1; ///< Concrete warpgroup index; -1 when not indexed.
  bool Broadcast = false;
};

/// One executable op instance in an agent's stream.
struct Instance {
  const Operation *Op = nullptr;
  int32_t Wg = -1; ///< Warpgroup replica; -1 for unreplicated ops.
  std::vector<int64_t> Coords;   ///< Enclosing sequential-loop iterations.
  std::vector<uint32_t> Loops;   ///< Enclosing loop-instance slots.
  std::vector<PrecondDesc> Preconds;
  ScalarEnv Env; ///< Loop vars and processor indices at expansion.
};

/// One instantiation of a `for` op: counts outstanding body instances so
/// the loop's completion event can be registered when the last finishes.
struct LoopInst {
  int64_t Remaining = 0;
  EventId Event = InvalidEventId;
};

/// Static per-event facts, mirroring BlockTimer's EventRec.
struct EventInfo {
  bool Known = false;        ///< Produced inside the current grid body.
  bool WgReplicated = false; ///< Producer has a warpgroup dimension.
  uint32_t Depth = 0;        ///< Producer's enclosing sequential-loop count.
};

/// Storage key of one tensor instance: the processor indices named by the
/// tensor's alloc context (at most one per machine level).
using StorageKey = std::vector<int64_t>;

class CpuLowered {
public:
  CpuLowered(const IRModule &Module, const LeafRegistry &Leaves,
             const std::vector<TensorData *> &EntryBuffers,
             const Cancellation *Cancel)
      : Module(Module), Leaves(Leaves), EntryBuffers(EntryBuffers) {
    if (Cancel)
      Check = CancelCheck(*Cancel);
  }

  ErrorOr<LoweredStats> run() {
    AllocContext.assign(Module.tensors().size(), nullptr);
    Storage.resize(Module.tensors().size());
    walkOps(Module.root(), [&](const Operation &Op) {
      if (Op.Kind == OpKind::Alloc)
        AllocContext[Op.AllocTensor] = &Op.VecContext;
    });
    ScalarEnv Env;
    Env.ProcIndices[Processor::Block] = 0;
    Env.ProcIndices[Processor::Warpgroup] = 0;
    Env.ProcIndices[Processor::Warp] = 0;
    Env.ProcIndices[Processor::Thread] = 0;
    execHostBlock(Module.root(), Env);
    if (Failure)
      return *Failure;
    return Stats;
  }

private:
  //===--- Host-level interpretation --------------------------------------===//

  /// Host-level ops run in program order (they model the launch sequence);
  /// each block-level pfor iteration dispatches to the agent machine.
  void execHostBlock(const IRBlock &Block, ScalarEnv Env) {
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
          execHostBlock(Op->Body, Env);
        }
        Env.LoopVars.erase(Op->LoopVar);
        break;
      }
      case OpKind::PFor: {
        int64_t Lo = Op->LoopLo.evaluate(Env);
        int64_t Hi = Op->LoopHi.evaluate(Env);
        for (int64_t K = Lo; K < Hi; ++K) {
          Env.LoopVars[Op->LoopVar] = K;
          if (Op->PForProc == Processor::Block) {
            Env.ProcIndices[Processor::Block] = K;
            runGridBlock(*Op, Env);
            ++Stats.Blocks;
          } else {
            execHostBlock(Op->Body, Env);
          }
        }
        Env.LoopVars.erase(Op->LoopVar);
        break;
      }
      case OpKind::Copy:
        forEachProcInstance(Op->VecContext, Env,
                            [&](const ScalarEnv &E) { execCopy(*Op, E); });
        break;
      case OpKind::Call:
        forEachProcInstance(Op->VecContext, Env,
                            [&](const ScalarEnv &E) { execCall(*Op, E); });
        break;
      }
    }
  }

  //===--- Agent machine for one block ------------------------------------===//

  void runGridBlock(const Operation &Grid, const ScalarEnv &BlockEnv) {
    // Allocation prologue: the emitted kernel declares every tile and
    // register fragment up front (smem plan + prologue decls), so storage
    // must exist — zeroed — before any agent issues its first instruction.
    // Running Allocs as scheduled instructions instead could let the DMA
    // agent fill a pipelined tile before the owning agent's Alloc wiped it
    // (the first PIPE iterations have vacuous lag preconditions).
    walkOps(Grid.Body, [&](const Operation &Op) {
      if (Op.Kind == OpKind::Alloc)
        execAlloc(Op, BlockEnv);
    });

    int64_t Wgs = 1;
    walkOps(Grid.Body, [&](const Operation &Op) {
      Wgs = std::max(Wgs, warpgroupExtent(Op));
    });
    NumAgents = 1 + static_cast<size_t>(Wgs);
    Stats.Agents = std::max<int64_t>(Stats.Agents,
                                     static_cast<int64_t>(NumAgents));

    Events.assign(Module.numEvents(), EventInfo());
    Done.clear();
    Loops.clear();
    Streams.assign(NumAgents, {});
    Cursor.assign(NumAgents, 0);
    Insts.clear();
    GridWarpSpec = Grid.WarpSpecialize;

    walkOps(Grid.Body, [&](const Operation &Op) {
      if (Op.Result == InvalidEventId)
        return;
      Events[Op.Result].Known = true;
      Events[Op.Result].WgReplicated = hasWarpgroupDim(Op);
    });

    CoordStack.clear();
    LoopPath.clear();
    expandBlock(Grid.Body, BlockEnv);
    if (Failure)
      return;
    schedule();
  }

  /// Unrolls the block body into per-agent instruction streams, evaluating
  /// everything iteration-dependent (loop variables, warpgroup index
  /// expressions) at unroll time.
  void expandBlock(const IRBlock &Block, ScalarEnv Env) {
    for (const std::unique_ptr<Operation> &Op : Block.Ops) {
      if (Failure)
        return;
      switch (Op->Kind) {
      case OpKind::Alloc:
      case OpKind::MakePart:
        break; // Prologue territory.
      case OpKind::PFor:
        fail("nested parallel loops must be flattened before lowering");
        return;
      case OpKind::For: {
        if (Op->Result != InvalidEventId)
          Events[Op->Result].Depth =
              static_cast<uint32_t>(CoordStack.size());
        int64_t Lo = Op->LoopLo.evaluate(Env);
        int64_t Hi = Op->LoopHi.evaluate(Env);
        uint32_t LI = static_cast<uint32_t>(Loops.size());
        Loops.push_back({0, Op->Result});
        LoopPath.push_back(LI);
        for (int64_t K = Lo; K < Hi; ++K) {
          Env.LoopVars[Op->LoopVar] = K;
          CoordStack.push_back(K);
          expandBlock(Op->Body, Env);
          CoordStack.pop_back();
        }
        Env.LoopVars.erase(Op->LoopVar);
        LoopPath.pop_back();
        break;
      }
      case OpKind::Copy:
      case OpKind::Call: {
        if (Check.enabled() && Check.shouldStop()) {
          fail(Check.diagnostic("lowered-execution unroll"));
          return;
        }
        if (Op->Result != InvalidEventId)
          Events[Op->Result].Depth =
              static_cast<uint32_t>(CoordStack.size());
        bool Dma = GridWarpSpec && Op->DmaAgent;
        if (hasWarpgroupDim(*Op)) {
          for (int64_t Wg = 0; Wg < warpgroupExtent(*Op); ++Wg)
            pushInstance(*Op, Env, Wg,
                         Dma ? 0 : 1 + static_cast<size_t>(Wg));
        } else {
          pushInstance(*Op, Env, -1, Dma ? 0 : 1);
        }
        break;
      }
      }
    }
  }

  void pushInstance(const Operation &Op, const ScalarEnv &Env, int64_t Wg,
                    size_t Agent) {
    Instance Inst;
    Inst.Op = &Op;
    Inst.Wg = static_cast<int32_t>(Wg);
    Inst.Coords = CoordStack;
    Inst.Loops = LoopPath;
    Inst.Env = Env;
    Inst.Env.ProcIndices[Processor::Warpgroup] = std::max<int64_t>(Wg, 0);

    for (uint32_t LI : LoopPath)
      ++Loops[LI].Remaining;

    for (const EventRef &Ref : Op.Preconds) {
      PrecondDesc P;
      P.Event = Ref.Event;
      P.IterLag = Ref.IterLag;
      if (Ref.Event < Events.size() && Events[Ref.Event].Known) {
        const EventType &Type = Module.event(Ref.Event).Type;
        for (size_t D = 0; D < Ref.Indices.size() && D < Type.Dims.size();
             ++D) {
          if (Type.Dims[D].Proc == Processor::Warpgroup) {
            if (Ref.Indices[D].isBroadcast())
              P.Broadcast = true;
            else
              P.WantWg = static_cast<int32_t>(
                  Ref.Indices[D].Index.evaluate(Inst.Env));
          } else if (Ref.Indices[D].isBroadcast()) {
            P.Broadcast = true;
          }
        }
      }
      Inst.Preconds.push_back(P);
    }

    Insts.push_back(std::move(Inst));
    Streams[Agent].push_back(static_cast<uint32_t>(Insts.size() - 1));
  }

  //===--- Scheduling ------------------------------------------------------===//

  /// Completed-event key: (event, warpgroup slot, producer-depth coords).
  using DoneKey = std::tuple<EventId, int32_t, std::vector<int64_t>>;

  /// True when the (event, wg, prefix-with-lag) instance has completed.
  bool isDone(const EventInfo &Rec, EventId Event, int32_t Wg,
              const std::vector<int64_t> &Coords, uint32_t KeyLen,
              int64_t Last) const {
    // Producers register keys at their own depth; a shorter consumer
    // prefix can never match (same rule as the simulator).
    if (KeyLen != Rec.Depth)
      return false;
    std::vector<int64_t> Key(Coords.begin(), Coords.begin() + KeyLen);
    if (KeyLen)
      Key[KeyLen - 1] = Last;
    return Done.count(DoneKey(Event, Wg, std::move(Key))) != 0;
  }

  bool precondsReady(const Instance &Inst) const {
    for (const PrecondDesc &P : Inst.Preconds) {
      if (P.Event >= Events.size())
        continue; // Reference outside the module: ready.
      const EventInfo &Rec = Events[P.Event];
      if (!Rec.Known)
        continue; // Host-level event: completed before launch.

      uint32_t KeyLen = std::min<uint32_t>(
          static_cast<uint32_t>(Inst.Coords.size()), Rec.Depth);
      int64_t Last = KeyLen ? Inst.Coords[KeyLen - 1] : 0;
      if (P.IterLag > 0) {
        if (KeyLen == 0)
          continue; // Lag at depth zero: vacuously satisfied.
        Last -= P.IterLag;
        if (Last < 0)
          continue; // First PIPE iterations: buffer not yet reused.
      }

      if (Rec.WgReplicated) {
        if (P.WantWg >= 0 && !P.Broadcast) {
          if (!isDone(Rec, P.Event, P.WantWg, Inst.Coords, KeyLen, Last))
            return false;
        } else {
          // Broadcast: every warpgroup instance must have completed.
          for (int64_t Wg = 0; Wg + 1 < static_cast<int64_t>(NumAgents);
               ++Wg)
            if (!isDone(Rec, P.Event, static_cast<int32_t>(Wg), Inst.Coords,
                        KeyLen, Last))
              return false;
        }
      } else {
        if (!isDone(Rec, P.Event, -1, Inst.Coords, KeyLen, Last))
          return false;
      }
    }
    return true;
  }

  /// Round-robin over agents: each runs until its next instruction blocks
  /// on an unmet event. A full round with no progress is a deadlock — the
  /// compiled schedule could not execute on hardware either. The cancel
  /// checkpoint sits after the deadlock check: a genuinely stuck schedule
  /// always reports the deadlock diagnostic, never a deadline.
  void schedule() {
    while (true) {
      bool Progress = false;
      bool Pending = false;
      for (size_t Agent = 0; Agent < NumAgents && !Failure; ++Agent) {
        while (Cursor[Agent] < Streams[Agent].size()) {
          const Instance &Inst = Insts[Streams[Agent][Cursor[Agent]]];
          if (!precondsReady(Inst)) {
            ++Stats.Stalls;
            break;
          }
          executeInstance(Inst);
          ++Cursor[Agent];
          Progress = true;
        }
        Pending = Pending || Cursor[Agent] < Streams[Agent].size();
      }
      if (Failure || !Pending)
        return;
      if (Progress) {
        if (Check.enabled() && Check.shouldStop()) {
          fail(Check.diagnostic("lowered-execution agent schedule"));
          return;
        }
        continue;
      }
      for (size_t Agent = 0; Agent < NumAgents; ++Agent) {
        if (Cursor[Agent] >= Streams[Agent].size())
          continue;
        const Instance &Inst = Insts[Streams[Agent][Cursor[Agent]]];
        fail(formatString(
            "lowered-execution deadlock: agent %zu blocked at %s "
            "(event producer missing or never scheduled)",
            Agent,
            Inst.Op->Kind == OpKind::Copy
                ? "copy"
                : Inst.Op->Callee.c_str()));
        return;
      }
    }
  }

  void executeInstance(const Instance &Inst) {
    const Operation &Op = *Inst.Op;
    ++Stats.Instances;

    // Enumerate the sub-warpgroup processor dims (warps/threads); the
    // warpgroup dim, when present, is pinned to this instance's replica.
    forEachProcInstance(Op.VecContext, Inst.Env,
                        [&](const ScalarEnv &E) {
                          if (Op.Kind == OpKind::Copy)
                            execCopy(Op, E);
                          else
                            execCall(Op, E);
                        },
                        /*PinnedWg=*/Inst.Wg);
    if (Failure)
      return;

    if (Op.Result != InvalidEventId) {
      uint32_t KeyLen = static_cast<uint32_t>(Inst.Coords.size());
      std::vector<int64_t> Key(Inst.Coords.begin(),
                               Inst.Coords.begin() + KeyLen);
      Done.insert(DoneKey(Op.Result, Inst.Wg, std::move(Key)));
    }

    // Credit completion to every enclosing loop instance; the last body
    // instance of a loop instance releases the loop's completion event at
    // the loop's own depth (warpgroup slot -1).
    for (uint32_t D = 0; D < Inst.Loops.size(); ++D) {
      LoopInst &Loop = Loops[Inst.Loops[D]];
      if (--Loop.Remaining == 0 && Loop.Event != InvalidEventId) {
        std::vector<int64_t> Key(Inst.Coords.begin(),
                                 Inst.Coords.begin() + D);
        Done.insert(DoneKey(Loop.Event, -1, std::move(Key)));
      }
    }
  }

  //===--- Data effects ----------------------------------------------------===//

  /// Odometer over \p Dims (innermost fastest). When \p PinnedWg >= 0 the
  /// warpgroup dimension is held at that replica instead of enumerated.
  template <typename Fn>
  void forEachProcInstance(const InlineVector<EventDim, 4> &Dims,
                           const ScalarEnv &Env, Fn &&Body,
                           int64_t PinnedWg = -1) {
    ScalarEnv InstEnv = Env;
    std::vector<int64_t> Counter(Dims.size(), 0);
    for (const EventDim &Dim : Dims)
      if (Dim.Extent <= 0)
        return;
    while (true) {
      for (size_t D = 0; D < Dims.size(); ++D)
        InstEnv.ProcIndices[Dims[D].Proc] =
            (PinnedWg >= 0 && Dims[D].Proc == Processor::Warpgroup)
                ? PinnedWg
                : Counter[D];
      Body(InstEnv);
      size_t D = Dims.size();
      while (D-- > 0) {
        if (PinnedWg >= 0 && Dims[D].Proc == Processor::Warpgroup)
          continue; // Pinned: never advances.
        if (++Counter[D] < Dims[D].Extent)
          break;
        Counter[D] = 0;
      }
      if (D == ~size_t(0))
        return;
    }
  }

  StorageKey storageKey(TensorId Tensor, const ScalarEnv &Env) {
    StorageKey Key;
    const InlineVector<EventDim, 4> *Ctx = AllocContext[Tensor];
    if (!Ctx)
      return Key;
    for (const EventDim &Dim : *Ctx)
      Key.push_back(Env.ProcIndices.at(Dim.Proc));
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
    std::vector<TensorData> &Buffers =
        Storage[Tensor][storageKey(Tensor, Env)];
    if (Buffers.empty())
      Buffers.assign(
          static_cast<size_t>(std::max<int64_t>(T.PipelineDepth, 1)),
          TensorData(T.Type));
    assert(Buf >= 0 && Buf < static_cast<int64_t>(Buffers.size()) &&
           "pipeline buffer index out of range");
    return Buffers[static_cast<size_t>(Buf)];
  }

  void execAlloc(const Operation &Op, const ScalarEnv &Env) {
    const IRTensor &T = Module.tensor(Op.AllocTensor);
    forEachProcInstance(Op.VecContext, Env, [&](const ScalarEnv &E) {
      Storage[Op.AllocTensor][storageKey(Op.AllocTensor, E)].assign(
          static_cast<size_t>(std::max<int64_t>(T.PipelineDepth, 1)),
          TensorData(T.Type));
    });
  }

  void execCopy(const Operation &Op, const ScalarEnv &Env) {
    if (Failure)
      return;
    TensorView Src(storage(Op.CopySrc.Tensor, Env,
                           Op.CopySrc.BufferIndex.evaluate(Env)),
                   Module.resolveSlice(Op.CopySrc, Env));
    TensorView Dst(storage(Op.CopyDst.Tensor, Env,
                           Op.CopyDst.BufferIndex.evaluate(Env)),
                   Module.resolveSlice(Op.CopyDst, Env));
    if (ErrorOrVoid Copied = copyElements(Dst, Src); !Copied)
      fail(Copied.diagnostic());
  }

  void execCall(const Operation &Op, const ScalarEnv &Env) {
    if (Failure)
      return;
    if (!Leaves.has(Op.Callee)) {
      fail(formatString("no scalar reference implementation for leaf %s",
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

  void fail(Diagnostic Diag) {
    if (!Failure)
      Failure = std::move(Diag);
  }

  const IRModule &Module;
  const LeafRegistry &Leaves;
  const std::vector<TensorData *> &EntryBuffers;
  CancelCheck Check; ///< Inert (enabled() == false) without a Cancellation.
  LoweredStats Stats;
  std::optional<Diagnostic> Failure;

  // Storage (lives across blocks; blocks run sequentially).
  std::vector<const InlineVector<EventDim, 4> *> AllocContext;
  std::vector<std::map<StorageKey, std::vector<TensorData>>> Storage;

  // Per-grid agent machine state.
  size_t NumAgents = 0;
  bool GridWarpSpec = false;
  std::vector<EventInfo> Events;
  std::set<DoneKey> Done;
  std::vector<LoopInst> Loops;
  std::vector<Instance> Insts;
  std::vector<std::vector<uint32_t>> Streams;
  std::vector<size_t> Cursor;
  std::vector<int64_t> CoordStack;
  std::vector<uint32_t> LoopPath;
};

} // namespace

ErrorOr<LoweredStats>
cypress::runCpuLowered(const IRModule &Module, const LeafRegistry &Leaves,
                       const std::vector<TensorData *> &EntryBuffers,
                       const Cancellation *Cancel) {
  if (EntryBuffers.size() != Module.entryArgs().size())
    return Diagnostic(formatString(
        "lowered execution needs one buffer per entry argument "
        "(%zu given, %zu expected)",
        EntryBuffers.size(), Module.entryArgs().size()));
  return CpuLowered(Module, Leaves, EntryBuffers, Cancel).run();
}
