//===- CpuLowering.cpp - Scalar CPU lowering of the emitted kernel --------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential backstop for the CUDA emitter (see CpuLowering.h). The
/// block schedule — per-agent instance streams, ownership, precondition
/// keying, pipeline-lag vacuity, warpgroup broadcast and loop-completion
/// events — is the shared AgentSchedule model the timing simulator also
/// runs on, so the emitted structure is defined once. What this file adds
/// is execution: host-level program order, the allocation prologue, a
/// round-robin drain of the agent streams that counts stalls and reports
/// a schedule no agent can advance as a deadlock, and the data effects of
/// each instance under an environment rebuilt from its coordinates.
///
/// Data effects reuse only the module-level slice resolution and the
/// element-copy helper; storage management and the copy/call dispatch are
/// written independently of FunctionalExec, which ignores agents and runs
/// the block body in program order, so the differential test still
/// compares two genuinely different executions.
///
//===----------------------------------------------------------------------===//

#include "backend/CpuLowering.h"

#include "sim/AgentSchedule.h"
#include "sim/TensorView.h"
#include "support/Format.h"

#include <algorithm>
#include <map>
#include <optional>

using namespace cypress;

namespace {

/// Storage key of one tensor instance: the processor indices named by the
/// tensor's alloc context (at most one per machine level).
using StorageKey = std::vector<int64_t>;

class CpuLowered {
public:
  CpuLowered(const IRModule &Module, const LeafRegistry &Leaves,
             const std::vector<TensorData *> &EntryBuffers,
             const Cancellation *Cancel)
      : Module(Module), Leaves(Leaves), EntryBuffers(EntryBuffers),
        Cancel(Cancel) {
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

    if (ErrorOrVoid Built = Model.build(Module, Grid, BlockEnv,
                                        "lowered-execution", Cancel);
        !Built) {
      fail(Built.diagnostic());
      return;
    }
    Stats.Agents = std::max<int64_t>(Stats.Agents,
                                     static_cast<int64_t>(Model.numAgents()));
    ExecEnv = BlockEnv;
    drain();
  }

  /// Round-robin over agents: each runs until its next instruction blocks
  /// on an unmet event, expanding the schedule whenever its queue runs dry
  /// (the lowering drains every step; it never skips one). A full round
  /// with no progress is a deadlock — the compiled schedule could not
  /// execute on hardware either. The cancel checkpoint sits after the
  /// deadlock check: a genuinely stuck schedule always reports the
  /// deadlock diagnostic, never a deadline.
  void drain() {
    size_t NumAgents = Model.numAgents();
    while (true) {
      bool Progress = false;
      bool Pending = false;
      for (size_t Agent = 0; Agent < NumAgents && !Failure; ++Agent) {
        while (true) {
          while (Model.needsExpansion(Agent) && Model.expandNext()) {
          }
          if (Model.failure()) {
            fail(*Model.failure());
            return;
          }
          if (!Model.hasHead(Agent))
            break;
          const AgentSchedule::InstRec &Inst = Model.inst(Model.head(Agent));
          double WaitTime = 0.0;
          uint32_t Blocker = AgentSchedule::NoSlot;
          if (!Model.ready(Inst, /*BarrierCost=*/0.0, WaitTime, Blocker)) {
            ++Stats.Stalls;
            break;
          }
          executeInstance(Inst);
          Model.pop(Agent);
          Progress = true;
        }
        Pending = Pending || Model.hasHead(Agent);
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
        if (!Model.hasHead(Agent))
          continue;
        const Operation &Op = *Model.inst(Model.head(Agent)).Op;
        fail(formatString(
            "lowered-execution deadlock: agent %zu blocked at %s "
            "(event producer missing or never scheduled)",
            Agent, Op.Kind == OpKind::Copy ? "copy" : Op.Callee.c_str()));
        return;
      }
    }
  }

  /// Runs one instance's data effects, then records its completion (the
  /// lowering only needs presence, so every completion value is zero).
  void executeInstance(const AgentSchedule::InstRec &Inst) {
    ++Stats.Instances;
    // Rebind the instance's environment: the enclosing loops' variables
    // from its coordinates, the warpgroup index from its replica. Other
    // bindings may be stale; the verifier guarantees expressions only
    // reference in-scope variables.
    const AgentSchedule::OpRec &Rec = Model.op(Inst.OpIdx);
    const uint32_t *Chain = Model.chain(Rec);
    const int64_t *Coords = Model.coords(Inst);
    for (uint32_t D = 0; D < Inst.Depth; ++D)
      ExecEnv.LoopVars[Model.op(Chain[D]).Op->LoopVar] = Coords[D];
    ExecEnv.ProcIndices[Processor::Warpgroup] =
        std::max<int64_t>(Inst.Wg, 0);

    // Enumerate the sub-warpgroup processor dims (warps/threads); the
    // warpgroup dim, when present, is pinned to this instance's replica.
    const Operation &Op = *Inst.Op;
    forEachProcInstance(Op.VecContext, ExecEnv,
                        [&](const ScalarEnv &E) {
                          if (Op.Kind == OpKind::Copy)
                            execCopy(Op, E);
                          else
                            execCall(Op, E);
                        },
                        /*PinnedWg=*/Inst.Wg);
    if (Failure)
      return;
    Model.complete(Inst, 0.0);
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
  const Cancellation *Cancel;
  CancelCheck Check; ///< Inert (enabled() == false) without a Cancellation.
  LoweredStats Stats;
  std::optional<Diagnostic> Failure;

  // Storage (lives across blocks; blocks run sequentially).
  std::vector<const InlineVector<EventDim, 4> *> AllocContext;
  std::vector<std::map<StorageKey, std::vector<TensorData>>> Storage;

  // Per-grid agent machine state.
  AgentSchedule Model;
  ScalarEnv ExecEnv; ///< Environment of the executing instance.
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
