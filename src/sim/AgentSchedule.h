//===- AgentSchedule.h - Agent streams and event readiness of one block ---===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schedule of one thread block of a mapped kernel, shared by the two
/// executors that run the warp-specialized form: the timing simulator's
/// BlockTimer (src/sim/Simulator.cpp) and the scalar CPU lowering
/// (src/backend/CpuLowering.cpp). `FunctionalExec` ignores agents and stays
/// the independent program-order reference.
///
/// A block runs as one DMA agent (agent 0) plus one agent per compute
/// warpgroup (agents 1..W). Each agent advances through its own stream of
/// op instances in program order and blocks on unresolved event
/// preconditions. The model defines, in one place:
///
///  * ownership: an op belongs to the DMA agent iff the grid is
///    warp-specialized and the warp-spec pass tagged it; ops with a
///    warpgroup dimension run once per warpgroup (DMA-owned replicas all
///    land on agent 0, their per-warpgroup preconditions still checked
///    individually);
///  * keying: a completion is keyed by (event, warpgroup replica, the
///    producer's enclosing-loop coordinates); a consumer looks its
///    precondition up at the producer's loop depth, so a shallower
///    consumer never matches;
///  * pipeline lag: a lag of L subtracts from the innermost key coordinate
///    and is vacuously satisfied for the first L iterations (and always at
///    depth zero);
///  * warpgroup broadcast: a broadcast reference to a replicated event
///    waits for every warpgroup replica;
///  * loop completion: a `for` op's event completes when the last body
///    instance of that loop instance has; `for` preconditions gate only
///    through their body instances' own edges.
///
/// build() resolves the schedule once. A bounds-only walk of the loops
/// sizes a dense completion table; it iterates a loop's coordinates only
/// when the loop body holds a nested loop, whose bounds may depend on them.
/// One sequential expansion then unrolls the body, in program order,
/// straight into per-agent instance streams, and resolves every key an
/// instance reads or writes to an absolute completion-table slot.
/// Executors then alternate ready() and complete(), which are array loads
/// and stores, attaching their own meaning to the completion value: the
/// simulator stores cycles, the lowering only presence. Slots are written
/// once, so an instance that is ready stays ready, and an instance blocked
/// on a slot stays blocked until that slot completes. All arenas keep
/// their capacity across builds up to a ceiling, so a pooled model reaches
/// an allocation-free steady state.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SIM_AGENTSCHEDULE_H
#define CYPRESS_SIM_AGENTSCHEDULE_H

#include "ir/IR.h"
#include "support/Cancel.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <vector>

namespace cypress {

struct SimHints;

/// Warpgroup replication count of an op (1 when it has no warpgroup dim).
int64_t warpgroupExtent(const Operation &Op);

/// True when \p Op has a warpgroup dimension, i.e. runs once per warpgroup.
bool hasWarpgroupDim(const Operation &Op);

/// True when \p Op runs on the DMA agent of the block-level loop \p Grid:
/// the DMA split exists only when the grid's mapping requested warp
/// specialization.
inline bool ownedByDmaAgent(const Operation &Grid, const Operation &Op) {
  return Grid.WarpSpecialize && Op.DmaAgent;
}

/// Capacity, in bytes, that a pooled arena keeps across builds. Pooling
/// keeps steady-state builds allocation-free, but one outsized block must
/// not pin its arenas to the owning thread for good.
constexpr size_t PooledArenaBytes = size_t(1) << 25;

/// Empties a pooled arena, releasing its storage when it grew past
/// PooledArenaBytes.
template <typename T> void clearPooled(std::vector<T> &Arena) {
  Arena.clear();
  if (Arena.capacity() * sizeof(T) > PooledArenaBytes)
    Arena.shrink_to_fit();
}

class AgentSchedule {
public:
  /// Completion-table slot that no instance ever writes.
  static constexpr uint32_t NoSlot = ~0u;

  /// An index expression evaluated once per instance, with its two common
  /// forms resolved up front: a constant, and the instance's own warpgroup
  /// index.
  struct IndexPlan {
    const ScalarExpr *Expr = nullptr; ///< Null when constant or warpgroup.
    int64_t Constant = 0;
    bool IsWarpgroup = false;

    static IndexPlan of(const ScalarExpr &E) {
      IndexPlan P;
      if (E.isConstant())
        P.Constant = E.constantValue();
      else if (E.isProcIndex(Processor::Warpgroup))
        P.IsWarpgroup = true;
      else
        P.Expr = &E;
      return P;
    }
    /// Value under \p Env, which binds replica \p Wg (or 0 for -1).
    int64_t evaluate(const ScalarEnv &Env, int64_t Wg) const {
      if (IsWarpgroup)
        return std::max<int64_t>(Wg, 0);
      return Expr ? Expr->evaluate(Env) : Constant;
    }
  };

  /// Per-op record of the dense op table. The static pre-walk assigns a
  /// slot to every For/Copy/Call op of the grid body; the sizing walk fills
  /// in what depends on loop bounds.
  struct OpRec {
    const Operation *Op = nullptr;
    uint32_t Depth = 0;    ///< Number of enclosing sequential loops.
    uint32_t ChainOff = 0; ///< Enclosing loop ops (dense ids), in chain().
    uint32_t PlanOff = 0, PlanCount = 0; ///< Precondition plan (Copy/Call).
    int64_t WgExtent = 1; ///< warpgroupExtent(*Op).
    /// For `For` ops: the coordinate range this loop iterates over, across
    /// all its instantiations (min Lo .. max Hi-1). Sizes the completion
    /// slabs of every event produced under this loop.
    int64_t MinCoord = std::numeric_limits<int64_t>::max();
    int64_t MaxCoord = std::numeric_limits<int64_t>::min();
    bool HasWgDim = false; ///< hasWarpgroupDim(*Op).
    bool Dma = false;      ///< ownedByDmaAgent(Grid, *Op).
    bool Nested = false;   ///< For: the body holds a For.
    /// Reached with at least one instance (For: entered). Events of
    /// unreached producers (under a zero-trip loop) get a depth-zero slab.
    bool Visited = false;
  };

  /// One precondition of one instance, resolved to completion slots: the
  /// instance waits until Slot, Slot + Stride, ... (Count slots) have all
  /// completed, then pays the barrier cost once when Barrier is set.
  struct Wait {
    uint32_t Slot = NoSlot; ///< NoSlot: can never be satisfied.
    uint32_t Stride = 0;
    uint32_t Count = 1;
    bool Barrier = false;
  };

  /// One executable instance of an op. Variable-length payloads live in
  /// the model's arenas; the instance stores offsets.
  struct InstRec {
    const Operation *Op = nullptr;
    int32_t Wg = -1;    ///< Warpgroup replica; -1 for unreplicated ops.
    uint32_t OpIdx = 0; ///< Dense op table index.
    uint32_t Depth = 0; ///< Enclosing loop count == coordinate count.
    uint32_t CoordOff = 0;
    uint32_t LoopOff = 0;
    uint32_t WaitOff = 0, WaitCount = 0;
    uint32_t ResultSlot = NoSlot; ///< Slot of its result event, if any.
  };

  /// Observer of the expansion, for executors that attach a static
  /// per-instance payload (the simulator's costs and shared-memory byte
  /// ranges).
  class ExpansionHook {
  public:
    /// Called once before the first instance, when the op table (numOps(),
    /// op()) and its Visited flags are final.
    virtual void onOps() = 0;
    /// Called for each instance, in instance-table order, once it is
    /// appended. \p Env binds the instance's loop variables and warpgroup
    /// index.
    virtual void onInstance(const ScalarEnv &Env, const InstRec &Inst) = 0;

  protected:
    ~ExpansionHook() = default; ///< Never owned through the hook.
  };

  /// Expands one block of \p Grid (a block-level PFor) under \p BlockEnv,
  /// which must bind every processor level. \p Client names the executor
  /// in diagnostics. Fails on a nested parallel loop, an iteration space
  /// too large for the dense tables, or a fired \p Cancel.
  ErrorOrVoid build(const IRModule &Module, const Operation &Grid,
                    const ScalarEnv &BlockEnv, const char *Client,
                    const Cancellation *Cancel, ExpansionHook *Hook = nullptr,
                    const SimHints *Hints = nullptr);

  size_t numAgents() const { return NumAgents; }
  const std::vector<uint32_t> &stream(size_t Agent) const {
    return Streams[Agent];
  }
  const InstRec &inst(uint32_t Idx) const { return Insts[Idx]; }
  const int64_t *coords(const InstRec &Inst) const {
    return Coords.data() + Inst.CoordOff;
  }
  size_t numOps() const { return Ops.size(); }
  const OpRec &op(uint32_t Idx) const { return Ops[Idx]; }
  /// Dense ids of the loop ops enclosing \p Rec, outermost first.
  const uint32_t *chain(const OpRec &Rec) const {
    return ChainArena.data() + Rec.ChainOff;
  }

  /// True when every precondition of \p Inst has completed; \p WaitTime is
  /// then the latest completion value among them, plus \p BarrierCost per
  /// broadcast wait. Otherwise \p Blocker is the first slot found
  /// incomplete (NoSlot when the instance can never become ready).
  bool ready(const InstRec &Inst, double BarrierCost, double &WaitTime,
             uint32_t &Blocker) const;

  /// True when \p Slot has completed.
  bool completed(uint32_t Slot) const {
    return Slot != NoSlot && !std::isnan(Times[Slot]);
  }

  /// Records that \p Inst completed at \p Completion: fills its result
  /// slot and credits every enclosing loop instance, completing a loop's
  /// event (at the latest body completion) when its last body instance
  /// finishes.
  void complete(const InstRec &Inst, double Completion);

private:
  /// One precondition of one op, with what is fixed per op resolved: the
  /// key length and the event type's warpgroup index and broadcast flag.
  /// Events from outside the grid body and pipeline lags at depth zero are
  /// vacuously satisfied and get no plan.
  struct PrecondPlan {
    EventId Event = InvalidEventId;
    uint32_t KeyLen = 0; ///< min(consumer depth, producer depth).
    int64_t IterLag = 0;
    IndexPlan WgIndex;
    bool HasWgIndex = false; ///< Names one warpgroup replica.
    bool Broadcast = false;
  };

  /// Per-event completion slab: values for the event's (warpgroup,
  /// iteration-prefix) keys live in Times at
  /// [TimesOff, TimesOff + WgSlots * CoordCount); NaN marks "not yet
  /// completed". Slot 0 holds the unreplicated (-1) key, slots 1..W the
  /// per-warpgroup keys of replicated events. The coordinate box is the
  /// producer's own enclosing-loop ranges, so a slab holds exactly the
  /// keys the producer can register.
  struct EventRec {
    uint64_t TimesOff = 0;
    uint64_t CoordCount = 1;
    uint32_t WgSlots = 1;
    uint32_t Depth = 0;    ///< Number of enclosing loops of the producer.
    uint32_t ChainOff = 0; ///< Producer's enclosing loop ops (dense ids).
    bool WgReplicated = false;
    bool Known = false; ///< Produced inside the grid body.
  };

  /// Outstanding body-instance count of one loop instance (one For op
  /// entered at one enclosing iteration prefix).
  struct LoopInst {
    int64_t Remaining = 0;
    double MaxTime = 0;
    uint32_t Slot = NoSlot; ///< The loop's event slot, if it has one.
  };

  void reset(size_t NumEvents, const SimHints *Hints);
  void indexOps(const IRBlock &Block);
  uint32_t assignDense(const Operation &Op);
  void sizeBlock(const IRBlock &Block);
  void buildEventTables();
  void buildPlans();
  void expandBlock(const IRBlock &Block);
  void expandOp(const Operation &Op);
  void pushInstance(const OpRec &Rec, uint32_t OpIdx, int64_t Wg,
                    size_t Agent);
  void pushWaits(const OpRec &Rec, int64_t Wg);
  void fail(std::string Message);
  bool pollCancel();

  /// Slot of the key Coords[0..Len), with the last coordinate replaced by
  /// \p Last (pipeline lag), in \p Rec's warpgroup slot 0; NoSlot when a
  /// coordinate falls outside the producer's box (no producer instance
  /// exists there).
  uint32_t keySlot(const EventRec &Rec, const int64_t *Coords, uint32_t Len,
                   int64_t Last) const;

  // Per-build inputs.
  const IRModule *Module = nullptr;
  const Operation *Grid = nullptr;
  const char *Client = "";
  ExpansionHook *Hook = nullptr;
  CancelCheck Check; ///< Polled once per loop iteration of both walks.

  size_t NumAgents = 0;
  int64_t Wgs = 1; ///< Widest warpgroup dim (static pre-walk).
  std::optional<Diagnostic> Failure;

  // Expansion state: the enclosing loops' iterations and instance ids.
  std::vector<int64_t> CoordStack;
  std::vector<uint32_t> LoopPath;
  /// Arena copies of CoordStack/LoopPath, shared by every instance pushed
  /// until the next loop entry, iteration or exit marks them stale.
  uint32_t FrameCoordOff = 0, FrameLoopOff = 0;
  bool FrameStale = true;
  /// Bindings are overwritten in place and never erased: each
  /// erase/re-emplace pair would be a map-node allocation per loop
  /// iteration. The verifier guarantees expressions only reference
  /// in-scope variables, so stale bindings are never read.
  ScalarEnv Env;
  std::map<Processor, int64_t>::iterator WgIt; ///< Env's warpgroup index.

  std::vector<InstRec> Insts;
  std::vector<std::vector<uint32_t>> Streams; ///< Instance indices per agent.
  std::vector<int64_t> Coords;                ///< Iteration-coordinate arena.
  std::vector<uint32_t> LoopPaths;            ///< Loop-instance-path arena.
  std::vector<Wait> Waits;                    ///< Per-instance waits.
  std::vector<PrecondPlan> Plans;             ///< Per-op precondition plans.
  std::vector<OpRec> Ops;
  std::vector<uint32_t> OpDense; ///< OpId -> dense op index (~0u absent).
  std::vector<EventRec> Events;  ///< Indexed by EventId.
  std::vector<std::pair<EventId, OpId>> KnownEvents;
  std::vector<double> Times; ///< Completion-value arena (NaN = absent).
  std::vector<LoopInst> Loops;
  std::vector<uint32_t> ChainArena; ///< Enclosing-loop dense ids per op.
  std::vector<uint32_t> LoopOpStack; ///< Pre-walk: enclosing For dense ids.
};

//===----------------------------------------------------------------------===//
// Readiness and completion
//===----------------------------------------------------------------------===//

// The timing simulator calls ready() for every agent head it has not
// resolved yet and complete() for every instance. They are forced inline:
// as out-of-line calls they slowed the simulator's scheduling loop by a few
// percent.

[[gnu::always_inline]] inline bool
AgentSchedule::ready(const InstRec &Inst, double BarrierCost,
                     double &WaitTime, uint32_t &Blocker) const {
  WaitTime = 0.0;
  const Wait *W = Waits.data() + Inst.WaitOff;
  for (const Wait *End = W + Inst.WaitCount; W != End; ++W) {
    if (W->Slot == NoSlot) {
      Blocker = NoSlot;
      return false;
    }
    double Cycle = 0.0;
    uint32_t Slot = W->Slot;
    for (uint32_t I = 0; I < W->Count; ++I, Slot += W->Stride) {
      double T = Times[Slot];
      if (std::isnan(T)) {
        Blocker = Slot;
        return false;
      }
      Cycle = std::max(Cycle, T);
    }
    if (W->Barrier)
      Cycle += BarrierCost;
    WaitTime = std::max(WaitTime, Cycle);
  }
  return true;
}

[[gnu::always_inline]] inline void
AgentSchedule::complete(const InstRec &Inst, double Completion) {
  if (Inst.ResultSlot != NoSlot) {
    assert(std::isnan(Times[Inst.ResultSlot]) && "slot completed twice");
    Times[Inst.ResultSlot] = Completion;
  }

  // Credit every enclosing loop instance; the last body instance of a loop
  // instance completes the loop's event, Figure 8's `for` events.
  const uint32_t *Path = LoopPaths.data() + Inst.LoopOff;
  for (uint32_t D = 0; D < Inst.Depth; ++D) {
    LoopInst &Loop = Loops[Path[D]];
    Loop.MaxTime = std::max(Loop.MaxTime, Completion);
    if (--Loop.Remaining == 0 && Loop.Slot != NoSlot) {
      assert(std::isnan(Times[Loop.Slot]) && "slot completed twice");
      Times[Loop.Slot] = Loop.MaxTime;
    }
  }
}

} // namespace cypress

#endif // CYPRESS_SIM_AGENTSCHEDULE_H
