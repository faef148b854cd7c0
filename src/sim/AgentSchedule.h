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
/// build() resolves everything static once: a dense op table, each op's
/// precondition plan, and the layout of a completion table. It expands no
/// instance. Expansion is lazy: each expandNext() appends one step to the
/// per-agent instance queues, in program order, and resolves every key an
/// appended instance reads or writes to a completion-table slot. A step is
/// one iteration of a top-level sequential loop of the block, or the run
/// of top-level copies and calls before the next such loop. Executors
/// expand only when an agent that may still receive an instance has an
/// empty queue, so no ready agent ever waits on the expansion; the CPU
/// lowering drains the queues to the end, and the timing simulator may
/// skip whole periods of a loop's steady state (Simulator.cpp).
///
/// Completions of events produced inside a top-level loop live in a ring
/// of frames, one frame of slots per live iteration. Iteration k's frame
/// is recycled once every instance of iterations k .. k + L has issued,
/// with L the loop's largest pipeline lag: only those instances read it.
/// The ring grows to the widest skew between agents, so build time and
/// memory stop scaling with the trip count. A loop whose events are also
/// read from outside it keeps one fixed slot per iteration instead.
/// Issued instances are dropped from the queue arenas in batches.
///
/// Executors alternate ready() and complete(), which are array loads and
/// stores, attaching their own meaning to the completion value: the
/// simulator stores cycles, the lowering only presence. Slots are written
/// once per frame lifetime, so an instance that is ready stays ready, and
/// an instance blocked on a slot stays blocked until that slot completes.
/// All arenas keep their capacity across builds up to a ceiling, so a
/// pooled model reaches an allocation-free steady state.
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
  /// Ring frame of an instance outside every ring loop.
  static constexpr uint32_t NoFrame = ~0u;

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
    /// See ScalarExpr::periodicIn.
    bool periodicIn(LoopVarId Var, int64_t &Period, int64_t &From) const {
      return !Expr || Expr->periodicIn(Var, Period, From);
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
    uint32_t Frame = NoFrame;     ///< Ring frame of its iteration.
  };

  /// Observer of the expansion, for executors that attach a static
  /// per-instance payload (the simulator's costs and shared-memory byte
  /// ranges).
  class ExpansionHook {
  public:
    /// Called once by build(), when the op table (numOps(), op()) and its
    /// Visited flags are final.
    virtual void onOps() = 0;
    /// Called for each instance, in instance-id order, once it is
    /// appended. \p Env binds the instance's loop variables and warpgroup
    /// index.
    virtual void onInstance(const ScalarEnv &Env, const InstRec &Inst) = 0;
    /// Called after the model dropped its first \p Count instances, all
    /// issued: every surviving instance id shrank by \p Count.
    virtual void onCompact(uint32_t Count) = 0;

  protected:
    ~ExpansionHook() = default; ///< Never owned through the hook.
  };

  /// Prepares the schedule of one block of \p Grid (a block-level PFor)
  /// under \p BlockEnv, which must bind every processor level, and expands
  /// nothing. \p Client names the executor in diagnostics. Fails on a
  /// nested parallel loop, an iteration space too large for the completion
  /// table, or a fired \p Cancel; expandNext() polls \p Cancel too.
  ErrorOrVoid build(const IRModule &Module, const Operation &Grid,
                    const ScalarEnv &BlockEnv, const char *Client,
                    const Cancellation *Cancel,
                    ExpansionHook *Hook = nullptr);

  //===--- Lazy expansion -------------------------------------------------===//

  /// True when \p Agent's queue is empty while a step not yet expanded may
  /// still append to it.
  bool needsExpansion(size_t Agent) const {
    return !hasHead(Agent) && !fullyExpanded() && !Failure &&
           MayReceive[TopPos * NumAgents + Agent];
  }
  /// Expands the next step. Returns false, expanding nothing, once the
  /// block is fully expanded or the expansion failed (see failure()).
  bool expandNext();
  bool fullyExpanded() const { return !InLoop && TopPos == TopOps; }
  const std::optional<Diagnostic> &failure() const { return Failure; }
  /// Top-level loop iterations expanded so far.
  int64_t expandedIterations() const { return ExpandedIterations; }

  //===--- Agent queues ---------------------------------------------------===//

  size_t numAgents() const { return NumAgents; }
  /// True when \p Agent has an expanded instance it has not issued.
  bool hasHead(size_t Agent) const {
    return Queues[Agent].Head < Queues[Agent].Ids.size();
  }
  /// Id of \p Agent's next instance; requires hasHead(Agent).
  uint32_t head(size_t Agent) const {
    return Queues[Agent].Ids[Queues[Agent].Head];
  }
  /// Marks \p Agent's head as issued.
  void pop(size_t Agent) { ++Queues[Agent].Head; }
  const InstRec &inst(uint32_t Id) const { return Insts[Id]; }
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

  //===--- Steady state ---------------------------------------------------===//
  //
  // The timing simulator compares the state at successive iteration
  // boundaries of a ring loop and, once it repeats, skips whole periods
  // (Simulator.cpp, docs/ARCHITECTURE.md). A boundary is the moment before
  // expandNext() expands one iteration of a ring loop.

  /// True at a boundary: the next step is iteration \p Iter of the ring
  /// loop with dense op index \p LoopOp, whose iterations end at \p Hi.
  bool atRingIteration(uint32_t &LoopOp, int64_t &Iter, int64_t &Hi) const;

  /// For the ring loop of the current boundary: true when its iterations
  /// are alike for this model from iteration \p From on, up to a phase
  /// that repeats every \p Period iterations. Requires a body without
  /// nested loops whose waits read only depth-zero events or the loop's
  /// own, with warpgroup indices periodic in the loop variable.
  bool ringPeriodic(int64_t &Period, int64_t &From) const;

  /// True when every expanded but unissued instance belongs to an
  /// iteration >= \p From of the current ring loop.
  bool queuedFrom(int64_t From) const;

  /// Instances one iteration of the current ring loop appends to
  /// \p Agent's queue (as counted on the latest expanded iteration).
  uint32_t iterationInstances(size_t Agent) const {
    return IterInstances[Agent];
  }

  /// Appends the model's state at a boundary: the queue lengths and the
  /// live-frame count, then every completion value of the fixed slots and
  /// of the live frames, oldest iteration first, and the open loop's
  /// latest body completion. A value v is appended as
  /// max(v - Origin, Floor) and an incomplete slot as NaN.
  void appendSignature(std::vector<double> &Out, double Origin,
                       double Floor) const;

  /// At a boundary: adds \p Delta to every completion value and relabels
  /// the live iterations \p Iterations later, so the next step expands
  /// iteration Iter + Iterations (or, at the loop's end, what follows it).
  void advance(double Delta, int64_t Iterations);

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
  /// iteration-prefix) keys. A fixed event's slab sits at Off in Times,
  /// WgSlots * CoordCount slots; a ring event's sits at Off in each frame
  /// of its loop, WgSlots * CoordCount slots over the coordinates below
  /// the loop's. NaN marks "not yet completed". Slot 0 holds the
  /// unreplicated (-1) key, slots 1..W the per-warpgroup keys of
  /// replicated events. The coordinate box is the producer's own
  /// enclosing-loop ranges, so a slab holds exactly the keys the producer
  /// can register.
  struct EventRec {
    uint64_t Off = 0;
    uint64_t CoordCount = 1;
    uint32_t WgSlots = 1;
    uint32_t Depth = 0;    ///< Number of enclosing loops of the producer.
    uint32_t ChainOff = 0; ///< Producer's enclosing loop ops (dense ids).
    bool WgReplicated = false;
    bool Known = false; ///< Produced inside the grid body.
    bool Ring = false;  ///< Lives in the frames of its top-level loop.
  };

  /// Outstanding body-instance count of one loop instance (one For op
  /// entered at one enclosing iteration prefix). A top-level loop holds one
  /// extra count until its last iteration is expanded.
  struct LoopInst {
    int64_t Remaining = 0;
    double MaxTime = 0;
    uint32_t Slot = NoSlot; ///< The loop's event slot, if it has one.
    bool Credited = false;  ///< At least one body instance was appended.
  };

  /// Per top-level op, what the ring and the extrapolation need.
  struct TopLoop {
    int64_t MaxLag = 0;       ///< Largest lag on its own iteration index.
    uint64_t FrameSlots = 0;  ///< Slots per iteration frame.
    bool Ring = false;        ///< Events in frames (not read outside it).
    bool Periodic = false;    ///< See ringPeriodic().
    int64_t Period = 1, From = 0;
  };

  /// One iteration frame of the current ring loop.
  struct Frame {
    uint32_t TimesOff = 0;
    uint32_t Pending = 0; ///< Appended instances not yet completed.
    int64_t Iter = 0;
  };

  struct Queue {
    std::vector<uint32_t> Ids; ///< Instance ids in issue order.
    size_t Head = 0;           ///< First unissued entry.
  };

  void reset(size_t NumEvents);
  void indexOps(const IRBlock &Block);
  uint32_t assignDense(const Operation &Op);
  void sizeBlock(const IRBlock &Block);
  void resolveEventDepths();
  void buildPlans();
  void planTopLoops();
  void layOutEvents();
  void planAgents();
  void enterLoop(const Operation &Op);
  void expandIteration();
  void closeLoop();
  void retireFrames();
  void compact();
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
  CancelCheck Check; ///< Polled once per step and per nested iteration.

  size_t NumAgents = 0;
  int64_t Wgs = 1; ///< Widest warpgroup dim (static pre-walk).
  std::optional<Diagnostic> Failure;

  // Step cursor over the grid body's top-level ops.
  size_t TopOps = 0, TopPos = 0;
  bool InLoop = false;       ///< Inside the top-level loop at TopPos.
  int64_t LoopNext = 0, LoopHi = 0;
  uint32_t LoopDense = 0;    ///< Dense op index of that loop.
  int64_t ExpandedIterations = 0;
  /// MayReceive[P * NumAgents + A]: a top-level op at or after P appends
  /// to agent A's queue.
  std::vector<uint8_t> MayReceive;
  std::vector<TopLoop> TopLoops; ///< Indexed by dense op index.

  // The current ring loop's frames: live ones in iteration order from
  // OldestIter, and recycled ones.
  std::vector<Frame> Frames;
  std::vector<uint32_t> Window, FreeFrames;
  uint32_t LoopFrameBase = 0; ///< First frame id of the current ring loop.
  int64_t OldestIter = 0;
  uint32_t CurFrame = NoFrame; ///< Frame of the iteration being expanded.
  std::vector<uint32_t> IterInstances; ///< Per agent, latest iteration.
  uint64_t FixedSlots = 0; ///< Times[0, FixedSlots): fixed slabs.

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
  std::vector<Queue> Queues;       ///< Per agent.
  std::vector<int64_t> Coords;     ///< Iteration-coordinate arena.
  std::vector<uint32_t> LoopPaths; ///< Loop-instance-path arena.
  std::vector<Wait> Waits;         ///< Per-instance waits.
  std::vector<PrecondPlan> Plans;  ///< Per-op precondition plans.
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
  if (Inst.Frame != NoFrame)
    --Frames[Inst.Frame].Pending;

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
