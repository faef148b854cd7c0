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
/// build() expands the block body in one sequential walk, in program order,
/// straight into per-agent instance streams, and sizes a dense completion
/// table from the loop extents it observed. Executors then alternate
/// ready() and complete(), attaching their own meaning to the completion
/// value: the simulator stores cycles, the lowering only presence. All
/// arenas keep their capacity across builds, so a pooled model reaches an
/// allocation-free steady state.
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

class AgentSchedule {
public:
  /// Per-op record of the dense op table. The static pre-walk assigns a
  /// slot to every For/Copy/Call op of the grid body; expansion fills in
  /// what depends on loop bounds.
  struct OpRec {
    const Operation *Op = nullptr;
    uint32_t Depth = 0;    ///< Number of enclosing sequential loops.
    uint32_t ChainOff = 0; ///< Enclosing loop ops (dense ids), in chain().
    /// For `For` ops: the coordinate range this loop iterates over, across
    /// all its instantiations (min Lo .. max Hi-1). Sizes the completion
    /// slabs of every event produced under this loop.
    int64_t MinCoord = std::numeric_limits<int64_t>::max();
    int64_t MaxCoord = std::numeric_limits<int64_t>::min();
    /// Reached by the expansion. Events of unreached producers (under a
    /// zero-trip loop) get a depth-zero slab.
    bool Visited = false;
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
    uint32_t PrecondOff = 0, PrecondCount = 0;
  };

  /// Observer of the expansion, for executors that attach a static
  /// per-instance payload (the simulator's shared-memory byte ranges).
  /// Instances are reported in instance-table order.
  class ExpansionHook {
  public:
    /// \p Env binds the instance's loop variables and warpgroup index;
    /// \p Coords holds its \p Depth enclosing-loop iterations.
    virtual void onInstance(const ScalarEnv &Env, const Operation &Op,
                            int32_t Wg, const int64_t *Coords,
                            uint32_t Depth) = 0;

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
  /// broadcast wait.
  bool ready(const InstRec &Inst, double BarrierCost, double &WaitTime) const;

  /// Records that \p Inst completed at \p Completion: registers its result
  /// event and credits every enclosing loop instance, completing a loop's
  /// event (at the latest body completion) when its last body instance
  /// finishes.
  void complete(const InstRec &Inst, double Completion);

private:
  /// One precondition of one instance, with the warpgroup index expression
  /// already evaluated under the instance's environment.
  struct PrecondDesc {
    EventId Event = InvalidEventId;
    int64_t IterLag = 0;
    int32_t WantWg = -1; ///< Concrete warpgroup index; -1 when not indexed.
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
    EventId Event = InvalidEventId;
  };

  void reset(size_t NumEvents, const SimHints *Hints);
  void indexOps(const IRBlock &Block);
  uint32_t assignDense(const Operation &Op);
  void expandBlock(const IRBlock &Block);
  void expandOp(const Operation &Op);
  void pushInstance(const Operation &Op, uint32_t OpIdx, int64_t Wg,
                    size_t Agent);
  void buildEventTables();
  void fail(std::string Message);

  /// Strided linear index of the coordinate prefix Coords[0..Len) within
  /// \p Rec's producer box, with the last coordinate replaced by \p Last
  /// (pipeline lag). False when a coordinate falls outside the box (no
  /// producer instance exists there).
  bool coordIndex(const EventRec &Rec, const int64_t *Coords, uint32_t Len,
                  int64_t Last, uint64_t &Out) const;
  /// Completion value of one (event, warpgroup, iteration-prefix) key;
  /// false when that instance has not completed (or can never exist).
  bool lookup(const EventRec &Rec, int64_t Wg, const int64_t *Coords,
              uint32_t KeyLen, int64_t Last, double &Out) const;

  // Per-build inputs.
  const IRModule *Module = nullptr;
  const Operation *Grid = nullptr;
  const char *Client = "";
  ExpansionHook *Hook = nullptr;
  CancelCheck Check; ///< Polled once per loop iteration of the expansion.

  size_t NumAgents = 0;
  int64_t Wgs = 1; ///< Widest warpgroup dim (static pre-walk).
  std::optional<Diagnostic> Failure;

  // Expansion state: the enclosing loops' iterations and instance ids.
  std::vector<int64_t> CoordStack;
  std::vector<uint32_t> LoopPath;
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
  std::vector<PrecondDesc> Preconds;
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

// The timing simulator calls ready() for every agent at every scheduling
// step and complete() for every instance. They are forced inline: as
// out-of-line calls they slowed the simulator's scheduling loop by a few
// percent.

[[gnu::always_inline]] inline bool
AgentSchedule::coordIndex(const EventRec &Rec, const int64_t *Coords,
                          uint32_t Len, int64_t Last, uint64_t &Out) const {
  uint64_t Idx = 0;
  const uint32_t *Chain = ChainArena.data() + Rec.ChainOff;
  for (uint32_t D = 0; D < Len; ++D) {
    const OpRec &Loop = Ops[Chain[D]];
    int64_t C = (D + 1 == Len) ? Last : Coords[D];
    if (C < Loop.MinCoord || C > Loop.MaxCoord)
      return false;
    Idx = Idx * static_cast<uint64_t>(Loop.MaxCoord - Loop.MinCoord + 1) +
          static_cast<uint64_t>(C - Loop.MinCoord);
  }
  Out = Idx;
  return true;
}

[[gnu::always_inline]] inline bool
AgentSchedule::lookup(const EventRec &Rec, int64_t Wg, const int64_t *Coords,
                      uint32_t KeyLen, int64_t Last, double &Out) const {
  // Producers register keys at their own depth; a shorter prefix
  // (consumer shallower than producer) can never match.
  if (KeyLen != Rec.Depth)
    return false;
  uint64_t Idx;
  if (!coordIndex(Rec, Coords, KeyLen, Last, Idx))
    return false;
  uint64_t Slot = Wg < 0 ? 0 : static_cast<uint64_t>(Wg) + 1;
  if (Slot >= Rec.WgSlots)
    return false;
  double T = Times[Rec.TimesOff + Slot * Rec.CoordCount + Idx];
  if (std::isnan(T))
    return false;
  Out = T;
  return true;
}

[[gnu::always_inline]] inline bool
AgentSchedule::ready(const InstRec &Inst, double BarrierCost,
                     double &WaitTime) const {
  WaitTime = 0.0;
  const PrecondDesc *P = Preconds.data() + Inst.PrecondOff;
  const int64_t *InstCoords = Coords.data() + Inst.CoordOff;
  for (uint32_t I = 0; I < Inst.PrecondCount; ++I, ++P) {
    if (P->Event >= Events.size())
      continue; // Reference to an event outside the module: ready.
    const EventRec &Rec = Events[P->Event];
    if (!Rec.Known)
      continue; // Events from outside the grid body: host-level, ready.

    uint32_t KeyLen = std::min<uint32_t>(Inst.Depth, Rec.Depth);
    int64_t Last = KeyLen ? InstCoords[KeyLen - 1] : 0;
    if (P->IterLag > 0) {
      if (KeyLen == 0)
        continue; // Lag at depth zero: vacuously satisfied.
      Last -= P->IterLag;
      if (Last < 0)
        continue; // First PIPE iterations: buffer not yet reused.
    }

    double Cycle = 0.0;
    if (Rec.WgReplicated) {
      if (P->WantWg >= 0 && !P->Broadcast) {
        if (!lookup(Rec, P->WantWg, InstCoords, KeyLen, Last, Cycle))
          return false;
      } else {
        // Broadcast: every warpgroup replica must have completed.
        int64_t Replicas = static_cast<int64_t>(NumAgents) - 1;
        for (int64_t Wg = 0; Wg < Replicas; ++Wg) {
          double T;
          if (!lookup(Rec, Wg, InstCoords, KeyLen, Last, T))
            return false;
          Cycle = std::max(Cycle, T);
        }
        Cycle += BarrierCost;
      }
    } else {
      if (!lookup(Rec, -1, InstCoords, KeyLen, Last, Cycle))
        return false;
      if (P->Broadcast)
        Cycle += BarrierCost;
    }
    WaitTime = std::max(WaitTime, Cycle);
  }
  return true;
}

[[gnu::always_inline]] inline void
AgentSchedule::complete(const InstRec &Inst, double Completion) {
  const int64_t *InstCoords = Coords.data() + Inst.CoordOff;
  if (EventId Result = Inst.Op->Result; Result != InvalidEventId) {
    const EventRec &Rec = Events[Result];
    uint32_t KeyLen = Inst.Depth;
    uint64_t Idx = 0;
    bool InRange = coordIndex(Rec, InstCoords, KeyLen,
                              KeyLen ? InstCoords[KeyLen - 1] : 0, Idx);
    assert(InRange && KeyLen == Rec.Depth &&
           "producer key outside its own coordinate box");
    (void)InRange;
    uint64_t Slot = Inst.Wg < 0 ? 0 : static_cast<uint64_t>(Inst.Wg) + 1;
    Times[Rec.TimesOff + Slot * Rec.CoordCount + Idx] = Completion;
  }

  // Credit every enclosing loop instance; the last body instance of a loop
  // instance completes the loop's event at the loop's own depth
  // (warpgroup slot -1), Figure 8's `for` events.
  const uint32_t *Path = LoopPaths.data() + Inst.LoopOff;
  for (uint32_t D = 0; D < Inst.Depth; ++D) {
    LoopInst &Loop = Loops[Path[D]];
    Loop.MaxTime = std::max(Loop.MaxTime, Completion);
    if (--Loop.Remaining == 0 && Loop.Event != InvalidEventId) {
      const EventRec &Rec = Events[Loop.Event];
      assert(Rec.Depth == D && "loop event keyed off its static depth");
      uint64_t Idx = 0;
      bool InRange =
          coordIndex(Rec, InstCoords, D, D ? InstCoords[D - 1] : 0, Idx);
      assert(InRange && "loop prefix outside its own coordinate box");
      (void)InRange;
      Times[Rec.TimesOff + Idx] = Loop.MaxTime;
    }
  }
}

} // namespace cypress

#endif // CYPRESS_SIM_AGENTSCHEDULE_H
