//===- AgentSchedule.cpp - Agent streams and event readiness of one block -===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of the block schedule described in AgentSchedule.h: a
/// static pre-walk assigns dense op slots, a bounds-only walk sizes the
/// completion table, each op's preconditions are planned once, and one
/// sequential expansion unrolls the grid body into per-agent instance
/// streams whose waits and results are resolved to completion slots.
///
//===----------------------------------------------------------------------===//

#include "sim/AgentSchedule.h"

#include "sim/Simulator.h"
#include "support/Format.h"

using namespace cypress;

int64_t cypress::warpgroupExtent(const Operation &Op) {
  for (const EventDim &Dim : Op.VecContext)
    if (Dim.Proc == Processor::Warpgroup)
      return Dim.Extent;
  return 1;
}

bool cypress::hasWarpgroupDim(const Operation &Op) {
  for (const EventDim &Dim : Op.VecContext)
    if (Dim.Proc == Processor::Warpgroup)
      return true;
  return false;
}

void AgentSchedule::reset(size_t NumEvents, const SimHints *Hints) {
  clearPooled(Insts);
  clearPooled(Coords);
  clearPooled(LoopPaths);
  clearPooled(Waits);
  clearPooled(Plans);
  clearPooled(Times);
  clearPooled(Loops);
  Ops.clear();
  OpDense.clear();
  KnownEvents.clear();
  ChainArena.clear();
  LoopOpStack.clear();
  CoordStack.clear();
  LoopPath.clear();
  FrameStale = true;
  Events.assign(NumEvents, EventRec());
  Wgs = 1;
  Failure.reset();
  if (Hints) {
    // IR statistics from the compile that produced the module (the pass
    // manager's PipelineStats) pre-size the per-build tables.
    Ops.reserve(Hints->NumOps);
    OpDense.reserve(Hints->NumOps);
    Insts.reserve(Hints->NumOps);
    Waits.reserve(Hints->NumOps);
    Plans.reserve(Hints->NumOps);
    KnownEvents.reserve(Hints->NumEvents);
  }
}

ErrorOrVoid AgentSchedule::build(const IRModule &TheModule,
                                 const Operation &TheGrid,
                                 const ScalarEnv &BlockEnv,
                                 const char *TheClient,
                                 const Cancellation *Cancel,
                                 ExpansionHook *TheHook,
                                 const SimHints *Hints) {
  Module = &TheModule;
  Grid = &TheGrid;
  Client = TheClient;
  Hook = TheHook;
  Check = Cancel ? CancelCheck(*Cancel) : CancelCheck();
  reset(Module->numEvents(), Hints);

  // One static pre-walk records every For/Copy/Call op's dense slot,
  // depth, enclosing-loop chain and ownership, takes the widest warpgroup
  // extent, and marks the events produced inside the body (references to
  // anything else are host-level and vacuously ready).
  indexOps(Grid->Body);

  // Agent 0 = DMA warp; agents 1..Wgs = compute warpgroups.
  NumAgents = 1 + static_cast<size_t>(Wgs);
  Streams.resize(NumAgents);
  for (std::vector<uint32_t> &Stream : Streams)
    clearPooled(Stream);

  for (const auto &[Proc, Index] : BlockEnv.ProcIndices)
    Env.ProcIndices[Proc] = Index;
  for (const auto &[Var, Value] : BlockEnv.LoopVars)
    Env.LoopVars[Var] = Value;
  WgIt = Env.ProcIndices.find(Processor::Warpgroup);
  assert(WgIt != Env.ProcIndices.end() && "block env binds no warpgroup");

  sizeBlock(Grid->Body);
  if (!Failure)
    buildEventTables();
  if (!Failure) {
    buildPlans();
    if (Hook)
      Hook->onOps();
    expandBlock(Grid->Body);
  }
  if (Failure)
    return *Failure;
  return ErrorOrVoid::success();
}

/// The static pre-walk (see build). Follows walkOps order — op before
/// body, recursing into For and PFor alike. Dense slots go only to
/// For/Copy/Call ops; ops under a PFor keep none (reaching a PFor fails the
/// build).
void AgentSchedule::indexOps(const IRBlock &Block) {
  for (const std::unique_ptr<Operation> &Op : Block.Ops) {
    Wgs = std::max(Wgs, warpgroupExtent(*Op));
    if (Op->Result != InvalidEventId) {
      EventRec &Rec = Events[Op->Result];
      Rec.Known = true;
      Rec.WgReplicated = hasWarpgroupDim(*Op);
      KnownEvents.emplace_back(Op->Result, Op->Id);
    }
    switch (Op->Kind) {
    case OpKind::Alloc:
    case OpKind::MakePart:
      break;
    case OpKind::For: {
      uint32_t Dense = assignDense(*Op);
      for (const std::unique_ptr<Operation> &Child : Op->Body.Ops)
        Ops[Dense].Nested |= Child->Kind == OpKind::For;
      LoopOpStack.push_back(Dense);
      indexOps(Op->Body);
      LoopOpStack.pop_back();
      break;
    }
    case OpKind::PFor:
      indexOps(Op->Body);
      break;
    case OpKind::Copy:
    case OpKind::Call:
      assignDense(*Op);
      break;
    }
  }
}

/// Dense op-table slot for \p Op. Nesting and ownership are static, so
/// they are recorded once, at slot creation.
uint32_t AgentSchedule::assignDense(const Operation &Op) {
  if (Op.Id >= OpDense.size())
    OpDense.resize(Op.Id + 1, ~0u);
  uint32_t Slot = static_cast<uint32_t>(Ops.size());
  OpDense[Op.Id] = Slot;
  Ops.emplace_back();
  OpRec &Rec = Ops.back();
  Rec.Op = &Op;
  Rec.Depth = static_cast<uint32_t>(LoopOpStack.size());
  Rec.ChainOff = static_cast<uint32_t>(ChainArena.size());
  Rec.WgExtent = warpgroupExtent(Op);
  Rec.HasWgDim = hasWarpgroupDim(Op);
  Rec.Dma = ownedByDmaAgent(*Grid, Op);
  ChainArena.insert(ChainArena.end(), LoopOpStack.begin(), LoopOpStack.end());
  return Slot;
}

bool AgentSchedule::pollCancel() {
  if (Check.enabled() && Check.shouldStop()) {
    Failure = Check.diagnostic(formatString("%s expansion", Client));
    return true;
  }
  return false;
}

/// The sizing walk (see build): records every loop's coordinate range and
/// which ops are reached, evaluating loop bounds exactly as the expansion
/// will. A loop's iterations are walked only when its body holds a nested
/// loop, whose bounds may depend on the iteration.
void AgentSchedule::sizeBlock(const IRBlock &Block) {
  for (const std::unique_ptr<Operation> &Op : Block.Ops) {
    if (Failure)
      return;
    switch (Op->Kind) {
    case OpKind::Alloc:
    case OpKind::MakePart:
      break;
    case OpKind::For: {
      OpRec &Rec = Ops[OpDense[Op->Id]];
      Rec.Visited = true;
      WgIt->second = 0;
      int64_t Lo = Op->LoopLo.evaluate(Env);
      int64_t Hi = Op->LoopHi.evaluate(Env);
      if (Lo >= Hi)
        break;
      Rec.MinCoord = std::min(Rec.MinCoord, Lo);
      Rec.MaxCoord = std::max(Rec.MaxCoord, Hi - 1);
      int64_t End = Rec.Nested ? Hi : Lo + 1;
      int64_t &Var = Env.LoopVars[Op->LoopVar];
      for (int64_t K = Lo; K < End && !Failure; ++K) {
        if (pollCancel())
          return;
        Var = K;
        sizeBlock(Op->Body);
      }
      break;
    }
    case OpKind::PFor:
      fail(formatString("nested parallel loops must be flattened before %s",
                        Client));
      return;
    case OpKind::Copy:
    case OpKind::Call: {
      OpRec &Rec = Ops[OpDense[Op->Id]];
      Rec.Visited |= !Rec.HasWgDim || Rec.WgExtent > 0;
      break;
    }
    }
  }
}

/// Sizes the flat completion arena: one slab per in-grid event, (Wgs + 1)
/// warpgroup slots when replicated, times the coordinate box of the
/// producer's own enclosing loops (ranges from the sizing walk).
void AgentSchedule::buildEventTables() {
  uint64_t Total = 0;
  for (auto [Event, ProducerId] : KnownEvents) {
    EventRec &Rec = Events[Event];
    uint32_t Dense = ProducerId < OpDense.size() ? OpDense[ProducerId] : ~0u;
    // A producer that is never reached (zero-trip enclosing loop) can
    // register no key; it gets a depth-zero slab.
    if (Dense != ~0u && !Ops[Dense].Visited)
      Dense = ~0u;
    Rec.Depth = 0;
    Rec.ChainOff = 0;
    Rec.CoordCount = 1;
    if (Dense != ~0u) {
      const OpRec &Producer = Ops[Dense];
      Rec.Depth = Producer.Depth;
      Rec.ChainOff = Producer.ChainOff;
      for (uint32_t D = 0; D < Rec.Depth; ++D) {
        const OpRec &Loop = Ops[ChainArena[Rec.ChainOff + D]];
        // The op is reached, so every enclosing loop runs >= 1 iteration.
        Rec.CoordCount *=
            static_cast<uint64_t>(Loop.MaxCoord - Loop.MinCoord + 1);
        if (Rec.CoordCount > (uint64_t(1) << 32))
          break;
      }
    }
    Rec.WgSlots = Rec.WgReplicated ? static_cast<uint32_t>(NumAgents) : 1;
    Rec.TimesOff = Total;
    Total += static_cast<uint64_t>(Rec.WgSlots) * Rec.CoordCount;
  }
  // Fail with a diagnostic instead of allocating gigabytes per owner. The
  // bound also keeps every slot below NoSlot.
  if (Total > (uint64_t(1) << 27)) {
    fail(formatString("%s iteration space too large for dense event tables",
                      Client));
    return;
  }
  Times.assign(Total, std::numeric_limits<double>::quiet_NaN());
}

/// Plans every reached Copy/Call op's preconditions once. `For`
/// preconditions gate only through their body instances' own edges.
void AgentSchedule::buildPlans() {
  for (OpRec &Rec : Ops) {
    Rec.PlanOff = static_cast<uint32_t>(Plans.size());
    const Operation &Op = *Rec.Op;
    if (Rec.Visited && Op.Kind != OpKind::For) {
      for (const EventRef &Ref : Op.Preconds) {
        if (Ref.Event >= Events.size() || !Events[Ref.Event].Known)
          continue; // Host-level or foreign event: ready.
        PrecondPlan P;
        P.Event = Ref.Event;
        P.KeyLen = std::min(Rec.Depth, Events[Ref.Event].Depth);
        P.IterLag = Ref.IterLag;
        if (P.IterLag > 0 && P.KeyLen == 0)
          continue; // Lag at depth zero: vacuously satisfied.
        const EventType &Type = Module->event(Ref.Event).Type;
        for (size_t D = 0; D < Ref.Indices.size() && D < Type.Dims.size();
             ++D) {
          if (Ref.Indices[D].isBroadcast()) {
            // Warpgroup broadcast waits for every replica; warp/thread
            // broadcast for the collective instance. Both add a barrier.
            P.Broadcast = true;
          } else if (Type.Dims[D].Proc == Processor::Warpgroup) {
            P.WgIndex = IndexPlan::of(Ref.Indices[D].Index);
            P.HasWgIndex = true;
          }
        }
        Plans.push_back(P);
      }
    }
    Rec.PlanCount = static_cast<uint32_t>(Plans.size()) - Rec.PlanOff;
  }
}

uint32_t AgentSchedule::keySlot(const EventRec &Rec, const int64_t *Coords,
                                uint32_t Len, int64_t Last) const {
  uint64_t Idx = 0;
  const uint32_t *Chain = ChainArena.data() + Rec.ChainOff;
  for (uint32_t D = 0; D < Len; ++D) {
    const OpRec &Loop = Ops[Chain[D]];
    int64_t C = (D + 1 == Len) ? Last : Coords[D];
    if (C < Loop.MinCoord || C > Loop.MaxCoord)
      return NoSlot;
    Idx = Idx * static_cast<uint64_t>(Loop.MaxCoord - Loop.MinCoord + 1) +
          static_cast<uint64_t>(C - Loop.MinCoord);
  }
  return static_cast<uint32_t>(Rec.TimesOff + Idx);
}

/// Unrolls \p Block under the current loop bindings, appending instances
/// in program order. Every loop iteration is one cancellation checkpoint.
void AgentSchedule::expandBlock(const IRBlock &Block) {
  for (const std::unique_ptr<Operation> &Op : Block.Ops) {
    if (Failure)
      return;
    switch (Op->Kind) {
    case OpKind::Alloc:
    case OpKind::MakePart:
      break; // Storage comes from the allocator / allocation prologue.
    case OpKind::PFor:
      break; // Rejected by the sizing walk.
    case OpKind::For: {
      WgIt->second = 0;
      int64_t Lo = Op->LoopLo.evaluate(Env);
      int64_t Hi = Op->LoopHi.evaluate(Env);
      // The loop's event is keyed by the iteration prefix it is entered
      // at, which its own box holds: the loop is reached here.
      LoopInst Loop;
      if (Op->Result != InvalidEventId) {
        const EventRec &Rec = Events[Op->Result];
        uint32_t Depth = static_cast<uint32_t>(CoordStack.size());
        assert(Rec.Depth == Depth && "loop event keyed off its static depth");
        Loop.Slot = keySlot(Rec, CoordStack.data(), Depth,
                            Depth ? CoordStack.back() : 0);
        assert(Loop.Slot != NoSlot &&
               "loop prefix outside its own coordinate box");
      }
      LoopPath.push_back(static_cast<uint32_t>(Loops.size()));
      Loops.push_back(Loop);
      int64_t &Var = Env.LoopVars[Op->LoopVar];
      for (int64_t K = Lo; K < Hi && !Failure; ++K) {
        if (pollCancel())
          return;
        Var = K;
        CoordStack.push_back(K);
        FrameStale = true;
        expandBlock(Op->Body);
        CoordStack.pop_back();
      }
      LoopPath.pop_back();
      FrameStale = true;
      break;
    }
    case OpKind::Copy:
    case OpKind::Call:
      expandOp(*Op);
      break;
    }
  }
}

void AgentSchedule::expandOp(const Operation &Op) {
  uint32_t OpIdx = OpDense[Op.Id];
  const OpRec &Rec = Ops[OpIdx];
  if (Rec.HasWgDim) {
    for (int64_t Wg = 0; Wg < Rec.WgExtent; ++Wg)
      pushInstance(Rec, OpIdx, Wg, Rec.Dma ? 0 : 1 + static_cast<size_t>(Wg));
  } else {
    pushInstance(Rec, OpIdx, -1, Rec.Dma ? 0 : 1);
  }
}

/// Materializes one instance: interns its coordinates and loop path,
/// resolves its waits and result to completion slots, counts it against
/// every enclosing loop instance, and appends it to its agent's stream.
void AgentSchedule::pushInstance(const OpRec &Rec, uint32_t OpIdx, int64_t Wg,
                                 size_t Agent) {
  InstRec R;
  R.Op = Rec.Op;
  R.Wg = static_cast<int32_t>(Wg);
  R.OpIdx = OpIdx;
  R.Depth = static_cast<uint32_t>(CoordStack.size());
  if (FrameStale) {
    // Instances between two loop-state changes share one copy of the
    // coordinates and loop path.
    FrameCoordOff = static_cast<uint32_t>(Coords.size());
    Coords.insert(Coords.end(), CoordStack.begin(), CoordStack.end());
    FrameLoopOff = static_cast<uint32_t>(LoopPaths.size());
    LoopPaths.insert(LoopPaths.end(), LoopPath.begin(), LoopPath.end());
    FrameStale = false;
  }
  R.CoordOff = FrameCoordOff;
  R.LoopOff = FrameLoopOff;
  for (uint32_t LI : LoopPath)
    ++Loops[LI].Remaining;

  WgIt->second = std::max<int64_t>(Wg, 0);

  R.WaitOff = static_cast<uint32_t>(Waits.size());
  pushWaits(Rec, Wg);
  R.WaitCount = static_cast<uint32_t>(Waits.size()) - R.WaitOff;

  if (EventId Result = Rec.Op->Result; Result != InvalidEventId) {
    const EventRec &Ev = Events[Result];
    assert(R.Depth == Ev.Depth && "producer keyed off its static depth");
    uint32_t Base = keySlot(Ev, CoordStack.data(), R.Depth,
                            R.Depth ? CoordStack.back() : 0);
    assert(Base != NoSlot && "producer key outside its own coordinate box");
    uint64_t WgSlot = Wg < 0 ? 0 : static_cast<uint64_t>(Wg) + 1;
    if (Base != NoSlot)
      R.ResultSlot = static_cast<uint32_t>(Base + WgSlot * Ev.CoordCount);
  }

  Insts.push_back(R);
  Streams[Agent].push_back(static_cast<uint32_t>(Insts.size() - 1));
  if (Hook)
    Hook->onInstance(Env, Insts.back());
}

/// Resolves the op's precondition plan for the instance at the current
/// coordinates and replica \p Wg. The readiness rule lives here:
///  * a consumer looks its key up at the producer's depth; a shallower
///    consumer never matches;
///  * a lag of L subtracts from the innermost key coordinate and is
///    vacuously satisfied for the first L iterations;
///  * a key outside the producer's coordinate box never completes;
///  * a reference to a replicated event names one replica, or waits for
///    all of them plus a barrier when broadcast (or unindexed).
void AgentSchedule::pushWaits(const OpRec &Rec, int64_t Wg) {
  const PrecondPlan *P = Plans.data() + Rec.PlanOff;
  for (const PrecondPlan *End = P + Rec.PlanCount; P != End; ++P) {
    const EventRec &Ev = Events[P->Event];
    int64_t Last = P->KeyLen ? CoordStack[P->KeyLen - 1] : 0;
    if (P->IterLag > 0) {
      Last -= P->IterLag;
      if (Last < 0)
        continue; // First PIPE iterations: buffer not yet reused.
    }
    Wait W;
    uint32_t Base =
        P->KeyLen == Ev.Depth
            ? keySlot(Ev, CoordStack.data(), P->KeyLen, Last)
            : NoSlot;
    if (Base != NoSlot && !Ev.WgReplicated) {
      W.Slot = Base;
      W.Barrier = P->Broadcast;
    } else if (Base != NoSlot) {
      int32_t WantWg =
          P->HasWgIndex ? static_cast<int32_t>(P->WgIndex.evaluate(Env, Wg))
                        : -1;
      if (WantWg >= 0 && !P->Broadcast) {
        uint64_t WgSlot = static_cast<uint64_t>(WantWg) + 1;
        if (WgSlot < Ev.WgSlots)
          W.Slot = static_cast<uint32_t>(Base + WgSlot * Ev.CoordCount);
      } else {
        W.Slot = static_cast<uint32_t>(Base + Ev.CoordCount);
        W.Stride = static_cast<uint32_t>(Ev.CoordCount);
        W.Count = static_cast<uint32_t>(NumAgents) - 1;
        W.Barrier = true;
      }
    }
    Waits.push_back(W);
  }
}

void AgentSchedule::fail(std::string Message) {
  if (!Failure)
    Failure = Diagnostic(std::move(Message));
}
