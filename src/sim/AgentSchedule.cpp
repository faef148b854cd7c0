//===- AgentSchedule.cpp - Agent streams and event readiness of one block -===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of the block schedule described in AgentSchedule.h: a
/// static pre-walk assigns dense op slots, a bounds-only walk sizes the
/// completion table, each op's preconditions are planned once, and a lazy
/// expansion unrolls the grid body step by step into per-agent instance
/// queues whose waits and results are resolved to completion slots, with
/// the completions of top-level loops in a ring of iteration frames.
///
//===----------------------------------------------------------------------===//

#include "sim/AgentSchedule.h"

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

void AgentSchedule::reset(size_t NumEvents) {
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
  Frames.clear();
  Window.clear();
  FreeFrames.clear();
  MayReceive.clear();
  TopLoops.clear();
  FrameStale = true;
  Events.assign(NumEvents, EventRec());
  Wgs = 1;
  Failure.reset();
  TopPos = 0;
  InLoop = false;
  ExpandedIterations = 0;
  CurFrame = NoFrame;
  FixedSlots = 0;
}

ErrorOrVoid AgentSchedule::build(const IRModule &TheModule,
                                 const Operation &TheGrid,
                                 const ScalarEnv &BlockEnv,
                                 const char *TheClient,
                                 const Cancellation *Cancel,
                                 ExpansionHook *TheHook) {
  Module = &TheModule;
  Grid = &TheGrid;
  Client = TheClient;
  Hook = TheHook;
  Check = Cancel ? CancelCheck(*Cancel) : CancelCheck();
  reset(Module->numEvents());

  // One static pre-walk records every For/Copy/Call op's dense slot,
  // depth, enclosing-loop chain and ownership, takes the widest warpgroup
  // extent, and marks the events produced inside the body (references to
  // anything else are host-level and vacuously ready).
  indexOps(Grid->Body);

  // Agent 0 = DMA warp; agents 1..Wgs = compute warpgroups.
  NumAgents = 1 + static_cast<size_t>(Wgs);
  Queues.resize(NumAgents);
  for (Queue &Q : Queues) {
    clearPooled(Q.Ids);
    Q.Head = 0;
  }
  IterInstances.assign(NumAgents, 0);
  TopOps = Grid->Body.Ops.size();

  for (const auto &[Proc, Index] : BlockEnv.ProcIndices)
    Env.ProcIndices[Proc] = Index;
  for (const auto &[Var, Value] : BlockEnv.LoopVars)
    Env.LoopVars[Var] = Value;
  WgIt = Env.ProcIndices.find(Processor::Warpgroup);
  assert(WgIt != Env.ProcIndices.end() && "block env binds no warpgroup");

  sizeBlock(Grid->Body);
  if (!Failure) {
    resolveEventDepths();
    buildPlans();
    planTopLoops();
    layOutEvents();
  }
  if (!Failure) {
    planAgents();
    if (Hook)
      Hook->onOps();
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

/// Resolves each in-grid event's producer depth, enclosing-loop chain,
/// coordinate box (ranges from the sizing walk) and warpgroup slot count.
void AgentSchedule::resolveEventDepths() {
  for (auto [Event, ProducerId] : KnownEvents) {
    EventRec &Rec = Events[Event];
    uint32_t Dense = ProducerId < OpDense.size() ? OpDense[ProducerId] : ~0u;
    // A producer that is never reached (zero-trip enclosing loop) can
    // register no key; it gets a depth-zero slab.
    if (Dense != ~0u && !Ops[Dense].Visited)
      Dense = ~0u;
    Rec.Depth = 0;
    Rec.ChainOff = 0;
    if (Dense != ~0u) {
      Rec.Depth = Ops[Dense].Depth;
      Rec.ChainOff = Ops[Dense].ChainOff;
    }
    Rec.WgSlots = Rec.WgReplicated ? static_cast<uint32_t>(NumAgents) : 1;
  }
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

/// Decides, per top-level loop, whether its events live in a ring of
/// iteration frames: they do unless a wait outside the loop can match one
/// of their keys. Records the largest lag on the loop's own iteration
/// index, which bounds how long a frame stays live, and whether the
/// loop's iterations repeat (see ringPeriodic()).
void AgentSchedule::planTopLoops() {
  TopLoops.assign(Ops.size(), TopLoop());
  for (uint32_t I = 0; I != Ops.size(); ++I) {
    const OpRec &Rec = Ops[I];
    TopLoop &Loop = TopLoops[I];
    Loop.Ring = Rec.Op->Kind == OpKind::For && Rec.Depth == 0 &&
                Rec.Visited && Rec.MinCoord <= Rec.MaxCoord;
    Loop.Periodic = Loop.Ring && !Rec.Nested;
  }
  for (const OpRec &Rec : Ops) {
    uint32_t Top = Rec.Depth ? ChainArena[Rec.ChainOff] : ~0u;
    for (const PrecondPlan *P = Plans.data() + Rec.PlanOff,
                           *End = P + Rec.PlanCount;
         P != End; ++P) {
      const EventRec &Ev = Events[P->Event];
      uint32_t Producer = Ev.Depth ? ChainArena[Ev.ChainOff] : ~0u;
      if (Top != ~0u && Producer != ~0u && Producer != Top)
        TopLoops[Top].Periodic = false; // Reads another loop's iterations.
      if (Producer == ~0u || P->KeyLen != Ev.Depth)
        continue; // Depth-zero slot, or a key that never matches.
      if (Producer != Top) {
        TopLoops[Producer].Ring = false;
        continue;
      }
      if (P->KeyLen == 1)
        TopLoops[Top].MaxLag =
            std::max(TopLoops[Top].MaxLag, std::max<int64_t>(P->IterLag, 0));
    }
  }
  for (uint32_t I = 0; I != Ops.size(); ++I) {
    TopLoop &Loop = TopLoops[I];
    if (!Loop.Ring || !Loop.Periodic)
      continue;
    const OpRec &LoopRec = Ops[I];
    // Past its first MaxLag iterations no lag is vacuous or out of box.
    Loop.From = std::max<int64_t>(LoopRec.MinCoord, 0) + Loop.MaxLag;
    for (const OpRec &Rec : Ops) {
      if (Rec.Depth == 0 || ChainArena[Rec.ChainOff] != I)
        continue;
      for (const PrecondPlan *P = Plans.data() + Rec.PlanOff,
                             *End = P + Rec.PlanCount;
           P != End && Loop.Periodic; ++P)
        if (P->HasWgIndex)
          Loop.Periodic = P->WgIndex.periodicIn(LoopRec.Op->LoopVar,
                                                Loop.Period, Loop.From);
    }
  }
}

/// Lays out the completion table: a fixed slab per event outside every
/// ring loop, in one arena prefix, and a slab per ring event in its
/// loop's iteration frame.
void AgentSchedule::layOutEvents() {
  uint64_t Total = 0;
  bool TooLarge = false;
  for (auto [Event, ProducerId] : KnownEvents) {
    (void)ProducerId;
    EventRec &Rec = Events[Event];
    const uint32_t *Chain = ChainArena.data() + Rec.ChainOff;
    Rec.Ring = Rec.Depth > 0 && TopLoops[Chain[0]].Ring;
    // The producer is reached, so every enclosing loop runs >= 1
    // iteration; a ring event's box leaves out its loop's coordinate.
    Rec.CoordCount = 1;
    for (uint32_t D = Rec.Ring ? 1 : 0; D < Rec.Depth; ++D) {
      const OpRec &Loop = Ops[Chain[D]];
      Rec.CoordCount *=
          static_cast<uint64_t>(Loop.MaxCoord - Loop.MinCoord + 1);
      if (Rec.CoordCount > (uint64_t(1) << 32))
        break;
    }
    uint64_t Slots = static_cast<uint64_t>(Rec.WgSlots) * Rec.CoordCount;
    uint64_t &Arena = Rec.Ring ? TopLoops[Chain[0]].FrameSlots : Total;
    Rec.Off = Arena;
    Arena += Slots;
    TooLarge |= Arena > (uint64_t(1) << 27);
  }
  // Fail with a diagnostic instead of allocating gigabytes per owner. The
  // bound also keeps every slot below NoSlot.
  if (TooLarge) {
    fail(formatString("%s iteration space too large for dense event tables",
                      Client));
    return;
  }
  FixedSlots = Total;
  Times.assign(Total, std::numeric_limits<double>::quiet_NaN());
}

/// Records, per top-level op position, which agents a step at or after it
/// may append to, so an agent with nothing left never forces expansion.
void AgentSchedule::planAgents() {
  MayReceive.assign((TopOps + 1) * NumAgents, 0);
  for (size_t P = TopOps; P-- > 0;) {
    uint8_t *Row = MayReceive.data() + P * NumAgents;
    std::copy(Row + NumAgents, Row + 2 * NumAgents, Row);
    auto Mark = [&](const Operation &Op) {
      if (Op.Kind != OpKind::Copy && Op.Kind != OpKind::Call)
        return;
      const OpRec &Rec = Ops[OpDense[Op.Id]];
      if (!Rec.Visited)
        return;
      if (!Rec.HasWgDim) {
        Row[Rec.Dma ? 0 : 1] = 1;
        return;
      }
      for (int64_t Wg = 0; Wg < Rec.WgExtent; ++Wg)
        Row[Rec.Dma ? 0 : 1 + static_cast<size_t>(Wg)] = 1;
    };
    const Operation &Top = *Grid->Body.Ops[P];
    Mark(Top);
    if (Top.Kind == OpKind::For)
      walkOps(Top.Body, Mark);
  }
}

uint32_t AgentSchedule::keySlot(const EventRec &Rec, const int64_t *Coords,
                                uint32_t Len, int64_t Last) const {
  const uint32_t *Chain = ChainArena.data() + Rec.ChainOff;
  uint64_t Base = Rec.Off;
  uint32_t D = 0;
  if (Rec.Ring) {
    // The loop's own coordinate selects the iteration's frame.
    const OpRec &Loop = Ops[Chain[0]];
    int64_t C = Len == 1 ? Last : Coords[0];
    if (C < Loop.MinCoord || C > Loop.MaxCoord)
      return NoSlot;
    assert(C >= OldestIter && C - OldestIter < int64_t(Window.size()) &&
           "key of an iteration whose frame is not live");
    Base += Frames[Window[static_cast<size_t>(C - OldestIter)]].TimesOff;
    D = 1;
  }
  uint64_t Idx = 0;
  for (; D < Len; ++D) {
    const OpRec &Loop = Ops[Chain[D]];
    int64_t C = (D + 1 == Len) ? Last : Coords[D];
    if (C < Loop.MinCoord || C > Loop.MaxCoord)
      return NoSlot;
    Idx = Idx * static_cast<uint64_t>(Loop.MaxCoord - Loop.MinCoord + 1) +
          static_cast<uint64_t>(C - Loop.MinCoord);
  }
  return static_cast<uint32_t>(Base + Idx);
}

//===----------------------------------------------------------------------===//
// Lazy expansion
//===----------------------------------------------------------------------===//

bool AgentSchedule::expandNext() {
  if (Failure || fullyExpanded() || pollCancel())
    return false;
  retireFrames();
  compact();
  if (InLoop) {
    expandIteration();
    return !Failure;
  }
  // The run of top-level copies and calls up to the next loop, then that
  // loop's first iteration.
  while (TopPos < TopOps && !Failure) {
    const Operation &Op = *Grid->Body.Ops[TopPos];
    if (Op.Kind == OpKind::For) {
      enterLoop(Op);
      if (InLoop) {
        expandIteration();
        break;
      }
      continue; // Zero trips: entered and closed.
    }
    if (Op.Kind == OpKind::Copy || Op.Kind == OpKind::Call)
      expandOp(Op);
    ++TopPos; // Alloc/MakePart: storage comes from the allocator.
  }
  return !Failure;
}

/// Opens the top-level loop \p Op. Its loop instance holds one extra count
/// until the last iteration is expanded, so its event cannot complete
/// while iterations are still to come.
void AgentSchedule::enterLoop(const Operation &Op) {
  WgIt->second = 0;
  int64_t Lo = Op.LoopLo.evaluate(Env);
  int64_t Hi = Op.LoopHi.evaluate(Env);
  LoopInst Loop;
  Loop.Remaining = 1;
  if (Op.Result != InvalidEventId) {
    assert(Events[Op.Result].Depth == 0 && "loop event keyed off its depth");
    Loop.Slot = keySlot(Events[Op.Result], nullptr, 0, 0);
  }
  LoopPath.push_back(static_cast<uint32_t>(Loops.size()));
  Loops.push_back(Loop);
  FrameStale = true;
  LoopDense = OpDense[Op.Id];
  LoopNext = Lo;
  LoopHi = Hi;
  InLoop = true;
  Env.LoopVars[Op.LoopVar] = Lo;
  if (TopLoops[LoopDense].Ring) {
    Window.clear();
    FreeFrames.clear();
    LoopFrameBase = static_cast<uint32_t>(Frames.size());
    OldestIter = Lo;
  }
  if (Lo >= Hi)
    closeLoop();
}

/// Expands iteration LoopNext of the open top-level loop, into a fresh or
/// recycled frame when the loop is a ring.
void AgentSchedule::expandIteration() {
  const Operation &Op = *Ops[LoopDense].Op;
  const TopLoop &Loop = TopLoops[LoopDense];
  int64_t K = LoopNext;
  Env.LoopVars[Op.LoopVar] = K;
  CoordStack.push_back(K);
  FrameStale = true;
  std::fill(IterInstances.begin(), IterInstances.end(), 0u);
  if (Loop.Ring) {
    if (FreeFrames.empty()) {
      if (Times.size() + Loop.FrameSlots > (uint64_t(1) << 27)) {
        fail(formatString("%s iteration space too large for dense event "
                          "tables",
                          Client));
        return;
      }
      Frames.push_back({static_cast<uint32_t>(Times.size()), 0, K});
      FreeFrames.push_back(static_cast<uint32_t>(Frames.size() - 1));
      Times.resize(Times.size() + Loop.FrameSlots);
    }
    CurFrame = FreeFrames.back();
    FreeFrames.pop_back();
    Frame &F = Frames[CurFrame];
    F.Pending = 0;
    F.Iter = K;
    std::fill_n(Times.begin() + F.TimesOff, Loop.FrameSlots,
                std::numeric_limits<double>::quiet_NaN());
    Window.push_back(CurFrame);
  }
  expandBlock(Op.Body);
  CoordStack.pop_back();
  FrameStale = true;
  CurFrame = NoFrame;
  ++ExpandedIterations;
  if (++LoopNext == LoopHi)
    closeLoop();
}

void AgentSchedule::closeLoop() {
  LoopInst &Loop = Loops[LoopPath.back()];
  if (--Loop.Remaining == 0 && Loop.Credited && Loop.Slot != NoSlot) {
    assert(std::isnan(Times[Loop.Slot]) && "slot completed twice");
    Times[Loop.Slot] = Loop.MaxTime;
  }
  LoopPath.pop_back();
  FrameStale = true;
  InLoop = false;
  ++TopPos;
}

/// Recycles the oldest live frames of the open ring loop: iteration k's
/// slots are read only by instances of iterations k .. k + MaxLag, so the
/// frame is free once all of those have issued.
void AgentSchedule::retireFrames() {
  if (!InLoop || !TopLoops[LoopDense].Ring)
    return;
  size_t Span = static_cast<size_t>(TopLoops[LoopDense].MaxLag) + 1;
  while (Window.size() >= Span) {
    for (size_t I = 0; I < Span; ++I)
      if (Frames[Window[I]].Pending != 0)
        return;
    FreeFrames.push_back(Window.front());
    Window.erase(Window.begin());
    ++OldestIter;
  }
}

/// Drops the issued prefix of the instance arenas once it is at least
/// half of them, renumbering the survivors.
void AgentSchedule::compact() {
  uint32_t Dead = static_cast<uint32_t>(Insts.size());
  for (const Queue &Q : Queues)
    if (Q.Head < Q.Ids.size())
      Dead = std::min(Dead, Q.Ids[Q.Head]);
  if (Dead < 1024 || size_t(Dead) * 2 < Insts.size())
    return;
  bool Survivors = Dead < Insts.size();
  uint32_t WaitCut = Survivors ? Insts[Dead].WaitOff
                               : static_cast<uint32_t>(Waits.size());
  uint32_t CoordCut =
      Survivors ? Insts[Dead].CoordOff
                : FrameStale ? static_cast<uint32_t>(Coords.size())
                             : FrameCoordOff;
  uint32_t LoopCut =
      Survivors ? Insts[Dead].LoopOff
                : FrameStale ? static_cast<uint32_t>(LoopPaths.size())
                             : FrameLoopOff;
  Insts.erase(Insts.begin(), Insts.begin() + Dead);
  Waits.erase(Waits.begin(), Waits.begin() + WaitCut);
  Coords.erase(Coords.begin(), Coords.begin() + CoordCut);
  LoopPaths.erase(LoopPaths.begin(), LoopPaths.begin() + LoopCut);
  for (InstRec &Inst : Insts) {
    Inst.WaitOff -= WaitCut;
    Inst.CoordOff -= CoordCut;
    Inst.LoopOff -= LoopCut;
  }
  if (!FrameStale) {
    FrameCoordOff -= CoordCut;
    FrameLoopOff -= LoopCut;
  }
  for (Queue &Q : Queues) {
    Q.Ids.erase(Q.Ids.begin(), Q.Ids.begin() + Q.Head);
    Q.Head = 0;
    for (uint32_t &Id : Q.Ids)
      Id -= Dead;
  }
  if (Hook)
    Hook->onCompact(Dead);
}

/// Unrolls the body of a nested loop (or an iteration's body) under the
/// current loop bindings, appending instances in program order. Every
/// nested loop iteration is one cancellation checkpoint.
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
/// every enclosing loop instance and its frame, and appends it to its
/// agent's queue.
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
  for (uint32_t LI : LoopPath) {
    ++Loops[LI].Remaining;
    Loops[LI].Credited = true;
  }
  R.Frame = CurFrame;
  if (CurFrame != NoFrame)
    ++Frames[CurFrame].Pending;
  ++IterInstances[Agent];

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
  Queues[Agent].Ids.push_back(static_cast<uint32_t>(Insts.size() - 1));
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

//===----------------------------------------------------------------------===//
// Steady state
//===----------------------------------------------------------------------===//

bool AgentSchedule::atRingIteration(uint32_t &LoopOp, int64_t &Iter,
                                    int64_t &Hi) const {
  if (Failure || !InLoop || !TopLoops[LoopDense].Ring)
    return false;
  LoopOp = LoopDense;
  Iter = LoopNext;
  Hi = LoopHi;
  return true;
}

bool AgentSchedule::ringPeriodic(int64_t &Period, int64_t &From) const {
  const TopLoop &Loop = TopLoops[LoopDense];
  Period = Loop.Period;
  From = Loop.From;
  return Loop.Periodic;
}

bool AgentSchedule::queuedFrom(int64_t From) const {
  for (size_t Agent = 0; Agent < NumAgents; ++Agent) {
    if (!hasHead(Agent))
      continue;
    // Queues are in program order: the head is the agent's oldest.
    uint32_t F = Insts[head(Agent)].Frame;
    if (F == NoFrame || F < LoopFrameBase || Frames[F].Iter < From)
      return false;
  }
  return true;
}

void AgentSchedule::appendSignature(std::vector<double> &Out, double Origin,
                                    double Floor) const {
  auto Relative = [&](double V) {
    return std::isnan(V) ? V : std::max(V - Origin, Floor);
  };
  for (const Queue &Q : Queues)
    Out.push_back(static_cast<double>(Q.Ids.size() - Q.Head));
  Out.push_back(static_cast<double>(Window.size()));
  for (uint64_t I = 0; I < FixedSlots; ++I)
    Out.push_back(Relative(Times[I]));
  uint64_t Slots = TopLoops[LoopDense].FrameSlots;
  for (uint32_t F : Window)
    for (uint64_t I = 0; I < Slots; ++I)
      Out.push_back(Relative(Times[Frames[F].TimesOff + I]));
  Out.push_back(Relative(Loops[LoopPath.back()].MaxTime));
}

void AgentSchedule::advance(double Delta, int64_t Iterations) {
  assert(InLoop && LoopNext + Iterations <= LoopHi &&
         "advance past the open loop's end");
  for (double &T : Times)
    if (!std::isnan(T))
      T += Delta;
  for (uint32_t LI : LoopPath)
    Loops[LI].MaxTime += Delta;
  for (uint32_t F : Window)
    Frames[F].Iter += Iterations;
  OldestIter += Iterations;
  LoopNext += Iterations;
  if (LoopNext == LoopHi)
    closeLoop();
}
