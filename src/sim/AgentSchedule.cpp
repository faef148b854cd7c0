//===- AgentSchedule.cpp - Agent streams and event readiness of one block -===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of the block schedule described in AgentSchedule.h: a
/// static pre-walk assigns dense op slots, one sequential expansion unrolls
/// the grid body into per-agent instance streams, and the completion table
/// is sized from the loop extents the expansion observed.
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
  Insts.clear();
  Coords.clear();
  LoopPaths.clear();
  Preconds.clear();
  Ops.clear();
  OpDense.clear();
  KnownEvents.clear();
  // Pooling keeps steady-state builds allocation-free, but one outsized
  // block must not pin its completion arena to the owner for good;
  // release anything beyond a generous ceiling.
  Times.clear();
  if (Times.capacity() > (size_t(1) << 22))
    Times.shrink_to_fit();
  Loops.clear();
  ChainArena.clear();
  LoopOpStack.clear();
  CoordStack.clear();
  LoopPath.clear();
  Events.assign(NumEvents, EventRec());
  Wgs = 1;
  Failure.reset();
  if (Hints) {
    // IR statistics from the compile that produced the module (the pass
    // manager's PipelineStats) pre-size the per-build tables.
    Ops.reserve(Hints->NumOps);
    OpDense.reserve(Hints->NumOps);
    Insts.reserve(Hints->NumOps);
    Preconds.reserve(Hints->NumOps);
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
  // depth and enclosing-loop chain, takes the widest warpgroup extent, and
  // marks the events produced inside the body (references to anything
  // else are host-level and vacuously ready).
  indexOps(Grid->Body);

  // Agent 0 = DMA warp; agents 1..Wgs = compute warpgroups.
  NumAgents = 1 + static_cast<size_t>(Wgs);
  Streams.resize(NumAgents);
  for (std::vector<uint32_t> &Stream : Streams)
    Stream.clear();

  for (const auto &[Proc, Index] : BlockEnv.ProcIndices)
    Env.ProcIndices[Proc] = Index;
  for (const auto &[Var, Value] : BlockEnv.LoopVars)
    Env.LoopVars[Var] = Value;
  WgIt = Env.ProcIndices.find(Processor::Warpgroup);
  assert(WgIt != Env.ProcIndices.end() && "block env binds no warpgroup");

  expandBlock(Grid->Body);
  if (!Failure)
    buildEventTables();
  if (Failure)
    return *Failure;
  return ErrorOrVoid::success();
}

/// The static pre-walk (see build). Follows walkOps order — op before
/// body, recursing into For and PFor alike. Dense slots go only to
/// For/Copy/Call ops; ops under a PFor keep none (reaching a PFor fails the
/// expansion).
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
    case OpKind::For:
      LoopOpStack.push_back(assignDense(*Op));
      indexOps(Op->Body);
      LoopOpStack.pop_back();
      break;
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

/// Dense op-table slot for \p Op. Nesting is static, so the op's depth and
/// enclosing-loop chain are recorded once, at slot creation.
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
  ChainArena.insert(ChainArena.end(), LoopOpStack.begin(), LoopOpStack.end());
  return Slot;
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
    case OpKind::For: {
      OpRec &Rec = Ops[OpDense[Op->Id]];
      Rec.Visited = true;
      WgIt->second = 0;
      int64_t Lo = Op->LoopLo.evaluate(Env);
      int64_t Hi = Op->LoopHi.evaluate(Env);
      if (Lo < Hi) {
        Rec.MinCoord = std::min(Rec.MinCoord, Lo);
        Rec.MaxCoord = std::max(Rec.MaxCoord, Hi - 1);
      }
      LoopPath.push_back(static_cast<uint32_t>(Loops.size()));
      Loops.push_back({0, 0.0, Op->Result});
      int64_t &Var = Env.LoopVars[Op->LoopVar];
      for (int64_t K = Lo; K < Hi && !Failure; ++K) {
        if (Check.enabled() && Check.shouldStop()) {
          Failure = Check.diagnostic(formatString("%s expansion", Client));
          return;
        }
        Var = K;
        CoordStack.push_back(K);
        expandBlock(Op->Body);
        CoordStack.pop_back();
      }
      LoopPath.pop_back();
      break;
    }
    case OpKind::PFor:
      fail(formatString("nested parallel loops must be flattened before %s",
                        Client));
      return;
    case OpKind::Copy:
    case OpKind::Call:
      expandOp(*Op);
      break;
    }
  }
}

void AgentSchedule::expandOp(const Operation &Op) {
  uint32_t OpIdx = OpDense[Op.Id];
  bool Dma = ownedByDmaAgent(*Grid, Op);
  if (hasWarpgroupDim(Op)) {
    for (int64_t Wg = 0; Wg < warpgroupExtent(Op); ++Wg)
      pushInstance(Op, OpIdx, Wg, Dma ? 0 : 1 + static_cast<size_t>(Wg));
  } else {
    pushInstance(Op, OpIdx, -1, Dma ? 0 : 1);
  }
}

/// Materializes one instance: interns its coordinates, loop path and
/// precondition descriptors, counts it against every enclosing loop
/// instance, and appends it to its agent's stream.
void AgentSchedule::pushInstance(const Operation &Op, uint32_t OpIdx,
                                 int64_t Wg, size_t Agent) {
  Ops[OpIdx].Visited = true;

  InstRec R;
  R.Op = &Op;
  R.Wg = static_cast<int32_t>(Wg);
  R.OpIdx = OpIdx;
  R.Depth = static_cast<uint32_t>(CoordStack.size());
  R.CoordOff = static_cast<uint32_t>(Coords.size());
  Coords.insert(Coords.end(), CoordStack.begin(), CoordStack.end());
  R.LoopOff = static_cast<uint32_t>(LoopPaths.size());
  LoopPaths.insert(LoopPaths.end(), LoopPath.begin(), LoopPath.end());
  for (uint32_t LI : LoopPath)
    ++Loops[LI].Remaining;

  WgIt->second = std::max<int64_t>(Wg, 0);

  R.PrecondOff = static_cast<uint32_t>(Preconds.size());
  for (const EventRef &Ref : Op.Preconds) {
    PrecondDesc P;
    P.Event = Ref.Event;
    P.IterLag = Ref.IterLag;
    if (Ref.Event < Events.size() && Events[Ref.Event].Known) {
      const EventType &Type = Module->event(Ref.Event).Type;
      for (size_t D = 0; D < Ref.Indices.size() && D < Type.Dims.size();
           ++D) {
        if (Type.Dims[D].Proc == Processor::Warpgroup) {
          if (Ref.Indices[D].isBroadcast())
            P.Broadcast = true;
          else
            P.WantWg =
                static_cast<int32_t>(Ref.Indices[D].Index.evaluate(Env));
        } else if (Ref.Indices[D].isBroadcast()) {
          // Warp/thread broadcast: the collective instance plus a barrier.
          P.Broadcast = true;
        }
      }
    }
    Preconds.push_back(P);
  }
  R.PrecondCount = static_cast<uint32_t>(Preconds.size()) - R.PrecondOff;

  Insts.push_back(R);
  Streams[Agent].push_back(static_cast<uint32_t>(Insts.size() - 1));
  if (Hook)
    Hook->onInstance(Env, Op, R.Wg, CoordStack.data(), R.Depth);
}

/// Sizes the flat completion arena: one slab per in-grid event, (Wgs + 1)
/// warpgroup slots when replicated, times the coordinate box of the
/// producer's own enclosing loops (ranges observed during expansion).
void AgentSchedule::buildEventTables() {
  uint64_t Total = 0;
  for (auto [Event, ProducerId] : KnownEvents) {
    EventRec &Rec = Events[Event];
    uint32_t Dense = ProducerId < OpDense.size() ? OpDense[ProducerId] : ~0u;
    // A producer that was never reached (zero-trip enclosing loop) can
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
        // The op was reached, so every enclosing loop ran >= 1 iteration.
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
  // Fail with a diagnostic instead of allocating gigabytes per owner.
  if (Total > (uint64_t(1) << 27)) {
    fail(formatString("%s iteration space too large for dense event tables",
                      Client));
    return;
  }
  Times.assign(Total, std::numeric_limits<double>::quiet_NaN());
}

void AgentSchedule::fail(std::string Message) {
  if (!Failure)
    Failure = Diagnostic(std::move(Message));
}
