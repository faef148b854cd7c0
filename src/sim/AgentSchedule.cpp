//===- AgentSchedule.cpp - Agent streams and event readiness of one block -===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of the block schedule described in AgentSchedule.h: a
/// static pre-walk assigns dense op slots, the sharded expansion unrolls
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

void AgentSchedule::ShardBuf::reset(size_t NumAgents, size_t NumOps,
                                    size_t NumTopLoops,
                                    const ScalarEnv &BlockEnv) {
  Insts.clear();
  Coords.clear();
  LoopPaths.clear();
  Preconds.clear();
  Loops.clear();
  Streams.resize(NumAgents);
  for (std::vector<uint32_t> &Stream : Streams)
    Stream.clear();
  TopRemaining.assign(NumTopLoops, 0);
  Ops.assign(NumOps, OpAcc());
  CoordStack.clear();
  LoopPath.clear();
  for (const auto &[Proc, Index] : BlockEnv.ProcIndices)
    Env.ProcIndices[Proc] = Index;
  for (const auto &[Var, Value] : BlockEnv.LoopVars)
    Env.LoopVars[Var] = Value;
  WgIt = Env.ProcIndices.find(Processor::Warpgroup);
  assert(WgIt != Env.ProcIndices.end() && "block env binds no warpgroup");
  Failure.reset();
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
  Units.clear();
  // Shards are reset by the expansion (only the ones it uses).
  Events.assign(NumEvents, EventRec());
  Wgs = 1;
  NumTopLoops = 0;
  Failure.reset();
  if (Hints) {
    // IR statistics from the compile that produced the module (the pass
    // manager's PipelineStats) pre-size the per-build tables.
    Ops.reserve(Hints->NumOps);
    OpDense.reserve(Hints->NumOps);
    Insts.reserve(Hints->NumOps);
    KnownEvents.reserve(Hints->NumEvents);
  }
}

ErrorOrVoid AgentSchedule::build(const IRModule &TheModule,
                                 const Operation &TheGrid,
                                 const ScalarEnv &BlockEnv,
                                 const char *TheClient,
                                 const Cancellation *TheCancel,
                                 SimWorkerPool *ThePool, ExpansionHook *TheHook,
                                 const SimHints *Hints) {
  Module = &TheModule;
  Grid = &TheGrid;
  Client = TheClient;
  Cancel = TheCancel;
  Pool = ThePool;
  Hook = TheHook;
  reset(Module->numEvents(), Hints);

  // One static pre-walk records every For/Copy/Call op's dense slot,
  // depth and enclosing-loop chain, takes the widest warpgroup extent, and
  // marks the events produced inside the body (references to anything
  // else are host-level and vacuously ready). Static ids are what let
  // expansion shards run without shared mutable state.
  indexOps(Grid->Body);

  // Agent 0 = DMA warp; agents 1..Wgs = compute warpgroups.
  NumAgents = 1 + static_cast<size_t>(Wgs);
  Streams.resize(NumAgents);
  for (std::vector<uint32_t> &Stream : Streams)
    Stream.clear();

  buildUnits(BlockEnv);
  if (!Failure)
    expandShards(BlockEnv, Hints);
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

/// Flattens the grid body's top level into the unit work list: one unit
/// per bare Copy/Call and one per iteration of each top-level For. The
/// top-level loops' instances are created here (ids 0..NumTopLoops-1)
/// because their iterations may be split across shards — each shard counts
/// its body instances privately and the merge sums them.
void AgentSchedule::buildUnits(const ScalarEnv &BlockEnv) {
  for (const std::unique_ptr<Operation> &Op : Grid->Body.Ops) {
    switch (Op->Kind) {
    case OpKind::Alloc:
    case OpKind::MakePart:
      break; // Storage comes from the allocator / allocation prologue.
    case OpKind::For: {
      OpRec &Rec = Ops[OpDense[Op->Id]];
      Rec.Visited = true;
      int64_t Lo = Op->LoopLo.evaluate(BlockEnv);
      int64_t Hi = Op->LoopHi.evaluate(BlockEnv);
      if (Lo < Hi) {
        Rec.MinCoord = std::min(Rec.MinCoord, Lo);
        Rec.MaxCoord = std::max(Rec.MaxCoord, Hi - 1);
      }
      uint32_t LI = static_cast<uint32_t>(Loops.size());
      Loops.push_back({0, 0.0, Op->Result});
      for (int64_t K = Lo; K < Hi; ++K)
        Units.push_back({Op.get(), K, LI});
      break;
    }
    case OpKind::PFor:
      fail(formatString("nested parallel loops must be flattened before %s",
                        Client));
      return;
    case OpKind::Copy:
    case OpKind::Call:
      Units.push_back({Op.get(), 0, ~0u});
      break;
    }
  }
  NumTopLoops = static_cast<uint32_t>(Loops.size());
}

/// Splits the unit list into contiguous shards, expands each into its
/// private buffers (across the worker pool when one is available), and
/// merges in shard order. The shard count never changes results — only
/// which thread produced which contiguous slice.
void AgentSchedule::expandShards(const ScalarEnv &BlockEnv,
                                 const SimHints *Hints) {
  size_t NumUnits = Units.size();
  size_t NumShards = 1;
  if (Pool && NumUnits > 1)
    NumShards = std::min(Pool->parallelism(), NumUnits);
  if (Shards.size() < NumShards)
    Shards.resize(NumShards);
  for (size_t I = 0; I < NumShards; ++I) {
    ShardBuf &B = Shards[I];
    B.reset(NumAgents, Ops.size(), NumTopLoops, BlockEnv);
    if (Hints && Hints->NumOps) {
      // The same IR statistics that pre-size the global tables, divided
      // across the shards (each sees roughly 1/NumShards of the work).
      size_t PerShard = Hints->NumOps / NumShards + 1;
      B.Insts.reserve(PerShard);
      B.Preconds.reserve(PerShard);
    }
  }
  if (Hook)
    Hook->beginShards(NumShards);
  auto Work = [&](size_t Shard) {
    expandUnitRange(Shard, NumUnits * Shard / NumShards,
                    NumUnits * (Shard + 1) / NumShards);
  };
  if (NumShards > 1)
    Pool->parallelFor(NumShards, Work);
  else
    Work(0);
  mergeShards(NumShards);
}

/// Expands units [Begin, End) into shard \p Shard. Runs on a pool worker:
/// reads only the IR and the pre-walked tables and writes only the shard.
void AgentSchedule::expandUnitRange(size_t Shard, size_t Begin, size_t End) {
  ShardBuf &B = Shards[Shard];
  // Each shard polls its own checkpoint (the stride counter is per-thread
  // state); the in-order merge surfaces the first shard's failure, so the
  // exit is as deterministic as the expansion itself.
  CancelCheck Check = Cancel ? CancelCheck(*Cancel) : CancelCheck();
  for (size_t U = Begin; U < End && !B.Failure; ++U) {
    if (Check.enabled() && Check.shouldStop()) {
      B.Failure =
          Check.diagnostic(formatString("%s shard expansion", Client));
      return;
    }
    const TopUnit &Unit = Units[U];
    B.CoordStack.clear();
    B.LoopPath.clear();
    if (Unit.TopLoop != ~0u) {
      B.Env.LoopVars[Unit.Op->LoopVar] = Unit.Iter;
      B.CoordStack.push_back(Unit.Iter);
      B.LoopPath.push_back(Unit.TopLoop);
      expandShardBlock(B, Shard, Unit.Op->Body);
    } else {
      expandShardOp(B, Shard, *Unit.Op);
    }
  }
}

void AgentSchedule::expandShardBlock(ShardBuf &B, size_t Shard,
                                     const IRBlock &Block) {
  ScalarEnv &Env = B.Env;
  for (const std::unique_ptr<Operation> &Op : Block.Ops) {
    if (B.Failure)
      return;
    switch (Op->Kind) {
    case OpKind::Alloc:
    case OpKind::MakePart:
      break;
    case OpKind::For: {
      OpAcc &Acc = B.Ops[OpDense[Op->Id]];
      Acc.Visited = true;
      B.WgIt->second = 0;
      int64_t Lo = Op->LoopLo.evaluate(Env);
      int64_t Hi = Op->LoopHi.evaluate(Env);
      if (Lo < Hi) {
        Acc.MinCoord = std::min(Acc.MinCoord, Lo);
        Acc.MaxCoord = std::max(Acc.MaxCoord, Hi - 1);
      }
      // Encoded local id: shifted past the global top-level loops.
      uint32_t LI = NumTopLoops + static_cast<uint32_t>(B.Loops.size());
      B.Loops.push_back({0, 0.0, Op->Result});
      B.LoopPath.push_back(LI);
      int64_t &Var = Env.LoopVars[Op->LoopVar];
      for (int64_t K = Lo; K < Hi; ++K) {
        Var = K;
        B.CoordStack.push_back(K);
        expandShardBlock(B, Shard, Op->Body);
        B.CoordStack.pop_back();
      }
      B.LoopPath.pop_back();
      break;
    }
    case OpKind::PFor:
      B.Failure = Diagnostic(formatString(
          "nested parallel loops must be flattened before %s", Client));
      return;
    case OpKind::Copy:
    case OpKind::Call:
      expandShardOp(B, Shard, *Op);
      break;
    }
  }
}

void AgentSchedule::expandShardOp(ShardBuf &B, size_t Shard,
                                  const Operation &Op) {
  uint32_t OpIdx = OpDense[Op.Id];
  bool Dma = ownedByDmaAgent(*Grid, Op);
  if (hasWarpgroupDim(Op)) {
    for (int64_t Wg = 0; Wg < warpgroupExtent(Op); ++Wg)
      pushInstance(B, Shard, Op, OpIdx, Wg,
                   Dma ? 0 : 1 + static_cast<size_t>(Wg));
  } else {
    pushInstance(B, Shard, Op, OpIdx, -1, Dma ? 0 : 1);
  }
}

/// Materializes one instance into \p B: interns its coordinates, loop path
/// and precondition descriptors, counts it against every enclosing loop
/// instance, and appends it to its agent's stream.
void AgentSchedule::pushInstance(ShardBuf &B, size_t Shard,
                                 const Operation &Op, uint32_t OpIdx,
                                 int64_t Wg, size_t Agent) {
  B.Ops[OpIdx].Visited = true;

  InstRec R;
  R.Op = &Op;
  R.Wg = static_cast<int32_t>(Wg);
  R.OpIdx = OpIdx;
  R.Depth = static_cast<uint32_t>(B.CoordStack.size());
  R.CoordOff = static_cast<uint32_t>(B.Coords.size());
  B.Coords.insert(B.Coords.end(), B.CoordStack.begin(), B.CoordStack.end());
  R.LoopOff = static_cast<uint32_t>(B.LoopPaths.size());
  B.LoopPaths.insert(B.LoopPaths.end(), B.LoopPath.begin(),
                     B.LoopPath.end());

  // The top-level loop a shard shares with its peers is counted privately
  // and summed at merge time.
  for (uint32_t LI : B.LoopPath) {
    if (LI < NumTopLoops)
      ++B.TopRemaining[LI];
    else
      ++B.Loops[LI - NumTopLoops].Remaining;
  }

  ScalarEnv &Env = B.Env;
  B.WgIt->second = std::max<int64_t>(Wg, 0);

  R.PrecondOff = static_cast<uint32_t>(B.Preconds.size());
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
    B.Preconds.push_back(P);
  }
  R.PrecondCount = static_cast<uint32_t>(B.Preconds.size()) - R.PrecondOff;

  B.Insts.push_back(R);
  B.Streams[Agent].push_back(static_cast<uint32_t>(B.Insts.size() - 1));
  if (Hook)
    Hook->onInstance(Shard, Env, Op, R.Wg, B.CoordStack.data(), R.Depth);
}

/// Concatenates the shard buffers into the global arenas in shard order,
/// fixing up offsets and renumbering shard-local loop instances past the
/// top-level ones. Shards cover contiguous unit ranges in order, so the
/// merged instance order is exactly the sequential expansion order.
void AgentSchedule::mergeShards(size_t NumShards) {
  for (size_t I = 0; I < NumShards && !Failure; ++I)
    if (Shards[I].Failure)
      Failure = Shards[I].Failure;
  if (Failure)
    return;
  uint32_t LoopShift = 0; // Sum of earlier shards' local loop counts.
  for (size_t SI = 0; SI < NumShards; ++SI) {
    ShardBuf &B = Shards[SI];
    for (size_t O = 0, E = B.Ops.size(); O != E; ++O) {
      const OpAcc &Acc = B.Ops[O];
      if (!Acc.Visited)
        continue; // Shards only write facts about ops they reached.
      OpRec &R = Ops[O];
      R.Visited = true;
      R.MinCoord = std::min(R.MinCoord, Acc.MinCoord);
      R.MaxCoord = std::max(R.MaxCoord, Acc.MaxCoord);
    }
    for (uint32_t T = 0; T < NumTopLoops; ++T)
      Loops[T].Remaining += B.TopRemaining[T];

    uint32_t InstBase = static_cast<uint32_t>(Insts.size());
    uint32_t CoordBase = static_cast<uint32_t>(Coords.size());
    uint32_t LoopPathBase = static_cast<uint32_t>(LoopPaths.size());
    uint32_t PrecondBase = static_cast<uint32_t>(Preconds.size());
    for (const InstRec &Inst : B.Insts) {
      InstRec R = Inst;
      R.CoordOff += CoordBase;
      R.LoopOff += LoopPathBase;
      R.PrecondOff += PrecondBase;
      Insts.push_back(R);
    }
    Coords.insert(Coords.end(), B.Coords.begin(), B.Coords.end());
    Preconds.insert(Preconds.end(), B.Preconds.begin(), B.Preconds.end());
    for (uint32_t Entry : B.LoopPaths)
      LoopPaths.push_back(Entry < NumTopLoops ? Entry : Entry + LoopShift);
    Loops.insert(Loops.end(), B.Loops.begin(), B.Loops.end());
    for (size_t A = 0; A < NumAgents; ++A)
      for (uint32_t Idx : B.Streams[A])
        Streams[A].push_back(Idx + InstBase);
    LoopShift += static_cast<uint32_t>(B.Loops.size());
  }
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
  // The NaN fill is the one O(iteration space) initialization; chunk it
  // across the pool when the arena is big enough for the fan-out to pay
  // for itself. Disjoint ranges, so any chunk order produces the same
  // bytes.
  Times.resize(Total);
  double *Data = Times.data();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  size_t Chunks = Pool ? Pool->parallelism() : 1;
  if (Chunks > 1 && Total > (uint64_t(1) << 16)) {
    Pool->parallelFor(Chunks, [&](size_t C) {
      std::fill(Data + Total * C / Chunks, Data + Total * (C + 1) / Chunks,
                NaN);
    });
  } else {
    std::fill(Data, Data + Total, NaN);
  }
}

void AgentSchedule::fail(std::string Message) {
  if (!Failure)
    Failure = Diagnostic(std::move(Message));
}
