//===- CudaEmitter.cpp - Warp-specialized CUDA C++ generation --------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 6 of the compiler (Section 4.2.6): prints warp-specialized CUDA
/// C++ with the structure of Figure 1b. Events lower onto hardware
/// synchronization:
///
///  * TMA copy completions  -> shared-memory mbarrier arrivals (phase per
///    pipelined iteration),
///  * Tensor Core calls     -> wgmma commit/wait,
///  * cross-warp edges      -> mbarrier arrive/wait pairs (prod/cons),
///  * thread-level broadcast-> __syncwarp, warpgroup broadcast -> named
///    barrier arrive-and-wait.
///
/// Point-wise event-array indexing disappears: a valid SSA ordering of the
/// emitted statements already satisfies it (Section 4.2.6).
///
/// The printer is driven directly from the post-pipeline IR produced by
/// PassPipeline::defaultPipeline(): shared tiles come from the resource
/// allocator's plan, register fragments from the surviving Alloc ops,
/// mbarrier phase counts from the enclosing pipelined loop, and lag waits
/// from the loop variable actually in scope at the wait site.
///
/// In this reproduction the text is a structural artifact: it is
/// golden-tested, differentially executed through the scalar CPU lowering
/// in src/backend, and human-reviewed, but not compiled by nvcc in this
/// environment (see docs/DESIGN.md).
///
//===----------------------------------------------------------------------===//

#include "compiler/Passes.h"
#include "sim/AgentSchedule.h"
#include "support/Format.h"

#include <functional>
#include <map>

using namespace cypress;

namespace {

/// Widest warpgroup dimension in the grid body: the compute-agent count.
int64_t numWarpgroups(const IRBlock &Body) {
  int64_t Count = 1;
  walkOps(Body, [&](const Operation &Op) {
    Count = std::max(Count, warpgroupExtent(Op));
  });
  return Count;
}

/// True when the event's type has a warpgroup dimension (one instance per
/// compute warpgroup; broadcast consumers synchronize all of them).
bool eventHasWarpgroupDim(const IRModule &Module, EventId Event) {
  for (const EventDim &Dim : Module.event(Event).Type.Dims)
    if (Dim.Proc == Processor::Warpgroup)
      return true;
  return false;
}

/// One mbarrier: its emitted name plus the phase depth (the producer's
/// enclosing pipelined-loop depth; 1 = a plain single-phase barrier).
struct BarrierInfo {
  std::string Name;
  int64_t Phases = 1;
};

class CudaPrinter {
public:
  CudaPrinter(const IRModule &Module, const SharedAllocation &Alloc,
              std::string KernelName, CudaEmitStats &Stats)
      : Module(Module), Alloc(Alloc), KernelName(std::move(KernelName)),
        Stats(Stats) {}

  std::string run() {
    Out += "// Generated by the Cypress compiler (reproduction).\n";
    Out += "// Structure mirrors a CUTLASS-style warp-specialized main "
           "loop.\n";
    Out += "#include <cuda/barrier>\n";
    Out += "#include <cuda_fp16.h>\n\n";

    emitGridLaunches();

    for (char C : Out)
      if (C == '\n')
        ++Stats.Lines;
    return Out;
  }

private:
  void emitGridLaunches() {
    for (const std::unique_ptr<Operation> &Op : Module.root().Ops) {
      if (Op->Kind == OpKind::PFor && Op->PForProc == Processor::Block) {
        emitKernel(*Op);
        emitHostLauncher(*Op);
      }
    }
  }

  std::string tensorRef(const TensorSlice &Slice) {
    const IRTensor &T = Module.tensor(Slice.Tensor);
    std::string Name = sanitize(T.Name);
    if (!Slice.BufferIndex.isConstant() ||
        Slice.BufferIndex.constantValue() != 0)
      Name += "[" + Slice.BufferIndex.toString() + " /*pipe*/]";
    if (Slice.Part) {
      std::vector<std::string> Colors;
      for (const ScalarExpr &Color : Slice.Color)
        Colors.push_back(Color.toString());
      Name += ".tile(" + joinStrings(Colors, ", ") + ")";
    }
    return Name;
  }

  static std::string sanitize(std::string Name) {
    for (char &C : Name)
      if (C == '.' || C == '-')
        C = '_';
    return Name;
  }

  static const char *elemName(const IRTensor &T) {
    return T.Type.Element == ElementType::F16 ? "__half" : "float";
  }

  void line(unsigned Indent, const std::string &Text) {
    Out += std::string(Indent, ' ') + Text + "\n";
  }

  /// Kernel parameter list shared by the __global__ signature and the host
  /// launcher: one pointer per entry argument.
  std::vector<std::string> paramDecls() const {
    std::vector<std::string> Params;
    for (TensorId Id : Module.entryArgs()) {
      const IRTensor &T = Module.tensor(Id);
      Params.push_back(formatString("%s *__restrict__ %s", elemName(T),
                                    sanitize(T.Name).c_str()));
    }
    return Params;
  }

  /// True when \p Op runs on the DMA agent, by the agent schedule's
  /// ownership rule (sim/AgentSchedule.h).
  bool opAgent(const Operation &Op) const {
    return ownedByDmaAgent(*GridOp, Op);
  }

  void emitKernel(const Operation &Grid) {
    ++Stats.Kernels;
    Barriers.clear();
    ProducerAgent.clear();
    GridOp = &Grid;
    collectCrossAgentEvents(Grid);
    Stats.Mbarriers += static_cast<int64_t>(Barriers.size());

    line(0, formatString("__global__ void %s_kernel(", KernelName.c_str()));
    std::vector<std::string> Params = paramDecls();
    for (std::string &Param : Params)
      Param = "    " + Param;
    Out += joinStrings(Params, ",\n") + ") {\n";

    // Shared-memory plan from the resource allocator.
    line(2, formatString("extern __shared__ unsigned char smem[]; "
                         "// %lld bytes",
                         static_cast<long long>(Alloc.TotalBytes)));
    for (const SharedAllocation::Entry &E : Alloc.Entries) {
      const IRTensor &T = Module.tensor(E.Tensor);
      ++Stats.SharedTensors;
      line(2, formatString("auto *%s = reinterpret_cast<%s *>(smem + %lld); "
                           "// %s, %lld bytes%s",
                           sanitize(T.Name).c_str(), elemName(T),
                           static_cast<long long>(E.Offset),
                           T.Type.toString().c_str(),
                           static_cast<long long>(E.Bytes),
                           T.PipelineDepth > 1 ? " (multi-buffered)" : ""));
    }

    // Register fragments: every surviving non-shared Alloc in the body is
    // a per-warpgroup local array (the accumulators and staging fragments
    // the seed emitter used without declaring).
    walkOps(Grid.Body, [&](const Operation &Op) {
      if (Op.Kind != OpKind::Alloc)
        return;
      const IRTensor &T = Module.tensor(Op.AllocTensor);
      if (T.Mem == Memory::Shared || T.IsEntryArg)
        return;
      ++Stats.RegisterTensors;
      std::string Dims;
      for (int64_t D : T.Type.Dims.dims())
        Dims += formatString("[%lld]", static_cast<long long>(D));
      line(2, formatString("%s %s%s; // %s register fragment (per "
                           "warpgroup)",
                           elemName(T), sanitize(T.Name).c_str(),
                           Dims.c_str(), T.Type.toString().c_str()));
    });

    for (const auto &[Event, Bar] : Barriers) {
      if (Bar.Phases > 1)
        line(2, formatString("__shared__ cuda::barrier"
                             "<cuda::thread_scope_block> %s[%lld]; "
                             "// event %s, %lld pipeline phases",
                             Bar.Name.c_str(),
                             static_cast<long long>(Bar.Phases),
                             Module.event(Event).Name.c_str(),
                             static_cast<long long>(Bar.Phases)));
      else
        line(2, formatString("__shared__ cuda::barrier"
                             "<cuda::thread_scope_block> %s; // event %s",
                             Bar.Name.c_str(),
                             Module.event(Event).Name.c_str()));
    }

    Wgs = numWarpgroups(Grid.Body);
    bool WarpSpec = Grid.WarpSpecialize;
    LoopStack.clear();
    if (WarpSpec) {
      line(2, "const bool is_dma_warp = threadIdx.x >= "
              "blockDim.x - 32;");
      line(2, "if (is_dma_warp) {");
      emitAgent(Grid.Body, /*Dma=*/true, 4);
      line(2, "} else {");
      emitAgent(Grid.Body, /*Dma=*/false, 4);
      line(2, "}");
    } else {
      emitAgent(Grid.Body, /*Dma=*/false, 2);
    }
    line(0, "}\n");
  }

  /// Records which agent produces each in-body event and which events need
  /// an mbarrier. An event crosses agents when a Copy/Call consumer sits on
  /// the other agent, or when a For loop (executed by both agents) consumes
  /// it: the loop-entry wait happens on whichever agent did not produce it.
  void collectCrossAgentEvents(const Operation &Grid) {
    walkOps(Grid.Body, [&](const Operation &Op) {
      if (Op.Result != InvalidEventId)
        ProducerAgent[Op.Result] = opAgent(Op);
    });
    // Phase depth: events produced inside a pipelined loop get one mbarrier
    // phase per in-flight iteration.
    std::map<EventId, int64_t> Phases;
    std::function<void(const IRBlock &, int64_t)> Visit =
        [&](const IRBlock &Block, int64_t Depth) {
          for (const std::unique_ptr<Operation> &Op : Block.Ops) {
            if (Op->Result != InvalidEventId)
              Phases[Op->Result] = Depth;
            if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor)
              Visit(Op->Body,
                    Op->ForPipeline > 1 ? Op->ForPipeline : Depth);
          }
        };
    Visit(Grid.Body, 1);

    auto AddBarrier = [&](EventId Event) {
      if (Barriers.count(Event))
        return;
      BarrierInfo Bar;
      Bar.Name = formatString("bar_%s", Module.event(Event).Name.c_str());
      auto It = Phases.find(Event);
      Bar.Phases = It == Phases.end() ? 1 : It->second;
      Barriers.emplace(Event, std::move(Bar));
    };
    walkOps(Grid.Body, [&](const Operation &Op) {
      for (const EventRef &Ref : Op.Preconds) {
        auto It = ProducerAgent.find(Ref.Event);
        if (It == ProducerAgent.end())
          continue;
        if (Op.Kind == OpKind::For || Op.Kind == OpKind::PFor) {
          // Both agents execute the loop header; the producer's peer waits.
          if (Grid.WarpSpecialize)
            AddBarrier(Ref.Event);
        } else if (It->second != opAgent(Op)) {
          AddBarrier(Ref.Event);
        }
      }
    });
  }

  void emitAgent(const IRBlock &Block, bool Dma, unsigned Indent) {
    for (const std::unique_ptr<Operation> &Op : Block.Ops)
      emitAgentOp(*Op, Dma, Indent);
  }

  /// The innermost loop variable in scope, for phase indexing; "k" when no
  /// loop encloses the site (single-phase barriers never index anyway).
  std::string phaseVar() const {
    return LoopStack.empty() ? std::string("k") : LoopStack.back();
  }

  /// Emits the wait for one precondition on agent \p Dma. Cross-agent
  /// references wait on the event's mbarrier (phase-guarded under pipeline
  /// lag); same-agent warpgroup broadcasts on the compute side become named
  /// barriers (all warpgroups arrive-and-wait); everything else is already
  /// ordered by the agent's own program order.
  void emitWait(const EventRef &Ref, bool Dma, unsigned Indent) {
    auto Produced = ProducerAgent.find(Ref.Event);
    if (Produced == ProducerAgent.end())
      return; // Host-level event: satisfied before launch.
    if (Produced->second == Dma) {
      // Same agent. A warpgroup broadcast still synchronizes the compute
      // warpgroups against each other.
      if (!Dma && Ref.hasBroadcast() &&
          eventHasWarpgroupDim(Module, Ref.Event)) {
        ++Stats.NamedBarriers;
        line(Indent, formatString("named_barrier_arrive_and_wait(%lld "
                                  "/*threads*/); // %s[:] across warpgroups",
                                  static_cast<long long>(Wgs * 128),
                                  Module.event(Ref.Event).Name.c_str()));
      }
      return;
    }
    auto It = Barriers.find(Ref.Event);
    if (It == Barriers.end())
      return;
    const BarrierInfo &Bar = It->second;
    ++Stats.MbarrierWaits;
    std::string Var = phaseVar();
    if (Ref.IterLag > 0) {
      std::string Index =
          Bar.Phases > 1
              ? formatString("[(%s - %lld) %% %lld]", Var.c_str(),
                             static_cast<long long>(Ref.IterLag),
                             static_cast<long long>(Bar.Phases))
              : std::string();
      line(Indent, formatString("if (%s >= %lld) %s%s.wait(/*phase k-%lld*/);",
                                Var.c_str(),
                                static_cast<long long>(Ref.IterLag),
                                Bar.Name.c_str(), Index.c_str(),
                                static_cast<long long>(Ref.IterLag)));
    } else if (Bar.Phases > 1) {
      line(Indent, formatString("%s[%s %% %lld].wait();", Bar.Name.c_str(),
                                Var.c_str(),
                                static_cast<long long>(Bar.Phases)));
    } else {
      line(Indent, formatString("%s.wait();", Bar.Name.c_str()));
    }
  }

  void emitAgentOp(const Operation &Op, bool Dma, unsigned Indent) {
    if (Op.Kind == OpKind::For) {
      // Loop-entry waits: both agents execute the header, so each waits on
      // the preconditions the other agent produced (the seed emitter
      // dropped these, losing e.g. the wait on the staged Q copy before
      // attention's main loop).
      for (const EventRef &Ref : Op.Preconds)
        emitWait(Ref, Dma, Indent);
      line(Indent, formatString("for (int %s = %s; %s < %s; ++%s) {",
                                Op.LoopVarName.c_str(),
                                Op.LoopLo.toString().c_str(),
                                Op.LoopVarName.c_str(),
                                Op.LoopHi.toString().c_str(),
                                Op.LoopVarName.c_str()));
      LoopStack.push_back(Op.LoopVarName);
      emitAgent(Op.Body, Dma, Indent + 2);
      LoopStack.pop_back();
      line(Indent, "}");
      return;
    }
    if (Op.Kind == OpKind::Alloc || Op.Kind == OpKind::MakePart)
      return; // Declared in the prologue (smem plan / register fragments).
    if (opAgent(Op) != Dma) {
      // The other agent runs it; nothing to emit here.
      return;
    }

    // Waits on cross-agent preconditions.
    for (const EventRef &Ref : Op.Preconds)
      emitWait(Ref, Dma, Indent);

    switch (Op.Kind) {
    case OpKind::Copy: {
      if (Op.Unit == ExecUnit::TMA)
        ++Stats.TmaCopies;
      else
        ++Stats.SimtCopies;
      const char *Mech = Op.Unit == ExecUnit::TMA
                             ? "cp_async_bulk_tensor /*TMA*/"
                             : "copy";
      line(Indent, formatString("%s(%s, %s);", Mech,
                                tensorRef(Op.CopySrc).c_str(),
                                tensorRef(Op.CopyDst).c_str()));
      break;
    }
    case OpKind::Call: {
      std::vector<std::string> Args;
      for (const TensorSlice &Slice : Op.Args)
        Args.push_back(tensorRef(Slice));
      for (const ScalarExpr &Expr : Op.ScalarArgs)
        Args.push_back(Expr.toString());
      if (Op.Unit == ExecUnit::TensorCore) {
        ++Stats.WgmmaCalls;
        line(Indent, "warpgroup_arrive();");
        line(Indent, formatString("%s(%s); // wgmma", Op.Callee.c_str(),
                                  joinStrings(Args, ", ").c_str()));
        line(Indent, "warpgroup_commit_batch();");
        line(Indent, "warpgroup_wait<0>();");
      } else {
        ++Stats.SimtCalls;
        line(Indent, formatString("%s(%s);", Op.Callee.c_str(),
                                  joinStrings(Args, ", ").c_str()));
      }
      break;
    }
    default:
      break;
    }

    // Arrive on the barrier if the other agent consumes our event.
    if (Op.Result != InvalidEventId) {
      auto It = Barriers.find(Op.Result);
      if (It != Barriers.end()) {
        ++Stats.MbarrierArrives;
        const BarrierInfo &Bar = It->second;
        if (Bar.Phases > 1)
          line(Indent, formatString("%s[%s %% %lld].arrive();",
                                    Bar.Name.c_str(), phaseVar().c_str(),
                                    static_cast<long long>(Bar.Phases)));
        else
          line(Indent, formatString("%s.arrive();", Bar.Name.c_str()));
      }
    }
  }

  void emitHostLauncher(const Operation &Grid) {
    line(0, formatString("void %s(%s) {", KernelName.c_str(),
                         joinStrings(paramDecls(), ", ").c_str()));
    line(2, formatString("dim3 grid(%s);", Grid.LoopHi.toString().c_str()));
    int64_t Threads = Wgs * 128 + (Grid.WarpSpecialize ? 32 : 0);
    if (Grid.WarpSpecialize)
      line(2, formatString("dim3 block(%lld); // %lld warpgroups * 128 + "
                           "DMA warp",
                           static_cast<long long>(Threads),
                           static_cast<long long>(Wgs)));
    else
      line(2, formatString("dim3 block(%lld); // %lld warpgroups * 128",
                           static_cast<long long>(Threads),
                           static_cast<long long>(Wgs)));
    std::vector<std::string> Args;
    for (TensorId Id : Module.entryArgs())
      Args.push_back(sanitize(Module.tensor(Id).Name));
    line(2, formatString("%s_kernel<<<grid, block, %lld>>>(%s);",
                         KernelName.c_str(),
                         static_cast<long long>(Alloc.TotalBytes),
                         joinStrings(Args, ", ").c_str()));
    line(0, "}\n");
  }

  const IRModule &Module;
  const SharedAllocation &Alloc;
  std::string KernelName;
  CudaEmitStats &Stats;
  std::string Out;

  // Per-kernel emission state.
  std::map<EventId, BarrierInfo> Barriers;
  std::map<EventId, bool> ProducerAgent;
  std::vector<std::string> LoopStack; ///< Enclosing loop-variable names.
  int64_t Wgs = 1;
  const Operation *GridOp = nullptr; ///< Block-level loop being emitted.
};

} // namespace

std::string cypress::emitCudaSource(const IRModule &Module,
                                    const SharedAllocation &Alloc,
                                    const std::string &KernelName,
                                    CudaEmitStats &Stats) {
  Stats = CudaEmitStats();
  return CudaPrinter(Module, Alloc, KernelName, Stats).run();
}
