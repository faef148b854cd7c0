//===- DependenceAnalysis.cpp - Task tree to event IR ----------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 1 of the compiler (Section 4.2.1). Performs an in-order traversal
/// of the instantiated task tree, starting at the entrypoint of the mapping
/// specification. The traversal maintains an event version for each tensor
/// in scope; task launches follow the four-step copy-in/copy-out discipline:
///
///   (1) fresh allocation per tensor argument in the mapped memory,
///   (2) copy-in for read arguments (with recorded preconditions),
///   (3) recursive traversal of the selected callee variant,
///   (4) copy-out for written arguments.
///
/// Sequential (srange) and parallel (prange) groups lower to for/pfor ops;
/// loop bodies perform dependence tracking in a fresh scope, and the loop
/// operation itself collects the external dependencies at entry, exactly as
/// in the worked example of Figure 8.
///
//===----------------------------------------------------------------------===//

#include "compiler/PassManager.h"
#include "compiler/Passes.h"
#include "support/Format.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace cypress;

namespace {

/// How a loop body used an external tensor (drives the loop op's preconds
/// and the outer version update at loop exit).
struct ExternalUse {
  bool Read = false;
  bool Written = false;
};

/// Per-tensor dependence state within one scope: the last writer plus all
/// readers since (for write-after-read anti-dependencies), scope-locality,
/// and the external-use summary for loop wiring — one flat record instead
/// of three hashed tables.
struct TensorState {
  TensorId Tensor = InvalidTensorId;
  bool HasWrite = false;
  EventRef LastWrite;
  std::vector<EventRef> Reads;
  bool Local = false;   ///< Allocated in this scope.
  bool ExtRead = false; ///< Read of a tensor from an enclosing scope.
  bool ExtWritten = false;
  bool Active = false;  ///< Slot in use (slots pool across scopes).
};

/// One dependence-tracking scope. The root scope covers the entrypoint
/// body; every for/pfor body pushes a child scope. A scope touches a
/// handful of tensors, so the table is a flat slot vector with linear
/// lookup — no hashing, and slot capacity (including each slot's Reads
/// buffer) pools across scopes and compiles via the thread-local scope
/// stack. Every place whose output depends on slot order (finishLoop's
/// dependence wiring) re-sorts by tensor id first.
struct Scope {
  std::vector<TensorState> Slots;
  size_t Size = 0; ///< Active prefix of Slots.

  void reset() {
    for (size_t I = 0; I < Size; ++I)
      Slots[I].Active = false;
    Size = 0;
  }

  TensorState *find(TensorId Tensor) {
    for (size_t I = 0; I < Size; ++I)
      if (Slots[I].Tensor == Tensor)
        return &Slots[I];
    return nullptr;
  }

  TensorState &get(TensorId Tensor) {
    if (TensorState *Have = find(Tensor))
      return *Have;
    if (Size == Slots.size())
      Slots.emplace_back();
    TensorState &Slot = Slots[Size++];
    // Reuse the pooled slot in place: reset fields, keep Reads capacity.
    Slot.Tensor = Tensor;
    Slot.HasWrite = false;
    Slot.LastWrite = EventRef();
    Slot.Reads.clear();
    Slot.Local = false;
    Slot.ExtRead = false;
    Slot.ExtWritten = false;
    Slot.Active = true;
    return Slot;
  }
};

/// The pooled scope stack: scopes (and their slots' buffers) persist
/// across compiles on one thread, so steady-state traversal allocates
/// nothing for dependence tracking.
struct ScopeStack {
  std::deque<Scope> Scopes; ///< Deque: references survive deeper pushes.
  size_t Depth = 0;

  Scope &push() {
    if (Depth == Scopes.size())
      Scopes.emplace_back();
    Scope &S = Scopes[Depth++];
    S.reset();
    return S;
  }
  void pop() {
    assert(Depth > 0 && "scope stack underflow");
    Scopes[--Depth].reset();
  }
  Scope &top() {
    assert(Depth > 0 && "no active scope");
    return Scopes[Depth - 1];
  }
};

ScopeStack &scopeStack() {
  thread_local ScopeStack Stack;
  return Stack;
}

class Analysis;

/// The InnerContext implementation handed to inner task bodies. One exists
/// per task instance being traversed; handles are indices into its tables.
class AnalysisContext : public InnerContext {
public:
  AnalysisContext(Analysis &A, const TaskMapping &Instance,
                  const TaskVariant &Variant,
                  std::vector<ScalarExpr> Scalars = {})
      : A(A), Instance(Instance), Variant(Variant),
        Scalars(std::move(Scalars)) {}

  const std::vector<ScalarExpr> &scalarArgs() override { return Scalars; }

  const Shape &shapeOf(TensorHandle Handle) override;
  int64_t tunable(const std::string &Name) override;
  Processor tunableProc(const std::string &Name) override;
  TensorHandle makeTensor(const std::string &Name, Shape Dims,
                          ElementType Element) override;
  PartitionHandle partitionByBlocks(TensorHandle Tensor,
                                    Shape TileShape) override;
  PartitionHandle partitionByMma(TensorHandle Tensor, MmaInstruction Instr,
                                 Processor Proc, MmaOperand Operand) override;
  TensorHandle index(PartitionHandle Part,
                     std::vector<ScalarExpr> Color) override;
  void launch(const std::string &Task, std::vector<TensorHandle> Args,
              std::vector<ScalarExpr> Scalars) override;
  void srange(ScalarExpr Extent,
              const std::function<void(ScalarExpr)> &Body) override;
  void prange(std::vector<ScalarExpr> Extents,
              const std::function<void(std::vector<ScalarExpr>)> &Body)
      override;

  TensorHandle bindParam(TensorSlice Slice, Privilege Priv) {
    Handles.push_back(std::move(Slice));
    HandlePrivs.push_back(Priv);
    return {static_cast<uint32_t>(Handles.size() - 1)};
  }

  const TensorSlice &slice(TensorHandle Handle) const {
    assert(Handle.Index < Handles.size() && "invalid tensor handle");
    return Handles[Handle.Index];
  }
  Privilege priv(TensorHandle Handle) const {
    assert(Handle.Index < HandlePrivs.size() && "invalid tensor handle");
    return HandlePrivs[Handle.Index];
  }

private:
  Analysis &A;
  const TaskMapping &Instance;
  const TaskVariant &Variant;
  std::vector<TensorSlice> Handles;
  std::vector<Privilege> HandlePrivs;
  std::vector<PartitionId> Parts;
  std::vector<Privilege> PartPrivs;
  std::vector<ScalarExpr> Scalars; ///< Launch-time scalar arguments.
  Shape ShapeCache; ///< Backing storage for shapeOf's returned reference.
};

/// The traversal engine: owns the module under construction, the scope
/// stack, and the current emission block.
class Analysis {
public:
  Analysis(const CompileInput &Input) : Input(Input) {}

  ErrorOr<IRModule> run();

  //===--- Emission helpers (used by AnalysisContext) --------------------===//

  IRModule &module() { return Module; }
  const CompileInput &input() const { return Input; }

  /// Records a fatal diagnostic; traversal unwinds at the next check.
  void fail(std::string Message) {
    if (!Failure)
      Failure = Diagnostic(std::move(Message));
  }
  bool failed() const { return Failure.has_value(); }

  IRBlock &block() { return *Blocks.back(); }

  EventId freshEvent(EventType Type = {}) {
    // "e%u" fits in the SSO buffer; assemble it in place so the traversal
    // never touches the allocator for event names.
    char Buf[16];
    unsigned Len = formatTag(Buf, 'e', ++EventCounter);
    return Module.addEvent(std::string(Buf, Len), std::move(Type));
  }

  /// Writes "<Prefix><Value>" into \p Buf (no terminator); returns length.
  static unsigned formatTag(char (&Buf)[16], char Prefix, unsigned Value) {
    char Digits[12];
    unsigned N = 0;
    do {
      Digits[N++] = static_cast<char>('0' + Value % 10);
      Value /= 10;
    } while (Value);
    Buf[0] = Prefix;
    for (unsigned I = 0; I < N; ++I)
      Buf[1 + I] = Digits[N - 1 - I];
    return 1 + N;
  }

  Operation &emit(OpKind Kind) {
    auto Op = std::make_unique<Operation>();
    Op->Kind = Kind;
    Op->Id = Module.freshOpId();
    Operation &Ref = *Op;
    block().Ops.push_back(std::move(Op));
    return Ref;
  }

  //===--- Scope / version machinery -------------------------------------===//

  Scope &scope() { return Stack.top(); }

  void noteLocal(TensorId Tensor) { scope().get(Tensor).Local = true; }

  /// Dependencies for reading \p Tensor in the current scope appended onto
  /// \p Deps (pooled by the caller); records the external use when the
  /// tensor lives further out (the enclosing loop op then carries the
  /// dependence, per Figure 8's for-loop wiring).
  void appendReadDeps(TensorId Tensor, std::vector<EventRef> &Deps) {
    Scope &S = scope();
    TensorState *State = S.find(Tensor);
    if (!State || !State->Local)
      S.get(Tensor).ExtRead = true;
    // get() may have created the slot; re-find for the dependence check.
    State = S.find(Tensor);
    if (State && State->HasWrite)
      Deps.push_back(State->LastWrite);
  }

  /// Dependencies for writing \p Tensor (RAW on the last writer plus WAR on
  /// all readers since), appended onto \p Deps.
  void appendWriteDeps(TensorId Tensor, std::vector<EventRef> &Deps) {
    Scope &S = scope();
    TensorState *State = S.find(Tensor);
    if (!State || !State->Local)
      S.get(Tensor).ExtWritten = true;
    State = S.find(Tensor);
    if (!State)
      return;
    if (State->HasWrite)
      Deps.push_back(State->LastWrite);
    for (const EventRef &R : State->Reads)
      Deps.push_back(R);
  }

  /// Pooled scratch for dependence lists; cleared by each user before use.
  std::vector<EventRef> DepScratch;

  /// Per-compile dispatch memo (see recordLaunch); pointers into the const
  /// MappingSpec/TaskRegistry stay valid for the whole traversal.
  struct DispatchEntry {
    const TaskMapping *Caller;
    std::string Task;
    const TaskMapping *Child;
    const TaskVariant *Variant;
  };
  std::vector<DispatchEntry> DispatchCache;

  /// Pooled buffer for assembling dotted tensor names.
  std::string NameBuf;

  void recordRead(TensorId Tensor, EventRef Event) {
    scope().get(Tensor).Reads.push_back(std::move(Event));
  }

  void recordWrite(TensorId Tensor, EventRef Event) {
    TensorState &State = scope().get(Tensor);
    State.HasWrite = true;
    State.LastWrite = std::move(Event);
    State.Reads.clear();
  }

  /// Runs \p Body inside a fresh scope whose ops are emitted into \p Into;
  /// pushes the external-use summary for the loop op's dependence wiring
  /// onto the pooled ExternalStack in first-use order (finishLoop re-sorts
  /// by tensor id) and returns the base index of this loop's entries.
  size_t withLoopScope(IRBlock &Into, const std::function<void()> &Body) {
    Scope &Inner = Stack.push();
    Blocks.push_back(&Into);
    Body();
    Blocks.pop_back();
    size_t Base = ExternalStack.size();
    for (size_t I = 0; I < Inner.Size; ++I) {
      const TensorState &State = Inner.Slots[I];
      if (State.ExtRead || State.ExtWritten)
        ExternalStack.emplace_back(
            State.Tensor, ExternalUse{State.ExtRead, State.ExtWritten});
    }
    Stack.pop();
    return Base;
  }

  /// Wires a finished loop op into the enclosing scope: collects entry
  /// dependencies for every external tensor the body touched (the
  /// ExternalStack entries from \p ExternalBase on, consumed here) and
  /// updates outer versions with the loop's completion event. Iterates in
  /// tensor-id order (the traversal order has none) so the loop's
  /// precondition list — which prints in the IR and feeds the verifier's
  /// diagnostics — stays deterministic.
  void finishLoop(Operation &Loop, size_t ExternalBase, EventRef LoopDone) {
    auto Begin = ExternalStack.begin() + static_cast<long>(ExternalBase);
    std::sort(Begin, ExternalStack.end(),
              [](const std::pair<TensorId, ExternalUse> &A,
                 const std::pair<TensorId, ExternalUse> &B) {
                return A.first < B.first;
              });
    for (size_t I = ExternalBase; I < ExternalStack.size(); ++I) {
      const auto [Tensor, Use] = ExternalStack[I];
      // appendReadDeps/appendWriteDeps also propagate the external use
      // outward, so grand-parent loops see it at their own exits.
      DepScratch.clear();
      if (Use.Written)
        appendWriteDeps(Tensor, DepScratch);
      else
        appendReadDeps(Tensor, DepScratch);
      for (EventRef &Dep : DepScratch)
        addPrecond(Loop, std::move(Dep));
      if (Use.Written)
        recordWrite(Tensor, LoopDone);
      else
        recordRead(Tensor, LoopDone);
    }
    ExternalStack.resize(ExternalBase);
  }

  /// Pooled loop-external summaries; stack discipline across nested loops.
  std::vector<std::pair<TensorId, ExternalUse>> ExternalStack;

  static void addPrecond(Operation &Op, EventRef Ref) {
    if (Op.Preconds.empty())
      Op.Preconds.reserve(4); // Typical fan-in; avoids doubling churn.
    for (const EventRef &Existing : Op.Preconds)
      if (Existing.Event == Ref.Event && Existing.IterLag == Ref.IterLag &&
          Existing.Indices.size() == Ref.Indices.size()) {
        bool Same = true;
        for (size_t I = 0; I != Ref.Indices.size(); ++I) {
          if (Existing.Indices[I].isBroadcast() !=
              Ref.Indices[I].isBroadcast() ||
              (!Ref.Indices[I].isBroadcast() &&
               !Existing.Indices[I].Index.equals(Ref.Indices[I].Index))) {
            Same = false;
            break;
          }
        }
        if (Same)
          return;
      }
    Op.Preconds.push_back(std::move(Ref));
  }

  //===--- Launch lowering -------------------------------------------------===//

  void recordLaunch(AnalysisContext &Caller, const TaskMapping &CallerInst,
                    const std::string &Task, std::vector<TensorHandle> Args,
                    std::vector<ScalarExpr> Scalars);

  //===--- Mapping stamps ------------------------------------------------===//
  //
  // The depth knobs are not written while traversing: each site records
  // which mapping entry its value comes from, and run() applies the table
  // once at the end (applyMappingStamps), so a sibling mapping that differs
  // only in those knobs can re-stamp a copy of the lowered IR instead of
  // re-running the analysis.

  /// Position of \p Instance in the mapping's instance list.
  uint32_t instanceIndex(const TaskMapping &Instance) const {
    return static_cast<uint32_t>(&Instance -
                                 Input.Mapping->instances().data());
  }

  /// The instance owning the innermost enclosing srange.
  void pushLoopOwner(const TaskMapping &Instance) {
    LoopOwners.push_back(instanceIndex(Instance));
  }
  void popLoopOwner() { LoopOwners.pop_back(); }

  void stampTensor(TensorId Tensor, Memory Mem, const TaskMapping *Owner,
                   const std::string &Param) {
    MappingStamps::TensorStamp &S = Stamps.Tensors.emplace_back();
    S.Tensor = Tensor;
    S.Shared = Mem == Memory::Shared;
    S.Loop = LoopOwners.back();
    if (Owner) {
      S.Owner = instanceIndex(*Owner);
      S.Param = Param;
    }
  }
  void stampLoop(OpId Op, const TaskMapping &Instance) {
    Stamps.Loops.push_back({Op, instanceIndex(Instance)});
  }

  /// Processor of the child instances launched inside the current prange
  /// body (discovered at the first launch), plus whether those instances
  /// requested warp specialization of their bodies.
  std::optional<Processor> PrangeChildProc;
  bool PrangeChildWarpSpec = false;

  unsigned TempCounter = 0;

private:
  const CompileInput &Input;
  IRModule Module;
  ScopeStack &Stack = scopeStack();
  std::vector<IRBlock *> Blocks;
  std::vector<uint32_t> LoopOwners{MappingStamps::NoInstance};
  unsigned EventCounter = 0;
  std::optional<Diagnostic> Failure;

public:
  std::optional<Diagnostic> takeFailure() { return std::move(Failure); }

  MappingStamps Stamps;
};

//===----------------------------------------------------------------------===//
// AnalysisContext implementation
//===----------------------------------------------------------------------===//

const Shape &AnalysisContext::shapeOf(TensorHandle Handle) {
  static Shape Empty;
  if (Handle.Index >= Handles.size()) {
    A.fail("invalid tensor handle passed to shapeOf");
    return Empty;
  }
  // Shapes are concrete: slice shapes of symbolic colors are the uniform
  // tile shape (see IRModule::sliceShape).
  ShapeCache = A.module().sliceShape(Handles[Handle.Index]);
  return ShapeCache;
}

int64_t AnalysisContext::tunable(const std::string &Name) {
  auto It = Instance.Tunables.find(Name);
  if (It == Instance.Tunables.end()) {
    A.fail(formatString("instance %s does not bind tunable %s",
                        Instance.Instance.c_str(), Name.c_str()));
    return 1;
  }
  return It->second;
}

Processor AnalysisContext::tunableProc(const std::string &Name) {
  auto It = Instance.ProcTunables.find(Name);
  if (It == Instance.ProcTunables.end()) {
    A.fail(formatString("instance %s does not bind processor tunable %s",
                        Instance.Instance.c_str(), Name.c_str()));
    return Processor::Thread;
  }
  return It->second;
}

TensorHandle AnalysisContext::makeTensor(const std::string &Name, Shape Dims,
                                         ElementType Element) {
  Memory Mem = Memory::None;
  if (auto It = Instance.TempMems.find(Name); It != Instance.TempMems.end())
    Mem = It->second;
  TensorId Id = A.module().addTensor(
      Instance.Instance + "." + Name, TensorType{std::move(Dims), Element},
      Mem);
  A.module().tensor(Id).HomeProc = Instance.Proc;
  if (Mem == Memory::Shared)
    A.stampTensor(Id, Mem, /*Owner=*/nullptr, /*Param=*/"");
  Operation &Alloc = A.emit(OpKind::Alloc);
  Alloc.AllocTensor = Id;
  Alloc.ExecProc = Instance.Proc;
  A.noteLocal(Id);
  return bindParam(TensorSlice::whole(Id), Privilege::ReadWrite);
}

PartitionHandle AnalysisContext::partitionByBlocks(TensorHandle Tensor,
                                                   Shape TileShape) {
  const TensorSlice &Base = slice(Tensor);
  Shape ParentShape = A.module().sliceShape(Base);
  ErrorOr<Partition> Spec = Partition::byBlocks(ParentShape, TileShape);
  if (!Spec) {
    A.fail(Spec.diagnostic().message());
    return {};
  }
  PartitionId Id = A.module().addPartition(Base, std::move(*Spec));
  Operation &Op = A.emit(OpKind::MakePart);
  Op.Part = Id;
  Op.ExecProc = Instance.Proc;
  Parts.push_back(Id);
  PartPrivs.push_back(priv(Tensor));
  return {static_cast<uint32_t>(Parts.size() - 1)};
}

PartitionHandle AnalysisContext::partitionByMma(TensorHandle Tensor,
                                                MmaInstruction Instr,
                                                Processor Proc,
                                                MmaOperand Operand) {
  const TensorSlice &Base = slice(Tensor);
  Shape ParentShape = A.module().sliceShape(Base);
  MmaGranularity Granularity = Proc == Processor::Warp
                                   ? MmaGranularity::Warp
                                   : MmaGranularity::Thread;
  ErrorOr<Partition> Spec =
      Partition::byMma(ParentShape, Instr, Granularity, Operand);
  if (!Spec) {
    A.fail(Spec.diagnostic().message());
    return {};
  }
  PartitionId Id = A.module().addPartition(Base, std::move(*Spec));
  Operation &Op = A.emit(OpKind::MakePart);
  Op.Part = Id;
  Op.ExecProc = Instance.Proc;
  Parts.push_back(Id);
  PartPrivs.push_back(priv(Tensor));
  return {static_cast<uint32_t>(Parts.size() - 1)};
}

TensorHandle AnalysisContext::index(PartitionHandle Part,
                                    std::vector<ScalarExpr> Color) {
  if (Part.Index >= Parts.size()) {
    A.fail("invalid partition handle passed to index");
    return {};
  }
  PartitionId Id = Parts[Part.Index];
  const IRPartition &P = A.module().partition(Id);
  TensorSlice Slice =
      TensorSlice::piece(P.Base.Tensor, Id, std::move(Color));
  Handles.push_back(std::move(Slice));
  HandlePrivs.push_back(PartPrivs[Part.Index]);
  return {static_cast<uint32_t>(Handles.size() - 1)};
}

void AnalysisContext::launch(const std::string &Task,
                             std::vector<TensorHandle> Args,
                             std::vector<ScalarExpr> Scalars) {
  A.recordLaunch(*this, Instance, Task, std::move(Args), std::move(Scalars));
}

void AnalysisContext::srange(ScalarExpr Extent,
                             const std::function<void(ScalarExpr)> &Body) {
  if (A.failed())
    return;
  Operation &Loop = A.emit(OpKind::For);
  LoopVarId Var = A.module().freshLoopVar();
  Loop.LoopVar = Var;
  char Tag[16];
  Loop.LoopVarName.assign(Tag, Analysis::formatTag(Tag, 'k', Var));
  Loop.LoopLo = ScalarExpr(0);
  Loop.LoopHi = Extent;
  Loop.ExecProc = Instance.Proc;
  A.stampLoop(Loop.Id, Instance);
  Loop.Result = A.freshEvent();
  A.module().event(Loop.Result).Producer = Loop.Id;

  A.pushLoopOwner(Instance);
  size_t External = A.withLoopScope(
      Loop.Body,
      [&] { Body(ScalarExpr::loopVar(Var, Loop.LoopVarName)); });
  A.popLoopOwner();

  if (!Loop.Body.Ops.empty()) {
    // Yield the completion of the final operation with a result event.
    for (auto It = Loop.Body.Ops.rbegin(); It != Loop.Body.Ops.rend(); ++It) {
      if ((*It)->Result != InvalidEventId) {
        Loop.Body.Yield = EventRef::unit((*It)->Result);
        break;
      }
    }
  }
  A.finishLoop(Loop, External, EventRef::unit(Loop.Result));
}

void AnalysisContext::prange(
    std::vector<ScalarExpr> Extents,
    const std::function<void(std::vector<ScalarExpr>)> &Body) {
  if (A.failed())
    return;
  // Linearize the (possibly multi-dimensional) domain; all extents must be
  // static (they derive from shapes and tunables).
  int64_t Total = 1;
  std::vector<int64_t> Dims;
  for (const ScalarExpr &E : Extents) {
    if (!E.isConstant()) {
      A.fail("prange extents must be statically evaluable");
      return;
    }
    Dims.push_back(E.constantValue());
    Total *= E.constantValue();
  }

  Operation &Loop = A.emit(OpKind::PFor);
  LoopVarId Var = A.module().freshLoopVar();
  Loop.LoopVar = Var;
  char Tag[16];
  Loop.LoopVarName.assign(Tag, Analysis::formatTag(Tag, 'i', Var));
  Loop.LoopLo = ScalarExpr(0);
  Loop.LoopHi = ScalarExpr(Total);
  Loop.ExecProc = Instance.Proc;

  ScalarExpr LinearVar = ScalarExpr::loopVar(Var, Loop.LoopVarName);
  std::vector<ScalarExpr> Indices;
  {
    // Row-major delinearization of the linear induction variable.
    ScalarExpr Rest = LinearVar;
    std::vector<ScalarExpr> Rev;
    for (unsigned I = Dims.size(); I-- > 0;) {
      if (I == 0) {
        Rev.push_back(Rest);
      } else {
        Rev.push_back(Rest.mod(ScalarExpr(Dims[I])));
        Rest = Rest.floorDiv(ScalarExpr(Dims[I]));
      }
    }
    Indices.assign(Rev.rbegin(), Rev.rend());
  }

  std::optional<Processor> SavedChild = A.PrangeChildProc;
  bool SavedWarpSpec = A.PrangeChildWarpSpec;
  A.PrangeChildProc.reset();
  A.PrangeChildWarpSpec = false;
  size_t External = A.withLoopScope(Loop.Body, [&] { Body(Indices); });
  if (!A.PrangeChildProc) {
    A.fail("prange body launched no tasks; cannot infer processor level");
    return;
  }
  Loop.PForProc = *A.PrangeChildProc;
  if (Loop.PForProc == Processor::Block && A.PrangeChildWarpSpec)
    Loop.WarpSpecialize = true;
  A.PrangeChildProc = SavedChild;
  A.PrangeChildWarpSpec = SavedWarpSpec;

  // A Block-level pfor is the kernel grid; record whether its child
  // instances asked for warp specialization (discovered during launches).
  EventType Type;
  Type.Dims.push_back({Total, Loop.PForProc});
  Loop.Result = A.freshEvent(Type);
  A.module().event(Loop.Result).Producer = Loop.Id;

  if (!Loop.Body.Ops.empty()) {
    for (auto It = Loop.Body.Ops.rbegin(); It != Loop.Body.Ops.rend(); ++It) {
      if ((*It)->Result != InvalidEventId) {
        Loop.Body.Yield = EventRef::unit((*It)->Result);
        break;
      }
    }
  }
  EventRef Done;
  Done.Event = Loop.Result;
  Done.Indices.push_back(EventIndex::broadcast());
  A.finishLoop(Loop, External, Done);
}

//===----------------------------------------------------------------------===//
// Launch lowering
//===----------------------------------------------------------------------===//

void Analysis::recordLaunch(AnalysisContext &Caller,
                            const TaskMapping &CallerInst,
                            const std::string &Task,
                            std::vector<TensorHandle> Args,
                            std::vector<ScalarExpr> Scalars) {
  if (failed())
    return;
  const TaskRegistry &Registry = *Input.Registry;
  const MappingSpec &Mapping = *Input.Mapping;

  // Dispatch + instance + variant resolution is a pure function of the
  // (calling instance, task) pair, and launches repeat the same few pairs
  // every loop iteration: memoize per compile (a short linear scan beats
  // the rule walk plus two string-keyed map lookups).
  const TaskMapping *ChildPtr = nullptr;
  const TaskVariant *VariantPtr = nullptr;
  for (const DispatchEntry &Entry : DispatchCache)
    if (Entry.Caller == &CallerInst && Entry.Task == Task) {
      ChildPtr = Entry.Child;
      VariantPtr = Entry.Variant;
      break;
    }
  if (!ChildPtr) {
    ErrorOr<std::string> ChildName =
        Mapping.dispatch(Registry, CallerInst, Task);
    if (!ChildName) {
      fail(ChildName.diagnostic().message());
      return;
    }
    ChildPtr = &Mapping.instance(*ChildName);
    VariantPtr = &Registry.variant(ChildPtr->Variant);
    DispatchCache.push_back({&CallerInst, Task, ChildPtr, VariantPtr});
  }
  const TaskMapping &Child = *ChildPtr;
  const TaskVariant &Variant = *VariantPtr;

  if (Variant.Params.size() != Args.size()) {
    fail(formatString("launch of %s passes %zu tensors but variant %s takes "
                      "%zu",
                      Task.c_str(), Args.size(), Child.Variant.c_str(),
                      Variant.Params.size()));
    return;
  }

  // Record the child processor for enclosing prange inference.
  if (!PrangeChildProc)
    PrangeChildProc = Child.Proc;
  PrangeChildWarpSpec |= Child.WarpSpecialize;

  // Privilege containment: a launch may not request privileges on a tensor
  // beyond what the caller holds (Section 3.2).
  for (size_t I = 0, E = Args.size(); I != E; ++I) {
    Privilege Parent = Caller.priv(Args[I]);
    Privilege Request = Variant.Params[I].Priv;
    if (!privilegeAllows(Parent, Request)) {
      fail(formatString(
          "launch of %s requests %s on parameter %s but caller holds %s",
          Task.c_str(), privilegeName(Request),
          Variant.Params[I].Name.c_str(), privilegeName(Parent)));
      return;
    }
  }

  // Step 1: fresh allocations in the memories the mapping requests.
  std::vector<TensorId> Fresh(Args.size());
  for (size_t I = 0, E = Args.size(); I != E; ++I) {
    const TensorSlice &Arg = Caller.slice(Args[I]);
    Shape ArgShape = Module.sliceShape(Arg);
    ElementType Elem = Module.tensor(Arg.Tensor).Type.Element;
    // Assemble "<instance>.<param>.<n>" in the pooled buffer: one exact
    // allocation for the stored name instead of a chain of temporaries.
    NameBuf.assign(Child.Instance);
    NameBuf += '.';
    NameBuf += Variant.Params[I].Name;
    char Tag[16];
    NameBuf.append(Tag, formatTag(Tag, '.', ++TempCounter));
    TensorId Id = Module.addTensor(NameBuf, TensorType{ArgShape, Elem},
                                   Child.Mems[I]);
    Module.tensor(Id).HomeProc = Child.Proc;
    stampTensor(Id, Child.Mems[I], &Child, Variant.Params[I].Name);
    Operation &Alloc = emit(OpKind::Alloc);
    Alloc.AllocTensor = Id;
    Alloc.ExecProc = Child.Proc;
    noteLocal(Id);
    Fresh[I] = Id;
  }

  // Step 2: copy-ins for read parameters.
  for (size_t I = 0, E = Args.size(); I != E; ++I) {
    if (!privilegeReads(Variant.Params[I].Priv))
      continue;
    const TensorSlice &Arg = Caller.slice(Args[I]);
    Operation &Copy = emit(OpKind::Copy);
    Copy.CopySrc = Arg;
    Copy.CopyDst = TensorSlice::whole(Fresh[I]);
    Copy.ExecProc = CallerInst.Proc;
    Copy.LaunchBoundary = true;
    Copy.BoundaryTensor = Fresh[I];
    Copy.Result = freshEvent();
    Module.event(Copy.Result).Producer = Copy.Id;
    DepScratch.clear();
    appendReadDeps(Arg.Tensor, DepScratch);
    for (EventRef &Dep : DepScratch)
      addPrecond(Copy, std::move(Dep));
    recordRead(Arg.Tensor, EventRef::unit(Copy.Result));
    recordWrite(Fresh[I], EventRef::unit(Copy.Result));
  }

  // Step 3: traverse the callee.
  if (Variant.Kind == VariantKind::Leaf) {
    Operation &Call = emit(OpKind::Call);
    Call.Callee = Variant.Leaf.Function;
    Call.Unit = Variant.Leaf.Unit;
    Call.ExecProc = Child.Proc;
    Call.ScalarArgs = std::move(Scalars);
    std::vector<Shape> ArgShapes;
    for (size_t I = 0, E = Args.size(); I != E; ++I) {
      Call.Args.push_back(TensorSlice::whole(Fresh[I]));
      Call.ArgIsWritten.push_back(privilegeWrites(Variant.Params[I].Priv));
      ArgShapes.push_back(Module.tensor(Fresh[I]).Type.Dims);
    }
    Call.Flops = Variant.Leaf.Flops ? Variant.Leaf.Flops(ArgShapes) : 0.0;
    Call.Result = freshEvent();
    Module.event(Call.Result).Producer = Call.Id;
    for (size_t I = 0, E = Args.size(); I != E; ++I) {
      DepScratch.clear();
      if (privilegeWrites(Variant.Params[I].Priv))
        appendWriteDeps(Fresh[I], DepScratch);
      else
        appendReadDeps(Fresh[I], DepScratch);
      for (EventRef &Dep : DepScratch)
        addPrecond(Call, std::move(Dep));
    }
    for (size_t I = 0, E = Args.size(); I != E; ++I) {
      if (privilegeWrites(Variant.Params[I].Priv))
        recordWrite(Fresh[I], EventRef::unit(Call.Result));
      else
        recordRead(Fresh[I], EventRef::unit(Call.Result));
    }
  } else {
    AnalysisContext ChildCtx(*this, Child, Variant, std::move(Scalars));
    std::vector<TensorHandle> Params;
    for (size_t I = 0, E = Args.size(); I != E; ++I)
      Params.push_back(ChildCtx.bindParam(TensorSlice::whole(Fresh[I]),
                                          Variant.Params[I].Priv));
    Variant.Body(ChildCtx, Params);
    if (failed())
      return;
  }

  // Step 4: copy-outs for written parameters.
  for (size_t I = 0, E = Args.size(); I != E; ++I) {
    if (!privilegeWrites(Variant.Params[I].Priv))
      continue;
    const TensorSlice &Arg = Caller.slice(Args[I]);
    Operation &Copy = emit(OpKind::Copy);
    Copy.CopySrc = TensorSlice::whole(Fresh[I]);
    Copy.CopyDst = Arg;
    Copy.ExecProc = CallerInst.Proc;
    Copy.LaunchBoundary = true;
    Copy.BoundaryTensor = Fresh[I];
    Copy.Result = freshEvent();
    Module.event(Copy.Result).Producer = Copy.Id;
    DepScratch.clear();
    appendReadDeps(Fresh[I], DepScratch);
    appendWriteDeps(Arg.Tensor, DepScratch);
    for (EventRef &Dep : DepScratch)
      addPrecond(Copy, std::move(Dep));
    recordRead(Fresh[I], EventRef::unit(Copy.Result));
    recordWrite(Arg.Tensor, EventRef::unit(Copy.Result));
  }
}

//===----------------------------------------------------------------------===//
// Entry
//===----------------------------------------------------------------------===//

ErrorOr<IRModule> Analysis::run() {
  const TaskRegistry &Registry = *Input.Registry;
  const MappingSpec &Mapping = *Input.Mapping;

  if (ErrorOrVoid Valid = Mapping.validate(Registry, *Input.Machine); !Valid)
    return Valid.diagnostic();

  const TaskMapping &Entry = Mapping.entrypoint();
  const TaskVariant &Variant = Registry.variant(Entry.Variant);
  if (Variant.Kind != VariantKind::Inner)
    return Diagnostic("entrypoint variant must be an inner task");
  if (Variant.Params.size() != Input.EntryArgTypes.size())
    return Diagnostic(formatString(
        "entrypoint takes %zu tensors but %zu argument types were supplied",
        Variant.Params.size(), Input.EntryArgTypes.size()));

  Stack.push();
  Blocks.push_back(&Module.root());

  AnalysisContext Ctx(*this, Entry, Variant);
  std::vector<TensorHandle> Params;
  for (size_t I = 0, E = Variant.Params.size(); I != E; ++I) {
    Memory Mem = Entry.Mems[I];
    TensorId Id = Module.addTensor(Variant.Params[I].Name,
                                   Input.EntryArgTypes[I], Mem);
    IRTensor &T = Module.tensor(Id);
    T.HomeProc = Entry.Proc;
    T.IsEntryArg = true;
    Module.entryArgs().push_back(Id);
    noteLocal(Id);
    Params.push_back(Ctx.bindParam(TensorSlice::whole(Id),
                                   Variant.Params[I].Priv));
  }

  Variant.Body(Ctx, Params);

  Blocks.pop_back();
  Stack.pop();

  if (std::optional<Diagnostic> Failed = takeFailure())
    return *Failed;

  applyMappingStamps(Module, Stamps, Mapping);
  if (ErrorOrVoid Valid = verifyModule(Module); !Valid)
    return Valid.diagnostic();
  return std::move(Module);
}

/// Sets ForPipeline on every For op \p Loops names (a handful per kernel,
/// so the per-op lookup is a short scan).
void stampLoops(IRBlock &Block,
                const std::vector<MappingStamps::LoopStamp> &Loops,
                const std::vector<TaskMapping> &Instances) {
  for (std::unique_ptr<Operation> &Op : Block.Ops) {
    if (Op->Kind == OpKind::For)
      for (const MappingStamps::LoopStamp &Stamp : Loops)
        if (Stamp.Op == Op->Id) {
          Op->ForPipeline = Instances[Stamp.Instance].PipelineDepth;
          break;
        }
    if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor)
      stampLoops(Op->Body, Loops, Instances);
  }
}

} // namespace

void cypress::applyMappingStamps(IRModule &Module, const MappingStamps &Stamps,
                                 const MappingSpec &Mapping) {
  const std::vector<TaskMapping> &Instances = Mapping.instances();
  for (const MappingStamps::TensorStamp &Stamp : Stamps.Tensors) {
    const TaskMapping *Owner = Stamp.Owner == MappingStamps::NoInstance
                                   ? nullptr
                                   : &Instances[Stamp.Owner];
    int64_t Depth = 1;
    if (Stamp.Shared) {
      if (Stamp.Loop != MappingStamps::NoInstance)
        Depth = Instances[Stamp.Loop].PipelineDepth;
      // The mapping may pin this parameter's multi-buffering depth (the
      // per-tensor pipeline axis); absent entries keep the loop's depth.
      if (Owner)
        if (auto It = Owner->ArgPipeline.find(Stamp.Param);
            It != Owner->ArgPipeline.end())
          Depth = It->second;
    }
    bool Simt = false;
    if (Owner)
      for (const std::string &Param : Owner->SimtCopyParams)
        Simt |= Param == Stamp.Param;
    IRTensor &T = Module.tensor(Stamp.Tensor);
    T.PipelineDepth = Depth;
    T.ForceSimtCopy = Simt;
  }
  if (!Stamps.Loops.empty())
    stampLoops(Module.root(), Stamps.Loops, Instances);
}

ErrorOr<IRModule> cypress::runDependenceAnalysis(const CompileInput &Input,
                                                 MappingStamps *StampsOut) {
  assert(Input.Registry && Input.Mapping && Input.Machine &&
         "compile input missing components");
  Analysis A(Input);
  ErrorOr<IRModule> Module = A.run();
  if (Module && StampsOut)
    *StampsOut = std::move(A.Stamps);
  return Module;
}

std::unique_ptr<Pass> cypress::createDependenceAnalysisPass() {
  return std::make_unique<FunctionPass>(
      "dependence-analysis", [](PipelineState &State) -> ErrorOrVoid {
        ErrorOr<IRModule> Module =
            runDependenceAnalysis(*State.Input, &State.Stamps);
        if (!Module)
          return Module.diagnostic();
        State.Module = std::move(*Module);
        return ErrorOrVoid::success();
      });
}
