//===- IR.cpp - Cypress event-based intermediate representation ------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include <algorithm>

using namespace cypress;

const char *cypress::execUnitName(ExecUnit Unit) {
  switch (Unit) {
  case ExecUnit::TMA:
    return "tma";
  case ExecUnit::TensorCore:
    return "tensorcore";
  case ExecUnit::SIMT:
    return "simt";
  }
  cypressUnreachable("unknown exec unit");
}

std::unique_ptr<Operation> Operation::clone() const {
  auto Copy = std::make_unique<Operation>();
  Copy->Kind = Kind;
  Copy->Id = Id;
  Copy->Result = Result;
  Copy->Preconds = Preconds;
  Copy->AllocTensor = AllocTensor;
  Copy->Part = Part;
  Copy->CopySrc = CopySrc;
  Copy->CopyDst = CopyDst;
  Copy->LaunchBoundary = LaunchBoundary;
  Copy->BoundaryTensor = BoundaryTensor;
  Copy->Callee = Callee;
  Copy->Args = Args;
  Copy->ArgIsWritten = ArgIsWritten;
  Copy->ScalarArgs = ScalarArgs;
  Copy->Flops = Flops;
  Copy->Unit = Unit;
  Copy->ExecProc = ExecProc;
  Copy->LoopVar = LoopVar;
  Copy->LoopVarName = LoopVarName;
  Copy->LoopLo = LoopLo;
  Copy->LoopHi = LoopHi;
  Copy->PForProc = PForProc;
  Copy->ForPipeline = ForPipeline;
  Copy->WarpSpecialize = WarpSpecialize;
  Copy->VecContext = VecContext;
  Copy->DmaAgent = DmaAgent;
  for (const std::unique_ptr<Operation> &Op : Body.Ops)
    Copy->Body.Ops.push_back(Op->clone());
  Copy->Body.Yield = Body.Yield;
  return Copy;
}

IRModule IRModule::clone() const {
  IRModule Copy;
  Copy.Tensors = Tensors;
  Copy.Partitions = Partitions;
  Copy.Events = Events;
  Copy.Root.Ops.reserve(Root.Ops.size());
  for (const std::unique_ptr<Operation> &Op : Root.Ops)
    Copy.Root.Ops.push_back(Op->clone());
  Copy.Root.Yield = Root.Yield;
  Copy.EntryArgs = EntryArgs;
  Copy.NextLoopVar = NextLoopVar;
  Copy.NextOpId = NextOpId;
  return Copy;
}

TensorId IRModule::addTensor(std::string Name, TensorType Type, Memory Mem) {
  if (Tensors.empty())
    Tensors.reserve(64); // IRTensor carries strings; skip doubling churn.
  TensorId Id = static_cast<TensorId>(Tensors.size());
  Tensors.push_back({Id, std::move(Name), std::move(Type), Mem,
                     /*PipelineDepth=*/1});
  return Id;
}

PartitionId IRModule::addPartition(TensorSlice Base, Partition Spec) {
  if (Partitions.empty())
    Partitions.reserve(32);
  PartitionId Id = static_cast<PartitionId>(Partitions.size());
  Partitions.push_back({Id, std::move(Base), std::move(Spec)});
  return Id;
}

EventId IRModule::addEvent(std::string Name, EventType Type) {
  if (Events.empty())
    Events.reserve(128); // One event per async op; realloc moves strings.
  EventId Id = static_cast<EventId>(Events.size());
  Events.push_back({Id, std::move(Name), std::move(Type), ~0u});
  return Id;
}

Shape IRModule::sliceShape(const TensorSlice &Slice) const {
  const IRTensor &T = tensor(Slice.Tensor);
  if (Slice.isWhole())
    return T.Type.Dims;
  const IRPartition &P = partition(*Slice.Part);
  // For symbolic colors the piece shape must be uniform; piece(0...) gives
  // the interior tile shape. Constant colors resolve exactly (edge tiles).
  std::vector<int64_t> Color(Slice.Color.size(), 0);
  bool AllConstant = true;
  for (unsigned I = 0, E = Slice.Color.size(); I != E; ++I) {
    if (Slice.Color[I].isConstant())
      Color[I] = Slice.Color[I].constantValue();
    else
      AllConstant = false;
  }
  if (!AllConstant)
    Color.assign(Slice.Color.size(), 0);
  return P.Spec.piece(Color).shape();
}

SubTensor IRModule::resolveSlice(const TensorSlice &Slice,
                                 const ScalarEnv &Env) const {
  const IRTensor &T = tensor(Slice.Tensor);
  if (Slice.isWhole())
    return SubTensor::whole(T.Type.Dims);
  const IRPartition &P = partition(*Slice.Part);
  std::vector<int64_t> Color(Slice.Color.size());
  for (unsigned I = 0, E = Slice.Color.size(); I != E; ++I)
    Color[I] = Slice.Color[I].evaluate(Env);
  SubTensor Piece = P.Spec.piece(Color);
  // Compose through the partition's base slice so pieces of pieces map all
  // the way to root-tensor coordinates.
  SubTensor Base = resolveSlice(P.Base, Env);
  return SubTensor::compose(Base, Piece);
}

int64_t IRModule::sliceNumElements(const TensorSlice &Slice) const {
  const IRTensor &T = tensor(Slice.Tensor);
  if (Slice.isWhole())
    return T.Type.Dims.numElements();
  const IRPartition &P = partition(*Slice.Part);
  // Mirror sliceShape's color handling: constant colors resolve exactly
  // (edge tiles); any symbolic color falls back to the uniform interior
  // tile at color 0.
  size_t Rank = Slice.Color.size();
  int64_t Stack[8];
  std::vector<int64_t> Heap;
  int64_t *Color = Rank <= 8 ? Stack : (Heap.resize(Rank), Heap.data());
  bool AllConstant = true;
  for (unsigned I = 0; I != Rank; ++I) {
    if (Slice.Color[I].isConstant())
      Color[I] = Slice.Color[I].constantValue();
    else
      AllConstant = false;
  }
  if (!AllConstant)
    std::fill_n(Color, Rank, 0);
  return P.Spec.pieceNumElements(Color, Rank);
}

int64_t IRModule::sliceBytes(const TensorSlice &Slice) const {
  const IRTensor &T = tensor(Slice.Tensor);
  return sliceNumElements(Slice) * elementTypeBytes(T.Type.Element);
}

void cypress::walkOps(IRBlock &Block,
                      const std::function<void(Operation &)> &Fn) {
  for (std::unique_ptr<Operation> &Op : Block.Ops) {
    Fn(*Op);
    if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor)
      walkOps(Op->Body, Fn);
  }
}

void cypress::walkOps(const IRBlock &Block,
                      const std::function<void(const Operation &)> &Fn) {
  for (const std::unique_ptr<Operation> &Op : Block.Ops) {
    Fn(*Op);
    if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor)
      walkOps(static_cast<const IRBlock &>(Op->Body), Fn);
  }
}

namespace {
size_t countBlockOps(const IRBlock &Block) {
  size_t Count = Block.Ops.size();
  for (const std::unique_ptr<Operation> &Op : Block.Ops)
    if (Op->Kind == OpKind::For || Op->Kind == OpKind::PFor)
      Count += countBlockOps(Op->Body);
  return Count;
}
} // namespace

size_t cypress::countOps(const IRModule &Module) {
  // Runs after every pass (PipelineStats); direct recursion, no
  // std::function dispatch per op.
  return countBlockOps(Module.root());
}
