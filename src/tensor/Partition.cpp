//===- Partition.cpp - Tensor partitioning operators -----------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tensor/Partition.h"

#include "support/Format.h"
#include "support/MathUtil.h"

#include <algorithm>

using namespace cypress;

const char *cypress::partitionKindName(PartitionKind Kind) {
  switch (Kind) {
  case PartitionKind::Blocks:
    return "blocks";
  case PartitionKind::Mma:
    return "mma";
  }
  cypressUnreachable("unknown partition kind");
}

const char *cypress::mmaOperandName(MmaOperand Operand) {
  switch (Operand) {
  case MmaOperand::A:
    return "A";
  case MmaOperand::B:
    return "B";
  case MmaOperand::C:
    return "C";
  }
  cypressUnreachable("unknown mma operand");
}

std::string MmaInstruction::toString() const {
  return formatString("WGMMA_%lldx%lldx%lld", static_cast<long long>(M),
                      static_cast<long long>(N), static_cast<long long>(K));
}

//===----------------------------------------------------------------------===//
// SubTensor
//===----------------------------------------------------------------------===//

SubTensor SubTensor::rect(Shape SubShape, std::vector<int64_t> Offset) {
  assert(SubShape.rank() == Offset.size() && "offset rank mismatch");
  SubTensor Result;
  Result.Kind = MapKind::Rect;
  Result.SubShape = std::move(SubShape);
  Result.Offset = std::move(Offset);
  return Result;
}

SubTensor SubTensor::whole(Shape ParentShape) {
  SubTensor Result;
  Result.Kind = MapKind::Whole;
  Result.SubShape = ParentShape;
  Result.Offset.assign(ParentShape.rank(), 0);
  return Result;
}

SubTensor SubTensor::mmaAccumLane(const MmaInstruction &Instr,
                                  int64_t WarpIndex, int64_t LaneIndex) {
  assert(WarpIndex >= 0 && WarpIndex < 4 && "warp index out of range");
  assert(LaneIndex >= 0 && LaneIndex < 32 && "lane index out of range");
  assert(Instr.M == 64 && "accumulator swizzle modeled for m64 WGMMA only");
  assert(Instr.N % 8 == 0 && "WGMMA N must be a multiple of 8");
  SubTensor Result;
  Result.Kind = MapKind::MmaLane;
  // Each lane holds 2 rows x (N/8 column groups x 2 elements) = shape
  // [2, N/4] in a compacted coordinate system.
  Result.SubShape = Shape({2, Instr.N / 4});
  Result.Instr = Instr;
  Result.WarpIndex = WarpIndex;
  Result.LaneIndex = LaneIndex;
  return Result;
}

SubTensor SubTensor::mmaAccumWarp(const MmaInstruction &Instr,
                                  int64_t WarpIndex) {
  assert(WarpIndex >= 0 && WarpIndex < 4 && "warp index out of range");
  assert(Instr.M == 64 && "accumulator swizzle modeled for m64 WGMMA only");
  SubTensor Result;
  Result.Kind = MapKind::MmaWarp;
  Result.SubShape = Shape({16, Instr.N});
  Result.Instr = Instr;
  Result.WarpIndex = WarpIndex;
  return Result;
}

SubTensor SubTensor::compose(const SubTensor &Outer, const SubTensor &Inner) {
  if (Outer.isWhole())
    return Inner;
  if (Inner.Kind == MapKind::Whole && !Inner.Parent) {
    // Whole-of-outer is just outer, provided the shapes agree.
    assert(Inner.SubShape == Outer.SubShape &&
           "whole-slice composition with mismatched shapes");
    return Outer;
  }
  SubTensor Result = Inner;
  // Chain: Result maps into Inner's parent space, which is Outer's sub
  // space; attach Outer (itself possibly chained) as the continuation.
  if (Result.Parent) {
    SubTensor Mid = compose(Outer, *Result.Parent);
    Result.Parent = std::make_shared<const SubTensor>(std::move(Mid));
  } else {
    Result.Parent = std::make_shared<const SubTensor>(Outer);
  }
  return Result;
}

std::vector<int64_t>
SubTensor::mapToParent(const std::vector<int64_t> &SubIndex) const {
  assert(SubIndex.size() == SubShape.rank() && "sub index rank mismatch");
  std::vector<int64_t> Index = SubIndex;
  mapToRootInPlace(Index.data());
  return Index;
}

void SubTensor::mapToRootInPlace(int64_t *Index) const {
  for (const SubTensor *Level = this; Level; Level = Level->Parent.get())
    Level->mapToLocalParentInPlace(Index);
}

bool SubTensor::rootTranslation(int64_t *Translation) const {
  unsigned Rank = SubShape.rank();
  for (unsigned I = 0; I != Rank; ++I)
    Translation[I] = 0;
  for (const SubTensor *Level = this; Level; Level = Level->Parent.get()) {
    switch (Level->Kind) {
    case MapKind::Rect:
    case MapKind::Whole:
      for (unsigned I = 0; I != Rank; ++I)
        Translation[I] += Level->Offset[I];
      break;
    case MapKind::MmaWarp:
      Translation[0] += 16 * Level->WarpIndex;
      break;
    case MapKind::MmaLane:
      return false;
    }
  }
  return true;
}

void SubTensor::mapToLocalParentInPlace(int64_t *Index) const {
  switch (Kind) {
  case MapKind::Rect:
  case MapKind::Whole:
    for (unsigned I = 0, E = SubShape.rank(); I != E; ++I)
      Index[I] += Offset[I];
    return;
  case MapKind::MmaWarp:
    // Warp w owns rows [16w, 16w + 16) of the m64 accumulator (Figure 4
    // row coloring); columns are not swizzled at warp granularity.
    Index[0] += 16 * WarpIndex;
    return;
  case MapKind::MmaLane: {
    // PTX m64nNk16 accumulator fragment layout. Within warp w, lane l holds,
    // for every 8-column group g and row-half h in {0, 1}:
    //   row = 16w + 8h + l / 4
    //   col = 8g + 2 * (l % 4) + e      for e in {0, 1}
    // The compacted fragment is indexed [h][g * 2 + e'] where the flattened
    // column coordinate walks column groups then element pairs.
    int64_t H = Index[0];
    int64_t Flat = Index[1];
    Index[0] = 16 * WarpIndex + 8 * H + LaneIndex / 4;
    Index[1] = 8 * (Flat / 2) + 2 * (LaneIndex % 4) + Flat % 2;
    return;
  }
  }
  cypressUnreachable("unknown sub-tensor map kind");
}

void SubTensor::forEachElement(
    const Shape &ParentShape,
    const std::function<void(int64_t, const std::vector<int64_t> &)> &Fn)
    const {
  int64_t Count = SubShape.numElements();
  for (int64_t Linear = 0; Linear != Count; ++Linear) {
    std::vector<int64_t> SubIndex = SubShape.delinearize(Linear);
    std::vector<int64_t> ParentIndex = mapToParent(SubIndex);
    // Clamped edge tiles never reach here (shape already clamped); guard in
    // debug builds anyway.
#ifndef NDEBUG
    for (unsigned I = 0, E = ParentIndex.size(); I != E; ++I)
      assert(ParentIndex[I] >= 0 && ParentIndex[I] < ParentShape.dim(I) &&
             "sub-tensor element maps outside parent");
#else
    (void)ParentShape;
#endif
    Fn(Linear, ParentIndex);
  }
}

//===----------------------------------------------------------------------===//
// Partition
//===----------------------------------------------------------------------===//

ErrorOr<Partition> Partition::byBlocks(const Shape &Parent,
                                       const Shape &TileShape) {
  if (Parent.rank() != TileShape.rank())
    return Diagnostic(formatString(
        "blocks partition rank mismatch: parent %s vs tile %s",
        Parent.toString().c_str(), TileShape.toString().c_str()));
  Partition Result;
  Result.Kind = PartitionKind::Blocks;
  Result.Parent = Parent;
  Result.TileShape = TileShape;
  std::vector<int64_t> ColorDims(Parent.rank());
  for (unsigned I = 0, E = Parent.rank(); I != E; ++I)
    ColorDims[I] = ceilDiv(Parent.dim(I), TileShape.dim(I));
  Result.Colors = Shape(std::move(ColorDims));
  return Result;
}

ErrorOr<Partition> Partition::byMma(const Shape &Parent,
                                    const MmaInstruction &Instr,
                                    MmaGranularity Granularity,
                                    MmaOperand Operand) {
  if (Parent.rank() != 2)
    return Diagnostic("mma partition requires a rank-2 tensor");
  if (Operand == MmaOperand::C) {
    if (Parent.dim(0) != Instr.M || Parent.dim(1) != Instr.N)
      return Diagnostic(formatString(
          "mma accumulator partition shape mismatch: tensor %s vs %s",
          Parent.toString().c_str(), Instr.toString().c_str()));
  }
  Partition Result;
  Result.Kind = PartitionKind::Mma;
  Result.Parent = Parent;
  Result.Instr = Instr;
  Result.Granularity = Granularity;
  Result.Operand = Operand;
  int64_t Pieces =
      Granularity == MmaGranularity::Warp ? 4 : 32; // Per enclosing level.
  Result.Colors = Shape({Pieces});
  return Result;
}

int64_t Partition::pieceNumElements(const int64_t *Color,
                                    size_t Rank) const {
  assert(Rank == Colors.rank() && "color rank mismatch");
  (void)Rank;
  switch (Kind) {
  case PartitionKind::Blocks: {
    int64_t Count = 1;
    for (unsigned I = 0, E = Parent.rank(); I != E; ++I)
      Count *= std::min(TileShape.dim(I),
                        Parent.dim(I) - Color[I] * TileShape.dim(I));
    return Count;
  }
  case PartitionKind::Mma:
    if (Operand != MmaOperand::C)
      return Parent.numElements(); // Pieces alias the whole tile.
    if (Granularity == MmaGranularity::Warp)
      return 16 * Instr.N; // A warp's 16-row slice of the accumulator.
    return 2 * (Instr.N / 4); // One lane's swizzled fragment.
  }
  cypressUnreachable("unknown partition kind");
}

SubTensor Partition::piece(const std::vector<int64_t> &Color) const {
  assert(Color.size() == Colors.rank() && "color rank mismatch");
#ifndef NDEBUG
  for (unsigned I = 0, E = Color.size(); I != E; ++I)
    assert(Color[I] >= 0 && Color[I] < Colors.dim(I) &&
           "partition color out of range");
#endif
  switch (Kind) {
  case PartitionKind::Blocks: {
    std::vector<int64_t> Offset(Parent.rank());
    std::vector<int64_t> Extent(Parent.rank());
    for (unsigned I = 0, E = Parent.rank(); I != E; ++I) {
      Offset[I] = Color[I] * TileShape.dim(I);
      Extent[I] = std::min(TileShape.dim(I), Parent.dim(I) - Offset[I]);
    }
    return SubTensor::rect(Shape(std::move(Extent)), std::move(Offset));
  }
  case PartitionKind::Mma: {
    int64_t Index = Color[0];
    if (Operand != MmaOperand::C) {
      // Shared-memory operands are referenced in full by every thread of the
      // warpgroup when WGMMA is issued; each piece aliases the whole tile.
      return SubTensor::whole(Parent);
    }
    if (Granularity == MmaGranularity::Warp)
      return SubTensor::mmaAccumWarp(Instr, Index);
    // Thread granularity partitions the enclosing warp's 16-row slice; the
    // parent here is the warp-level sub-tensor re-based at origin, so warp
    // index 0 with the true lane index gives the correct swizzle inside it.
    if (Parent.dim(0) == 16) {
      SubTensor Lane = SubTensor::mmaAccumLane(
          {64, Instr.N, Instr.K}, /*WarpIndex=*/0, /*LaneIndex=*/Index);
      return Lane;
    }
    return SubTensor::mmaAccumLane(Instr, /*WarpIndex=*/0,
                                   /*LaneIndex=*/Index);
  }
  }
  cypressUnreachable("unknown partition kind");
}

bool Partition::isDisjoint() const {
  if (Kind == PartitionKind::Blocks)
    return true;
  return Operand == MmaOperand::C;
}

bool Partition::equals(const Partition &Other) const {
  if (Kind != Other.Kind || Parent != Other.Parent)
    return false;
  if (Kind == PartitionKind::Blocks)
    return TileShape == Other.TileShape;
  return Instr.M == Other.Instr.M && Instr.N == Other.Instr.N &&
         Instr.K == Other.Instr.K && Granularity == Other.Granularity &&
         Operand == Other.Operand;
}
