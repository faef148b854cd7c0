//===- Partition.h - Tensor partitioning operators ------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two partitioning operators of Section 3.2:
///
///  * `blocks`: tiling-based rectangular partition.
///  * `mma`: the architecture-mandated partition of Tensor Core operands.
///    For the accumulator (operand "C") this is the register swizzle of
///    Figure 4: rows split in groups of 16 across the four warps of a
///    warpgroup, columns swizzled across the 32 lanes of each warp in the
///    PTX m64nNk16 accumulator pattern, repeated every 8 rows / 8 columns.
///    For shared-memory operands ("A"/"B") every piece aliases the whole
///    tile, because all 128 threads collectively reference the tile when
///    issuing WGMMA.
///
/// Sub-tensors have compacted, origin-based coordinate systems and need not
/// be contiguous in the parent.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_TENSOR_PARTITION_H
#define CYPRESS_TENSOR_PARTITION_H

#include "support/Error.h"
#include "tensor/Shape.h"

#include <functional>
#include <memory>
#include <vector>

namespace cypress {

enum class PartitionKind : uint8_t {
  Blocks,
  Mma,
};

const char *partitionKindName(PartitionKind Kind);

/// Which operand of the MMA an mma-partition describes.
enum class MmaOperand : uint8_t {
  A, ///< Left operand (shared memory or registers).
  B, ///< Right operand (shared memory).
  C, ///< Accumulator (register file, Figure 4 swizzle).
};

const char *mmaOperandName(MmaOperand Operand);

/// Shape of one warpgroup MMA instruction, e.g. WGMMA_64x256x16.
struct MmaInstruction {
  int64_t M;
  int64_t N;
  int64_t K;

  static MmaInstruction wgmma64xNx16(int64_t N) { return {64, N, 16}; }

  std::string toString() const;
};

/// At which processor granularity an mma partition splits its operand.
/// The paper's `partition_by_mma(C, WGMMA, PROC, "C")` takes the target
/// processor as a tunable; only Warp and Thread splits exist on Hopper.
enum class MmaGranularity : uint8_t {
  Warp,   ///< 4 pieces: each warp's 16-row slice of the accumulator.
  Thread, ///< 32 pieces per warp: each lane's swizzled fragment.
};

/// One piece of a partition: a mapping from a compacted, origin-based
/// sub-tensor coordinate system into parent coordinates.
class SubTensor {
public:
  /// Rectangular piece: sub index + Offset = parent index.
  static SubTensor rect(Shape SubShape, std::vector<int64_t> Offset);

  /// Piece aliasing the entire parent (used for shared MMA operands).
  static SubTensor whole(Shape ParentShape);

  /// Swizzled accumulator fragment for one lane of one warp
  /// (MmaGranularity::Thread) of an m64nN accumulator.
  static SubTensor mmaAccumLane(const MmaInstruction &Instr, int64_t WarpIndex,
                                int64_t LaneIndex);

  /// A warp's 16-row slice of an m64nN accumulator (MmaGranularity::Warp).
  static SubTensor mmaAccumWarp(const MmaInstruction &Instr,
                                int64_t WarpIndex);

  /// Composes two mappings: \p Inner selects within \p Outer's coordinate
  /// system; the result maps Inner coordinates to Outer's parent.
  static SubTensor compose(const SubTensor &Outer, const SubTensor &Inner);

  const Shape &shape() const { return SubShape; }
  bool isRect() const {
    return (Kind == MapKind::Rect || Kind == MapKind::Whole) &&
           (!Parent || Parent->isRect());
  }
  bool isWhole() const { return Kind == MapKind::Whole && !Parent; }

  /// Parent coordinates of sub-tensor element \p SubIndex, following the
  /// full composition chain to the root.
  std::vector<int64_t> mapToParent(const std::vector<int64_t> &SubIndex) const;

  /// Allocation-free mapToParent: rewrites the rank() coordinates at
  /// \p Index from this sub-tensor's system into the root's. Every level
  /// of a chain preserves rank, so one buffer serves the whole walk.
  void mapToRootInPlace(int64_t *Index) const;

  /// True when every level of the chain is a pure translation (Rect,
  /// Whole, MmaWarp); then root index = sub index + \p Translation, which
  /// is written here (rank() slots). False for chains through a swizzled
  /// MmaLane fragment.
  bool rootTranslation(int64_t *Translation) const;

  /// Visits every (subLinear, parentIndex) pair. The callback receives the
  /// linearized sub index (row-major over shape()) and the parent coords.
  void forEachElement(
      const Shape &ParentShape,
      const std::function<void(int64_t, const std::vector<int64_t> &)> &Fn)
      const;

private:
  /// Maps \p Index one level up, in place (ignoring the composition chain).
  void mapToLocalParentInPlace(int64_t *Index) const;

  enum class MapKind : uint8_t { Rect, Whole, MmaLane, MmaWarp };

  MapKind Kind = MapKind::Rect;
  Shape SubShape;
  std::vector<int64_t> Offset; // Rect only.
  MmaInstruction Instr{0, 0, 0};
  int64_t WarpIndex = 0;
  int64_t LaneIndex = 0;
  /// Composition chain: when set, this mapping's outputs are coordinates in
  /// Parent's system and are mapped once more through Parent.
  std::shared_ptr<const SubTensor> Parent;
};

/// A partition of a tensor into SubTensor pieces.
///
/// Pieces are indexed by a (possibly multi-dimensional) color space; blocks
/// partitions have a grid color space, mma partitions a linear one.
class Partition {
public:
  /// Tiling partition of \p Parent into tiles of \p TileShape (Figure 5a's
  /// partition_by_blocks). Edge tiles are clamped to the parent bounds.
  static ErrorOr<Partition> byBlocks(const Shape &Parent,
                                     const Shape &TileShape);

  /// MMA partition of \p Parent for \p Operand of \p Instr at \p Granularity
  /// (Figure 5a's partition_by_mma).
  static ErrorOr<Partition> byMma(const Shape &Parent,
                                  const MmaInstruction &Instr,
                                  MmaGranularity Granularity,
                                  MmaOperand Operand);

  PartitionKind kind() const { return Kind; }
  const Shape &parentShape() const { return Parent; }
  const Shape &tileShape() const {
    assert(Kind == PartitionKind::Blocks && "not a blocks partition");
    return TileShape;
  }
  const MmaInstruction &mmaInstr() const {
    assert(Kind == PartitionKind::Mma && "not an mma partition");
    return Instr;
  }
  MmaGranularity granularity() const { return Granularity; }
  MmaOperand operand() const { return Operand; }

  /// Structural equality of partition specifications (same decomposition of
  /// the same parent shape).
  bool equals(const Partition &Other) const;

  /// The color (index) space of the partition.
  const Shape &colorSpace() const { return Colors; }
  int64_t numPieces() const { return Colors.numElements(); }

  /// The piece at multi-dimensional color \p Color.
  SubTensor piece(const std::vector<int64_t> &Color) const;
  /// piece(Color).shape().numElements() without materializing the piece —
  /// the verifier checks element counts after every pass, so this must not
  /// allocate. \p Color points at rank() color coordinates.
  int64_t pieceNumElements(const int64_t *Color, size_t Rank) const;
  /// The piece at linearized color \p LinearColor.
  SubTensor piece(int64_t LinearColor) const {
    return piece(Colors.delinearize(LinearColor));
  }

  /// True if distinct pieces never overlap (writable partition). MMA operand
  /// partitions for A/B alias the whole tile and are therefore read-only.
  bool isDisjoint() const;

private:
  PartitionKind Kind = PartitionKind::Blocks;
  Shape Parent;
  Shape Colors;
  // Blocks parameters.
  Shape TileShape;
  // Mma parameters.
  MmaInstruction Instr{0, 0, 0};
  MmaGranularity Granularity = MmaGranularity::Thread;
  MmaOperand Operand = MmaOperand::C;
};

} // namespace cypress

#endif // CYPRESS_TENSOR_PARTITION_H
