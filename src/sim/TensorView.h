//===- TensorView.h - Coordinate-mapped views over tensor storage ---------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TensorView is how leaf functions and the functional executor touch
/// data: a dense TensorData allocation plus a SubTensor coordinate map
/// (often the identity). Views let forwarded leaf arguments address slices
/// of larger allocations — e.g. a warpgroup's 64-row band of the block's
/// shared A tile — without copying.
///
/// A view resolves its SubTensor chain once, at construction, into a form
/// that addresses the root storage directly, so element access never
/// allocates or walks the chain:
///
///  * Pure-translation chains (any composition of Rect, Whole and MmaWarp
///    levels) become a base offset plus per-dimension strides: element
///    `Index` lives at `Base + sum(Index[d] * Strides[d])` in the root.
///  * Chains through a swizzled MmaLane fragment get an offset table, one
///    root offset per view element in row-major order, built in a single
///    allocation.
///
/// Debug builds check every index against the view's shape and every
/// resolved offset against the root tensor, the guarantee
/// Shape::linearize gives the unresolved path.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SIM_TENSORVIEW_H
#define CYPRESS_SIM_TENSORVIEW_H

#include "support/Error.h"
#include "support/InlineVector.h"
#include "tensor/Partition.h"
#include "tensor/TensorData.h"

#include <initializer_list>
#include <vector>

namespace cypress {

/// A (possibly swizzled) window into a TensorData allocation.
class TensorView {
public:
  TensorView(TensorData &Data, const SubTensor &Map);

  /// Identity view over a whole allocation.
  static TensorView whole(TensorData &Data) {
    return TensorView(Data, SubTensor::whole(Data.shape()));
  }

  const Shape &shape() const { return ViewShape; }

  float at(std::initializer_list<int64_t> Index) const {
    return atOffset(offsetOf(Index.begin(), Index.size()));
  }
  float at(const std::vector<int64_t> &Index) const {
    return atOffset(offsetOf(Index.data(), Index.size()));
  }
  void set(std::initializer_list<int64_t> Index, float Value) {
    setOffset(offsetOf(Index.begin(), Index.size()), Value);
  }
  void set(const std::vector<int64_t> &Index, float Value) {
    setOffset(offsetOf(Index.data(), Index.size()), Value);
  }

  /// Convenience accessors for the ubiquitous rank-2 case.
  float at2(int64_t Row, int64_t Col) const {
    return atOffset(offset2(Row, Col));
  }
  void set2(int64_t Row, int64_t Col, float Value) {
    setOffset(offset2(Row, Col), Value);
  }

  /// Accessors by row-major linear index over shape().
  float atLinear(int64_t Linear) const {
    return atOffset(offsetLinear(Linear));
  }
  void setLinear(int64_t Linear, float Value) {
    setOffset(offsetLinear(Linear), Value);
  }

  /// Root-storage offset of the element at \p Index (\p Rank coordinates).
  int64_t offsetOf(const int64_t *Index, size_t Rank) const {
    assert(Rank == ViewShape.rank() && "index rank mismatch");
    int64_t Pos = Base;
    for (unsigned D = 0; D != Rank; ++D) {
      checkIndex(D, Index[D]);
      Pos += Index[D] * Strides[D];
    }
    return resolve(Pos);
  }
  int64_t offset2(int64_t Row, int64_t Col) const {
    assert(ViewShape.rank() == 2 && "rank-2 accessor on another rank");
    checkIndex(0, Row);
    checkIndex(1, Col);
    return resolve(Base + Row * Strides[0] + Col * Strides[1]);
  }
  int64_t offsetLinear(int64_t Linear) const {
    assert(Linear >= 0 && Linear < ViewShape.numElements() &&
           "linear index out of view bounds");
    int64_t Pos = Base;
    for (unsigned D = ViewShape.rank(); D-- > 0;) {
      int64_t Extent = ViewShape.dim(D);
      Pos += (Linear % Extent) * Strides[D];
      Linear /= Extent;
    }
    return resolve(Pos);
  }

  /// Element access by root offset (from offsetOf and friends). Stores go
  /// through TensorData::set, so FP16 roots quantize every write.
  float atOffset(int64_t Offset) const { return Data->at(Offset); }
  void setOffset(int64_t Offset, float Value) { Data->set(Offset, Value); }

  /// True when the view resolved to a base offset plus per-dimension
  /// strides; false when it resolved to an offset table.
  bool isStrided() const { return Table.empty(); }

  /// Walks the view's elements in row-major order, yielding root offsets
  /// without division: the odometer steps by the per-dimension strides.
  class Cursor {
  public:
    explicit Cursor(const TensorView &View) : View(View), Pos(View.Base) {
      for (unsigned D = 0, E = View.ViewShape.rank(); D != E; ++D)
        Counter.push_back(0);
    }

    int64_t offset() const { return View.resolve(Pos); }

    void next() {
      for (size_t D = Counter.size(); D-- > 0;) {
        Pos += View.Strides[D];
        if (++Counter[D] < View.ViewShape.dim(D))
          return;
        Pos -= View.Strides[D] * View.ViewShape.dim(D);
        Counter[D] = 0;
      }
    }

  private:
    const TensorView &View;
    int64_t Pos;
    InlineVector<int64_t, 4> Counter;
  };

  /// Calls \p F(Linear, Offset) for every element in row-major order.
  template <typename Fn> void forEachOffset(Fn &&F) const {
    Cursor At(*this);
    for (int64_t Linear = 0, E = ViewShape.numElements(); Linear != E;
         ++Linear, At.next())
      F(Linear, At.offset());
  }

  /// Read-only rank-2 access through one base pointer and two strides, for
  /// the inner loops of the matrix leaves: element (Row, Col) is
  /// `Values[Row * RowStride + Col * ColStride]`.
  struct Matrix {
    const float *Values;
    int64_t RowStride;
    int64_t ColStride;
    int64_t Rows;
    int64_t Cols;

    float operator()(int64_t Row, int64_t Col) const {
      assert(Row >= 0 && Row < Rows && Col >= 0 && Col < Cols &&
             "matrix index out of view bounds");
      return Values[Row * RowStride + Col * ColStride];
    }
  };

  /// This rank-2 view as a Matrix. A strided view reads its root storage
  /// in place; an offset-table view is first gathered, in row-major order,
  /// into \p Scratch (a snapshot: writes through other views during its
  /// use are not seen, so use it only for operands the caller reads).
  Matrix matrix(std::vector<float> &Scratch) const;

  TensorData &data() { return *Data; }

private:
  /// Root offset of view position \p Pos (Base + sum(Index[d] * Strides[d])):
  /// the position itself for strided views, its table entry otherwise.
  int64_t resolve(int64_t Pos) const {
    int64_t Offset = Table.empty() ? Pos : Table[static_cast<size_t>(Pos)];
    assert(Offset >= 0 &&
           Offset < static_cast<int64_t>(Data->raw().size()) &&
           "view element maps outside its root tensor");
    return Offset;
  }

  void checkIndex([[maybe_unused]] unsigned D,
                  [[maybe_unused]] int64_t Index) const {
    assert(Index >= 0 && Index < ViewShape.dim(D) &&
           "index out of view bounds");
  }

  TensorData *Data;
  Shape ViewShape;
  /// Strided views: root offset of element 0 and root strides per
  /// dimension. Offset-table views: 0 and the row-major strides of
  /// ViewShape, so a position is the element's linear index into Table.
  int64_t Base = 0;
  InlineVector<int64_t, 4> Strides;
  std::vector<int64_t> Table;
};

/// Dst = Src element by element, pairing the two views' elements in
/// row-major order; every store goes through TensorData::set. Both
/// executors' copies and the `store` leaf run on this. Fails without
/// copying when the element counts differ.
ErrorOrVoid copyElements(TensorView &Dst, const TensorView &Src);

} // namespace cypress

#endif // CYPRESS_SIM_TENSORVIEW_H
