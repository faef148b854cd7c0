//===- TensorView.cpp - Coordinate-mapped views over tensor storage -------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/TensorView.h"

#include "support/Format.h"

using namespace cypress;

namespace {

InlineVector<int64_t, 4> zeros(unsigned Rank) {
  InlineVector<int64_t, 4> Result;
  for (unsigned D = 0; D != Rank; ++D)
    Result.push_back(0);
  return Result;
}

/// Row-major strides of \p S.
InlineVector<int64_t, 4> rowMajorStrides(const Shape &S) {
  InlineVector<int64_t, 4> Strides = zeros(S.rank());
  int64_t Stride = 1;
  for (unsigned D = S.rank(); D-- > 0;) {
    Strides[D] = Stride;
    Stride *= S.dim(D);
  }
  return Strides;
}

} // namespace

TensorView::TensorView(TensorData &Data, const SubTensor &Map)
    : Data(&Data), ViewShape(Map.shape()) {
  const Shape &Root = Data.shape();
  unsigned Rank = ViewShape.rank();
  assert(Root.rank() == Rank && "every sub-tensor level preserves rank");
  InlineVector<int64_t, 4> RootStrides = rowMajorStrides(Root);

  InlineVector<int64_t, 4> Translation = zeros(Rank);
  if (Map.rootTranslation(Translation.begin())) {
    for (unsigned D = 0; D != Rank; ++D)
      Base += Translation[D] * RootStrides[D];
    Strides = std::move(RootStrides);
    return;
  }

  // Offset table: map every element once, walking the sub index with an
  // odometer so the loop allocates nothing per element.
  Strides = rowMajorStrides(ViewShape);
  Table.resize(static_cast<size_t>(ViewShape.numElements()));
  InlineVector<int64_t, 4> Sub = zeros(Rank), Index = zeros(Rank);
  for (int64_t &Entry : Table) {
    Index = Sub;
    Map.mapToRootInPlace(Index.begin());
    Entry = 0;
    for (unsigned D = 0; D != Rank; ++D) {
      assert(Index[D] >= 0 && Index[D] < Root.dim(D) &&
             "sub-tensor element maps outside its root tensor");
      Entry += Index[D] * RootStrides[D];
    }
    for (unsigned D = Rank; D-- > 0;) {
      if (++Sub[D] < ViewShape.dim(D))
        break;
      Sub[D] = 0;
    }
  }
}

TensorView::Matrix TensorView::matrix(std::vector<float> &Scratch) const {
  assert(ViewShape.rank() == 2 && "matrix view of another rank");
  Matrix Result{nullptr, 0, 0, ViewShape.dim(0), ViewShape.dim(1)};
  if (isStrided()) {
    // Strides are non-negative, so the corners bound every element.
    [[maybe_unused]] int64_t First = offset2(0, 0);
    [[maybe_unused]] int64_t Last = offset2(Result.Rows - 1, Result.Cols - 1);
    Result.Values = Data->raw().data() + Base;
    Result.RowStride = Strides[0];
    Result.ColStride = Strides[1];
    return Result;
  }
  Scratch.resize(Table.size());
  for (size_t I = 0, E = Table.size(); I != E; ++I)
    Scratch[I] = Data->at(Table[I]);
  Result.Values = Scratch.data();
  Result.RowStride = Result.Cols;
  Result.ColStride = 1;
  return Result;
}

ErrorOrVoid cypress::copyElements(TensorView &Dst, const TensorView &Src) {
  int64_t Count = Src.shape().numElements();
  if (Count != Dst.shape().numElements())
    return Diagnostic(formatString(
        "copy size mismatch (%lld vs %lld elements)",
        static_cast<long long>(Count),
        static_cast<long long>(Dst.shape().numElements())));
  TensorView::Cursor From(Src), To(Dst);
  for (int64_t I = 0; I != Count; ++I, From.next(), To.next())
    Dst.setOffset(To.offset(), Src.atOffset(From.offset()));
  return ErrorOrVoid::success();
}
