//===- TensorTest.cpp - Shapes, storage, and partitioning -------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the tensor substrate, including the
/// architecture-mandated WGMMA accumulator swizzle of Figure 4: the lane
/// fragments of a warpgroup must tile the 64xN accumulator exactly
/// (disjoint cover), rows must group by 16 per warp, and the per-8-column
/// lane pattern must match the PTX m64nNk16 layout. Resolved TensorViews
/// must address exactly the elements the unresolved chain walk does.
///
//===----------------------------------------------------------------------===//

#include "sim/TensorView.h"
#include "tensor/Partition.h"
#include "tensor/TensorData.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace cypress;

//===----------------------------------------------------------------------===//
// Shape
//===----------------------------------------------------------------------===//

TEST(Shape, Basics) {
  Shape S({4, 8, 2});
  EXPECT_EQ(S.rank(), 3u);
  EXPECT_EQ(S.numElements(), 64);
  EXPECT_EQ(S.dim(1), 8);
  EXPECT_EQ(S.toString(), "[4, 8, 2]");
}

TEST(Shape, LinearizeRoundTrip) {
  Shape S({3, 5, 7});
  for (int64_t I = 0; I < S.numElements(); ++I) {
    std::vector<int64_t> Index = S.delinearize(I);
    EXPECT_EQ(S.linearize(Index), I);
  }
}

TEST(Shape, RowMajorOrder) {
  Shape S({2, 3});
  EXPECT_EQ(S.linearize({0, 0}), 0);
  EXPECT_EQ(S.linearize({0, 2}), 2);
  EXPECT_EQ(S.linearize({1, 0}), 3);
  EXPECT_EQ(S.linearize({1, 2}), 5);
}

TEST(TensorType, SizeBytes) {
  TensorType F16{Shape({128, 64}), ElementType::F16};
  TensorType F32{Shape({128, 64}), ElementType::F32};
  EXPECT_EQ(F16.sizeBytes(), 128 * 64 * 2);
  EXPECT_EQ(F32.sizeBytes(), 128 * 64 * 4);
}

//===----------------------------------------------------------------------===//
// TensorData
//===----------------------------------------------------------------------===//

TEST(TensorData, Fp16QuantizesOnStore) {
  TensorData T(TensorType{Shape({2, 2}), ElementType::F16});
  T.set({0, 0}, 0.1f); // Not representable in FP16.
  EXPECT_NE(T.at({0, 0}), 0.1f);
  EXPECT_NEAR(T.at({0, 0}), 0.1f, 1e-4f);

  TensorData F(TensorType{Shape({2, 2}), ElementType::F32});
  F.set({0, 0}, 0.1f);
  EXPECT_EQ(F.at({0, 0}), 0.1f);
}

TEST(TensorData, MaxAbsDiff) {
  TensorData A(TensorType{Shape({4}), ElementType::F32});
  TensorData B(TensorType{Shape({4}), ElementType::F32});
  A.set({2}, 1.5f);
  B.set({2}, 1.0f);
  EXPECT_FLOAT_EQ(A.maxAbsDiff(B), 0.5f);
  EXPECT_FLOAT_EQ(A.maxAbsDiff(A), 0.0f);
}

//===----------------------------------------------------------------------===//
// Blocks partitioning
//===----------------------------------------------------------------------===//

TEST(BlocksPartition, EvenTiling) {
  ErrorOr<Partition> P =
      Partition::byBlocks(Shape({128, 256}), Shape({64, 64}));
  ASSERT_TRUE(P);
  EXPECT_EQ(P->colorSpace(), Shape({2, 4}));
  SubTensor Piece = P->piece({1, 2});
  EXPECT_EQ(Piece.shape(), Shape({64, 64}));
  EXPECT_EQ(Piece.mapToParent({0, 0}), (std::vector<int64_t>{64, 128}));
  EXPECT_EQ(Piece.mapToParent({63, 63}), (std::vector<int64_t>{127, 191}));
}

TEST(BlocksPartition, ClampedEdgeTiles) {
  ErrorOr<Partition> P = Partition::byBlocks(Shape({100}), Shape({64}));
  ASSERT_TRUE(P);
  EXPECT_EQ(P->numPieces(), 2);
  EXPECT_EQ(P->piece({0}).shape(), Shape({64}));
  EXPECT_EQ(P->piece({1}).shape(), Shape({36}));
}

TEST(BlocksPartition, RankMismatchDiagnosed) {
  ErrorOr<Partition> P = Partition::byBlocks(Shape({8, 8}), Shape({4}));
  ASSERT_FALSE(P);
  EXPECT_NE(P.diagnostic().message().find("rank"), std::string::npos);
}

TEST(BlocksPartition, DisjointCoverProperty) {
  // Every parent element is covered by exactly one piece.
  Shape Parent({48, 80});
  ErrorOr<Partition> P = Partition::byBlocks(Parent, Shape({16, 32}));
  ASSERT_TRUE(P);
  std::map<std::vector<int64_t>, int> Cover;
  for (int64_t Color = 0; Color < P->numPieces(); ++Color) {
    SubTensor Piece = P->piece(Color);
    Piece.forEachElement(Parent,
                         [&](int64_t, const std::vector<int64_t> &Idx) {
                           ++Cover[Idx];
                         });
  }
  EXPECT_EQ(static_cast<int64_t>(Cover.size()), Parent.numElements());
  for (const auto &[Idx, Count] : Cover)
    EXPECT_EQ(Count, 1);
  EXPECT_TRUE(P->isDisjoint());
}

//===----------------------------------------------------------------------===//
// MMA partitioning (Figure 4)
//===----------------------------------------------------------------------===//

TEST(MmaPartition, WarpGranularityRowGroups) {
  MmaInstruction Instr = MmaInstruction::wgmma64xNx16(256);
  ErrorOr<Partition> P = Partition::byMma(Shape({64, 256}), Instr,
                                          MmaGranularity::Warp,
                                          MmaOperand::C);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->numPieces(), 4);
  for (int64_t Warp = 0; Warp < 4; ++Warp) {
    SubTensor Piece = P->piece({Warp});
    EXPECT_EQ(Piece.shape(), Shape({16, 256}));
    // Figure 4: warp w owns rows [16w, 16w+16).
    EXPECT_EQ(Piece.mapToParent({0, 0})[0], 16 * Warp);
    EXPECT_EQ(Piece.mapToParent({15, 0})[0], 16 * Warp + 15);
  }
}

TEST(MmaPartition, LaneSwizzleMatchesPtxLayout) {
  // PTX m64nNk16 accumulator: within a warp, lane l holds elements at
  // row = 8h + l/4, col = 8g + 2(l%4) + e. Check known positions of the
  // Figure 4 pattern (warp 0).
  MmaInstruction Instr = MmaInstruction::wgmma64xNx16(8);
  SubTensor Lane0 = SubTensor::mmaAccumLane(Instr, 0, 0);
  EXPECT_EQ(Lane0.shape(), Shape({2, 2}));
  EXPECT_EQ(Lane0.mapToParent({0, 0}), (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(Lane0.mapToParent({0, 1}), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(Lane0.mapToParent({1, 0}), (std::vector<int64_t>{8, 0}));

  SubTensor Lane3 = SubTensor::mmaAccumLane(Instr, 0, 3);
  EXPECT_EQ(Lane3.mapToParent({0, 0}), (std::vector<int64_t>{0, 6}));
  SubTensor Lane4 = SubTensor::mmaAccumLane(Instr, 0, 4);
  EXPECT_EQ(Lane4.mapToParent({0, 0}), (std::vector<int64_t>{1, 0}));
  SubTensor Lane31 = SubTensor::mmaAccumLane(Instr, 0, 31);
  EXPECT_EQ(Lane31.mapToParent({0, 0}), (std::vector<int64_t>{7, 6}));
  EXPECT_EQ(Lane31.mapToParent({1, 1}), (std::vector<int64_t>{15, 7}));
}

/// Property sweep over instruction widths: the 128 lane fragments of the
/// warpgroup tile the full 64xN accumulator exactly once.
class MmaCoverTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(MmaCoverTest, LaneFragmentsTileAccumulator) {
  int64_t N = GetParam();
  MmaInstruction Instr = MmaInstruction::wgmma64xNx16(N);
  Shape Parent({64, N});
  std::map<std::vector<int64_t>, int> Cover;
  for (int64_t Warp = 0; Warp < 4; ++Warp) {
    for (int64_t Lane = 0; Lane < 32; ++Lane) {
      SubTensor Frag = SubTensor::mmaAccumLane(Instr, Warp, Lane);
      EXPECT_EQ(Frag.shape().numElements(), 64 * N / 128);
      Frag.forEachElement(Parent,
                          [&](int64_t, const std::vector<int64_t> &Idx) {
                            ++Cover[Idx];
                          });
    }
  }
  ASSERT_EQ(static_cast<int64_t>(Cover.size()), Parent.numElements());
  for (const auto &[Idx, Count] : Cover)
    ASSERT_EQ(Count, 1) << "element covered " << Count << " times";
}

INSTANTIATE_TEST_SUITE_P(Widths, MmaCoverTest,
                         ::testing::Values<int64_t>(8, 16, 64, 128, 256));

TEST(MmaPartition, WarpPiecesComposeWithLanePieces) {
  // Partition C by warps, then each warp's 16xN slice by lanes: the
  // composed mapping must agree with the direct lane swizzle.
  MmaInstruction Instr = MmaInstruction::wgmma64xNx16(16);
  for (int64_t Warp = 0; Warp < 4; ++Warp) {
    SubTensor WarpPiece = SubTensor::mmaAccumWarp(Instr, Warp);
    for (int64_t Lane = 0; Lane < 32; ++Lane) {
      // Lane swizzle relative to the warp slice (warp index 0).
      SubTensor Rel = SubTensor::mmaAccumLane(Instr, 0, Lane);
      SubTensor Composed = SubTensor::compose(WarpPiece, Rel);
      SubTensor Direct = SubTensor::mmaAccumLane(Instr, Warp, Lane);
      for (int64_t I = 0; I < Composed.shape().numElements(); I += 3) {
        std::vector<int64_t> Sub = Composed.shape().delinearize(I);
        EXPECT_EQ(Composed.mapToParent(Sub), Direct.mapToParent(Sub));
      }
    }
  }
}

TEST(MmaPartition, SharedOperandsAliasWholeTile) {
  // A/B operands are collectively referenced: every piece is the whole.
  ErrorOr<Partition> P = Partition::byMma(Shape({64, 64}),
                                          MmaInstruction::wgmma64xNx16(256),
                                          MmaGranularity::Warp,
                                          MmaOperand::A);
  ASSERT_TRUE(P);
  EXPECT_FALSE(P->isDisjoint());
  SubTensor Piece = P->piece({2});
  EXPECT_TRUE(Piece.isWhole());
  EXPECT_EQ(Piece.shape(), Shape({64, 64}));
}

TEST(MmaPartition, AccumulatorShapeMismatchDiagnosed) {
  ErrorOr<Partition> P = Partition::byMma(Shape({32, 256}),
                                          MmaInstruction::wgmma64xNx16(256),
                                          MmaGranularity::Warp,
                                          MmaOperand::C);
  ASSERT_FALSE(P);
}

TEST(MmaPartition, SpecEquality) {
  MmaInstruction Instr = MmaInstruction::wgmma64xNx16(256);
  Partition A = Partition::byMma(Shape({64, 256}), Instr,
                                 MmaGranularity::Warp, MmaOperand::C)
                    .take();
  Partition B = Partition::byMma(Shape({64, 256}), Instr,
                                 MmaGranularity::Warp, MmaOperand::C)
                    .take();
  Partition C = Partition::byMma(Shape({64, 256}), Instr,
                                 MmaGranularity::Thread, MmaOperand::C)
                    .take();
  EXPECT_TRUE(A.equals(B));
  EXPECT_FALSE(A.equals(C));
  Partition D = Partition::byBlocks(Shape({64, 256}), Shape({16, 256})).take();
  EXPECT_FALSE(A.equals(D));
}

//===----------------------------------------------------------------------===//
// Composition
//===----------------------------------------------------------------------===//

TEST(SubTensor, RectComposition) {
  SubTensor Outer = SubTensor::rect(Shape({32, 32}), {64, 128});
  SubTensor Inner = SubTensor::rect(Shape({8, 8}), {16, 24});
  SubTensor Composed = SubTensor::compose(Outer, Inner);
  EXPECT_EQ(Composed.shape(), Shape({8, 8}));
  EXPECT_EQ(Composed.mapToParent({0, 0}), (std::vector<int64_t>{80, 152}));
  EXPECT_EQ(Composed.mapToParent({7, 7}), (std::vector<int64_t>{87, 159}));
  EXPECT_TRUE(Composed.isRect());
}

TEST(SubTensor, WholeIsIdentityForComposition) {
  SubTensor Whole = SubTensor::whole(Shape({16, 16}));
  SubTensor Piece = SubTensor::rect(Shape({4, 4}), {8, 8});
  SubTensor Left = SubTensor::compose(Whole, Piece);
  EXPECT_EQ(Left.mapToParent({1, 1}), (std::vector<int64_t>{9, 9}));
  SubTensor Right =
      SubTensor::compose(Piece, SubTensor::whole(Shape({4, 4})));
  EXPECT_EQ(Right.mapToParent({1, 1}), (std::vector<int64_t>{9, 9}));
}

TEST(SubTensor, ThreeLevelChain) {
  SubTensor A = SubTensor::rect(Shape({64, 64}), {128, 0});
  SubTensor B = SubTensor::rect(Shape({16, 16}), {32, 48});
  SubTensor C = SubTensor::rect(Shape({4, 4}), {8, 4});
  SubTensor Chain = SubTensor::compose(A, SubTensor::compose(B, C));
  EXPECT_EQ(Chain.mapToParent({0, 0}),
            (std::vector<int64_t>{128 + 32 + 8, 0 + 48 + 4}));
  SubTensor Chain2 = SubTensor::compose(SubTensor::compose(A, B), C);
  EXPECT_EQ(Chain2.mapToParent({3, 3}), Chain.mapToParent({3, 3}));
}

//===----------------------------------------------------------------------===//
// Resolved views
//===----------------------------------------------------------------------===//

namespace {

/// Every access path of a view resolved from \p Map (multi-index, rank-2,
/// linear, cursor, Matrix) must land on the element the unresolved chain
/// walk names: Data.shape().linearize(Map.mapToParent(Index)).
void expectResolvedMatchesChain(TensorData &Data, const SubTensor &Map,
                                bool Strided) {
  for (size_t I = 0; I < Data.raw().size(); ++I)
    Data.raw()[I] = static_cast<float>(I);
  TensorView View(Data, Map);
  EXPECT_EQ(View.isStrided(), Strided);
  ASSERT_EQ(View.shape(), Map.shape());
  std::vector<float> Scratch;
  TensorView::Matrix Mat = View.matrix(Scratch);
  TensorView::Cursor At(View);
  for (int64_t I = 0, E = Map.shape().numElements(); I != E;
       ++I, At.next()) {
    std::vector<int64_t> Index = Map.shape().delinearize(I);
    int64_t Expected = Data.shape().linearize(Map.mapToParent(Index));
    ASSERT_EQ(View.offsetOf(Index.data(), Index.size()), Expected) << I;
    ASSERT_EQ(View.offset2(Index[0], Index[1]), Expected) << I;
    ASSERT_EQ(View.offsetLinear(I), Expected) << I;
    ASSERT_EQ(At.offset(), Expected) << I;
    ASSERT_EQ(Mat(Index[0], Index[1]), Data.at(Expected)) << I;
  }
}

} // namespace

TEST(TensorView, RectResolvesToStrides) {
  TensorData Data(TensorType{Shape({64, 128}), ElementType::F32});
  expectResolvedMatchesChain(Data, SubTensor::rect(Shape({16, 32}), {16, 64}),
                             /*Strided=*/true);
}

TEST(TensorView, ClampedEdgeRectResolvesToStrides) {
  TensorData Data(TensorType{Shape({100, 70}), ElementType::F32});
  Partition P = Partition::byBlocks(Data.shape(), Shape({64, 64})).take();
  SubTensor Edge = P.piece({1, 1});
  ASSERT_EQ(Edge.shape(), Shape({36, 6}));
  expectResolvedMatchesChain(Data, Edge, /*Strided=*/true);
}

TEST(TensorView, WholeResolvesToStrides) {
  TensorData Data(TensorType{Shape({8, 24}), ElementType::F32});
  expectResolvedMatchesChain(Data, SubTensor::whole(Data.shape()),
                             /*Strided=*/true);
}

TEST(TensorView, RectOfRectResolvesToStrides) {
  TensorData Data(TensorType{Shape({128, 256}), ElementType::F32});
  SubTensor Chain =
      SubTensor::compose(SubTensor::rect(Shape({64, 64}), {64, 128}),
                         SubTensor::rect(Shape({16, 8}), {32, 40}));
  expectResolvedMatchesChain(Data, Chain, /*Strided=*/true);
}

TEST(TensorView, WarpSliceOfRectResolvesToStrides) {
  MmaInstruction Instr = MmaInstruction::wgmma64xNx16(64);
  TensorData Data(TensorType{Shape({128, 192}), ElementType::F32});
  SubTensor Tile = SubTensor::rect(Shape({64, 64}), {64, 128});
  for (int64_t Warp = 0; Warp < 4; ++Warp)
    expectResolvedMatchesChain(
        Data, SubTensor::compose(Tile, SubTensor::mmaAccumWarp(Instr, Warp)),
        /*Strided=*/true);
}

TEST(TensorView, LaneFragmentUnderWarpResolvesToOffsetTable) {
  // The partition chain the compiler builds for thread-granularity
  // accumulators: block tile (Rect), warp slice (MmaWarp), lane fragment
  // (MmaLane, from the thread partition of the warp's 16xN slice).
  MmaInstruction Instr = MmaInstruction::wgmma64xNx16(32);
  TensorData Data(TensorType{Shape({128, 96}), ElementType::F32});
  SubTensor Tile = SubTensor::rect(Shape({64, 32}), {64, 64});
  Partition Lanes = Partition::byMma(Shape({16, 32}), MmaInstruction{16, 32, 16},
                                     MmaGranularity::Thread, MmaOperand::C)
                        .take();
  for (int64_t Warp = 0; Warp < 4; ++Warp) {
    SubTensor WarpSlice =
        SubTensor::compose(Tile, SubTensor::mmaAccumWarp(Instr, Warp));
    for (int64_t Lane = 0; Lane < 32; ++Lane)
      expectResolvedMatchesChain(
          Data, SubTensor::compose(WarpSlice, Lanes.piece(Lane)),
          /*Strided=*/false);
  }
}

TEST(TensorView, CopyElementsPairsRowMajorAndQuantizes) {
  TensorData Src(TensorType{Shape({4, 6}), ElementType::F32});
  TensorData Dst(TensorType{Shape({8, 8}), ElementType::F16});
  for (size_t I = 0; I < Src.raw().size(); ++I)
    Src.raw()[I] = 1.0f + static_cast<float>(I) / 3000.0f;
  TensorView From = TensorView::whole(Src);
  TensorView To(Dst, SubTensor::rect(Shape({4, 6}), {2, 1}));
  ASSERT_TRUE(bool(copyElements(To, From)));
  for (int64_t R = 0; R < 4; ++R)
    for (int64_t C = 0; C < 6; ++C)
      EXPECT_EQ(Dst.at({R + 2, C + 1}), quantizeFp16(Src.at({R, C})));

  TensorView Short(Dst, SubTensor::rect(Shape({2, 2}), {0, 0}));
  EXPECT_FALSE(bool(copyElements(Short, From)));
}
