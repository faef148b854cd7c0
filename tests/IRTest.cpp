//===- IRTest.cpp - Event IR construction, printing, verification ------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the event-based IR of Section 4.1: slice resolution
/// through partition chains, the Figure 8/9-style printer, and the SSA /
/// event-scoping verifier.
///
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include <gtest/gtest.h>

using namespace cypress;

namespace {

/// Builds a tiny module: one global tensor, one shared tile, one copy.
struct Fixture {
  IRModule Module;
  TensorId A, Tile;
  PartitionId Part;

  Fixture() {
    A = Module.addTensor("A", {Shape({64, 64}), ElementType::F16},
                         Memory::Global);
    Tile = Module.addTensor("tile", {Shape({16, 64}), ElementType::F16},
                            Memory::Shared);
    Part = Module.addPartition(
        TensorSlice::whole(A),
        Partition::byBlocks(Shape({64, 64}), Shape({16, 64})).take());
  }

  Operation &append(OpKind Kind) {
    auto Op = std::make_unique<Operation>();
    Op->Kind = Kind;
    Op->Id = Module.freshOpId();
    Operation &Ref = *Op;
    Module.root().Ops.push_back(std::move(Op));
    return Ref;
  }
};

} // namespace

TEST(IR, SliceShapes) {
  Fixture F;
  TensorSlice Whole = TensorSlice::whole(F.A);
  EXPECT_EQ(F.Module.sliceShape(Whole), Shape({64, 64}));

  TensorSlice Piece = TensorSlice::piece(
      F.A, F.Part, {ScalarExpr(2), ScalarExpr(0)});
  EXPECT_EQ(F.Module.sliceShape(Piece), Shape({16, 64}));
  EXPECT_EQ(F.Module.sliceBytes(Piece), 16 * 64 * 2);

  // Symbolic colors report the uniform interior tile shape.
  TensorSlice Symbolic = TensorSlice::piece(
      F.A, F.Part, {ScalarExpr::loopVar(0, "k"), ScalarExpr(0)});
  EXPECT_EQ(F.Module.sliceShape(Symbolic), Shape({16, 64}));
}

TEST(IR, ResolveSliceThroughChain) {
  Fixture F;
  // Partition the piece again: a partition whose base is a piece.
  TensorSlice Base =
      TensorSlice::piece(F.A, F.Part, {ScalarExpr(1), ScalarExpr(0)});
  PartitionId Sub = F.Module.addPartition(
      Base, Partition::byBlocks(Shape({16, 64}), Shape({16, 16})).take());
  TensorSlice Leafy =
      TensorSlice::piece(F.A, Sub, {ScalarExpr(0), ScalarExpr(3)});

  ScalarEnv Env;
  SubTensor Resolved = F.Module.resolveSlice(Leafy, Env);
  // Rows 16..31 of A (piece 1) then columns 48..63 (sub-piece 3).
  EXPECT_EQ(Resolved.mapToParent({0, 0}), (std::vector<int64_t>{16, 48}));
  EXPECT_EQ(Resolved.mapToParent({15, 15}), (std::vector<int64_t>{31, 63}));
}

TEST(IR, PrinterMatchesPaperNotation) {
  Fixture F;
  Operation &Alloc = F.append(OpKind::Alloc);
  Alloc.AllocTensor = F.Tile;

  EventId E1 = F.Module.addEvent("e1", EventType{});
  Operation &Copy = F.append(OpKind::Copy);
  Copy.CopySrc =
      TensorSlice::piece(F.A, F.Part, {ScalarExpr(0), ScalarExpr(0)});
  Copy.CopyDst = TensorSlice::whole(F.Tile);
  Copy.Result = E1;
  Copy.Unit = ExecUnit::TMA;

  EventType ArrayType;
  ArrayType.Dims.push_back({4, Processor::Warp});
  EventId E2 = F.Module.addEvent("e2", ArrayType);
  Operation &Call = F.append(OpKind::Call);
  Call.Callee = "leaf";
  Call.Args = {TensorSlice::whole(F.Tile)};
  Call.ArgIsWritten = {false};
  Call.Result = E2;
  EventRef Pre = EventRef::unit(E1);
  Call.Preconds.push_back(Pre);

  std::string Text = printModule(F.Module);
  EXPECT_NE(Text.find("tile = tensor(f16[16, 64], SHARED)"),
            std::string::npos);
  EXPECT_NE(Text.find("e1 : () = copy(A[0, 0], tile) on tma, {}"),
            std::string::npos);
  EXPECT_NE(Text.find("e2 : [(4, WARP)] = call(leaf, tile) on simt, {e1}"),
            std::string::npos);
}

TEST(IR, PrinterShowsBroadcastAndLag) {
  Fixture F;
  EventType ArrayType;
  ArrayType.Dims.push_back({4, Processor::Warp});
  EventId E1 = F.Module.addEvent("e1", ArrayType);
  Operation &First = F.append(OpKind::Call);
  First.Callee = "producer";
  First.Result = E1;

  Operation &Second = F.append(OpKind::Call);
  Second.Callee = "consumer";
  EventRef Ref;
  Ref.Event = E1;
  Ref.Indices.push_back(EventIndex::broadcast());
  Ref.IterLag = 2;
  Second.Preconds.push_back(Ref);

  std::string Text = printModule(F.Module);
  EXPECT_NE(Text.find("{e1[:]@lag(2)}"), std::string::npos);
}

TEST(Verifier, AcceptsWellFormed) {
  Fixture F;
  EventId E1 = F.Module.addEvent("e1", EventType{});
  Operation &Copy = F.append(OpKind::Copy);
  Copy.CopySrc = TensorSlice::whole(F.Tile);
  Copy.CopyDst = TensorSlice::whole(F.Tile);
  Copy.Result = E1;
  EXPECT_TRUE(verifyModule(F.Module));
}

TEST(Verifier, RejectsUseBeforeDef) {
  Fixture F;
  EventId E1 = F.Module.addEvent("e1", EventType{});
  Operation &Copy = F.append(OpKind::Copy);
  Copy.CopySrc = TensorSlice::whole(F.Tile);
  Copy.CopyDst = TensorSlice::whole(F.Tile);
  Copy.Preconds.push_back(EventRef::unit(E1)); // Defined by itself: later.
  Copy.Result = E1;
  ErrorOrVoid Result = verifyModule(F.Module);
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("before its definition"),
            std::string::npos);
}

TEST(Verifier, AllowsLaggedBackwardRefs) {
  // Pipelining's anti-dependence edges point backward; the verifier must
  // accept them (they resolve to a previous iteration).
  Fixture F;
  EventId E1 = F.Module.addEvent("e1", EventType{});
  Operation &Copy = F.append(OpKind::Copy);
  Copy.CopySrc = TensorSlice::whole(F.Tile);
  Copy.CopyDst = TensorSlice::whole(F.Tile);
  EventRef Back = EventRef::unit(E1);
  Back.IterLag = 3;
  Copy.Preconds.push_back(Back);
  Copy.Result = E1;
  EXPECT_TRUE(verifyModule(F.Module));
}

TEST(Verifier, RejectsIndexRankMismatch) {
  Fixture F;
  EventType ArrayType;
  ArrayType.Dims.push_back({4, Processor::Warp});
  EventId E1 = F.Module.addEvent("e1", ArrayType);
  Operation &First = F.append(OpKind::Call);
  First.Callee = "producer";
  First.Result = E1;

  Operation &Second = F.append(OpKind::Call);
  Second.Callee = "consumer";
  Second.Preconds.push_back(EventRef::unit(E1)); // Rank-1 event, no index.
  ErrorOrVoid Result = verifyModule(F.Module);
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("rank"), std::string::npos);
}

TEST(Verifier, RejectsDoubleDefinition) {
  Fixture F;
  EventId E1 = F.Module.addEvent("e1", EventType{});
  for (int I = 0; I < 2; ++I) {
    Operation &Copy = F.append(OpKind::Copy);
    Copy.CopySrc = TensorSlice::whole(F.Tile);
    Copy.CopyDst = TensorSlice::whole(F.Tile);
    Copy.Result = E1;
  }
  ErrorOrVoid Result = verifyModule(F.Module);
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("SSA"), std::string::npos);
}

TEST(Verifier, RejectsCopySizeMismatch) {
  Fixture F;
  Operation &Copy = F.append(OpKind::Copy);
  Copy.CopySrc = TensorSlice::whole(F.A);    // 64x64
  Copy.CopyDst = TensorSlice::whole(F.Tile); // 16x64
  Copy.Result = F.Module.addEvent("e1", EventType{});
  ErrorOrVoid Result = verifyModule(F.Module);
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.diagnostic().message().find("elements"),
            std::string::npos);
}

TEST(IR, CloneIsDeep) {
  Fixture F;
  auto Loop = std::make_unique<Operation>();
  Loop->Kind = OpKind::For;
  Loop->LoopVarName = "k";
  auto Inner = std::make_unique<Operation>();
  Inner->Kind = OpKind::Copy;
  Inner->CopySrc = TensorSlice::whole(F.Tile);
  Inner->CopyDst = TensorSlice::whole(F.Tile);
  Loop->Body.Ops.push_back(std::move(Inner));

  std::unique_ptr<Operation> Clone = Loop->clone();
  ASSERT_EQ(Clone->Body.Ops.size(), 1u);
  EXPECT_NE(Clone->Body.Ops[0].get(), Loop->Body.Ops[0].get());
  Clone->Body.Ops[0]->CopySrc = TensorSlice::whole(F.A);
  EXPECT_EQ(Loop->Body.Ops[0]->CopySrc.Tensor, F.Tile);
}

TEST(IR, ModuleCloneIsDeepAndKeepsIdsAndCounters) {
  Fixture F;
  LoopVarId K = F.Module.freshLoopVar();
  Operation &Loop = F.append(OpKind::For);
  Loop.LoopVar = K;
  Loop.LoopVarName = "k0";
  Loop.LoopHi = ScalarExpr(4);
  Loop.Result = F.Module.addEvent("e0", EventType{});
  auto Copy = std::make_unique<Operation>();
  Copy->Kind = OpKind::Copy;
  Copy->Id = F.Module.freshOpId();
  Copy->CopySrc = TensorSlice::piece(
      F.A, F.Part, {ScalarExpr::loopVar(K, "k0")});
  Copy->CopyDst = TensorSlice::whole(F.Tile);
  Copy->Result = F.Module.addEvent("e1", EventType{});
  Loop.Body.Ops.push_back(std::move(Copy));
  Loop.Body.Yield = EventRef::unit(Loop.Body.Ops[0]->Result);
  F.Module.entryArgs().push_back(F.A);
  const std::string Before = printModule(F.Module);

  IRModule Clone = F.Module.clone();
  EXPECT_EQ(printModule(Clone), Before);
  ASSERT_EQ(Clone.root().Ops.size(), 1u);
  EXPECT_NE(Clone.root().Ops[0].get(), F.Module.root().Ops[0].get());
  EXPECT_EQ(Clone.root().Ops[0]->Id, Loop.Id);
  EXPECT_EQ(Clone.root().Ops[0]->Body.Ops[0]->Id, Loop.Body.Ops[0]->Id);
  EXPECT_EQ(Clone.entryArgs(), F.Module.entryArgs());

  // The counters continue where the original's stand, so a pass creating
  // ops or loop variables on the clone numbers them as on the original.
  EXPECT_EQ(Clone.freshOpId(), F.Module.freshOpId());
  EXPECT_EQ(Clone.freshLoopVar(), F.Module.freshLoopVar());

  // Mutating the clone's ops, tensors and events leaves the original.
  Operation &ClonedCopy = *Clone.root().Ops[0]->Body.Ops[0];
  ClonedCopy.CopyDst = TensorSlice::whole(F.A);
  ClonedCopy.Preconds.push_back(EventRef::unit(Loop.Result));
  Clone.root().Ops[0]->ForPipeline = 3;
  Clone.root().Ops[0]->Body.Ops.clear();
  Clone.tensor(F.Tile).PipelineDepth = 3;
  Clone.tensor(F.Tile).Name = "renamed";
  Clone.event(Loop.Result).Name = "renamed";
  Clone.addTensor("extra", {Shape({8}), ElementType::F16}, Memory::Shared);
  Clone.addEvent("extra", EventType{});
  EXPECT_EQ(printModule(F.Module), Before);
  EXPECT_NE(printModule(Clone), Before);
  EXPECT_EQ(F.Module.tensors().size(), 2u);
  EXPECT_EQ(F.Module.numEvents(), 2u);
}
