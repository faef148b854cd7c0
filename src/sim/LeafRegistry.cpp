//===- LeafRegistry.cpp - Builtin leaf-task implementations ----------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional implementations of the builtin leaves. These are the host
/// equivalents of the device code the paper's leaf tasks dispatch to via
/// CuTe: FP16 inputs with FP32 accumulation for the Tensor Core path, plus
/// the SIMT leaves used by the attention kernels (row max/sum, exponential
/// rescaling of the online-softmax state).
///
//===----------------------------------------------------------------------===//

#include "sim/LeafRegistry.h"

#include <cmath>

using namespace cypress;

namespace {

// Every leaf below keeps the per-element accumulation order of the plain
// nested loops (sums run over the innermost index in increasing order) and
// stores through TensorView, so FP16 outputs quantize exactly as before and
// both executors stay bit-identical. Read-only rank-2 operands go through
// TensorView::Matrix, whose inner loops are a base pointer and two strides;
// the Scratch vectors back offset-table operands only.

/// C += A x B with FP32 accumulation (the wgmma semantics; C is an FP32
/// accumulator view, A/B are FP16 tiles).
void wgmmaAccumulate(std::vector<TensorView> &Args,
                     const std::vector<int64_t> &) {
  assert(Args.size() == 3 && "wgmma expects C, A, B");
  TensorView &C = Args[0];
  std::vector<float> ScratchA, ScratchB;
  TensorView::Matrix A = Args[1].matrix(ScratchA);
  TensorView::Matrix B = Args[2].matrix(ScratchB);
  int64_t M = C.shape().dim(0);
  int64_t N = C.shape().dim(1);
  int64_t K = A.Cols;
  assert(A.Rows == M && B.Rows == K && B.Cols == N &&
         "wgmma operand shape mismatch");
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Acc = C.at2(I, J);
      for (int64_t KK = 0; KK < K; ++KK)
        Acc += A(I, KK) * B(KK, J);
      C.set2(I, J, Acc);
    }
}

/// C = A x B^T with FP32 accumulation (attention's Q.K^T step; B is stored
/// row-major [N, K] and used transposed).
void wgmmaAccumulateBT(std::vector<TensorView> &Args,
                       const std::vector<int64_t> &) {
  assert(Args.size() == 3 && "wgmma_bt expects C, A, B");
  TensorView &C = Args[0];
  std::vector<float> ScratchA, ScratchB;
  TensorView::Matrix A = Args[1].matrix(ScratchA);
  TensorView::Matrix B = Args[2].matrix(ScratchB);
  int64_t M = C.shape().dim(0);
  int64_t N = C.shape().dim(1);
  int64_t K = A.Cols;
  assert(B.Rows == N && B.Cols == K && "wgmma_bt operand shape mismatch");
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Acc = C.at2(I, J);
      for (int64_t KK = 0; KK < K; ++KK)
        Acc += A(I, KK) * B(J, KK);
      C.set2(I, J, Acc);
    }
}

void clearTensor(std::vector<TensorView> &Args,
                 const std::vector<int64_t> &) {
  assert(!Args.empty() && "clear expects one tensor");
  TensorView &T = Args[0];
  T.forEachOffset([&](int64_t, int64_t Offset) { T.setOffset(Offset, 0.0f); });
}

/// Dst = Src (element-wise, possibly with FP16 quantization on the store).
void storeTensor(std::vector<TensorView> &Args,
                 const std::vector<int64_t> &) {
  assert(Args.size() == 2 && "store expects Dst, Src");
  [[maybe_unused]] ErrorOrVoid Stored = copyElements(Args[0], Args[1]);
  assert(Stored && "store size mismatch");
}

/// y(i) += sum_k A(i, k): the fused row reduction of Figure 13d's kernel.
void rowSumAccumulate(std::vector<TensorView> &Args,
                      const std::vector<int64_t> &) {
  assert(Args.size() == 2 && "row_sum expects y, A");
  TensorView &Y = Args[0];
  std::vector<float> Scratch;
  TensorView::Matrix A = Args[1].matrix(Scratch);
  for (int64_t I = 0; I < A.Rows; ++I) {
    float Acc = Y.atLinear(I);
    for (int64_t KK = 0; KK < A.Cols; ++KK)
      Acc += A(I, KK);
    Y.setLinear(I, Acc);
  }
}

/// One step of online softmax (Flash Attention 2 inner loop):
/// given scores S (m x n), running max Mx (m), running denominator L (m)
/// and output accumulator O (m x d):
///   newmax = max(Mx, rowmax(S)); alpha = exp(Mx - newmax)
///   P = exp(S - newmax); L = alpha*L + rowsum(P); O = alpha*O  (rescale)
///   S <- P (probabilities written back for the following P.V GEMM)
/// Scalars[0] carries the softmax scale multiplied into S first, as a
/// fixed-point thousandth (scale = Scalars[0] / 65536.0).
void onlineSoftmaxStep(std::vector<TensorView> &Args,
                       const std::vector<int64_t> &Scalars) {
  assert(Args.size() == 4 && "softmax_step expects S, Mx, L, O");
  TensorView &S = Args[0];
  TensorView &Mx = Args[1];
  TensorView &L = Args[2];
  TensorView &O = Args[3];
  double Scale = Scalars.empty()
                     ? 1.0
                     : static_cast<double>(Scalars[0]) / 65536.0;
  int64_t M = S.shape().dim(0);
  int64_t N = S.shape().dim(1);
  int64_t D = O.shape().dim(1);
  for (int64_t I = 0; I < M; ++I) {
    float RowMax = Mx.atLinear(I);
    for (int64_t J = 0; J < N; ++J) {
      float V = static_cast<float>(S.at2(I, J) * Scale);
      S.set2(I, J, V);
      RowMax = std::max(RowMax, V);
    }
    float Alpha = std::exp(Mx.atLinear(I) - RowMax);
    float RowSum = 0.0f;
    for (int64_t J = 0; J < N; ++J) {
      float P = std::exp(S.at2(I, J) - RowMax);
      S.set2(I, J, P);
      RowSum += P;
    }
    L.setLinear(I, Alpha * L.atLinear(I) + RowSum);
    Mx.setLinear(I, RowMax);
    for (int64_t J = 0; J < D; ++J)
      O.set2(I, J, Alpha * O.at2(I, J));
  }
}

/// Final normalization of attention output: O(i, :) /= L(i).
void softmaxFinalize(std::vector<TensorView> &Args,
                     const std::vector<int64_t> &) {
  assert(Args.size() == 2 && "softmax_finalize expects O, L");
  TensorView &O = Args[0];
  TensorView &L = Args[1];
  int64_t M = O.shape().dim(0);
  int64_t D = O.shape().dim(1);
  for (int64_t I = 0; I < M; ++I) {
    float Denominator = L.atLinear(I);
    float Inv = Denominator != 0.0f ? 1.0f / Denominator : 0.0f;
    for (int64_t J = 0; J < D; ++J)
      O.set2(I, J, O.at2(I, J) * Inv);
  }
}

/// Initializes the online-softmax state: Mx = -inf, L = 0.
void softmaxInit(std::vector<TensorView> &Args, const std::vector<int64_t> &) {
  assert(Args.size() == 2 && "softmax_init expects Mx, L");
  TensorView &Mx = Args[0];
  TensorView &L = Args[1];
  int64_t M = Mx.shape().dim(0);
  for (int64_t I = 0; I < M; ++I) {
    Mx.setLinear(I, -3.0e38f);
    L.setLinear(I, 0.0f);
  }
}

/// Element-wise addition Dst += Src (Dual-GEMM's combine step when the two
/// products are accumulated in separate register tiles).
void addInto(std::vector<TensorView> &Args, const std::vector<int64_t> &) {
  assert(Args.size() == 2 && "add_into expects Dst, Src");
  TensorView &Dst = Args[0];
  TensorView &Src = Args[1];
  assert(Src.shape().numElements() == Dst.shape().numElements() &&
         "add_into size mismatch");
  TensorView::Cursor From(Src);
  Dst.forEachOffset([&](int64_t, int64_t Offset) {
    Dst.setOffset(Offset, Dst.atOffset(Offset) + Src.atOffset(From.offset()));
    From.next();
  });
}

/// Dual-GEMM inner step: C += A x B1 + A x B2 in one Tensor Core pass over
/// the shared tiles (two chained WGMMAs in hardware).
void dualWgmma(std::vector<TensorView> &Args, const std::vector<int64_t> &) {
  assert(Args.size() == 4 && "dual_wgmma expects C, A, B1, B2");
  TensorView &C = Args[0];
  std::vector<float> ScratchA, ScratchB1, ScratchB2;
  TensorView::Matrix A = Args[1].matrix(ScratchA);
  TensorView::Matrix B1 = Args[2].matrix(ScratchB1);
  TensorView::Matrix B2 = Args[3].matrix(ScratchB2);
  int64_t M = C.shape().dim(0);
  int64_t N = C.shape().dim(1);
  int64_t K = A.Cols;
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Acc = C.at2(I, J);
      for (int64_t KK = 0; KK < K; ++KK)
        Acc += A(I, KK) * (B1(KK, J) + B2(KK, J));
      C.set2(I, J, Acc);
    }
}

/// Fused-reduction leaf: Y(0, i) += sum_k A(i, k) where Y is a [1, M] row
/// accumulator tile (Figure 13d's kernel).
void rowSumTile(std::vector<TensorView> &Args, const std::vector<int64_t> &) {
  assert(Args.size() == 2 && "row_sum_tile expects Y, A");
  TensorView &Y = Args[0];
  std::vector<float> Scratch;
  TensorView::Matrix A = Args[1].matrix(Scratch);
  for (int64_t I = 0; I < A.Rows; ++I) {
    float Acc = Y.at2(0, I);
    for (int64_t KK = 0; KK < A.Cols; ++KK)
      Acc += A(I, KK);
    Y.set2(0, I, Acc);
  }
}

/// S = A x B^T (overwrite, no accumulate): attention's Q.K^T scores.
void wgmmaBTSet(std::vector<TensorView> &Args, const std::vector<int64_t> &) {
  assert(Args.size() == 3 && "wgmma_bt_set expects S, Q, K");
  TensorView &S = Args[0];
  std::vector<float> ScratchQ, ScratchK;
  TensorView::Matrix Q = Args[1].matrix(ScratchQ);
  TensorView::Matrix K = Args[2].matrix(ScratchK);
  int64_t M = S.shape().dim(0);
  int64_t N = S.shape().dim(1);
  int64_t D = Q.Cols;
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Acc = 0.0f;
      for (int64_t KK = 0; KK < D; ++KK)
        Acc += Q(I, KK) * K(J, KK);
      S.set2(I, J, Acc);
    }
}

} // namespace

const LeafRegistry &LeafRegistry::sharedBuiltins() {
  static const LeafRegistry Builtins = builtins();
  return Builtins;
}

LeafRegistry LeafRegistry::builtins() {
  LeafRegistry R;
  R.add("wgmma_fp16", wgmmaAccumulate);
  R.add("wgmma_fp16_bt", wgmmaAccumulateBT);
  R.add("clear", clearTensor);
  R.add("store", storeTensor);
  R.add("row_sum", rowSumAccumulate);
  R.add("softmax_step", onlineSoftmaxStep);
  R.add("softmax_finalize", softmaxFinalize);
  R.add("softmax_init", softmaxInit);
  R.add("add_into", addInto);
  R.add("dual_wgmma", dualWgmma);
  R.add("row_sum_tile", rowSumTile);
  R.add("wgmma_fp16_bt_set", wgmmaBTSet);
  return R;
}
