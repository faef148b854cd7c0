//===- Reference.h - Scalar references for the six kernel families --------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Naive scalar implementations of what each kernel family computes,
/// independent of the compiler, the simulator and the CPU lowering. The
/// verify-diff workload checks both executors' outputs against them.
///
/// Tolerances: inputs are FP16 values in [-1, 1) and outputs are stored
/// as FP16, so a correct result differs from the FP32 reference by FP16
/// rounding of the output plus FP32 reassociation. A GEMM-like element may
/// deviate by 1e-3 + 2^-8 times the sum of |products| that formed it (the
/// output's own FP16 half-ulp is 2^-11 of its magnitude); an attention
/// output, a convex combination of V rows, by 1e-3. A wrong tile, stale
/// buffer or missed synchronization is off by O(1).
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_PERFBENCH_REFERENCE_H
#define CYPRESS_PERFBENCH_REFERENCE_H

#include "Families.h"
#include "tensor/TensorData.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Expected value and error bound of one output element.
struct RefValue {
  float Want = 0.0f;
  float Tol = 0.0f;
};

/// Expected outputs of one kernel: per output argument (by entry-argument
/// index), one RefValue per element.
struct Reference {
  std::vector<std::pair<size_t, std::vector<RefValue>>> Outputs;
};

namespace detail {

constexpr float GemmAbsTol = 1e-3f;
constexpr float GemmRelTol = 1.0f / 256.0f;
constexpr float AttentionTol = 1e-3f;

/// Out(i, j) += sum_k A(RowA + i, k) * B(RowB + k, j) for an MxN block.
inline void gemmInto(const cypress::TensorData &A, int64_t RowA,
                     const cypress::TensorData &B, int64_t RowB, int64_t M,
                     int64_t N, int64_t K, std::vector<RefValue> &Out,
                     std::vector<float> &Mag, int64_t RowOut) {
  int64_t LdA = A.shape().dim(1), LdB = B.shape().dim(1);
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Acc = 0.0f, Abs = 0.0f;
      for (int64_t KK = 0; KK < K; ++KK) {
        float P = A.at((RowA + I) * LdA + KK) * B.at((RowB + KK) * LdB + J);
        Acc += P;
        Abs += std::fabs(P);
      }
      size_t Idx = static_cast<size_t>((RowOut + I) * N + J);
      Out[Idx].Want += Acc;
      Mag[Idx] += Abs;
    }
}

inline std::vector<RefValue> finishGemm(std::vector<RefValue> Out,
                                        const std::vector<float> &Mag) {
  for (size_t I = 0; I < Out.size(); ++I)
    Out[I].Tol = GemmAbsTol + GemmRelTol * Mag[I];
  return Out;
}

} // namespace detail

/// The reference outputs of \p K on the inputs in \p Args (entry-argument
/// order, outputs ignored).
inline Reference
referenceOutputs(const KernelSpec &K,
                 const std::vector<cypress::TensorData> &Args) {
  Reference Ref;
  if (isAttention(K.F)) {
    const cypress::AttentionConfig &C = K.A;
    const cypress::TensorData &Q = Args[1], &Kt = Args[2], &V = Args[3];
    int64_t S = C.SeqLen, D = C.HeadDim;
    std::vector<RefValue> Out(static_cast<size_t>(Args[0].numElements()));
    std::vector<float> Scores(static_cast<size_t>(S));
    float Scale = 1.0f / std::sqrt(static_cast<float>(D));
    for (int64_t H = 0; H < C.Batch * C.Heads; ++H) {
      int64_t Base = H * S;
      for (int64_t R = 0; R < S; ++R) {
        float Max = -3e38f;
        for (int64_t J = 0; J < S; ++J) {
          float Dot = 0.0f;
          for (int64_t E = 0; E < D; ++E)
            Dot += Q.at((Base + R) * D + E) * Kt.at((Base + J) * D + E);
          Scores[static_cast<size_t>(J)] = Dot * Scale;
          Max = std::max(Max, Dot * Scale);
        }
        float Denom = 0.0f;
        for (float &X : Scores) {
          X = std::exp(X - Max);
          Denom += X;
        }
        for (int64_t E = 0; E < D; ++E) {
          float Acc = 0.0f;
          for (int64_t J = 0; J < S; ++J)
            Acc += Scores[static_cast<size_t>(J)] * V.at((Base + J) * D + E);
          Out[static_cast<size_t>((Base + R) * D + E)] = {
              Acc / Denom, detail::AttentionTol};
        }
      }
    }
    Ref.Outputs.push_back({0, std::move(Out)});
    return Ref;
  }

  const cypress::GemmConfig &C = K.G;
  size_t Elems = static_cast<size_t>(Args[0].numElements());
  std::vector<RefValue> Out(Elems);
  std::vector<float> Mag(Elems, 0.0f);
  switch (K.F) {
  case Family::Gemm:
  case Family::GemmRed:
    detail::gemmInto(Args[1], 0, Args[2], 0, C.M, C.N, C.K, Out, Mag, 0);
    break;
  case Family::Batched:
    for (int64_t L = 0; L < C.L; ++L)
      detail::gemmInto(Args[1], L * C.M, Args[2], L * C.K, C.M, C.N, C.K, Out,
                       Mag, L * C.M);
    break;
  case Family::Dual:
    detail::gemmInto(Args[1], 0, Args[2], 0, C.M, C.N, C.K, Out, Mag, 0);
    detail::gemmInto(Args[1], 0, Args[3], 0, C.M, C.N, C.K, Out, Mag, 0);
    break;
  default:
    break;
  }
  Ref.Outputs.push_back({0, detail::finishGemm(std::move(Out), Mag)});

  if (K.F == Family::GemmRed) {
    // Y(col, i) = sum_k A(i, k), replicated in every block-column row.
    const cypress::TensorData &A = Args[1];
    std::vector<RefValue> Y(static_cast<size_t>(Args[3].numElements()));
    for (int64_t I = 0; I < C.M; ++I) {
      float Acc = 0.0f, Abs = 0.0f;
      for (int64_t KK = 0; KK < C.K; ++KK) {
        Acc += A.at(I * C.K + KK);
        Abs += std::fabs(A.at(I * C.K + KK));
      }
      for (int64_t Col = 0; Col < C.N / C.V; ++Col)
        Y[static_cast<size_t>(Col * C.M + I)] = {
            Acc, detail::GemmAbsTol + detail::GemmRelTol * Abs};
    }
    Ref.Outputs.push_back({3, std::move(Y)});
  }
  return Ref;
}

/// "" when every reference output element of \p Got is within tolerance;
/// otherwise a description of the first violation.
inline std::string checkAgainst(const Reference &Ref,
                                const std::vector<cypress::TensorData> &Got) {
  for (const auto &[Arg, Values] : Ref.Outputs) {
    const cypress::TensorData &T = Got[Arg];
    for (size_t I = 0; I < Values.size(); ++I) {
      float G = T.at(static_cast<int64_t>(I));
      if (!(std::fabs(G - Values[I].Want) <= Values[I].Tol)) {
        char Buf[160];
        std::snprintf(Buf, sizeof(Buf),
                      "arg %zu element %zu: got %.6g, reference %.6g (tol "
                      "%.3g)",
                      Arg, I, static_cast<double>(G),
                      static_cast<double>(Values[I].Want),
                      static_cast<double>(Values[I].Tol));
        return Buf;
      }
    }
  }
  return "";
}

} // namespace perfbench

#endif // CYPRESS_PERFBENCH_REFERENCE_H
