//===- Families.h - The six kernel families as request payloads -----------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One description for a kernel of any of the six families the library
/// ships (GEMM, batched GEMM, dual GEMM, GEMM+reduction, FA2, FA3): its
/// config, the mapping and argument types the public builders produce for
/// it, a text label for digests, and the seeded draws the serve-mix and
/// verify-diff workloads make from each family's mapping space.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_PERFBENCH_FAMILIES_H
#define CYPRESS_PERFBENCH_FAMILIES_H

#include "kernels/Kernels.h"
#include "machine/Machine.h"
#include "support/Random.h"

#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class Family { Gemm, Batched, Dual, GemmRed, Fa2, Fa3 };
constexpr int NumFamilies = 6;

inline const char *familyName(Family F) {
  switch (F) {
  case Family::Gemm:
    return "gemm";
  case Family::Batched:
    return "batched";
  case Family::Dual:
    return "dual";
  case Family::GemmRed:
    return "gemmred";
  case Family::Fa2:
    return "fa2";
  case Family::Fa3:
    return "fa3";
  }
  return "?";
}

inline bool isAttention(Family F) {
  return F == Family::Fa2 || F == Family::Fa3;
}

/// One kernel: its family plus the config of that family (the other
/// config is unused).
struct KernelSpec {
  Family F = Family::Gemm;
  cypress::GemmConfig G;
  cypress::AttentionConfig A;

  cypress::MappingSpec mapping() const {
    switch (F) {
    case Family::Gemm:
      return cypress::gemmMapping(G);
    case Family::Batched:
      return cypress::batchedGemmMapping(G);
    case Family::Dual:
      return cypress::dualGemmMapping(G);
    case Family::GemmRed:
      return cypress::gemmRedMapping(G);
    default:
      return cypress::attentionMapping(A);
    }
  }

  std::vector<cypress::TensorType> argTypes() const {
    switch (F) {
    case Family::Gemm:
      return cypress::gemmArgTypes(G);
    case Family::Batched:
      return cypress::batchedGemmArgTypes(G);
    case Family::Dual:
      return cypress::dualGemmArgTypes(G);
    case Family::GemmRed:
      return cypress::gemmRedArgTypes(G);
    default:
      return cypress::attentionArgTypes(A);
    }
  }

  /// Shape and mapping, unique per distinct kernel of a family.
  std::string label() const {
    char Buf[256];
    if (isAttention(F))
      std::snprintf(Buf, sizeof(Buf),
                    "%s b%lld h%lld s%lld d%lld br%lld bc%lld wgs%lld p%lld "
                    "pk%lld pv%lld smem%lld",
                    familyName(F), (long long)A.Batch, (long long)A.Heads,
                    (long long)A.SeqLen, (long long)A.HeadDim,
                    (long long)A.BR, (long long)A.BC, (long long)A.WGS,
                    (long long)A.Pipe, (long long)A.PipeK,
                    (long long)A.PipeV, (long long)A.SharedLimitKB);
    else
      std::snprintf(Buf, sizeof(Buf),
                    "%s l%lld m%lld n%lld k%lld u%lld v%lld w%lld wgs%lld "
                    "p%lld pa%lld pb%lld tma%d%d smem%lld",
                    familyName(F), (long long)G.L, (long long)G.M,
                    (long long)G.N, (long long)G.K, (long long)G.U,
                    (long long)G.V, (long long)G.W, (long long)G.WGS,
                    (long long)G.Pipe, (long long)G.PipeA,
                    (long long)G.PipeB, G.TmaA ? 1 : 0, G.TmaB ? 1 : 0,
                    (long long)G.SharedLimitKB);
    return Buf;
  }

  /// Static feasibility on H100 (a sound lower bound for the fused GEMM
  /// variants, which need more shared memory than the plain GEMM).
  bool feasible() const {
    const cypress::MachineModel &H100 = cypress::MachineModel::h100();
    return isAttention(F) ? static_cast<bool>(A.validate(H100))
                          : static_cast<bool>(G.validate(H100));
  }
};

/// One registry per task tree, shared by every kernel of the family so
/// identical kernels share a cache key. FA2 and FA3 register the same
/// tree.
struct FamilyRegistries {
  cypress::TaskRegistry Gemm, Batched, Dual, GemmRed, Attention;

  FamilyRegistries() {
    cypress::registerGemmTasks(Gemm);
    cypress::registerBatchedGemmTasks(Batched);
    cypress::registerDualGemmTasks(Dual);
    cypress::registerGemmRedTasks(GemmRed);
    cypress::registerAttentionTasks(Attention);
  }

  const cypress::TaskRegistry &of(Family F) const {
    switch (F) {
    case Family::Gemm:
      return Gemm;
    case Family::Batched:
      return Batched;
    case Family::Dual:
      return Dual;
    case Family::GemmRed:
      return GemmRed;
    default:
      return Attention;
    }
  }
};

template <typename T> T pick(cypress::SplitMix64 &Rng, std::vector<T> Values) {
  return Values[static_cast<size_t>(Rng.nextBelow(Values.size()))];
}

/// A serving-scale kernel of family \p F: a seeded shape and a mapping
/// drawn from the family's guided axes, redrawn until statically feasible.
inline KernelSpec drawServing(Family F, cypress::SplitMix64 &Rng) {
  KernelSpec K;
  K.F = F;
  K.A = F == Family::Fa3 ? cypress::fa3Config(768) : cypress::fa2Config(768);
  do {
    if (isAttention(F)) {
      K.A.Heads = pick<int64_t>(Rng, {4, 8, 12});
      K.A.SeqLen = 768 * pick<int64_t>(Rng, {1, 2, 3, 4});
      K.A.BR = pick<int64_t>(Rng, {128, 192, 256});
      K.A.BC = pick<int64_t>(Rng, {32, 64, 128});
      K.A.WGS = pick<int64_t>(Rng, {1, 2, 3, 4});
      K.A.Pipe = pick<int64_t>(Rng, {2, 3, 4});
      K.A.PipeK = pick<int64_t>(Rng, {0, 2, 3});
      K.A.PipeV = pick<int64_t>(Rng, {0, 2, 3});
      K.A.SharedLimitKB = pick<int64_t>(Rng, {0, 160, 192, 224});
      continue;
    }
    K.G.M = 1024 * pick<int64_t>(Rng, {1, 2, 3, 4});
    K.G.N = 1024 * pick<int64_t>(Rng, {1, 2, 3, 4});
    K.G.K = 1024 * pick<int64_t>(Rng, {1, 2, 4});
    K.G.L = F == Family::Batched ? pick<int64_t>(Rng, {2, 4, 8}) : 1;
    K.G.U = pick<int64_t>(Rng, {64, 128, 256});
    K.G.V = pick<int64_t>(Rng, {64, 128, 256});
    K.G.W = pick<int64_t>(Rng, {16, 32, 64, 128});
    K.G.Pipe = pick<int64_t>(Rng, {2, 3, 4, 5});
    K.G.WGS = pick<int64_t>(Rng, {1, 2, 4});
    // The per-stream knobs are mapping-level overrides only the plain and
    // batched GEMM mappings expose.
    bool Streams = F == Family::Gemm || F == Family::Batched;
    K.G.PipeA = Streams ? pick<int64_t>(Rng, {0, 2, 3}) : 0;
    K.G.PipeB = Streams ? pick<int64_t>(Rng, {0, 2, 3}) : 0;
    K.G.TmaA = !Streams || Rng.nextBelow(2) != 0;
    K.G.TmaB = !Streams || Rng.nextBelow(2) != 0;
    K.G.SharedLimitKB =
        Streams ? pick<int64_t>(Rng, {0, 128, 160, 192, 224}) : 0;
  } while (!K.feasible());
  return K;
}

/// A functional-scale kernel of family \p F at the smallest tiles of its
/// guided space (GEMM family: 64x64 block tiles, K-tile 16, one consumer
/// warpgroup; attention: 128-row query blocks, 32-row KV steps, head dim
/// 32), with the remaining knobs and the shape's orientation seeded.
inline KernelSpec drawFunctional(Family F, cypress::SplitMix64 &Rng) {
  KernelSpec K;
  K.F = F;
  if (isAttention(F)) {
    K.A = F == Family::Fa3 ? cypress::fa3Config(128) : cypress::fa2Config(128);
    K.A.Heads = 1;
    K.A.HeadDim = 32;
    K.A.BR = 128;
    K.A.BC = 32;
    do {
      K.A.WGS = pick<int64_t>(Rng, {1, 2});
      K.A.Pipe = pick<int64_t>(Rng, {2, 3, 4});
      K.A.PipeK = pick<int64_t>(Rng, {0, 2, 3});
      K.A.PipeV = pick<int64_t>(Rng, {0, 2, 3});
      K.A.SharedLimitKB = pick<int64_t>(Rng, {0, 160, 192, 224});
    } while (!K.feasible());
    return K;
  }
  K.G.U = 64;
  K.G.V = 64;
  K.G.W = 16;
  K.G.WGS = 1;
  K.G.K = 64;
  if (F == Family::Batched) {
    K.G.L = 2;
    K.G.M = K.G.N = 64;
  } else {
    bool Tall = Rng.nextBelow(2) != 0;
    K.G.M = Tall ? 128 : 64;
    K.G.N = Tall ? 64 : 128;
  }
  bool Streams = F == Family::Gemm || F == Family::Batched;
  do {
    K.G.Pipe = pick<int64_t>(Rng, {2, 3, 4, 5});
    K.G.PipeA = Streams ? pick<int64_t>(Rng, {0, 2, 3}) : 0;
    K.G.PipeB = Streams ? pick<int64_t>(Rng, {0, 2, 3}) : 0;
    K.G.TmaA = !Streams || Rng.nextBelow(2) != 0;
    K.G.TmaB = !Streams || Rng.nextBelow(2) != 0;
    K.G.SharedLimitKB =
        Streams ? pick<int64_t>(Rng, {0, 128, 160, 192, 224}) : 0;
  } while (!K.feasible());
  return K;
}

/// A per-purpose generator seeded from the run seed and a stream tag, so
/// each workload's draws are independent of the others'.
inline cypress::SplitMix64 seededRng(uint64_t Seed, uint64_t Tag) {
  cypress::SplitMix64 Mix(Seed * 0x9e3779b97f4a7c15ULL ^ Tag);
  return cypress::SplitMix64(Mix.next());
}

/// A seeded permutation of 0..N-1 (Fisher-Yates).
inline std::vector<size_t> shuffled(size_t N, cypress::SplitMix64 &Rng) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[static_cast<size_t>(Rng.nextBelow(I))]);
  return Order;
}

} // namespace perfbench

#endif // CYPRESS_PERFBENCH_FAMILIES_H
