//===- MappingSpace.cpp - Enumerable mapping search spaces -----------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "autotune/MappingSpace.h"

#include "support/Format.h"

#include <cassert>

using namespace cypress;

bool TuningPoint::has(const std::string &Name) const {
  for (const auto &[Axis, Value] : Assignments) {
    (void)Value;
    if (Axis == Name)
      return true;
  }
  return false;
}

int64_t TuningPoint::at(const std::string &Name) const {
  for (const auto &[Axis, Value] : Assignments)
    if (Axis == Name)
      return Value;
  assert(false && "tuning point has no such axis");
  return 0;
}

int64_t TuningPoint::getOr(const std::string &Name, int64_t Fallback) const {
  for (const auto &[Axis, Value] : Assignments)
    if (Axis == Name)
      return Value;
  return Fallback;
}

std::string TuningPoint::str() const {
  std::string Out;
  for (const auto &[Axis, Value] : Assignments) {
    if (!Out.empty())
      Out += ' ';
    Out += formatString("%s=%lld", Axis.c_str(),
                        static_cast<long long>(Value));
  }
  return Out;
}

uint64_t TuningPoint::fingerprint() const {
  // FNV-1a over the name bytes and value words, then a splitmix64-style
  // finalizer: neighbouring points (one axis stepped by one position)
  // differ in few input bits, and the avalanche keeps their hashes
  // uncorrelated for the guided search's visited-set.
  uint64_t H = 0xcbf29ce484222325ull;
  auto Byte = [&H](uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  };
  for (const auto &[Axis, Value] : Assignments) {
    for (char C : Axis)
      Byte(static_cast<uint8_t>(C));
    Byte(0); // Name terminator: ("AB", 1) never matches ("A", ...).
    uint64_t V = static_cast<uint64_t>(Value);
    for (int I = 0; I < 8; ++I)
      Byte(static_cast<uint8_t>(V >> (I * 8)));
  }
  H ^= H >> 30;
  H *= 0xbf58476d1ce4e5b9ull;
  H ^= H >> 27;
  H *= 0x94d049bb133111ebull;
  H ^= H >> 31;
  return H;
}

MappingSpace::MappingSpace(const KernelSearchSpec &Spec,
                           const MachineModel &Machine)
    : Axes(Spec.Axes), Feasible(Spec.Feasible), Machine(&Machine) {
  assert(!Axes.empty() && "search space needs at least one axis");
  for (const TuningAxis &Axis : Axes) {
    assert(!Axis.Values.empty() && "tuning axis needs at least one value");
    Total *= Axis.Values.size();
  }
}

TuningPoint MappingSpace::pointAt(size_t Index) const {
  assert(Index < Total && "flat index out of range");
  // Mixed-radix decode, last axis fastest — the same order the eager
  // odometer produced, so flat indices are stable across the refactor.
  std::vector<std::pair<std::string, int64_t>> Values(Axes.size());
  for (size_t I = Axes.size(); I-- > 0;) {
    size_t Radix = Axes[I].Values.size();
    Values[I] = {Axes[I].Name,
                 Axes[I].Values[Index % Radix]};
    Index /= Radix;
  }
  return TuningPoint(std::move(Values));
}

MappingSpace::Candidate MappingSpace::candidateAt(size_t Index) const {
  Candidate C;
  C.Point = pointAt(Index);
  if (Feasible)
    if (ErrorOrVoid Verdict = Feasible(C.Point, *Machine); !Verdict)
      C.Rejection = Verdict.diagnostic();
  return C;
}

const std::vector<MappingSpace::Candidate> &MappingSpace::candidates() const {
  if (!Materialized) {
    std::vector<Candidate> All;
    All.reserve(Total);
    size_t FeasibleSeen = 0;
    for (size_t N = 0; N < Total; ++N) {
      All.push_back(candidateAt(N));
      FeasibleSeen += All.back().feasible() ? 1 : 0;
    }
    Materialized = std::move(All);
    FeasibleTotal = FeasibleSeen;
  }
  return *Materialized;
}

size_t MappingSpace::feasibleCount() const {
  if (!FeasibleTotal) {
    size_t FeasibleSeen = 0;
    // Cheaper than candidates(): counts without keeping the points.
    for (size_t N = 0; N < Total; ++N)
      FeasibleSeen += candidateAt(N).feasible() ? 1 : 0;
    FeasibleTotal = FeasibleSeen;
  }
  return *FeasibleTotal;
}
