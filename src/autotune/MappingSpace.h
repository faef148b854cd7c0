//===- MappingSpace.h - Enumerable mapping search spaces -------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search-space half of the autotuning subsystem. Section 5.4's
/// workflow is that tuning a Cypress kernel means editing the mapping
/// specification, never the logical task description; this file makes that
/// mapping space a first-class object. A KernelSearchSpec binds a kernel
/// family to the tuner: named tunable axes (tile sizes, pipeline depth,
/// warpgroup count, per-stream buffer depths, exec-unit assignment,
/// occupancy caps) plus callables that turn one axis assignment — a
/// TuningPoint — into a task registry, a MappingSpec, and entry argument
/// types. MappingSpace is a *lazy* view of the axes' cartesian product:
/// points are decoded from a flat index on demand (mixed-radix, last axis
/// fastest — the nested-sweep order), so spaces of 10^4..10^6 points cost
/// O(axes) to construct and O(1) memory to search. The spec's *static*
/// feasibility check runs per point, so candidates that can never allocate
/// (shared-memory footprint over the MachineModel capacity, broken WGMMA
/// band divisibility, register-file overflow) are rejected with a
/// diagnostic before the pass pipeline ever runs.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_AUTOTUNE_MAPPINGSPACE_H
#define CYPRESS_AUTOTUNE_MAPPINGSPACE_H

#include "frontend/Task.h"
#include "machine/Machine.h"
#include "mapping/Mapping.h"
#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cypress {

/// One tunable dimension of a kernel's mapping space: a name the kernel's
/// applyTunable understands ("U", "PIPE", ...) and the discrete values to
/// sweep.
struct TuningAxis {
  std::string Name;
  std::vector<int64_t> Values;
};

/// A concrete assignment of every axis, kept in axis-declaration order so
/// points print the way the sweep was written ("U=128 V=256 PIPE=3 WGS=2").
class TuningPoint {
public:
  TuningPoint() = default;
  explicit TuningPoint(std::vector<std::pair<std::string, int64_t>> Values)
      : Assignments(std::move(Values)) {}

  const std::vector<std::pair<std::string, int64_t>> &values() const {
    return Assignments;
  }

  bool has(const std::string &Name) const;
  /// The value assigned to \p Name; asserts that the axis exists.
  int64_t at(const std::string &Name) const;
  /// The value assigned to \p Name, or \p Fallback if the axis is absent.
  int64_t getOr(const std::string &Name, int64_t Fallback) const;

  /// "U=128 V=256 PIPE=3 WGS=2" — the landscape-row label.
  std::string str() const;

  /// Content hash over axis names and values (FNV-1a with a final
  /// avalanche). Visited-sets during guided search key on this instead of
  /// str(): one 64-bit word per point instead of a heap string. Equal
  /// points always collide; distinct points collide with probability
  /// ~2^-64, negligible against 10^6-point spaces.
  uint64_t fingerprint() const;

  /// Points compare by content (axis order and values), which makes them
  /// usable as keys and comparable across tuner runs.
  bool operator==(const TuningPoint &Other) const {
    return Assignments == Other.Assignments;
  }
  bool operator!=(const TuningPoint &Other) const { return !(*this == Other); }

private:
  std::vector<std::pair<std::string, int64_t>> Assignments;
};

/// Everything the tuner needs to search one kernel family. The callables
/// close over a base configuration (problem sizes, defaults for axes not
/// being swept); see gemmSearchSpec / attentionSearchSpec in
/// KernelSpaces.h for the builtin kernels.
struct KernelSearchSpec {
  /// Entrypoint task name passed to the compiler ("gemm", "fa").
  std::string KernelName;
  /// The swept dimensions, outermost first (enumeration is lexicographic
  /// in this order, matching a nested sweep loop).
  std::vector<TuningAxis> Axes;
  /// Registers the kernel's task tree (shared by every candidate — the
  /// logical description never changes during tuning).
  std::function<void(TaskRegistry &)> Register;
  /// Builds the candidate's mapping specification.
  std::function<MappingSpec(const TuningPoint &)> BuildMapping;
  /// Builds the candidate's entry argument types.
  std::function<std::vector<TensorType>(const TuningPoint &)> BuildArgs;
  /// Static feasibility of the candidate on \p Machine. An error prunes
  /// the point before compilation; pruning must be sound (reject only
  /// points the compiler would also reject), while points that pass may
  /// still fail the pipeline and are reported as compile errors.
  std::function<ErrorOrVoid(const TuningPoint &, const MachineModel &)>
      Feasible;
};

/// A lazy view of the axes' cartesian product with indexed random access.
/// Construction copies the axes and the feasibility callable but touches
/// no points; pointAt / candidateAt decode a flat index on demand. The
/// MachineModel must outlive the space (feasibility checks run lazily).
class MappingSpace {
public:
  struct Candidate {
    TuningPoint Point;
    /// Set iff the point was statically pruned; holds the reason.
    std::optional<Diagnostic> Rejection;

    bool feasible() const { return !Rejection.has_value(); }
  };

  MappingSpace(const KernelSearchSpec &Spec, const MachineModel &Machine);

  /// Product of the axis cardinalities (feasible and pruned alike).
  size_t size() const { return Total; }
  const std::vector<TuningAxis> &axes() const { return Axes; }

  /// The point at flat index \p Index in enumeration (nested-sweep) order:
  /// the last axis spins fastest, matching the loop nest a user would have
  /// written by hand. O(axes); no feasibility check.
  TuningPoint pointAt(size_t Index) const;

  /// pointAt plus the static-feasibility verdict.
  Candidate candidateAt(size_t Index) const;

  /// All candidates in enumeration order, pruned ones included with their
  /// rejection diagnostics. Materializes (and caches) the whole product —
  /// only call on spaces small enough to evaluate exhaustively.
  const std::vector<Candidate> &candidates() const;

  /// Number of statically feasible points. Lazily computed by one full
  /// scan on first call, then cached — like candidates(), avoid on huge
  /// spaces unless the count is genuinely needed.
  size_t feasibleCount() const;
  size_t prunedCount() const { return size() - feasibleCount(); }

private:
  std::vector<TuningAxis> Axes;
  std::function<ErrorOrVoid(const TuningPoint &, const MachineModel &)>
      Feasible;
  const MachineModel *Machine = nullptr;
  size_t Total = 1;

  /// Lazily-filled caches; mutable because the accessors are logically
  /// const views of an immutable space.
  mutable std::optional<std::vector<Candidate>> Materialized;
  mutable std::optional<size_t> FeasibleTotal;
};

} // namespace cypress

#endif // CYPRESS_AUTOTUNE_MAPPINGSPACE_H
