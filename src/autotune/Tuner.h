//===- Tuner.h - Mapping autotuner over compiler sessions ------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search engine of the autotuning subsystem. A Tuner takes a
/// KernelSearchSpec, enumerates its MappingSpace, statically prunes
/// infeasible candidates, compiles and times the survivors in one batched
/// pass over the CompilerSession's worker pool — each worker runs the
/// simulator on the kernel it just compiled (or cache-fetched), so
/// compilation and timing overlap across candidates — and returns the
/// ranked performance landscape together with full observability: how many
/// candidates were pruned, how many pipelines actually ran, how many
/// evaluations were served from the tuner's content-keyed cost cache, and
/// per-candidate compile and simulate wall times. Evaluation results merge
/// into the landscape positionally, so a batched sweep is bit-identical to
/// a sequential one.
///
/// Typical use (see examples/mapping_explorer.cpp):
///
/// \code
///   CompilerSession Session;
///   Tuner Tuner(Session);
///   TuneResult Result = Tuner.tuneBudgeted(
///       gemmSearchSpec(Config, gemmSweepAxes()), MachineModel::h100(),
///       TuneBudget());
///   if (const CandidateResult *Best = Result.best())
///     std::printf("best: %s at %.1f TFLOP/s\n",
///                 Best->Point.str().c_str(), Best->TFlops);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_AUTOTUNE_TUNER_H
#define CYPRESS_AUTOTUNE_TUNER_H

#include "autotune/MappingSpace.h"
#include "runtime/Session.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cypress {

/// What happened to one candidate.
enum class CandidateStatus : uint8_t {
  Pruned,       ///< Statically rejected; the pass pipeline never ran.
  CompileError, ///< Passed pruning but the pipeline rejected it.
  SimError,     ///< Compiled but the simulator failed or found a race.
  Evaluated,    ///< Compiled and timed.
};

const char *candidateStatusName(CandidateStatus Status);

/// One row of the tuning landscape.
struct CandidateResult {
  TuningPoint Point;
  CandidateStatus Status = CandidateStatus::Pruned;
  /// Rejection or error diagnostic (with pass provenance when the pipeline
  /// produced it); empty for evaluated candidates.
  std::string Detail;
  double TFlops = 0.0;
  /// Shared-memory plan size of the compiled kernel.
  int64_t SharedBytes = 0;
  /// Wall time of the pipeline run that produced the kernel — the original
  /// compile's when the kernel was served from a cache (0 if nothing
  /// compiled).
  double CompileMicros = 0.0;
  /// Wall time of the simulator timing run that evaluated the kernel —
  /// like CompileMicros, the original evaluation's when the row was
  /// replayed from the cost cache (0 if the candidate never simulated).
  double SimulateMicros = 0.0;
  /// True when the whole evaluation was replayed from the cost cache.
  bool CostCacheHit = false;
  /// The compiled kernel (null unless the candidate compiled).
  std::shared_ptr<const CompiledKernel> Kernel;
};

/// The key the tuner ranks evaluated candidates by: TFLOP/s quantized so
/// that values equal to ~1e-9 relative share a key. Ulp-level noise of the
/// timer (extrapolation rounds differently from full timing) then never
/// reorders tied mappings; ties keep evaluation order. Quantizing, rather
/// than comparing within a tolerance, keeps the order a strict weak one;
/// two rates a few ulps apart still straddle a quantum boundary with odds
/// of about their distance over 1e-9 relative. Non-positive and NaN rates
/// rank below every other.
double tflopsRankKey(double TFlops);

/// Orders a landscape as TuneResult::Landscape is: evaluated candidates by
/// tflopsRankKey descending, then errors, then pruned; stable within ties
/// and groups, so the best is the first strict maximum of the key in
/// evaluation order.
void rankLandscape(std::vector<CandidateResult> &Landscape);

/// Search-effort accounting for one tuneBudgeted() call.
/// PipelinesRun is the number the acceptance bar cares about: full
/// pass-pipeline executions, i.e. evaluations minus every flavor of cache
/// hit.
struct TuneStats {
  size_t Candidates = 0;    ///< Full cartesian-product size.
  /// Rejected before compilation. For an exhaustive sweep this is the
  /// whole space's pruned count; for a guided search it counts only the
  /// sampled points that failed the static check (they consume no
  /// evaluation budget).
  size_t Pruned = 0;
  size_t Evals = 0;         ///< Feasible candidates submitted for timing.
  size_t CostCacheHits = 0; ///< Evaluations replayed from the cost cache.
  size_t Compiled = 0;      ///< Candidates handed to the session.
  size_t SessionHits = 0;   ///< Of those, served from the kernel cache.
  size_t PipelinesRun = 0;  ///< Full pass-pipeline executions.
  /// Of those, the runs that replayed their dependence-analysis ->
  /// copy-elimination prefix from an earlier candidate with the same
  /// mapping structure (see PrefixMemo) instead of running it. With more
  /// than one worker the count depends on scheduling (two workers that
  /// start a new structure at once both run its prefix); the landscape
  /// does not.
  size_t PrefixReplays = 0;
  size_t CompileErrors = 0;
  size_t Rounds = 0;        ///< Search rounds of a budgeted run.
  /// Evaluations that failed transiently (deadline, cancellation, load
  /// shedding, injected worker faults — see Diagnostic::isTransient):
  /// quarantined into the landscape with their diagnostics but never
  /// written to the cost cache, so a later sweep re-evaluates them.
  size_t Quarantined = 0;
  /// Candidates that compiled and timed but whose shared-memory buffers
  /// race (SimResult::Races non-empty): listed as SimError rows carrying
  /// the first race, never ranked, and never written to the cost cache.
  size_t RaceRejections = 0;
  /// Session-wide cache snapshot after the run (monotonic counters).
  CacheStats Session;
};

/// Wall-clock and/or evaluation budget for tuneBudgeted. Zero means
/// unlimited for either field; an all-zero budget searches until the space
/// stops yielding new candidates.
struct TuneBudget {
  /// Stop at the first round boundary at or past this many milliseconds.
  /// Rounds are never interrupted mid-flight, so a wall-limited run's
  /// visit sequence is always a prefix of the unlimited run's.
  double WallClockMs = 0.0;
  /// Maximum evaluations. Cost-cache hits count — budget consumption must
  /// not depend on cache warmth, or warm reruns would visit a different
  /// sequence than cold ones.
  size_t MaxEvals = 0;
  /// Hard wall-clock deadline for the whole search. Checked at round
  /// boundaries like WallClockMs, but it also rides along on every
  /// compile and timing run, so a round in flight when it expires sheds
  /// its remaining candidates with structured diagnostics (quarantined —
  /// see TuneStats::Quarantined) instead of finishing them. The search
  /// returns best-so-far marked TuneResult::Partial. Inactive (the
  /// default) costs nothing.
  Deadline DeadlineAt;
  /// Optional caller-held token: fire it to abandon the search; in-flight
  /// work exits at its next checkpoint and the tuner returns best-so-far
  /// marked Partial.
  const CancelToken *Cancel = nullptr;
};

/// The ranked landscape: evaluated candidates first, best TFLOP/s leading
/// (ties keep enumeration order), then compile/sim errors, then pruned
/// candidates, each group in enumeration order. An exhaustive sweep lists
/// every point of the space, pruned rows included; a guided search's
/// landscape holds only the points it evaluated (sampled-and-pruned points
/// are counted in Stats.Pruned but not listed). Both add the
/// best-found-vs-budget curve.
struct TuneResult {
  std::vector<CandidateResult> Landscape;
  TuneStats Stats;

  /// One best-so-far sample per budgeted-search round.
  struct CurvePoint {
    size_t Evals = 0;        ///< Cumulative evaluations after the round.
    double BestTFlops = 0.0; ///< Best evaluated throughput so far.
    double ElapsedMs = 0.0;  ///< Wall clock since the search began.
  };
  std::vector<CurvePoint> Curve;

  /// True when the search degraded gracefully instead of completing: the
  /// deadline expired or the cancel token fired (best-so-far landscape),
  /// or some candidates failed transiently and were quarantined. The
  /// rows that are present are still exact.
  bool Partial = false;

  /// The best evaluated candidate, or nullptr if nothing compiled.
  const CandidateResult *best() const {
    return !Landscape.empty() &&
                   Landscape.front().Status == CandidateStatus::Evaluated
               ? &Landscape.front()
               : nullptr;
  }
};

/// The mapping-exploration engine. Thread-compatible: one Tuner may be
/// shared across threads (the cost cache is locked), and the underlying
/// CompilerSession is thread-safe by construction.
class Tuner {
public:
  /// A tuner over its own private session.
  Tuner();
  /// A tuner sharing \p Session (and therefore its kernel cache) with
  /// other clients — the serving-layer configuration.
  explicit Tuner(CompilerSession &Session);

  Tuner(const Tuner &) = delete;
  Tuner &operator=(const Tuner &) = delete;

  /// Anytime search under \p Budget: spends the evaluation budget on
  /// shrinking rounds of batched evaluations (successive halving), seeding
  /// each round with single-axis mutations of the elite points found so
  /// far plus fresh uniform samples, with a visited-set keyed on
  /// TuningPoint fingerprints so no point is timed twice. The space is
  /// never materialized, so 10^4..10^6-point spaces are searched in memory
  /// proportional to the points actually visited.
  ///
  /// Deterministic by construction: the PRNG is seeded from the spec's
  /// content (kernel name + axes), batches merge positionally, and round
  /// decisions depend only on simulated TFLOP/s — so the best point and
  /// the whole visit sequence are identical at any worker count, on repeat
  /// runs, and regardless of cost-cache warmth. A wall-clock budget
  /// truncates at round boundaries only, making a time-limited run a
  /// prefix of the unlimited one.
  ///
  /// Small spaces are swept exhaustively instead (no sampling noise where
  /// brute force is affordable): when the space has at most 256 points
  /// and the budget covers every feasible one.
  ///
  /// The tuner owns one TaskRegistry per Spec.KernelName (tuning edits
  /// only the mapping, Section 5.4), created by the first search of that
  /// kernel and reused afterwards. The registry's identity is part of
  /// every cache key, so this is what lets repeated or overlapping
  /// searches hit the kernel cache and the cost cache instead of
  /// recompiling. Specs sharing a KernelName must therefore register the
  /// same task tree (true by construction for the KernelSpaces factories).
  ///
  /// Each search owns a PrefixMemo: candidates that differ only in the
  /// mapping's depth and limit knobs (pipeline depths, exec-unit pins,
  /// shared-memory cap) compile the pass prefix once and replay it for
  /// the rest (TuneStats::PrefixReplays). The memo is freed on return.
  TuneResult tuneBudgeted(const KernelSearchSpec &Spec,
                          const MachineModel &Machine,
                          const TuneBudget &Budget,
                          const SimConfig &Sim = SimConfig());

  CompilerSession &session() { return *Session; }

  /// Entries in the content-keyed cost cache (kernel identity + simulator
  /// parameters -> evaluation outcome).
  size_t costCacheSize() const;
  void clearCostCache();

private:
  /// Memoized outcome of evaluating one (compile input, sim config) key.
  struct CachedEval {
    CandidateStatus Status = CandidateStatus::Evaluated;
    std::string Detail;
    double TFlops = 0.0;
    int64_t SharedBytes = 0;
    double SimulateMicros = 0.0;
    std::shared_ptr<const CompiledKernel> Kernel;
    /// Failure with a transient Diagnostic code: reported in the row but
    /// never inserted into the cost cache (see Diagnostic::isTransient).
    bool Transient = false;
    /// Timed, but the simulator reported races: rejected, never cached.
    bool Raced = false;
  };

  /// The shared registry for \p Spec's kernel family (created on first
  /// use).
  TaskRegistry &registryFor(const KernelSearchSpec &Spec);

  /// Compiles and times \p Points (one batched pass over the session's
  /// worker pool, cost-cache consulted per point), returning one
  /// positional row per point and accumulating effort into \p Stats.
  /// \p Options bounds every compile and timing run in the batch.
  std::vector<CandidateResult>
  evaluateBatch(const KernelSearchSpec &Spec, TaskRegistry &Registry,
                const MachineModel &Machine, const SimConfig &Sim,
                const std::string &SimKey, std::vector<TuningPoint> Points,
                const CompileOptions &Options, TuneStats &Stats);

  std::unique_ptr<CompilerSession> OwnedSession; ///< Only for Tuner().
  CompilerSession *Session = nullptr;
  mutable std::mutex CostMutex;
  std::map<std::string, CachedEval> CostCache;
  std::map<std::string, std::unique_ptr<TaskRegistry>> Registries;
};

} // namespace cypress

#endif // CYPRESS_AUTOTUNE_TUNER_H
