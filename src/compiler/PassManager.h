//===- PassManager.h - Instrumented compiler pass pipeline -----------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-style pass management for the six-stage pipeline of Section 4.2.
/// Each lowering stage (and the two repair helpers) is a registered Pass
/// over a shared PipelineState; PassPipeline runs them in order, verifies
/// the IR between stages, collects per-pass wall-time and IR-size
/// statistics into PipelineStats, and can dump the IR after every pass
/// (set CYPRESS_PRINT_IR_AFTER_ALL, or call setPrintIRAfterAll).
///
/// `PassPipeline::defaultPipeline().run(Input)` is the one-call driver from
/// a CompileInput to the final IRModule that the emitters consume. A
/// PrefixMemo handed to run() lets candidates of one search that share a
/// mapping structure replay the dependence-analysis -> copy-elimination
/// prefix instead of recomputing it.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_COMPILER_PASSMANAGER_H
#define CYPRESS_COMPILER_PASSMANAGER_H

#include "compiler/Passes.h"
#include "ir/IR.h"
#include "support/Cancel.h"
#include "support/Error.h"

#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace cypress {

/// Everything a pass may read or rewrite. Dependence analysis creates
/// Module from Input; resource allocation fills Alloc; every other pass
/// transforms Module in place.
struct PipelineState {
  const CompileInput *Input = nullptr;
  IRModule Module;
  /// Where dependence analysis took Module's mapping-stamped fields from.
  MappingStamps Stamps;
  SharedAllocation Alloc;
  /// Work counters for the pass currently running; reset by the pipeline
  /// before each pass and copied into that pass's PassStat afterwards.
  PassCounters Counters;
  /// The request's cancellation checkpoint, or nullptr when the run is not
  /// cancellable. Long-running passes (copy elimination's worklist) poll
  /// it between rewrites and return its diagnostic to stop early; the
  /// pipeline itself checks between passes.
  CancelCheck *Cancel = nullptr;
};

/// Per-pass measurements taken by PassPipeline::run.
struct PassStat {
  std::string Name;
  double Micros = 0.0;      ///< Wall time of the pass itself.
  double VerifyMicros = 0.0;///< Wall time of the post-pass verification.
  size_t OpsAfter = 0;      ///< Operations in the module after the pass.
  size_t EventsAfter = 0;   ///< Events in the module after the pass.
  size_t TensorsAfter = 0;  ///< Tensors in the module after the pass.
  uint64_t Rewrites = 0;    ///< Pattern rewrites the pass applied.
  uint64_t WorklistPops = 0;///< Worklist candidates the pass examined.
  uint64_t HeapAllocs = 0;  ///< Heap allocations during the pass (only
                            ///< when the pipeline's CountAllocs opt-in is
                            ///< set and the AllocCounter hook is live;
                            ///< zero otherwise).
  /// True when the pass was replayed from a PrefixMemo entry instead of
  /// run: the IR-size and rewrite counters are the memoized run's, while
  /// Micros / VerifyMicros / HeapAllocs are what this run actually spent.
  bool Replayed = false;
};

/// Statistics for one full pipeline run.
struct PipelineStats {
  std::vector<PassStat> Passes;
  double TotalMicros = 0.0;

  /// The stat row for \p Name, or nullptr if that pass did not run.
  const PassStat *pass(const std::string &Name) const {
    for (const PassStat &S : Passes)
      if (S.Name == Name)
        return &S;
    return nullptr;
  }
};

/// The state after a pipeline's replayable prefix for one mapping
/// structure, as the first candidate of that structure computed it.
struct PrefixEntry {
  /// The module after the prefix, stamped for the mapping that built it.
  IRModule Module;
  MappingStamps Stamps;
  /// The prefix passes' stat rows, in pipeline order.
  std::vector<PassStat> Stats;
};

/// A memo of pipeline prefixes keyed by mapping structure (the session's
/// cache key over MappingSpec::structureFingerprint). It lives for one
/// autotuning search: the tuner creates it, hands it to every compile of
/// the search, and frees it when the search returns. Only prefixes that
/// completed (including their verification) are stored; concurrent
/// compiles of one structure may both run the prefix, and the first to
/// finish is kept. Thread-safe.
class PrefixMemo {
public:
  std::shared_ptr<const PrefixEntry> find(const std::string &Key) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Key);
    return It == Entries.end() ? nullptr : It->second;
  }
  void insert(const std::string &Key,
              std::shared_ptr<const PrefixEntry> Entry) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Entries.emplace(Key, std::move(Entry));
  }

  /// Pipeline runs that replayed their prefix from this memo.
  size_t replays() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Replays;
  }
  void noteReplay() {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Replays;
  }

private:
  mutable std::mutex Mutex;
  std::unordered_map<std::string, std::shared_ptr<const PrefixEntry>> Entries;
  size_t Replays = 0;
};

/// One registered pipeline stage.
class Pass {
public:
  virtual ~Pass();

  /// Stable kebab-case identifier used in stats, diagnostics, and dumps.
  virtual const char *name() const = 0;

  virtual ErrorOrVoid run(PipelineState &State) = 0;

  /// False for passes whose output intentionally violates an IR invariant
  /// that a later registered pass restores (resource allocation's WAR edges
  /// may cross loop scopes until repair-event-scopes runs).
  virtual bool verifyAfter() const { return true; }
};

/// A pass defined by a name and a callable; enough for every builtin stage
/// and convenient for test-injected passes.
class FunctionPass : public Pass {
public:
  using RunFn = std::function<ErrorOrVoid(PipelineState &)>;

  FunctionPass(std::string Name, RunFn Fn, bool Verify = true)
      : PassName(std::move(Name)), Fn(std::move(Fn)), Verify(Verify) {}

  const char *name() const override { return PassName.c_str(); }
  ErrorOrVoid run(PipelineState &State) override { return Fn(State); }
  bool verifyAfter() const override { return Verify; }

private:
  std::string PassName;
  RunFn Fn;
  bool Verify;
};

/// An ordered sequence of passes plus the instrumentation around them.
class PassPipeline {
public:
  /// Honors CYPRESS_PRINT_IR_AFTER_ALL at construction time.
  PassPipeline();

  PassPipeline(PassPipeline &&) = default;
  PassPipeline &operator=(PassPipeline &&) = default;

  void addPass(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }

  size_t size() const { return Passes.size(); }
  const Pass &pass(size_t I) const { return *Passes[I]; }

  /// Record each pass's heap-allocation count into PassStat::HeapAllocs
  /// (see support/AllocCounter.h). Off by default: counting enables a
  /// global allocator hook for the duration of run(), which perturbs other
  /// threads' allocation costs, so only measurement harnesses
  /// (bench_compile_time, the steady-state tests) should turn it on.
  void setCountAllocs(bool Enable) { CountAllocs = Enable; }

  /// Dump the IR to the print stream after every pass. The environment
  /// variable CYPRESS_PRINT_IR_AFTER_ALL enables this too. While dumping,
  /// the pipeline never replays a prefix, so every dump is a real run.
  void setPrintIRAfterAll(bool Enable) { PrintIRAfterAll = Enable; }
  /// Where dumps go; defaults to stderr.
  void setPrintStream(std::ostream &OS) { PrintStream = &OS; }

  /// Runs every pass in order. On success returns the final module and
  /// fills \p AllocOut / \p StatsOut when non-null; on failure returns the
  /// failing pass's diagnostic, tagged with that pass's name (see
  /// Diagnostic::passName). StatsOut is filled with the passes that did run
  /// even on failure.
  ///
  /// When \p Cancel is active the pipeline checkpoints before every pass
  /// (and copy elimination checkpoints inside its worklist), returning a
  /// structured Code::DeadlineExceeded / Code::Cancelled diagnostic as
  /// soon as one fires; a nullptr Cancel is completely inert. Pass
  /// diagnostics that carry no explicit Code are classified Infeasible on
  /// the way out: the pipeline is a pure function of its input, so its
  /// own rejections are deterministic and safe to memoize — unlike
  /// checkpoint exits and injected faults, which keep transient codes.
  ///
  /// With a \p Memo, \p MemoKey names the input's mapping structure
  /// (pipelines other than defaultPipeline() ignore the memo). On a hit
  /// the prefix passes are replayed: dependence analysis validates the
  /// mapping, clones the memoized module and applies this mapping's
  /// stamps; the other prefix passes do nothing. Each replayed pass keeps
  /// its between-pass checkpoint, its fault sites and its stat row
  /// (PassStat::Replayed); its verification is skipped, since the module
  /// differs from the verified one only in stamped fields the verifier
  /// does not read. On a miss the prefix runs and, once it completes, is
  /// stored under \p MemoKey.
  ErrorOr<IRModule> run(const CompileInput &Input,
                        SharedAllocation *AllocOut = nullptr,
                        PipelineStats *StatsOut = nullptr,
                        const Cancellation *Cancel = nullptr,
                        PrefixMemo *Memo = nullptr,
                        const std::string &MemoKey = std::string()) const;

  /// The Section 4.2 lowering pipeline: the five IR-to-IR stages with the
  /// two repair helpers registered between them. Stage 6 (code
  /// generation) consumes the result through emitCudaSource / the
  /// simulator and is not an IR pass.
  static PassPipeline defaultPipeline();

private:
  static ErrorOrVoid replayPass(size_t Index, const PrefixEntry &Entry,
                                const CompileInput &Input,
                                PipelineState &State);

  std::vector<std::unique_ptr<Pass>> Passes;
  bool CountAllocs = false;
  bool PrintIRAfterAll = false;
  /// Leading passes a PrefixMemo may replay: they read no mapping knob
  /// that MappingSpec::structureFingerprint leaves out, and the first of
  /// them is dependence analysis, which records the stamp table. Set by
  /// defaultPipeline() to its first three passes.
  size_t ReplayablePrefix = 0;
  std::ostream *PrintStream = nullptr; ///< nullptr = stderr.
};

//===----------------------------------------------------------------------===//
// Builtin pass factories (defined next to each stage's implementation)
//===----------------------------------------------------------------------===//

std::unique_ptr<Pass> createDependenceAnalysisPass();
std::unique_ptr<Pass> createVectorizationPass();
std::unique_ptr<Pass> createCopyEliminationPass();
std::unique_ptr<Pass> createAssignExecUnitsPass();
std::unique_ptr<Pass> createResourceAllocationPass();
std::unique_ptr<Pass> createRepairEventScopesPass();
std::unique_ptr<Pass> createWarpSpecializationPass();

} // namespace cypress

#endif // CYPRESS_COMPILER_PASSMANAGER_H
