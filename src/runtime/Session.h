//===- Session.h - Caching, concurrent compilation sessions ----------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-layer entry point: a thread-safe CompilerSession owning a
/// keyed cache of compiled kernels. A kernel is identified by what actually
/// determines its lowering — the task registry, the mapping, the machine
/// model, and the entrypoint argument types — so a repeated compile of the
/// same CompileInput is a key construction plus cache lookup rather than a
/// pipeline run (hundreds of microseconds to milliseconds), and
/// `compileAll` lowers independent kernels concurrently on a small worker
/// pool. A hit costs well under a microsecond per kernel: the mapping and
/// the machine record their fingerprints when built, so a key is a few
/// appends of stored strings, and the lookup compares the full key.
///
/// Typical use:
///
/// \code
///   CompilerSession Session;
///   auto Kernel = Session.compile({&Registry, &Mapping,
///                                  &MachineModel::h100(), ArgTypes},
///                                 "gemm");
///   if (Kernel)
///     (*Kernel)->runTiming();
///   // ... a later identical request returns the same kernel instantly.
/// \endcode
///
/// Cached kernels are shared as pointers-to-const: they are immutable once
/// compiled, so concurrent callers may run them freely. Kernels that need
/// extra user leaves (addLeaf) should use compileKernel, which returns an
/// owned, mutable kernel.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_RUNTIME_SESSION_H
#define CYPRESS_RUNTIME_SESSION_H

#include "runtime/Runtime.h"
#include "support/Cancel.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cypress {

/// Tuning knobs for a CompilerSession.
struct SessionConfig {
  /// Worker threads used by compileAll; 0 = min(hardware_concurrency, 4).
  unsigned Workers = 0;
  /// Admission bound: the maximum number of requests (summed across
  /// concurrent compile and compileAll callers) in flight at once. Requests
  /// beyond the bound are shed immediately with a Code::Overloaded
  /// diagnostic instead of queueing unboundedly; a compileAll batch is
  /// admitted as a positional prefix and the tail is shed. 0 = unbounded.
  size_t MaxQueuedRequests = 0;
};

/// Per-request serving options: an optional wall-clock deadline, an
/// optional caller-held cancellation token, and an optional prefix memo.
/// Defaults are fully inert (the session-wide abort token is always
/// honored regardless).
struct CompileOptions {
  Deadline DeadlineAt;
  const CancelToken *Cancel = nullptr;
  /// A search-scoped memo of pipeline prefixes (see PrefixMemo): cache
  /// misses whose mapping structure it already holds replay dependence
  /// analysis through copy elimination instead of running them. The
  /// caller owns it and keeps it alive across the call. Replayed kernels
  /// are identical to fresh ones, so the kernel cache and its keys are
  /// unaffected.
  PrefixMemo *Prefixes = nullptr;
};

/// How CompilerSession::shutdown treats in-flight work: Drain waits for it
/// to complete normally; Abort fires the session-wide cancel token so every
/// in-flight request exits at its next checkpoint with Code::Cancelled.
enum class ShutdownMode { Drain, Abort };

/// Cache-effectiveness counters (monotonic over the session's lifetime).
struct SessionStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// One consistent snapshot of the kernel cache: the hit/miss counters plus
/// the number of resident kernels, taken under a single lock. This is the
/// observability surface the autotuner reports after a sweep (hits tell it
/// how many candidate evaluations skipped the pass pipeline entirely).
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  size_t Entries = 0;
};

/// A thread-safe compilation service with a keyed kernel cache and a
/// persistent worker pool. The pool is created lazily on the first batched
/// call and reused for the session's lifetime, so sweeping clients (the
/// autotuner) never pay per-batch thread spawns.
class CompilerSession {
public:
  explicit CompilerSession(SessionConfig Config = SessionConfig());
  ~CompilerSession();

  CompilerSession(const CompilerSession &) = delete;
  CompilerSession &operator=(const CompilerSession &) = delete;

  /// One compileAll work item. Key may carry a precomputed cacheKey(Input)
  /// so callers that already serialized the input (the autotuner's cost
  /// cache) don't pay for it twice; leave it empty to have compileAll
  /// compute it.
  struct Request {
    CompileInput Input;
    std::string Name;
    std::string Key;
  };

  /// Compiles \p Input, or returns the cached kernel compiled for an
  /// identical input. Thread-safe; concurrent misses on the same key both
  /// compile, and the first to finish populates the cache (a losing
  /// *successful* compile is discarded in favor of the cached winner, so
  /// callers always share one kernel per key; a losing *errored* compile
  /// surfaces its own Diagnostic and is never cached). \p Options bounds
  /// the request: an expired deadline or fired token yields a structured
  /// Code::DeadlineExceeded / Code::Cancelled diagnostic — cache hits are
  /// still served (they cost microseconds), and failed or abandoned
  /// compiles never become cache entries.
  ErrorOr<std::shared_ptr<const CompiledKernel>>
  compile(const CompileInput &Input, const std::string &Name,
          const CompileOptions &Options = CompileOptions());

  /// Per-request continuation of compileAll, invoked on the worker thread
  /// that finished (or cache-served) request \p Index, before the worker
  /// picks up its next request. This is how batched clients overlap
  /// post-compile work (the autotuner's simulator timing runs) with the
  /// compilation of later requests. Must be safe to call concurrently for
  /// distinct indices.
  using PostCompileFn = std::function<void(
      size_t Index,
      const ErrorOr<std::shared_ptr<const CompiledKernel>> &Kernel)>;

  /// Compiles every request, scheduling work across the session's worker
  /// pool. Results are positional: Result[i] belongs to Requests[i].
  /// A compileAll issued from inside a batch (e.g. from a PostCompile
  /// hook) runs its requests inline on the calling thread.
  /// Deterministic: the pipeline is pure, so concurrent compilation yields
  /// bit-identical kernels regardless of scheduling. When \p HitsOut is
  /// non-null it is filled positionally with whether each request was
  /// served from the cache — the exact attribution (unlike diffing the
  /// global counters, which absorb concurrent clients' traffic). When
  /// \p PostCompile is non-null it runs on the worker right after each
  /// request resolves (see PostCompileFn). \p Options applies to every
  /// request in the batch: requests still queued when the deadline expires
  /// or the token fires are shed without compiling (each gets its own
  /// structured diagnostic). Under SessionConfig::MaxQueuedRequests, the
  /// batch is admitted as a prefix and the tail is shed with
  /// Code::Overloaded; PostCompile still runs for shed requests.
  std::vector<ErrorOr<std::shared_ptr<const CompiledKernel>>>
  compileAll(const std::vector<Request> &Requests,
             std::vector<uint8_t> *HitsOut = nullptr,
             const PostCompileFn &PostCompile = nullptr,
             const CompileOptions &Options = CompileOptions());

  /// Stops admitting new requests and waits for in-flight ones: Drain lets
  /// them finish normally; Abort cancels them at their next checkpoint
  /// (each returns Code::Cancelled). Joins the worker pool. Idempotent,
  /// and safe to call concurrently with serving threads — they observe
  /// shed diagnostics, never crashes. After shutdown, compile/compileAll
  /// reject every request with a structured diagnostic; cache inspection
  /// (stats, cacheStats, isCached) still works.
  void shutdown(ShutdownMode Mode = ShutdownMode::Drain);

  /// False once shutdown() has begun; new requests are being shed.
  bool acceptingRequests() const { return Accepting.load(); }

  /// The cache key for \p Input: `registry#<uid>` (TaskRegistry::uid(); inner
  /// task bodies are opaque callables, so the registry's identity stands
  /// for its content), the full mapping, the machine, and the entry
  /// argument types. Exposed for tests and cache introspection.
  static std::string cacheKey(const CompileInput &Input);

  /// cacheKey with MappingSpec::structureFingerprint in place of the full
  /// fingerprint: inputs with equal structure keys share their pipeline
  /// prefix (the PrefixMemo key).
  static std::string structureKey(const CompileInput &Input);

  SessionStats stats() const;
  /// Hits, misses, and resident-kernel count in one locked snapshot.
  CacheStats cacheStats() const;
  /// True if a compile of \p Input would be served from the cache right
  /// now. Does not count as a hit or miss, so tests and diagnostics can
  /// probe the cache without disturbing its counters. (Batched callers
  /// get exact per-request attribution from compileAll's HitsOut.)
  bool isCached(const CompileInput &Input) const;
  void clearCache();

private:
  /// The shared implementation: \p Key is cacheKey(Input); \p WasHit
  /// reports whether the cache served the request; \p Cancel is the
  /// request's effective cancellation surface (deadline + caller token +
  /// session token); \p Prefixes is the caller's prefix memo, if any.
  /// Contains worker exceptions: a throwing pass (or an injected
  /// worker-throw fault) becomes a per-request Code::Internal diagnostic
  /// and the pool keeps serving.
  ErrorOr<std::shared_ptr<const CompiledKernel>>
  compileKeyed(std::string Key, const CompileInput &Input,
               const std::string &Name, bool &WasHit,
               const Cancellation &Cancel, PrefixMemo *Prefixes);

  /// Reserves up to \p Want admission slots; returns how many were granted
  /// (0 when shedding — overloaded or shutting down). Rechecks Accepting
  /// after the reservation so a concurrent shutdown() can never miss an
  /// in-flight increment.
  size_t admitUpTo(size_t Want);
  /// Returns \p N admission slots and wakes a draining shutdown().
  void release(size_t N);
  /// The diagnostic a shed request observes (shutdown vs. overload).
  Diagnostic shedDiagnostic() const;
  /// Joins the worker pool (idempotent; shared by shutdown and ~).
  void joinWorkers();

  /// One batched unit of work on the pool: items claim indices from a
  /// shared atomic, so a job survives stale wakeups from earlier batches
  /// (each batch is a fresh JobState; exhausted batches hand out indices
  /// past N and do nothing).
  struct JobState {
    const std::function<void(size_t)> *Fn = nullptr;
    size_t N = 0;
    std::atomic<size_t> Next{0};
    std::atomic<size_t> Done{0};
  };

  /// Runs Fn(0..Items) across the worker pool; the calling thread
  /// participates. Batches from concurrent callers are serialized (items
  /// within each batch still run concurrently). A thread that is already
  /// draining a batch runs nested items inline.
  void runParallel(size_t Items, const std::function<void(size_t)> &Fn);
  void ensureWorkers(unsigned Count);
  void drainJob(JobState &Job);
  void workerMain();

  SessionConfig Config;
  /// Built once (PassPipeline::run is const and thread-safe).
  PassPipeline Pipeline;
  mutable std::mutex Mutex;
  std::map<std::string, std::shared_ptr<const CompiledKernel>> Cache;
  SessionStats Stats;

  // Admission control and shutdown (see shutdown()). InFlight counts
  // admitted-but-unfinished requests; DrainCv wakes shutdown when it
  // reaches zero. SessionCancel is the Abort fan-out: it rides along as
  // Cancellation::SessionToken on every request.
  std::atomic<bool> Accepting{true};
  std::atomic<size_t> InFlight{0};
  CancelToken SessionCancel;
  std::mutex DrainMutex;
  std::condition_variable DrainCv;

  // Worker pool (lazily started, joined on destruction).
  std::mutex SubmitMutex; ///< Serializes runParallel callers.
  std::mutex PoolMutex;   ///< Guards CurrentJob / ShuttingDown.
  std::condition_variable WorkCv, DoneCv;
  std::vector<std::thread> Workers;
  std::shared_ptr<JobState> CurrentJob;
  bool ShuttingDown = false;
};

} // namespace cypress

#endif // CYPRESS_RUNTIME_SESSION_H
