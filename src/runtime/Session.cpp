//===- Session.cpp - Caching, concurrent compilation sessions --------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "runtime/Session.h"

#include "support/FaultInjection.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>

using namespace cypress;

CompilerSession::CompilerSession(SessionConfig Config)
    : Config(Config), Pipeline(PassPipeline::defaultPipeline()) {}

CompilerSession::~CompilerSession() {
  Accepting.store(false);
  joinWorkers();
}

//===----------------------------------------------------------------------===//
// Admission control and shutdown
//===----------------------------------------------------------------------===//

size_t CompilerSession::admitUpTo(size_t Want) {
  if (Want == 0)
    return 0;
  size_t Take = Want;
  if (Config.MaxQueuedRequests == 0) {
    InFlight.fetch_add(Want);
  } else {
    size_t Cur = InFlight.load();
    while (true) {
      size_t Avail = Config.MaxQueuedRequests > Cur
                         ? Config.MaxQueuedRequests - Cur
                         : 0;
      Take = std::min(Want, Avail);
      if (Take == 0)
        return 0;
      if (InFlight.compare_exchange_weak(Cur, Cur + Take))
        break;
    }
  }
  // Re-checked after the increment (both seq_cst): if a racing shutdown's
  // Accepting store is not visible here, our increment is visible to its
  // drain wait, so it cannot miss this request either way.
  if (!Accepting.load()) {
    release(Take);
    return 0;
  }
  return Take;
}

void CompilerSession::release(size_t N) {
  if (N == 0)
    return;
  if (InFlight.fetch_sub(N) == N) {
    std::lock_guard<std::mutex> Lock(DrainMutex);
    DrainCv.notify_all();
  }
}

Diagnostic CompilerSession::shedDiagnostic() const {
  if (!Accepting.load())
    return Diagnostic(Diagnostic::Code::Cancelled,
                      "compiler session is shut down");
  return Diagnostic(
      Diagnostic::Code::Overloaded,
      formatString("session overloaded: admission limit of %zu concurrent "
                   "requests reached",
                   Config.MaxQueuedRequests));
}

void CompilerSession::shutdown(ShutdownMode Mode) {
  Accepting.store(false);
  if (Mode == ShutdownMode::Abort)
    SessionCancel.cancel();
  {
    std::unique_lock<std::mutex> Lock(DrainMutex);
    DrainCv.wait(Lock, [&] { return InFlight.load() == 0; });
  }
  joinWorkers();
}

void CompilerSession::joinWorkers() {
  // SubmitMutex keeps this from racing a runParallel batch submission; a
  // batch already draining completes on its caller's thread regardless
  // (workers that wake to ShuttingDown exit without claiming items).
  std::lock_guard<std::mutex> Submit(SubmitMutex);
  {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    ShuttingDown = true;
  }
  WorkCv.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
  Workers.clear();
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

namespace {

/// Set while this thread drains a batch of any session. The outer batch
/// holds its session's SubmitMutex until every item has finished, so a
/// batch submitted from inside an item — on the same session or, through
/// a chain of hooks, back onto it — would wait on itself forever.
thread_local bool DrainingBatch = false;

} // namespace

void CompilerSession::ensureWorkers(unsigned Count) {
  while (Workers.size() < Count)
    Workers.emplace_back([this] { workerMain(); });
}

void CompilerSession::drainJob(JobState &Job) {
  // Never nested on one thread: runParallel runs inline while this is set.
  DrainingBatch = true;
  for (size_t I = Job.Next.fetch_add(1); I < Job.N;
       I = Job.Next.fetch_add(1)) {
    (*Job.Fn)(I);
    if (Job.Done.fetch_add(1) + 1 == Job.N) {
      std::lock_guard<std::mutex> Lock(PoolMutex);
      DoneCv.notify_all();
    }
  }
  DrainingBatch = false;
}

void CompilerSession::workerMain() {
  std::shared_ptr<JobState> Last;
  while (true) {
    std::shared_ptr<JobState> Job;
    {
      std::unique_lock<std::mutex> Lock(PoolMutex);
      WorkCv.wait(Lock, [&] {
        return ShuttingDown || (CurrentJob && CurrentJob != Last);
      });
      if (ShuttingDown)
        return;
      Job = Last = CurrentJob;
    }
    // A stale batch is harmless: its index counter is already exhausted,
    // so drainJob immediately falls through.
    drainJob(*Job);
  }
}

void CompilerSession::runParallel(size_t Items,
                                  const std::function<void(size_t)> &Fn) {
  if (Items == 0)
    return;
  unsigned WorkerCount = Config.Workers;
  if (WorkerCount == 0)
    WorkerCount =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  WorkerCount = static_cast<unsigned>(
      std::min<size_t>(WorkerCount, Items));
  if (WorkerCount <= 1 || DrainingBatch) {
    for (size_t I = 0; I < Items; ++I)
      Fn(I);
    return;
  }

  std::lock_guard<std::mutex> Submit(SubmitMutex);
  ensureWorkers(WorkerCount - 1); // The caller is the remaining worker.
  auto Job = std::make_shared<JobState>();
  Job->Fn = &Fn;
  Job->N = Items;
  {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    CurrentJob = Job;
  }
  WorkCv.notify_all();
  drainJob(*Job);
  std::unique_lock<std::mutex> Lock(PoolMutex);
  DoneCv.wait(Lock, [&] { return Job->Done.load() == Job->N; });
  // Drop the published job so no stale pointer to this frame's Fn survives
  // the return (late-waking workers see a null CurrentJob and keep
  // sleeping; ones already holding the shared state find its index counter
  // exhausted).
  if (CurrentJob == Job)
    CurrentJob = nullptr;
}

//===----------------------------------------------------------------------===//
// Cache key
//===----------------------------------------------------------------------===//

namespace {

std::string inputKey(const CompileInput &Input, const std::string &Mapping) {
  const std::string &Machine = Input.Machine->fingerprint();
  std::string Key;
  // Sized for the fixed parts plus ~32 bytes per argument type, so the
  // appends below rarely reallocate.
  Key.reserve(64 + Mapping.size() + Machine.size() +
              32 * Input.EntryArgTypes.size());
  // Inner bodies are opaque callables, so the registry's never-recycled
  // uid stands for its content (an address could be reused by a registry
  // with the same structure but different bodies).
  appendTo(Key, "registry#", Input.Registry->uid(), '|', Mapping, '|',
           Machine, "|args{");
  for (const TensorType &Type : Input.EntryArgTypes) {
    appendTo(Key, elementTypeName(Type.Element), '[');
    for (unsigned I = 0; I < Type.Dims.rank(); ++I)
      appendTo(Key, I ? "x" : "", Type.Dims.dim(I));
    Key += "],";
  }
  Key += '}';
  return Key;
}

} // namespace

std::string CompilerSession::cacheKey(const CompileInput &Input) {
  // The mapping and the machine carry their serializations from
  // construction (see MappingSpec::fingerprint): specs are content-keyed
  // values, which is what lets the autotuner's cost cache and this kernel
  // cache agree on candidate identity.
  return inputKey(Input, Input.Mapping->fingerprint());
}

std::string CompilerSession::structureKey(const CompileInput &Input) {
  return inputKey(Input, Input.Mapping->structureFingerprint());
}

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

ErrorOr<std::shared_ptr<const CompiledKernel>>
CompilerSession::compile(const CompileInput &Input, const std::string &Name,
                         const CompileOptions &Options) {
  if (admitUpTo(1) == 0)
    return shedDiagnostic();
  Cancellation Cancel(Options.DeadlineAt, Options.Cancel, &SessionCancel);
  bool WasHit = false;
  auto Result = compileKeyed(cacheKey(Input), Input, Name, WasHit, Cancel,
                             Options.Prefixes);
  release(1);
  return Result;
}

ErrorOr<std::shared_ptr<const CompiledKernel>>
CompilerSession::compileKeyed(std::string Key, const CompileInput &Input,
                              const std::string &Name, bool &WasHit,
                              const Cancellation &Cancel,
                              PrefixMemo *Prefixes) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Cache.find(Key);
    if (It != Cache.end()) {
      ++Stats.Hits;
      WasHit = true;
      return It->second;
    }
    // Counted at lookup time so Hits + Misses always equals the number of
    // compile() calls, even when the compile below fails.
    ++Stats.Misses;
    WasHit = false;
  }

  // Queued-but-unstarted shedding: a request whose token fired (or whose
  // deadline expired) while it waited for a worker exits here, before any
  // pipeline work. Cache hits above are still served — they are cheaper
  // than constructing this diagnostic.
  CancelCheck Entry(Cancel);
  if (Entry.enabled() && Entry.shouldStopNow())
    return Entry.diagnostic("queued compilation");

  // Compile outside the lock so independent misses overlap. Concurrent
  // misses on one key both compile; emplace keeps the first result and
  // every caller shares it.
  SharedAllocation Alloc;
  PipelineStats PassStats;
  ErrorOr<IRModule> Module = [&]() -> ErrorOr<IRModule> {
    // Worker-throw containment: a pass that throws (modeled by the
    // worker-throw fault site) must cost exactly one request, not a pool
    // thread — std::thread would std::terminate on an escaped exception.
    // The fault key is the mapping fingerprint, not the cache key: the
    // cache key embeds the registry uid, which differs between sessions,
    // while the fingerprint is pure content — so a probabilistic clause
    // fires on the same candidates in every run at any worker count.
    try {
      FaultPlan &Faults = FaultPlan::global();
      if (Faults.armed() &&
          Faults.shouldFire(FaultSite::WorkerThrow,
                            Input.Mapping->fingerprint()))
        throw std::runtime_error("injected worker exception");
      return Pipeline.run(Input, &Alloc, &PassStats, &Cancel, Prefixes,
                          Prefixes ? structureKey(Input) : std::string());
    } catch (const std::exception &E) {
      return Diagnostic(Diagnostic::Code::Internal,
                        formatString("worker exception while compiling "
                                     "'%s': %s",
                                     Name.c_str(), E.what()));
    } catch (...) {
      return Diagnostic(Diagnostic::Code::Internal,
                        formatString("worker exception while compiling '%s'",
                                     Name.c_str()));
    }
  }();
  if (!Module)
    // Failures (and cancelled/deadline exits) are never cached; a failing
    // compile that lost a concurrent-miss race against a success on the
    // same key still surfaces its own Diagnostic — the cache keeps the
    // winner's kernel and this caller learns what went wrong with *its*
    // compile (see RobustnessTest ConcurrentMissLoser regression).
    return Module.diagnostic();
  auto Kernel = std::make_shared<const CompiledKernel>(
      std::move(*Module), std::move(Alloc), Name, std::move(PassStats));

  std::lock_guard<std::mutex> Lock(Mutex);
  auto [It, Inserted] = Cache.emplace(std::move(Key), std::move(Kernel));
  return It->second;
}

std::vector<ErrorOr<std::shared_ptr<const CompiledKernel>>>
CompilerSession::compileAll(const std::vector<Request> &Requests,
                            std::vector<uint8_t> *HitsOut,
                            const PostCompileFn &PostCompile,
                            const CompileOptions &Options) {
  // ErrorOr has no default state, so results land in optionals first.
  std::vector<std::optional<ErrorOr<std::shared_ptr<const CompiledKernel>>>>
      Slots(Requests.size());
  if (HitsOut)
    HitsOut->assign(Requests.size(), 0);

  // Admission is positional: the first Admitted requests run, the tail is
  // shed (overloaded / shutting down) without compiling.
  size_t Admitted = admitUpTo(Requests.size());
  Cancellation Cancel(Options.DeadlineAt, Options.Cancel, &SessionCancel);

  auto Work = [&](size_t I) {
    const Request &R = Requests[I];
    bool WasHit = false;
    // Last-resort containment (compileKeyed already catches pipeline
    // throws): an empty slot or an exception escaping into the pool's
    // std::thread would take the whole process down.
    try {
      Slots[I].emplace(compileKeyed(
          R.Key.empty() ? cacheKey(R.Input) : R.Key, R.Input, R.Name,
          WasHit, Cancel, Options.Prefixes));
    } catch (...) {
      Slots[I].emplace(Diagnostic(
          Diagnostic::Code::Internal,
          formatString("worker exception while compiling '%s'",
                       R.Name.c_str())));
    }
    if (HitsOut)
      (*HitsOut)[I] = WasHit ? 1 : 0;
    if (PostCompile)
      PostCompile(I, *Slots[I]);
  };
  runParallel(Admitted, Work);
  release(Admitted);

  for (size_t I = Admitted; I < Requests.size(); ++I) {
    Slots[I].emplace(shedDiagnostic());
    if (PostCompile)
      PostCompile(I, *Slots[I]);
  }

  std::vector<ErrorOr<std::shared_ptr<const CompiledKernel>>> Results;
  Results.reserve(Slots.size());
  for (auto &Slot : Slots)
    Results.push_back(std::move(*Slot));
  return Results;
}

SessionStats CompilerSession::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

CacheStats CompilerSession::cacheStats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return {Stats.Hits, Stats.Misses, Cache.size()};
}

bool CompilerSession::isCached(const CompileInput &Input) const {
  std::string Key = cacheKey(Input);
  std::lock_guard<std::mutex> Lock(Mutex);
  return Cache.count(Key) != 0;
}

void CompilerSession::clearCache() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Cache.clear();
}
