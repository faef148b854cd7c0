//===- Bench.h - Request-level benchmark harness ---------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the request benchmark shares: the clock,
/// the span tracer, the per-layer accumulator, and the Workload interface
/// the run loop in main.cpp drives.
///
/// A workload is a seeded, fixed-length stream of requests served by one
/// client thread (a closed loop). main.cpp sets the workload up, then
/// calls serve() for each request index in order. serve() prepares the
/// request's inputs, times the request itself between
/// Tracer::beginRequest and Tracer::endRequest, and checks the outputs
/// after the timer stops, so input generation and output checks are not
/// request latency (verify-diff's reference check is the point of its
/// request and is timed).
///
/// Tracing is per request: when a request is traced, the tracer records a
/// span around each call into a layer, all sharing the request's id and
/// nested under its root span, and the workload reads the stat structs
/// the program returns into a LayerStats. Untraced requests take the same
/// code path with the tracer off.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_PERFBENCH_BENCH_H
#define CYPRESS_PERFBENCH_BENCH_H

#include "compiler/PassManager.h"
#include "runtime/Session.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Linear-interpolated percentile (\p Q in [0, 1]) of \p Values; 0 when
/// empty.
inline double percentile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

/// 64-bit FNV-1a, folded over strings; the stream digest the determinism
/// self-check compares.
class Digest {
public:
  void add(const std::string &S) {
    for (unsigned char C : S) {
      State ^= C;
      State *= 0x100000001b3ULL;
    }
    State ^= 0xff;
    State *= 0x100000001b3ULL;
  }
  uint64_t value() const { return State; }

private:
  uint64_t State = 0xcbf29ce484222325ULL;
};

/// One traced interval. Parent is an index into the tracer's span list,
/// or -1 for a request's root span.
struct Span {
  uint64_t Request = 0;
  int Parent = -1;
  const char *Name = "";
  double BeginUs = 0.0;
  double EndUs = 0.0;
};

/// In-memory span recorder. Spans are only recorded between beginRequest
/// and endRequest of a traced request; otherwise a Scope is a no-op, so the
/// same workload code serves traced and untraced requests.
class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}

  /// Starts request \p Id's timer; records its root span when \p Traced.
  void beginRequest(uint64_t Id, bool Traced) {
    Recording = Traced;
    Request = Id;
    if (Recording) {
      Spans.push_back({Id, -1, "request", 0.0, 0.0});
      Open = static_cast<int>(Spans.size()) - 1;
    }
    Start = Clock::now();
    if (Recording)
      Spans[static_cast<size_t>(Open)].BeginUs = microsBetween(Origin, Start);
  }

  /// Stops the request timer and returns the request's wall time in
  /// microseconds (the root span's duration when traced).
  double endRequest() {
    Clock::time_point End = Clock::now();
    if (Recording) {
      Spans[static_cast<size_t>(Open)].EndUs = microsBetween(Origin, End);
      Open = -1;
      Recording = false;
    }
    return microsBetween(Start, End);
  }

  /// RAII span around one call into a layer.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T), Index(T.open(Name)) {}
    ~Scope() { T.close(Index); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Index;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Duration of the most recently closed span named \p Name in the
  /// current request (0 when untraced). Lets a workload attribute a span's
  /// time to a per-layer metric without a second clock read.
  double lastDurationUs(const char *Name) const {
    for (auto It = Spans.rbegin(); It != Spans.rend(); ++It) {
      if (It->Request != Request)
        break;
      if (std::string(It->Name) == Name)
        return It->EndUs - It->BeginUs;
    }
    return 0.0;
  }

private:
  int open(const char *Name) {
    if (!Recording)
      return -1;
    Spans.push_back({Request, Open, Name, microsBetween(Origin, Clock::now()),
                     0.0});
    Open = static_cast<int>(Spans.size()) - 1;
    return Open;
  }
  void close(int Index) {
    if (Index < 0)
      return;
    Span &S = Spans[static_cast<size_t>(Index)];
    S.EndUs = microsBetween(Origin, Clock::now());
    Open = S.Parent;
  }

  Clock::time_point Origin;
  Clock::time_point Start;
  std::vector<Span> Spans;
  uint64_t Request = 0;
  int Open = -1;
  bool Recording = false;
};

/// Per-layer numbers: sums over traced requests (reported per traced
/// request), sample lists (reported as medians), and end-of-run totals
/// (reported as is).
struct LayerStats {
  std::map<std::string, double> Sums;
  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, double> Totals;

  void add(const std::string &Name, double Value) { Sums[Name] += Value; }
  void sample(const std::string &Name, double Value) {
    Samples[Name].push_back(Value);
  }

  /// Adds the pipeline statistics of one kernel this request compiled
  /// (cache hits did no pass work and are not added).
  void addPipeline(const cypress::PipelineStats &Stats) {
    add("compiler.pipelines", 1.0);
    for (const cypress::PassStat &Pass : Stats.Passes) {
      add("compiler." + Pass.Name + ".us", Pass.Micros);
      add("compiler.verify.us", Pass.VerifyMicros);
      if (Pass.Name == "copy-elimination")
        add("compiler.copy-elimination.rewrites",
            static_cast<double>(Pass.Rewrites));
    }
  }
};

/// What one request did.
struct Outcome {
  double WallUs = 0.0;
  /// Empty when every output check passed; otherwise the first failure.
  std::string Failure;
};

/// Exact, deterministic outputs of a run: these must repeat bit for bit at
/// one seed (see selftest.py).
struct ExactResults {
  double TFlopsGeomean = 0.0;
  double CudaKbMean = 0.0;
  /// Digest of the request sequence and of each request's result (winner
  /// mappings, served kernel keys, output checksums).
  uint64_t StreamDigest = 0;
};

/// Session workers. SessionConfig::Workers counts the calling thread, so
/// one worker runs every batch and every simulation on the client thread.
/// On a VM that shares its host, how much of a second core a run gets
/// depends on the other tenants, and work split across two threads waits
/// on the slower one: interleaved runs with a pool thread spread 1.6-2.3x
/// in requests_per_s where single-threaded ones spread 1.2-1.3x (README,
/// Noise).
constexpr unsigned SessionWorkers = 1;

/// Run-wide settings main.cpp passes to a workload.
struct RunOptions {
  uint64_t Seed = 1;
  size_t Requests = 0;
};

/// One workload: a set-up phase that brings a fresh session to its ready
/// state, then a stream of requests served one at a time.
class Workload {
public:
  virtual ~Workload() = default;

  /// Requests per stratification cycle: every whole cycle of the stream
  /// has the same composition (each request kind once, or one never-seen
  /// kernel), so runs at different seeds serve comparable work. main.cpp
  /// rounds the request count to whole cycles and traces every other cycle
  /// in a traced run.
  virtual size_t cycle() const = 0;

  /// Session construction plus everything the workload needs before its
  /// first request. Called several times (set-up time is reported as a
  /// median); each call discards the previous state.
  virtual void setUp(const RunOptions &Options) = 0;

  /// Serves request \p Index. When \p Traced, \p T records the request's
  /// spans and \p Layers receives its per-layer numbers.
  virtual Outcome serve(size_t Index, bool Traced, Tracer &T,
                        LayerStats &Layers) = 0;

  /// Exact outputs after the stream; may do untimed post-run work.
  virtual ExactResults finish() = 0;

  /// The session the last set-up created.
  cypress::CompilerSession &session() { return *Session; }

protected:
  /// Replaces the session with a fresh one of SessionWorkers workers.
  void newSession() {
    Session.reset();
    cypress::SessionConfig Config;
    Config.Workers = SessionWorkers;
    Session = std::make_unique<cypress::CompilerSession>(Config);
  }

  std::unique_ptr<cypress::CompilerSession> Session;
};

std::unique_ptr<Workload> makeTuneEmit();
std::unique_ptr<Workload> makeServeMix();
std::unique_ptr<Workload> makeVerifyDiff();

/// The seven passes of the default pipeline, in order, as PipelineStats
/// names them.
inline const std::vector<std::string> &passNames() {
  static const std::vector<std::string> Names = {
      "dependence-analysis", "vectorization",       "copy-elimination",
      "assign-exec-units",   "resource-allocation", "repair-event-scopes",
      "warp-specialization"};
  return Names;
}

} // namespace perfbench

#endif // CYPRESS_PERFBENCH_BENCH_H
