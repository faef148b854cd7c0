//===- main.cpp - Request-level benchmark entry point ----------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// reqbench --workload <tune-emit|serve-mix|verify-diff> --seed <n>
///          --seconds <s> --trace <0|1> [--requests <n>]
///
/// Sets the workload up several times (reporting the median set-up time),
/// serves its seeded stream of requests from one client thread, checks
/// every output, and prints one JSON object as the last line of stdout:
/// the end-to-end metrics with --trace 0, the per-layer metrics with
/// --trace 1. A traced run traces every other stratification cycle of the
/// stream; the untraced cycles between them give the tracing overhead.
/// The exit code is 0 only when every request passed its checks (and, when
/// traced, the spans passed the consistency check).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace perfbench;

namespace {

/// Set-ups per run: at least SetUpRepeats, and more while they have taken
/// less than SetUpSpanS in all (up to SetUpMaxRepeats), so a set-up of tens
/// of milliseconds is sampled across the host's bursts; the median is
/// reported as setup_s.
constexpr int SetUpRepeats = 5;
constexpr int SetUpMaxRepeats = 40;
constexpr double SetUpSpanS = 2.0;

struct WorkloadInfo {
  const char *Name;
  std::unique_ptr<Workload> (*Make)();
  /// Requests per second the stream is sized by: --seconds times this,
  /// rounded to whole cycles, is the fixed request count of a run. Measured
  /// on a 4-vCPU x86-64 host in its fast phases; on a slower host a run
  /// takes longer, but it serves the same requests.
  double NominalRate;
};

const WorkloadInfo Workloads[] = {
    {"tune-emit", makeTuneEmit, 10.0},
    {"serve-mix", makeServeMix, 11000.0},
    {"verify-diff", makeVerifyDiff, 7.5},
};

struct Metric {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric a traced run reports, in report order. A metric
/// of a layer the workload does not use reports 0.
const Metric PerLayer[] = {
    {"runtime.batch_hit_us_p50", "us"},
    {"runtime.batch_miss_us_p50", "us"},
    {"runtime.hit_frac", "fraction"},
    {"runtime.shed", "count"},
    {"runtime.cache_entries", "count"},
    {"compiler.dependence-analysis.us", "us"},
    {"compiler.vectorization.us", "us"},
    {"compiler.copy-elimination.us", "us"},
    {"compiler.assign-exec-units.us", "us"},
    {"compiler.resource-allocation.us", "us"},
    {"compiler.repair-event-scopes.us", "us"},
    {"compiler.warp-specialization.us", "us"},
    {"compiler.verify.us", "us"},
    {"compiler.pipelines", "count"},
    {"compiler.copy-elimination.rewrites", "count"},
    {"compiler.emit_us", "us"},
    {"compiler.emit_lines", "count"},
    {"sim.timing_us", "us"},
    {"sim.functional_ms", "ms"},
    {"backend.lowered_ms", "ms"},
    {"backend.instances", "count"},
    {"backend.stalls", "count"},
    {"autotune.tune_ms", "ms"},
    {"autotune.evals", "count"},
    {"autotune.pipelines_run", "count"},
    {"autotune.pruned", "count"},
    {"autotune.rounds", "count"},
    {"autotune.cost_cache_hits", "count"},
    {"autotune.useful_frac", "fraction"},
    {"bench.reference_ms", "ms"},
    {"request.unattributed_us", "us"},
    {"trace.overhead_us", "us"},
};

/// A fixed spin workload timed nine times: the median in milliseconds
/// (how fast the host ran it) and median/min (how unevenly). Reported
/// around every run so a run made in a slow window can be recognized; not
/// a gate.
std::pair<double, double> hostProbe() {
  double Samples[9];
  volatile uint64_t Sink = 0;
  for (double &Ms : Samples) {
    Clock::time_point Start = Clock::now();
    for (uint64_t I = 0; I < 2000000; ++I)
      Sink = Sink + I;
    Ms = microsBetween(Start, Clock::now()) / 1e3;
  }
  std::sort(std::begin(Samples), std::end(Samples));
  return {Samples[4], Samples[0] > 0.0 ? Samples[4] / Samples[0] : 1.0};
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

/// Checks the traced requests' spans: every span belongs to its request
/// and nests inside its parent, siblings do not overlap, self times are
/// non-negative, and the self times plus the request's unattributed time
/// add up to the request's wall time. Returns "" or the first violation;
/// \p UnattributedUs receives the sum of every request's unattributed
/// time.
std::string checkSpans(const std::vector<Span> &Spans,
                       double &UnattributedUs) {
  constexpr double Eps = 1e-3; // us; clock readings are exact to 1 ns.
  std::vector<double> ChildUs(Spans.size(), 0.0), LastChildEnd(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    LastChildEnd[I] = S.BeginUs;
    if (S.EndUs + Eps < S.BeginUs)
      return std::string("span ") + S.Name + " ends before it begins";
    if (S.Parent < 0) {
      if (std::strcmp(S.Name, "request") != 0)
        return std::string("root span ") + S.Name + " is not a request";
      continue;
    }
    size_t P = static_cast<size_t>(S.Parent);
    const Span &Parent = Spans[P];
    if (P >= I || Parent.Request != S.Request)
      return std::string("span ") + S.Name + " is outside its request";
    if (S.BeginUs + Eps < LastChildEnd[P] || S.EndUs > Parent.EndUs + Eps)
      return std::string("span ") + S.Name + " does not nest in " +
             Parent.Name;
    LastChildEnd[P] = S.EndUs;
    ChildUs[P] += S.EndUs - S.BeginUs;
  }
  UnattributedUs = 0.0;
  for (size_t I = 0; I < Spans.size();) {
    // One request: its root at I, its spans up to the next root.
    size_t End = I + 1;
    while (End < Spans.size() && Spans[End].Parent >= 0)
      ++End;
    double Wall = Spans[I].EndUs - Spans[I].BeginUs;
    double Unattributed = Wall - ChildUs[I];
    double SelfSum = 0.0;
    for (size_t J = I + 1; J < End; ++J) {
      double Self = Spans[J].EndUs - Spans[J].BeginUs - ChildUs[J];
      if (Self < -Eps)
        return std::string("span ") + Spans[J].Name + " has negative self time";
      SelfSum += Self;
    }
    if (Unattributed < -Eps)
      return "request children outlast the request";
    if (std::fabs(SelfSum + Unattributed - Wall) > Eps + 1e-9 * Wall)
      return "self times do not add up to the request's wall time";
    UnattributedUs += Unattributed;
    I = End;
  }
  return "";
}

/// One metric of the result line.
struct Reported {
  std::string Name;
  double Value;
  const char *Unit;
};

int usage() {
  std::fprintf(stderr,
               "usage: reqbench --workload <tune-emit|serve-mix|verify-diff> "
               "--seed <n> --seconds <s> --trace <0|1> [--requests <n>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name;
  uint64_t Seed = 1;
  double Seconds = 0.0;
  bool Trace = false;
  size_t Requests = 0;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Name = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      Trace = Value == "1";
    else if (Flag == "--requests")
      Requests = std::strtoull(Value.c_str(), nullptr, 10);
    else
      return usage();
  }
  const WorkloadInfo *Info = nullptr;
  for (const WorkloadInfo &W : Workloads)
    if (Name == W.Name)
      Info = &W;
  if (!Info || (Seconds <= 0.0 && Requests == 0))
    return usage();

  std::unique_ptr<Workload> W = Info->Make();
  size_t Cycle = W->cycle();
  size_t Cycles =
      Requests ? (Requests + Cycle - 1) / Cycle
               : static_cast<size_t>(std::lround(
                     Seconds * Info->NominalRate / static_cast<double>(Cycle)));
  Requests = std::max<size_t>(Cycles, 2) * Cycle;

  RunOptions Options;
  Options.Seed = Seed;
  Options.Requests = Requests;
  std::printf("workload %s seed %llu requests %zu (cycle %zu), threads: "
              "session workers %u, client included (hardware %u)\n",
              Info->Name, (unsigned long long)Seed, Requests, Cycle,
              SessionWorkers, std::thread::hardware_concurrency());
  auto [SpinBefore, ContentionBefore] = hostProbe();
  std::printf("host before: spin_ms %.3f contention %.3f\n", SpinBefore,
              ContentionBefore);

  try {
    std::vector<double> SetUpS;
    double SetUpTotalS = 0.0;
    for (int I = 0; I < SetUpMaxRepeats &&
                    (I < SetUpRepeats || SetUpTotalS < SetUpSpanS);
         ++I) {
      Clock::time_point Start = Clock::now();
      W->setUp(Options);
      SetUpS.push_back(microsBetween(Start, Clock::now()) / 1e6);
      SetUpTotalS += SetUpS.back();
    }
    std::printf("setup_s samples:");
    for (double S : SetUpS)
      std::printf(" %.4f", S);
    std::printf("\n");

    Tracer T;
    LayerStats Layers;
    std::vector<double> AllUs, TracedUs, UntracedUs;
    size_t Failed = 0;
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I < Requests; ++I) {
      bool Traced = Trace && (I / Cycle) % 2 == 1;
      Outcome O = W->serve(I, Traced, T, Layers);
      AllUs.push_back(O.WallUs);
      (Traced ? TracedUs : UntracedUs).push_back(O.WallUs);
      if (!O.Failure.empty() && Failed++ < 5)
        std::fprintf(stderr, "request %zu failed: %s\n", I,
                     O.Failure.c_str());
    }
    double StreamS = microsBetween(Start, Clock::now()) / 1e6;
    ExactResults Exact = W->finish();
    Layers.Totals["runtime.cache_entries"] =
        static_cast<double>(W->session().cacheStats().Entries);
    double RssMb = peakRssMb();

    std::printf("stream: %.3f s, failed_frac %.6g (%zu of %zu)\n", StreamS,
                static_cast<double>(Failed) / static_cast<double>(Requests),
                Failed, Requests);
    std::printf("exact: tflops_geomean %.17g cuda_kb_mean %.17g digest "
                "%016llx\n",
                Exact.TFlopsGeomean, Exact.CudaKbMean,
                (unsigned long long)Exact.StreamDigest);

    bool Correct = Failed == 0;
    std::vector<Reported> Values;
    if (!Trace) {
      Values = {{"setup_s", percentile(SetUpS, 0.5), "s"},
                {"requests_per_s", static_cast<double>(Requests) / StreamS,
                 "1/s"},
                {"request_us_p50", percentile(AllUs, 0.5), "us"},
                {"request_us_p90", percentile(AllUs, 0.9), "us"},
                {"peak_rss_mb", RssMb, "MB"},
                {"tflops_geomean", Exact.TFlopsGeomean, "TFLOP/s"},
                {"cuda_kb_mean", Exact.CudaKbMean, "KiB"}};
    } else {
      double UnattributedUs = 0.0;
      std::string SpanError = checkSpans(T.spans(), UnattributedUs);
      if (!SpanError.empty()) {
        std::fprintf(stderr, "trace consistency: %s\n", SpanError.c_str());
        Correct = false;
      }
      double TracedRequests = static_cast<double>(TracedUs.size());
      double OverheadUs =
          percentile(TracedUs, 0.5) - percentile(UntracedUs, 0.5);
      std::printf("trace: %zu spans over %zu traced requests, consistency "
                  "%s; request_us_p50 traced %.1f untraced %.1f, overhead "
                  "%.1f us\n",
                  T.spans().size(), TracedUs.size(),
                  SpanError.empty() ? "ok" : "FAILED",
                  percentile(TracedUs, 0.5), percentile(UntracedUs, 0.5),
                  OverheadUs);
      auto Sum = [&](const char *Key) {
        auto It = Layers.Sums.find(Key);
        return It == Layers.Sums.end() ? 0.0 : It->second;
      };
      auto Ratio = [&](const char *Num, const char *Den) {
        return Sum(Den) > 0.0 ? Sum(Num) / Sum(Den) : 0.0;
      };
      for (const Metric &M : PerLayer) {
        std::string Key = M.Name;
        double V;
        if (Key == "runtime.batch_hit_us_p50")
          V = percentile(Layers.Samples["runtime.batch_hit_us"], 0.5);
        else if (Key == "runtime.batch_miss_us_p50")
          V = percentile(Layers.Samples["runtime.batch_miss_us"], 0.5);
        else if (Key == "runtime.hit_frac")
          V = Ratio("runtime.hits", "runtime.kernels");
        else if (Key == "autotune.useful_frac")
          V = Ratio("autotune.evaluated", "autotune.evals");
        else if (Key == "request.unattributed_us")
          V = UnattributedUs / TracedRequests;
        else if (Key == "trace.overhead_us")
          V = OverheadUs;
        else if (Layers.Totals.count(Key))
          V = Layers.Totals[Key];
        else
          V = Sum(M.Name) / TracedRequests;
        Values.push_back({Key, V, M.Unit});
      }
    }

    auto [SpinAfter, ContentionAfter] = hostProbe();
    std::printf("host after: spin_ms %.3f contention %.3f\n", SpinAfter,
                ContentionAfter);

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                Correct ? "true" : "false", Requests, Failed);
    for (size_t I = 0; I < Values.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Values[I].Name.c_str(), Values[I].Value,
                  Values[I].Unit);
    std::printf("}}\n");
    std::fflush(stdout);
    return Correct ? 0 : 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
