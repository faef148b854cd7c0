//===- BenchUtil.h - Shared benchmark harness helpers ----------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure-reproduction benchmarks: kernel compilation
/// with owned registries/mappings, and the table printer that emits the
/// rows the paper's plots are drawn from. Every bench binary prints a
/// table named after the paper figure it regenerates, with one row per
/// x-axis point and one column per system; docs/BENCHMARKS.md records these
/// against the published numbers.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_BENCH_BENCHUTIL_H
#define CYPRESS_BENCH_BENCHUTIL_H

#include "baselines/Baselines.h"
#include "kernels/Kernels.h"
#include "runtime/Runtime.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cypress::bench {

/// The timed benches (bench_compile_time, bench_sim_hotpath) share one
/// quiet-window methodology, quietRounds: one warmup pass that pays
/// first-touch page faults and pool growth, then the best of at least this
/// many measured repeats, taken across at least kQuietWindowMillis.
/// scripts/ab_bench.py then takes the median over paired runs.
constexpr int kQuietBestOf = 5;

/// A shared host runs slow (up to ~2.5x) for stretches of tens of ms at a
/// time; the window is long enough that such a stretch cannot claim every
/// repeat of an item.
constexpr int kQuietWindowMillis = 250;

/// Runs \p Round (a callable taking `bool Measured`) once as a warmup, then
/// measured until it has run kQuietBestOf times and kQuietWindowMillis have
/// passed. The caller keeps each item's fastest measured repeat; a round
/// that times every item once spreads each item's repeats over the window.
template <typename RoundFn> void quietRounds(RoundFn Round) {
  using Clock = std::chrono::steady_clock;
  Round(false);
  Clock::time_point Start = Clock::now();
  for (int I = 0; I < kQuietBestOf ||
                  Clock::now() - Start <
                      std::chrono::milliseconds(kQuietWindowMillis);
       ++I)
    Round(true);
}

/// Cost of the cooperative cancellation checkpoints (support/Cancel.h):
/// the same work with a far-future deadline armed (every strided poll
/// live) vs without any Cancellation (the null fast path). Reported,
/// never gated — the percentage should stay in the low single digits.
struct CheckpointOverhead {
  double PlainMicros = 0.0;
  double DeadlineMicros = 0.0;

  double overheadPct() const {
    return PlainMicros > 0.0
               ? (DeadlineMicros - PlainMicros) / PlainMicros * 100.0
               : 0.0;
  }
};

/// Measures \p Run (microseconds of one unit of work under the given
/// Cancellation, 0 on failure) plain and armed in alternating pairs, the
/// order within a pair alternating too, so host jitter hits both sides
/// alike; back-to-back batches would let one scheduling hiccup masquerade
/// as checkpoint cost. Keeps the fastest of each after a warmup pair.
template <typename RunFn>
CheckpointOverhead measureCheckpointOverhead(RunFn Run) {
  Cancellation Armed(Deadline::afterMillis(1e9));
  CheckpointOverhead Result;
  for (int I = 0; I < 4 * (kQuietBestOf + 1); ++I) {
    double Plain = 0.0, WithDeadline = 0.0;
    if (I % 2 == 0) {
      Plain = Run(nullptr);
      WithDeadline = Run(&Armed);
    } else {
      WithDeadline = Run(&Armed);
      Plain = Run(nullptr);
    }
    if (I == 0 || Plain <= 0.0 || WithDeadline <= 0.0)
      continue; // Warmup (and bail-outs keep zeros out of the min).
    if (Result.PlainMicros == 0.0 || Plain < Result.PlainMicros)
      Result.PlainMicros = Plain;
    if (Result.DeadlineMicros == 0.0 || WithDeadline < Result.DeadlineMicros)
      Result.DeadlineMicros = WithDeadline;
  }
  return Result;
}

/// Opens `<dir>/BENCH_<slug>.json` following the CYPRESS_BENCH_JSON
/// convention (the variable's value is the directory, "1" means the
/// current directory). Returns nullptr when the variable is unset or the
/// path is unwritable (with a warning). Caller closes the file.
inline std::FILE *benchJsonOpen(const std::string &Slug) {
  const char *Dir = std::getenv("CYPRESS_BENCH_JSON");
  if (!Dir || !*Dir)
    return nullptr;
  std::string Path = std::string(std::strcmp(Dir, "1") == 0 ? "." : Dir) +
                     "/BENCH_" + Slug + ".json";
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
  return Out;
}

/// Escapes a string for embedding in the BENCH_*.json output.
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

/// How scripts/ab_bench.py gates a metric against the same metric of a base
/// build run alternately with it on the same host. A metric whose unit ends
/// in "/s" is a rate (higher is better); any other is a cost (lower is
/// better).
enum class Gate {
  Band,   ///< Fails when the median per-pair ratio reads >25% worse.
  Exact,  ///< Deterministic: fails when any run reads worse at all.
  Report, ///< Printed beside the base, never gated.
};

/// One entry of a BENCH_*.json `metrics` list.
struct BenchMetric {
  std::string Name;
  double Value = 0.0;
  const char *Unit = "";
  Gate Policy = Gate::Report;
};

/// Writes \p Metrics as the `metrics` member that ends the JSON object the
/// caller opened on \p Out (the caller has written every other member, each
/// followed by a comma), closes the object and closes the file. Values are
/// printed round-trip exact, so an Exact metric compares bit for bit.
inline void closeBenchJson(std::FILE *Out,
                           const std::vector<BenchMetric> &Metrics) {
  static const char *const PolicyNames[] = {"band", "exact", "report"};
  std::fprintf(Out, "  \"metrics\": [\n");
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const BenchMetric &M = Metrics[I];
    // JSON has no spelling for NaN or infinity; null makes the gate fail.
    char Value[32] = "null";
    if (std::isfinite(M.Value))
      std::snprintf(Value, sizeof(Value), "%.17g", M.Value);
    std::fprintf(Out,
                 "    {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                 "\"policy\": \"%s\"}%s\n",
                 jsonEscape(M.Name).c_str(), Value, M.Unit,
                 PolicyNames[static_cast<int>(M.Policy)],
                 I + 1 < Metrics.size() ? "," : "");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
}

/// A compiled kernel together with the registry/mapping that back it.
struct OwnedKernel {
  std::unique_ptr<TaskRegistry> Registry;
  std::unique_ptr<MappingSpec> Mapping;
  std::unique_ptr<CompiledKernel> Kernel;
};

template <typename RegisterFn, typename MappingFn, typename ArgsFn>
OwnedKernel compileOwned(const char *Name, RegisterFn Register,
                         MappingFn BuildMapping, ArgsFn BuildArgs) {
  OwnedKernel Owned;
  Owned.Registry = std::make_unique<TaskRegistry>();
  Register(*Owned.Registry);
  Owned.Mapping = std::make_unique<MappingSpec>(BuildMapping());
  CompileInput Input;
  Input.Registry = Owned.Registry.get();
  Input.Mapping = Owned.Mapping.get();
  Input.Machine = &MachineModel::h100();
  Input.EntryArgTypes = BuildArgs();
  ErrorOr<std::unique_ptr<CompiledKernel>> Kernel =
      compileKernel(Input, Name);
  if (!Kernel) {
    std::fprintf(stderr, "error: %s: %s\n", Name,
                 Kernel.diagnostic().message().c_str());
    return Owned;
  }
  Owned.Kernel = std::move(*Kernel);
  return Owned;
}

/// Simulated TFLOP/s of a compiled Cypress kernel (aborts the row on
/// simulation errors, which the tests elsewhere guarantee not to happen).
inline double cypressTFlops(const OwnedKernel &Owned, const SimConfig &Sim) {
  if (!Owned.Kernel)
    return 0.0;
  ErrorOr<SimResult> Result = Owned.Kernel->runTiming(Sim);
  if (!Result) {
    std::fprintf(stderr, "error: %s\n", Result.diagnostic().message().c_str());
    return 0.0;
  }
  if (!Result->Races.empty())
    std::fprintf(stderr, "warning: race detected: %s\n",
                 Result->Races[0].c_str());
  return Result->TFlops;
}

/// Prints one figure table: header then one row per size.
class Table {
public:
  Table(std::string Title, std::string XLabel,
        std::vector<std::string> Systems)
      : Title(std::move(Title)), XLabel(std::move(XLabel)),
        Systems(std::move(Systems)) {
    std::printf("== %s ==\n", this->Title.c_str());
    std::printf("%-18s", this->XLabel.c_str());
    for (const std::string &System : this->Systems)
      std::printf("%14s", System.c_str());
    std::printf("\n");
  }

  void row(const std::string &X, const std::vector<double> &TFlops) {
    std::printf("%-18s", X.c_str());
    for (double Value : TFlops)
      std::printf("%14.1f", Value);
    std::printf("\n");
    Rows.emplace_back(X, TFlops);
  }

  ~Table() {
    std::printf("\n");
    maybeWriteJson();
  }

private:
  /// When CYPRESS_BENCH_JSON is set, dump the table as
  /// `<dir>/BENCH_<slug>.json` (dir is the variable's value; "1" means the
  /// current directory) so plots can be regenerated without scraping stdout.
  void maybeWriteJson() const {
    std::string Slug;
    for (char C : Title)
      Slug += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
    std::FILE *Out = benchJsonOpen(Slug);
    if (!Out)
      return;
    std::fprintf(Out, "{\n  \"title\": \"%s\",\n  \"xlabel\": \"%s\",\n",
                 jsonEscape(Title).c_str(), jsonEscape(XLabel).c_str());
    std::fprintf(Out, "  \"systems\": [");
    for (size_t I = 0; I < Systems.size(); ++I)
      std::fprintf(Out, "%s\"%s\"", I ? ", " : "",
                   jsonEscape(Systems[I]).c_str());
    std::fprintf(Out, "],\n  \"rows\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I) {
      std::fprintf(Out, "    {\"x\": \"%s\", \"tflops\": [",
                   jsonEscape(Rows[I].first).c_str());
      for (size_t J = 0; J < Rows[I].second.size(); ++J)
        std::fprintf(Out, "%s%.6g", J ? ", " : "", Rows[I].second[J]);
      std::fprintf(Out, "]}%s\n", I + 1 < Rows.size() ? "," : "");
    }
    std::fprintf(Out, "  ]\n}\n");
    std::fclose(Out);
  }

  std::string Title;
  std::string XLabel;
  std::vector<std::string> Systems;
  std::vector<std::pair<std::string, std::vector<double>>> Rows;
};

} // namespace cypress::bench

#endif // CYPRESS_BENCH_BENCHUTIL_H
