//===- ServeMix.cpp - Cached model serving with a minority of misses ------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve-mix workload. Set-up compiles a catalogue of "models", each a
/// batch of 2-6 kernels across the six families at seeded shapes and
/// feasible mappings. Each request then asks the session for one model
/// with compileAll, the model drawn by Zipf popularity. Every MissEvery-th
/// request replaces one of the model's kernels with a never-seen variant
/// (a new problem shape), which runs the pass pipeline and grows the
/// cache; every other kernel must be served from the cache as the same
/// object the catalogue compile produced.
///
/// What a request costs is keying, lookup and admission, on the client
/// thread; the tuner, the simulator, the emitter and the CPU backend are
/// not on the request path. After the stream, each distinct catalogue kernel the
/// stream served is timed and emitted once (untimed) for the exact
/// quality metrics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Families.h"

#include "runtime/Session.h"

#include <cmath>
#include <cstdio>
#include <algorithm>
#include <deque>
#include <set>
#include <stdexcept>

using namespace cypress;

namespace perfbench {
namespace {

constexpr size_t NumModels = 512;
constexpr size_t MissEvery = 32;
constexpr double ZipfExponent = 1.0;

using KernelPtr = std::shared_ptr<const CompiledKernel>;

struct Model {
  std::vector<KernelSpec> Specs;
  std::vector<CompilerSession::Request> Batch;
  std::vector<KernelPtr> Kernels; ///< The catalogue compile's results.
};

/// One request of the stream: a model, and for every MissEvery-th request
/// the position of the kernel replaced by a never-seen variant.
struct Request {
  uint32_t Model = 0;
  int32_t MissPos = -1;
};

class ServeMix final : public Workload {
public:
  size_t cycle() const override { return MissEvery; }

  void setUp(const RunOptions &Options) override {
    Models.clear();
    Mappings.clear();
    Registries = std::make_unique<FamilyRegistries>();
    newSession();

    // The catalogue. Model m holds 2 + m % 5 kernels of consecutive
    // families starting at m % 6, so how much work a popularity rank
    // implies is the same at every seed; shapes and mappings are seeded.
    SplitMix64 Rng = seededRng(Options.Seed, /*Tag=*/2);
    Models.resize(NumModels);
    for (size_t M = 0; M < NumModels; ++M)
      for (size_t K = 0; K < 2 + M % 5; ++K)
        Models[M].Specs.push_back(
            drawServing(static_cast<Family>((M + K) % NumFamilies), Rng));
    compileCatalogue(Rng);

    // The stream: Zipf-popular models, one never-seen kernel per cycle.
    std::vector<double> Cdf(NumModels);
    double Total = 0.0;
    for (size_t R = 0; R < NumModels; ++R)
      Cdf[R] = Total += 1.0 / std::pow(static_cast<double>(R + 1),
                                       ZipfExponent);
    Stream.assign(Options.Requests, Request());
    for (size_t I = 0; I < Stream.size(); ++I) {
      double U = Rng.nextUnit() * Total;
      size_t M = static_cast<size_t>(
          std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
      Stream[I].Model = static_cast<uint32_t>(std::min(M, NumModels - 1));
      if (I % MissEvery == MissEvery - 1)
        Stream[I].MissPos = static_cast<int32_t>(
            Rng.nextBelow(Models[Stream[I].Model].Specs.size()));
    }

    Misses = 0;
    Served.assign(NumModels, false);
    Seq = Digest();
  }

  Outcome serve(size_t Index, bool Traced, Tracer &T,
                LayerStats &Layers) override {
    const Request &R = Stream[Index];
    const Model &M = Models[R.Model];
    Served[R.Model] = true;

    // A miss request carries a copy of the model's batch with one kernel
    // moved to a problem size the catalogue never uses.
    std::vector<CompilerSession::Request> MissBatch;
    const std::vector<CompilerSession::Request> *Batch = &M.Batch;
    std::string MissLabel;
    if (R.MissPos >= 0) {
      KernelSpec Fresh = M.Specs[static_cast<size_t>(R.MissPos)];
      ++Misses;
      if (isAttention(Fresh.F))
        Fresh.A.Heads = 16 + static_cast<int64_t>(Misses);
      else
        Fresh.G.M = 256 * (16 + static_cast<int64_t>(Misses));
      MissLabel = Fresh.label();
      MissBatch = M.Batch;
      MissBatch[static_cast<size_t>(R.MissPos)] = request(Fresh);
      Batch = &MissBatch;
    }

    Outcome Out;
    std::vector<uint8_t> Hits;
    T.beginRequest(Index, Traced);
    std::vector<ErrorOr<KernelPtr>> Results;
    {
      Tracer::Scope Span(T, "runtime.compileAll");
      Results = Session->compileAll(*Batch, &Hits);
    }
    Out.WallUs = T.endRequest();

    size_t HitCount = 0;
    for (size_t K = 0; K < Results.size(); ++K) {
      bool ExpectHit = static_cast<int32_t>(K) != R.MissPos;
      HitCount += Hits[K];
      if (!Results[K]) {
        Out.Failure = "kernel " + std::to_string(K) + " failed: " +
                      Results[K].diagnostic().message();
        break;
      }
      if (Hits[K] != (ExpectHit ? 1 : 0)) {
        Out.Failure = "kernel " + std::to_string(K) +
                      (ExpectHit ? " missed the cache" : " hit the cache");
        break;
      }
      if (ExpectHit && *Results[K] != M.Kernels[K]) {
        Out.Failure = "kernel " + std::to_string(K) +
                      " is not the catalogue's kernel object";
        break;
      }
    }
    Seq.add(std::to_string(R.Model) + " " + std::to_string(HitCount) + " " +
            MissLabel);

    if (Traced) {
      double Us = T.lastDurationUs("runtime.compileAll");
      Layers.sample(HitCount == Results.size() ? "runtime.batch_hit_us"
                                               : "runtime.batch_miss_us",
                    Us);
      Layers.add("runtime.hits", static_cast<double>(HitCount));
      Layers.add("runtime.kernels", static_cast<double>(Results.size()));
      for (size_t K = 0; K < Results.size(); ++K) {
        if (!Results[K]) {
          if (Results[K].diagnostic().code() == Diagnostic::Code::Overloaded)
            Layers.add("runtime.shed", 1.0);
        } else if (!Hits[K]) {
          Layers.addPipeline((*Results[K])->stats());
        }
      }
    }
    return Out;
  }

  ExactResults finish() override {
    // Every distinct catalogue kernel the stream served, in catalogue
    // order, timed and emitted once.
    double LogTFlops = 0.0, Bytes = 0.0;
    size_t Count = 0;
    std::set<const CompiledKernel *> Seen;
    for (size_t M = 0; M < NumModels; ++M) {
      if (!Served[M])
        continue;
      for (const KernelPtr &K : Models[M].Kernels) {
        if (!Seen.insert(K.get()).second)
          continue;
        ErrorOr<SimResult> Sim = K->runTiming();
        if (!Sim)
          throw std::runtime_error("timing a served kernel failed: " +
                                   Sim.diagnostic().message());
        LogTFlops += std::log(Sim->TFlops);
        Bytes += static_cast<double>(K->emitCuda().Source.size());
        ++Count;
      }
    }
    ExactResults Exact;
    Exact.TFlopsGeomean = std::exp(LogTFlops / static_cast<double>(Count));
    Exact.CudaKbMean = Bytes / 1024.0 / static_cast<double>(Count);
    Exact.StreamDigest = Seq.value();
    return Exact;
  }

private:
  CompilerSession::Request request(const KernelSpec &Spec) {
    Mappings.push_back(Spec.mapping());
    return {{&Registries->of(Spec.F), &Mappings.back(),
             &MachineModel::h100(), Spec.argTypes()},
            familyName(Spec.F),
            ""};
  }

  /// Compiles every catalogue kernel in one batch. A kernel the pipeline
  /// rejects (static feasibility is only a lower bound for the fused
  /// GEMMs) is redrawn, deterministically, until the catalogue compiles.
  void compileCatalogue(SplitMix64 &Rng) {
    for (int Attempt = 0;; ++Attempt) {
      std::vector<CompilerSession::Request> All;
      for (Model &M : Models) {
        M.Batch.clear();
        for (const KernelSpec &Spec : M.Specs)
          M.Batch.push_back(request(Spec));
        All.insert(All.end(), M.Batch.begin(), M.Batch.end());
      }
      std::vector<ErrorOr<KernelPtr>> Results = Session->compileAll(All);
      size_t Next = 0, Rejected = 0;
      for (Model &M : Models) {
        M.Kernels.clear();
        for (KernelSpec &Spec : M.Specs) {
          ErrorOr<KernelPtr> &Result = Results[Next++];
          if (Result) {
            M.Kernels.push_back(*Result);
            continue;
          }
          Spec = drawServing(Spec.F, Rng);
          ++Rejected;
        }
      }
      if (Rejected == 0)
        return;
      if (Attempt == 8)
        throw std::runtime_error("catalogue kernels keep failing to compile");
    }
  }

  std::unique_ptr<FamilyRegistries> Registries;
  std::deque<MappingSpec> Mappings; ///< Stable addresses for requests.
  std::vector<Model> Models;
  std::vector<Request> Stream;
  std::vector<bool> Served;
  size_t Misses = 0;
  Digest Seq;
};

} // namespace

std::unique_ptr<Workload> makeServeMix() {
  return std::make_unique<ServeMix>();
}

} // namespace perfbench
