//===- VerifyDiff.cpp - Differential execution of functional-scale kernels ===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verify-diff workload. Each request compiles one functional-scale
/// kernel of the six families, with its mapping drawn from the family's
/// guided space at the smallest tiles, runs it through the functional
/// executor (program order) and through the CPU lowering of the emitted
/// warp-specialized schedule on the same seeded inputs, emits its CUDA,
/// and checks both results: the lowered outputs must equal the functional
/// outputs bit for bit, and both must match the scalar reference in
/// Reference.h within FP16 tolerance.
///
/// The executors take nearly all of a request; the compile is under 1%.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Families.h"
#include "Reference.h"

#include "backend/CpuLowering.h"
#include "runtime/Session.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

using namespace cypress;

namespace perfbench {
namespace {

struct Request {
  KernelSpec Spec;
  uint64_t InputSeed = 0;
};

/// The families one cycle serves: each family once, GEMM twice. Three
/// families (GEMM, batched, GEMM+reduction) take 100-165 ms a request and
/// the rest 145-325 ms, so with each family once the median request fell
/// between the two groups, where a few requests move it far: p50 spread
/// 13-19% over ten seeds while p90 spread 2-6%. A second GEMM puts the
/// median inside the cheaper group.
const Family CycleFamilies[] = {
    Family::Gemm, Family::Gemm, Family::Batched, Family::Dual,
    Family::GemmRed, Family::Fa2, Family::Fa3};
constexpr size_t CycleLength = sizeof(CycleFamilies) / sizeof(Family);

std::vector<TensorData *> pointers(std::vector<TensorData> &Buffers) {
  std::vector<TensorData *> Result;
  for (TensorData &B : Buffers)
    Result.push_back(&B);
  return Result;
}

/// Entry-argument buffers: the outputs zeroed, every input filled from
/// its own seed.
std::vector<TensorData> makeInputs(const KernelSpec &Spec, uint64_t Seed) {
  std::vector<TensorType> Types = Spec.argTypes();
  std::vector<TensorData> Buffers;
  for (size_t I = 0; I < Types.size(); ++I) {
    Buffers.emplace_back(Types[I]);
    bool Output = I == 0 || (Spec.F == Family::GemmRed && I == 3);
    if (!Output)
      fillRandomFp16(Buffers.back().raw(), Seed + I);
  }
  return Buffers;
}

std::string bitwiseDiff(const std::vector<TensorData> &Lowered,
                        const std::vector<TensorData> &Functional) {
  for (size_t I = 0; I < Lowered.size(); ++I) {
    const std::vector<float> &L = Lowered[I].raw(), &F = Functional[I].raw();
    if (L.size() != F.size() ||
        std::memcmp(L.data(), F.data(), L.size() * sizeof(float)) != 0)
      return "lowered and functional outputs differ in argument " +
             std::to_string(I);
  }
  return "";
}

class VerifyDiff final : public Workload {
public:
  size_t cycle() const override { return CycleLength; }

  void setUp(const RunOptions &Options) override {
    Registries = std::make_unique<FamilyRegistries>();
    newSession();

    // The stream: each cycle serves CycleFamilies in a seeded order, each
    // kernel with seeded knobs and inputs.
    SplitMix64 Rng = seededRng(Options.Seed, /*Tag=*/3);
    Stream.clear();
    while (Stream.size() < Options.Requests)
      for (size_t Slot : shuffled(CycleLength, Rng)) {
        Request R;
        R.Spec = drawFunctional(CycleFamilies[Slot], Rng);
        R.InputSeed = Rng.next();
        Stream.push_back(R);
      }

    // Ready state: one verification of a kernel the stream cannot draw
    // (a 64x64x32 GEMM), which warms the executors' pooled scratch.
    Request Warm;
    Warm.Spec.G.M = Warm.Spec.G.N = 64;
    Warm.Spec.G.K = 32;
    Warm.Spec.G.U = Warm.Spec.G.V = 64;
    Warm.Spec.G.W = 16;
    Warm.Spec.G.WGS = 1;
    Tracer Quiet;
    LayerStats Ignored;
    if (std::string Failure = verify(Warm, 0, false, Quiet, Ignored).Failure;
        !Failure.empty())
      throw std::runtime_error("warm-up verification failed: " + Failure);

    LogTFlops = 0.0;
    CudaBytes = 0.0;
    Served = 0;
    Seq = Digest();
  }

  Outcome serve(size_t Index, bool Traced, Tracer &T,
                LayerStats &Layers) override {
    return verify(Stream[Index], Index, Traced, T, Layers);
  }

  ExactResults finish() override {
    ExactResults Exact;
    if (Served) {
      Exact.TFlopsGeomean = std::exp(LogTFlops / static_cast<double>(Served));
      Exact.CudaKbMean = CudaBytes / 1024.0 / static_cast<double>(Served);
    }
    Exact.StreamDigest = Seq.value();
    return Exact;
  }

private:
  Outcome verify(const Request &R, size_t Index, bool Traced, Tracer &T,
                 LayerStats &Layers) {
    MappingSpec Mapping = R.Spec.mapping();
    CompileInput Input{&Registries->of(R.Spec.F), &Mapping,
                       &MachineModel::h100(), R.Spec.argTypes()};
    std::vector<TensorData> Functional = makeInputs(R.Spec, R.InputSeed);
    std::vector<TensorData> Lowered = Functional;
    SessionStats Before = Session->stats();

    Outcome Out;
    ErrorOr<std::shared_ptr<const CompiledKernel>> Kernel =
        Diagnostic("not compiled");
    ErrorOr<SimResult> Sim = Diagnostic("not run");
    ErrorOr<LoweredStats> Low = Diagnostic("not run");
    CompiledKernel::CudaEmission Emission;
    std::string Failure;
    T.beginRequest(Index, Traced);
    {
      Tracer::Scope Span(T, "runtime.compile");
      Kernel = Session->compile(Input, familyName(R.Spec.F));
    }
    if (Kernel) {
      const CompiledKernel &K = **Kernel;
      {
        Tracer::Scope Span(T, "sim.functional");
        Sim = K.runFunctional(pointers(Functional));
      }
      {
        Tracer::Scope Span(T, "backend.lowered");
        Low = runCpuLowered(K.module(), LeafRegistry::sharedBuiltins(),
                            pointers(Lowered));
      }
      {
        Tracer::Scope Span(T, "compiler.emit");
        Emission = K.emitCuda();
      }
      {
        Tracer::Scope Span(T, "bench.reference");
        Failure = bitwiseDiff(Lowered, Functional);
        if (Failure.empty()) {
          Reference Ref = referenceOutputs(R.Spec, Functional);
          Failure = checkAgainst(Ref, Functional);
        }
      }
    }
    Out.WallUs = T.endRequest();

    if (!Kernel)
      Out.Failure = "compile failed: " + Kernel.diagnostic().message();
    else if (!Sim)
      Out.Failure = "functional run failed: " + Sim.diagnostic().message();
    else if (!Low)
      Out.Failure = "lowered run failed: " + Low.diagnostic().message();
    else if (!Sim->Races.empty())
      Out.Failure = "race: " + Sim->Races.front();
    else
      Out.Failure = Failure;
    if (!Out.Failure.empty())
      Out.Failure = R.Spec.label() + ": " + Out.Failure;

    // The digest covers the kernel and the exact bits it computed.
    Digest Outputs;
    for (const TensorData &B : Functional)
      Outputs.add(std::string(reinterpret_cast<const char *>(B.raw().data()),
                              B.raw().size() * sizeof(float)));
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), " %016llx %.17g %zu",
                  (unsigned long long)Outputs.value(),
                  Sim ? Sim->TFlops : 0.0, Emission.Source.size());
    Seq.add(R.Spec.label() + Buf);
    if (Sim && Sim->TFlops > 0.0) {
      LogTFlops += std::log(Sim->TFlops);
      CudaBytes += static_cast<double>(Emission.Source.size());
      ++Served;
    }

    if (Traced) {
      bool Hit = Session->stats().Hits > Before.Hits;
      Layers.sample(Hit ? "runtime.batch_hit_us" : "runtime.batch_miss_us",
                    T.lastDurationUs("runtime.compile"));
      Layers.add("runtime.hits", Hit ? 1.0 : 0.0);
      Layers.add("runtime.kernels", 1.0);
      if (Kernel && !Hit)
        Layers.addPipeline((*Kernel)->stats());
      Layers.add("sim.functional_ms", T.lastDurationUs("sim.functional") / 1e3);
      Layers.add("backend.lowered_ms",
                 T.lastDurationUs("backend.lowered") / 1e3);
      if (Low) {
        Layers.add("backend.instances", static_cast<double>(Low->Instances));
        Layers.add("backend.stalls", static_cast<double>(Low->Stalls));
      }
      Layers.add("compiler.emit_us", T.lastDurationUs("compiler.emit"));
      Layers.add("compiler.emit_lines",
                 static_cast<double>(Emission.Stats.Lines));
      Layers.add("bench.reference_ms",
                 T.lastDurationUs("bench.reference") / 1e3);
    }
    return Out;
  }

  std::unique_ptr<FamilyRegistries> Registries;
  std::vector<Request> Stream;
  double LogTFlops = 0.0;
  double CudaBytes = 0.0;
  size_t Served = 0;
  Digest Seq;
};

} // namespace

std::unique_ptr<Workload> makeVerifyDiff() {
  return std::make_unique<VerifyDiff>();
}

} // namespace perfbench
