//===- quickstart.cpp - First steps with the Cypress library -----------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five-minute tour: compile the Figure 5 GEMM program for a small
/// problem, run it functionally on the simulated H100, check the result
/// against a naive reference, look at the throughput estimate, and dump
/// the generated warp-specialized CUDA.
///
///   $ ./examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"
#include "runtime/Session.h"
#include "support/Random.h"

#include <cstdio>

using namespace cypress;

int main() {
  // 1. A Cypress program = logical description (task tree) + mapping.
  //    The library ships the paper's GEMM; write your own by registering
  //    inner/leaf task variants (see src/kernels/Gemm.cpp).
  GemmConfig Config;
  Config.M = 512;
  Config.N = 512;
  Config.K = 256;

  TaskRegistry Registry;
  registerGemmTasks(Registry);
  MappingSpec Mapping = gemmMapping(Config);

  // 2. Compile through a CompilerSession: dependence analysis ->
  //    vectorization -> copy elimination -> shared-memory allocation ->
  //    warp specialization, with the IR verified between stages. The
  //    session caches by (registry, mapping, machine, argument types), so
  //    recompiling the same kernel is a lookup, and independent kernels
  //    can be compiled concurrently with Session.compileAll.
  CompilerSession Session;
  CompileInput Input;
  Input.Registry = &Registry;
  Input.Mapping = &Mapping;
  Input.Machine = &MachineModel::h100();
  Input.EntryArgTypes = gemmArgTypes(Config);
  ErrorOr<std::shared_ptr<const CompiledKernel>> Kernel =
      Session.compile(Input, "quickstart_gemm");
  if (!Kernel) {
    std::fprintf(stderr, "compile error: %s\n",
                 Kernel.diagnostic().str().c_str());
    return 1;
  }

  // 3. Run functionally on the simulator: real FP16 data in, real results
  //    out, with the race detector watching the generated synchronization.
  TensorData C(gemmArgTypes(Config)[0]);
  TensorData A(gemmArgTypes(Config)[1]);
  TensorData B(gemmArgTypes(Config)[2]);
  fillRandomFp16(A.raw(), /*Seed=*/1);
  fillRandomFp16(B.raw(), /*Seed=*/2);

  ErrorOr<SimResult> Result = (*Kernel)->runFunctional({&C, &A, &B});
  if (!Result) {
    std::fprintf(stderr, "run error: %s\n",
                 Result.diagnostic().message().c_str());
    return 1;
  }

  // 4. Check one element against the obvious formula.
  float Want = 0.0f;
  for (int64_t K = 0; K < Config.K; ++K)
    Want += A.at({3, K}) * B.at({K, 5});
  std::printf("C[3][5] = %f (reference %f)\n", C.at({3, 5}), Want);
  std::printf("simulated: %.1f TFLOP/s over %lld blocks, races: %zu\n",
              Result->TFlops, static_cast<long long>(Result->Blocks),
              Result->Races.size());

  // 5. Compile-time observability: the pass manager times every stage.
  std::printf("\ncompile passes (%.0f us total):\n",
              (*Kernel)->stats().TotalMicros);
  for (const PassStat &Stat : (*Kernel)->stats().Passes)
    std::printf("  %-22s %8.1f us  (%zu ops)\n", Stat.Name.c_str(),
                Stat.Micros, Stat.OpsAfter);

  // 6. A second compile of the same input is a cache hit: same kernel.
  ErrorOr<std::shared_ptr<const CompiledKernel>> Again =
      Session.compile(Input, "quickstart_gemm");
  std::printf("recompile was a cache %s\n",
              Again && Again->get() == Kernel->get() ? "hit" : "miss");

  // 7. The compiler's other artifacts: the event IR (the paper's Figure 8
  //    notation) and the warp-specialized CUDA source.
  std::printf("\n--- event IR (excerpt) ---\n%.1200s...\n",
              (*Kernel)->irDump().c_str());
  std::printf("\n--- generated CUDA (excerpt) ---\n%.1200s...\n",
              (*Kernel)->emitCuda().Source.c_str());
  return 0;
}
