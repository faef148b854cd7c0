//===- Runtime.h - Host-side compile-and-run API ---------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point a downstream user programs against: register
/// tasks, write a mapping, then compile and run kernels on the simulated
/// H100. `CompiledKernel` bundles the lowered IR, the shared-memory plan,
/// the generated CUDA text, and simulation entry points.
///
/// Typical use (see examples/quickstart.cpp):
///
/// \code
///   TaskRegistry Registry;
///   registerGemmTasks(Registry);                  // or your own tasks
///   MappingSpec Mapping = gemmMapping(M, N, K);   // or your own mapping
///   auto Kernel = compileKernel({&Registry, &Mapping,
///                                &MachineModel::h100(), ArgTypes});
///   SimResult R = Kernel->runTiming();            // paper-style TFLOP/s
///   Kernel->runFunctional({&A, &B, &C});          // real results
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_RUNTIME_RUNTIME_H
#define CYPRESS_RUNTIME_RUNTIME_H

#include "compiler/PassManager.h"
#include "compiler/Passes.h"
#include "sim/Simulator.h"

#include <memory>
#include <string>

namespace cypress {

/// A fully lowered kernel plus its execution entry points.
class CompiledKernel {
public:
  CompiledKernel(IRModule Module, SharedAllocation Alloc, std::string Name,
                 PipelineStats Stats = PipelineStats())
      : Module(std::move(Module)), Alloc(std::move(Alloc)),
        Name(std::move(Name)), Stats(std::move(Stats)),
        Leaves(&LeafRegistry::sharedBuiltins()) {}

  const IRModule &module() const { return Module; }
  const SharedAllocation &sharedPlan() const { return Alloc; }
  const std::string &name() const { return Name; }

  /// Per-pass timing and IR-size statistics of the compile that produced
  /// this kernel (empty for hand-assembled kernels).
  const PipelineStats &stats() const { return Stats; }

  /// Extra leaf implementations beyond the builtins. Only user leaves are
  /// stored here; builtin resolution goes through the shared registry.
  void addLeaf(std::string LeafName, LeafFn Fn) {
    Leaves.add(std::move(LeafName), std::move(Fn));
  }

  /// Timing-only simulation (fast; used by the benchmarks and the
  /// autotuner's candidate evaluation). Thread-safe on a shared kernel.
  /// \p Cancel (when active) bounds the run with the simulator's
  /// cooperative checkpoints.
  ErrorOr<SimResult> runTiming(const SimConfig &Config = SimConfig(),
                               const Cancellation *Cancel = nullptr) const {
    return simulate(Module, Alloc, Config, Leaves, {}, Cancel);
  }

  /// Timing plus functional execution into \p EntryBuffers (one per entry
  /// argument, shapes matching the compile-time types).
  ErrorOr<SimResult>
  runFunctional(const std::vector<TensorData *> &EntryBuffers,
                const SimConfig &Config = SimConfig(),
                const Cancellation *Cancel = nullptr) const {
    return simulate(Module, Alloc, Config, Leaves, EntryBuffers, Cancel);
  }

  /// One CUDA emission: the generated text plus the printer's counters
  /// (tests cross-check the counters against the post-pipeline IR, and
  /// bench_emit reports them next to wall time).
  struct CudaEmission {
    std::string Source;
    CudaEmitStats Stats;
  };

  /// Emits the warp-specialized CUDA C++ for this kernel from the
  /// post-pipeline IR, with emission statistics.
  CudaEmission emitCuda() const {
    CudaEmission Emission;
    Emission.Source = emitCudaSource(Module, Alloc, Name, Emission.Stats);
    return Emission;
  }

  /// The IR in the paper's textual form (Figures 8/9).
  std::string irDump() const { return printModule(Module); }

private:
  IRModule Module;
  SharedAllocation Alloc;
  std::string Name;
  PipelineStats Stats;
  LeafRegistry Leaves; ///< User leaves; falls back to sharedBuiltins().
};

/// Runs the full compiler pipeline on \p Input.
ErrorOr<std::unique_ptr<CompiledKernel>>
compileKernel(const CompileInput &Input, std::string Name);

} // namespace cypress

#endif // CYPRESS_RUNTIME_RUNTIME_H
