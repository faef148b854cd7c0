//===- Simulator.h - Discrete-event Hopper SM simulator --------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated H100 substrate (see docs/DESIGN.md, substitution table). The
/// simulator consumes the compiler's final IR and executes it two ways:
///
///  * Timing: a discrete-event model of one SM's block schedule — a DMA
///    warp agent plus compute-warpgroup agents, a TMA engine with latency
///    and bandwidth, a Tensor Core with issue latency and throughput,
///    mbarrier-equivalent event completion tracking (with pipeline phase
///    lags), and barrier costs for broadcast synchronization. Blocks are
///    homogeneous, so one block is simulated and scaled by wave count, with
///    a DRAM-bandwidth floor for compulsory traffic.
///
///  * Functional: sequential execution of all block instances on host
///    TensorData buffers, validating that generated data movement and leaf
///    calls compute the right answer (mapping decisions must not change
///    results — the paper's correctness guarantee).
///
/// A write-after-read race detector checks that aliased shared-memory
/// buffers are never overwritten while a reader is still in flight.
///
/// Timing simulates a block's main loop only until its schedule repeats:
/// once the state at one iteration boundary equals the state at an
/// earlier one shifted in time, the remaining whole periods are skipped
/// by that shift, and only the tail and the epilogue are simulated (see
/// docs/ARCHITECTURE.md, "Lazy expansion and steady-state
/// extrapolation"). Results match timing every iteration to rounding;
/// detail::simulateEveryIteration keeps that full timing as the test
/// oracle.
///
/// One simulation is sequential: it expands, schedules and sweeps on the
/// calling thread. Parallelism is across kernels — the autotuner times a
/// batch of candidates at once on its session's worker pool.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SIM_SIMULATOR_H
#define CYPRESS_SIM_SIMULATOR_H

#include "compiler/Passes.h"
#include "ir/IR.h"
#include "sim/LeafRegistry.h"
#include "tensor/TensorData.h"

#include <cstddef>
#include <string>
#include <vector>

namespace cypress {

/// Timing constants of the simulated H100. Defaults are derived from the
/// Hopper whitepaper/datasheet ratios; only relative magnitudes matter for
/// reproducing the paper's figures (see docs/DESIGN.md). Latencies must be
/// non-negative and throughputs positive: the race sweep relies on every
/// completion landing at or after its instance's start.
struct SimConfig {
  double ClockGHz = 1.755;
  /// Dense FP16 Tensor Core throughput per SM (FLOP per cycle):
  /// 989 TFLOP/s / (132 SMs * 1.755 GHz).
  double TensorCoreFlopsPerCycle = 4269.0;
  /// TMA transfer bandwidth per SM (bytes per cycle), an L2-side share.
  double TmaBytesPerCycle = 52.0;
  /// SIMT-issued global copies (no TMA — the Triton default path;
  /// cp.async through the LSU achieves slightly less than the TMA).
  double SimtGlobalBytesPerCycle = 46.0;
  /// SIMT shared/register traffic per warpgroup (bytes per cycle).
  double SimtLocalBytesPerCycle = 256.0;
  /// SIMT FP32 math throughput per warpgroup (FLOP per cycle):
  /// 128 FP32 lanes per SM quadrant.
  double SimtFlopsPerCycle = 256.0;
  /// Global-memory access latency (cycles) for the first byte.
  double GlobalLatency = 650.0;
  /// Tensor Core issue + drain latency per call (cycles).
  double TensorCoreLatency = 40.0;
  /// SIMT instruction issue overhead per op (cycles).
  double SimtLatency = 12.0;
  /// Cost of a block-scope barrier / mbarrier wait (cycles).
  double BarrierLatency = 30.0;
  /// Device DRAM bandwidth (bytes per second) — the compulsory-traffic
  /// floor across the whole kernel.
  double DramBytesPerSec = 3.35e12;
  int64_t NumSMs = 132;
  /// Per-block kernel launch/drain overhead (cycles).
  double BlockOverhead = 1500.0;

  /// Every field, printed exactly: configs with equal fingerprints time
  /// every kernel identically (the tuner's cost-cache key).
  std::string fingerprint() const;
};
// A new field must join fingerprint() too.
static_assert(sizeof(SimConfig) == 13 * sizeof(double),
              "SimConfig changed: update SimConfig::fingerprint()");

/// Outcome of one simulated kernel execution.
struct SimResult {
  double BlockCycles = 0.0;  ///< Steady-state cycles of one block.
  double TotalSeconds = 0.0; ///< Whole-kernel wall time.
  double TotalFlops = 0.0;   ///< Useful FLOPs (from leaf annotations).
  double TFlops = 0.0;       ///< TotalFlops / TotalSeconds / 1e12.
  int64_t Blocks = 0;
  int64_t Waves = 0;
  double TmaBusyCycles = 0.0; ///< Per-block TMA engine occupancy.
  double TensorCoreBusyCycles = 0.0;
  std::vector<std::string> Races; ///< Detected shared-memory hazards.
  bool FunctionalRan = false;
  /// Top-level loop iterations of one block that the timer simulated, and
  /// those it extrapolated from a repeating schedule instead.
  int64_t SimulatedIterations = 0;
  int64_t ExtrapolatedIterations = 0;
};

/// Simulates \p Module. When \p EntryBuffers is non-empty (one TensorData
/// per entry argument, matching shapes) the functional executor also runs,
/// producing real results in those buffers. Timing always runs. The buffer
/// list is only read for the duration of the call.
///
/// Thread-safe for concurrent calls on shared immutable inputs: all timing
/// state lives in a per-thread pooled scratch, so the autotuner may time
/// many kernels from its worker pool at once. One call simulates on the
/// calling thread.
///
/// When \p Cancel is active, the expansion and event-relaxation loops poll
/// it (strided, so the steady-state hot path stays allocation-free and
/// branch-cheap) and the run exits with the checkpoint's structured
/// Code::DeadlineExceeded / Code::Cancelled diagnostic instead of a partial
/// SimResult. A nullptr Cancel changes
/// nothing — the bit-identical parity contract is unaffected.
ErrorOr<SimResult> simulate(const IRModule &Module,
                            const SharedAllocation &Alloc,
                            const SimConfig &Config,
                            const LeafRegistry &Leaves,
                            const std::vector<TensorData *> &EntryBuffers = {},
                            const Cancellation *Cancel = nullptr);

namespace detail {

/// Timing only, with every main-loop iteration simulated: the oracle the
/// steady-state extrapolation of simulate() is tested against. Same
/// results contract and cancellation as simulate().
ErrorOr<SimResult> simulateEveryIteration(const IRModule &Module,
                                          const SharedAllocation &Alloc,
                                          const SimConfig &Config,
                                          const Cancellation *Cancel = nullptr);

} // namespace detail

} // namespace cypress

#endif // CYPRESS_SIM_SIMULATOR_H
