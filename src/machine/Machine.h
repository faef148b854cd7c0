//===- Machine.h - Hierarchical machine model -----------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hierarchical machine model of Section 3.1. A machine is a list of
/// processor levels (HOST down to THREAD) plus a set of memories, each
/// visible from a subset of the processor levels. The H100 description
/// (Figure 2) is provided as a builtin, but the model is data-driven so new
/// architectures (e.g. Blackwell's paired-SM tensor core and its extra
/// memory kind) can be described without code changes.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_MACHINE_MACHINE_H
#define CYPRESS_MACHINE_MACHINE_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace cypress {

/// Logical processor levels, ordered from outermost to innermost.
/// Matches the grammar of Figure 3.
enum class Processor : uint8_t {
  Host,      ///< CPU launching kernels.
  Block,     ///< One CTA / one SM's worth of threads.
  Warpgroup, ///< 128 threads; the unit that issues WGMMA.
  Warp,      ///< 32 threads.
  Thread,    ///< A single hardware thread.
};

/// Memory kinds of the CUDA memory hierarchy plus the `none` constraint of
/// Section 3.3 (tensor must never be materialized at this level).
enum class Memory : uint8_t {
  None,     ///< Never materialized; placement deferred to children.
  Global,   ///< Device HBM, visible to all processors.
  Shared,   ///< Per-SM scratchpad, visible to one block.
  Register, ///< Thread-private register file.
};

const char *processorName(Processor Proc);
const char *memoryName(Memory Mem);

/// Description of one processor level within a machine.
struct ProcessorLevel {
  Processor Kind;
  /// How many instances of this level nest inside one parent instance
  /// (e.g. 4 warps per warpgroup). Host fan-out is the grid size and is
  /// dynamic, so it is recorded as 0 here.
  int64_t FanOut;
  /// Threads contained in one instance of this level (host = 0).
  int64_t ThreadsPerInstance;
};

/// Description of one memory within a machine.
struct MemoryLevel {
  Memory Kind;
  /// Innermost processor level from which every instance of this memory is
  /// visible. Global is visible from Host down; Shared from Block down;
  /// Register only at Thread.
  Processor Scope;
  /// Capacity in bytes of one instance (0 = effectively unbounded for the
  /// purposes of the compiler, e.g. global memory).
  int64_t CapacityBytes;
};

/// A machine: an ordered processor hierarchy plus memories.
///
/// Invariants: levels are listed outermost-first and strictly nested;
/// every memory's scope names a level present in the hierarchy. Immutable
/// once built, like MappingSpec, so its fingerprint is recorded at
/// construction.
class MachineModel {
public:
  MachineModel(std::string Name, std::vector<ProcessorLevel> Levels,
               std::vector<MemoryLevel> Memories);

  const std::string &name() const { return Name; }
  const std::vector<ProcessorLevel> &levels() const { return Levels; }
  const std::vector<MemoryLevel> &memories() const { return Memories; }

  /// Canonical content serialization, `machine{name;levels|memories}`:
  /// the name plus every field of every level and memory. Fully
  /// content-keyed (unlike a task registry there are no opaque parts), so
  /// stack-allocated machine variants from autotuning sweeps can never
  /// alias through a recycled address. Built once, by the constructor;
  /// the session cache key embeds it.
  const std::string &fingerprint() const { return Fingerprint; }

  /// True if the machine has the given processor level.
  bool hasLevel(Processor Proc) const;

  /// The description of \p Proc; asserts that the level exists.
  const ProcessorLevel &level(Processor Proc) const;

  /// Index of \p Proc in the hierarchy (0 = outermost).
  unsigned depthOf(Processor Proc) const;

  /// True if \p Inner nests strictly inside \p Outer.
  bool isInner(Processor Inner, Processor Outer) const;

  /// Next level inside \p Proc; asserts that one exists.
  Processor childLevel(Processor Proc) const;

  /// True if code running on \p Proc can address memory \p Mem.
  ///
  /// This is the key relaxation over Sequoia's strictly hierarchical model
  /// (Section 6): multiple processor levels may access multiple memories
  /// (e.g. a thread can address global, shared, and its registers).
  bool canAccess(Processor Proc, Memory Mem) const;

  /// The description of \p Mem; asserts that the memory exists.
  const MemoryLevel &memory(Memory Mem) const;

  /// Capacity in bytes of one instance of \p Mem (0 = effectively
  /// unbounded, e.g. global memory). The query the autotuner's static
  /// pruner runs before deciding whether a mapping can possibly allocate.
  int64_t capacityBytes(Memory Mem) const { return memory(Mem).CapacityBytes; }

  /// Threads contained in one instance of \p Proc (0 when the level's
  /// thread count is dynamic, i.e. host and block). Register-file tensors
  /// homed at \p Proc are distributed across exactly these threads, so the
  /// per-thread register budget of a candidate mapping is
  /// `ceilDiv(bytes, threadsPerInstance(Proc))`.
  int64_t threadsPerInstance(Processor Proc) const {
    return level(Proc).ThreadsPerInstance;
  }

  /// Number of parallel instances of \p Proc within one instance of its
  /// parent level (1 for host).
  int64_t fanOut(Processor Proc) const;

  /// The builtin NVIDIA H100 description of Figure 2.
  static const MachineModel &h100();

private:
  std::string Name;
  std::vector<ProcessorLevel> Levels;
  std::vector<MemoryLevel> Memories;
  std::string Fingerprint;
};

/// Hardware constants for the simulated H100 used by the performance model.
/// Values come from the Hopper whitepaper / datasheet; only ratios matter
/// for reproducing the paper's figures.
struct H100Constants {
  static constexpr int64_t NumSMs = 132;
  static constexpr int64_t SharedMemoryBytes = 227 * 1024; // Per-SM usable.
  static constexpr int64_t RegistersPerThread = 255;
  static constexpr int64_t WarpsPerBlockMax = 64;
  static constexpr int64_t ThreadsPerWarp = 32;
  static constexpr int64_t WarpsPerWarpgroup = 4;
  static constexpr double ClockGHz = 1.755;
  /// Dense FP16 tensor TFLOP/s across the device (no sparsity).
  static constexpr double PeakTensorTFLOPs = 989.0;
  /// HBM3 bandwidth in bytes per second.
  static constexpr double HBMBandwidthBytesPerSec = 3.35e12;
};

} // namespace cypress

#endif // CYPRESS_MACHINE_MACHINE_H
