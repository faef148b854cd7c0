//===- Passes.h - Cypress compiler pass pipeline ---------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The six-stage pipeline of Section 4.2 (Figure 6):
///
///   dependence analysis -> vectorization -> copy elimination ->
///   resource allocation -> warp specialization -> code generation
///
/// The first three capture information from the task-based representation
/// and lower away the tasking abstractions; resource allocation and warp
/// specialization optimize; the emitters (CudaEmitter / the simulator
/// backend in src/sim) replace events by concrete synchronization.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_COMPILER_PASSES_H
#define CYPRESS_COMPILER_PASSES_H

#include "frontend/Task.h"
#include "ir/IR.h"
#include "machine/Machine.h"
#include "mapping/Mapping.h"
#include "support/Cancel.h"
#include "support/Error.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace cypress {

/// Everything the compiler needs to lower one kernel.
struct CompileInput {
  const TaskRegistry *Registry = nullptr;
  const MappingSpec *Mapping = nullptr;
  const MachineModel *Machine = nullptr;
  /// Concrete types of the entrypoint's tensor arguments (shapes are static
  /// per kernel instantiation; the prototype compiles one kernel per
  /// problem size, like the paper's statically specialized programs).
  std::vector<TensorType> EntryArgTypes;
};

/// Where dependence analysis took each mapping-stamped IR field from: the
/// three fields that carry the mapping's depth knobs into the IR
/// (IRTensor::PipelineDepth, IRTensor::ForceSimtCopy and
/// Operation::ForPipeline). Instances are positions in
/// MappingSpec::instances(), so one table serves every mapping with the
/// same structure fingerprint.
struct MappingStamps {
  static constexpr uint32_t NoInstance = ~0u;

  struct TensorStamp {
    TensorId Tensor = InvalidTensorId;
    /// Only shared tensors are multi-buffered; others keep depth 1.
    bool Shared = false;
    /// The instance whose srange is the innermost enclosing loop (its
    /// PipelineDepth), or NoInstance outside every loop.
    uint32_t Loop = NoInstance;
    /// For launch-created tensors: the launched instance and its
    /// parameter, whose ArgPipeline entry overrides the loop depth and
    /// whose SimtCopyParams entry pins the copies to SIMT. NoInstance for
    /// make_tensor temporaries.
    uint32_t Owner = NoInstance;
    std::string Param;
  };

  /// A For op created by an srange of \p Instance (its PipelineDepth).
  struct LoopStamp {
    OpId Op = ~0u;
    uint32_t Instance = NoInstance;
  };

  std::vector<TensorStamp> Tensors;
  std::vector<LoopStamp> Loops;
};

/// Writes the three mapping-stamped fields of \p Module from \p Mapping,
/// as \p Stamps records them. Fields without a stamp keep their defaults
/// (depth 1, not pinned), which no mapping changes.
void applyMappingStamps(IRModule &Module, const MappingStamps &Stamps,
                        const MappingSpec &Mapping);

/// Stage 1 (Section 4.2.1): interprets the instantiated task tree under the
/// mapping, enforcing privileges, inserting copy-in/copy-out data movement,
/// and chaining events to encode all true and anti dependencies. Produces
/// the event IR of Figure 8, with its mapping stamps applied; \p StampsOut
/// (when given) receives the stamp table.
ErrorOr<IRModule> runDependenceAnalysis(const CompileInput &Input,
                                        MappingStamps *StampsOut = nullptr);

/// Stage 2 (Section 4.2.2): flattens the implicit intra-block parallel
/// loops (warpgroup / warp / thread pfors), substituting induction variables
/// with processor indices and promoting events to indexed event arrays
/// (Figure 9). Block-level pfors remain: they become the kernel grid.
ErrorOrVoid runVectorization(IRModule &Module, const MachineModel &Machine);

/// Per-pass work counters, filled by passes that do pattern rewriting so
/// fixpoint behavior is observable (printed by bench_compile_time's
/// breakdown) instead of inferred from wall time.
struct PassCounters {
  /// Pattern rewrites actually applied (IR mutations).
  uint64_t Rewrites = 0;
  /// Worklist candidates popped and examined (including non-matches).
  uint64_t WorklistPops = 0;
};

/// Stage 3 (Section 4.2.3): removes the copies introduced by the
/// copy-in/copy-out discipline using the rewrite patterns of Figure 10
/// (copy propagation, spill elimination/hoisting, duplicate and self-copy
/// elimination, unmaterialized-tensor forwarding), preserving required
/// synchronization. Reports an error if a tensor mapped to the `none`
/// memory would have to be materialized (Section 3.3). Fills \p Counters
/// (when given) with rewrite/worklist statistics. \p Cancel (when given)
/// is polled at worklist-pop intervals: the pass stops between rewrites
/// and returns the checkpoint's structured diagnostic, leaving no partial
/// rewrite behind.
ErrorOrVoid runCopyElimination(IRModule &Module,
                               PassCounters *Counters = nullptr,
                               CancelCheck *Cancel = nullptr);

/// Restores event-scope well-formedness: references that point at events
/// defined inside loop bodies from outside those bodies (which both event
/// splicing and the allocator's WAR edges can create) are replaced by the
/// enclosing loop's completion event; duplicates are removed.
void repairEventScopes(IRModule &Module);

/// Assigns execution units to the surviving copies (TMA for global<->shared
/// bulk transfers, SIMT otherwise). Run after copy elimination, once the
/// real endpoints are known.
void assignExecUnits(IRModule &Module);

/// Result of shared-memory resource allocation for one block.
struct SharedAllocation {
  struct Entry {
    TensorId Tensor = InvalidTensorId;
    int64_t Offset = 0; ///< Byte offset of buffer 0.
    int64_t Bytes = 0;  ///< Total bytes including pipeline copies.
  };
  std::vector<Entry> Entries;
  int64_t TotalBytes = 0;
  /// Pairs of tensors that ended up aliased (share addresses) and therefore
  /// required write-after-read synchronization edges.
  std::vector<std::pair<TensorId, TensorId>> AliasedPairs;
  /// Tensor id -> Entries position, built by buildIndex(). The simulator
  /// calls find() on every buffer access, so lookups must not scan.
  std::unordered_map<TensorId, uint32_t> Index;

  /// (Re)builds Index from Entries. The allocator calls this before
  /// returning; call it again after mutating Entries by hand.
  void buildIndex() {
    Index.clear();
    Index.reserve(Entries.size());
    for (uint32_t I = 0; I < Entries.size(); ++I)
      Index.emplace(Entries[I].Tensor, I);
  }

  /// O(1) when the index is current; falls back to a linear scan for
  /// hand-assembled allocations that never called buildIndex().
  const Entry *find(TensorId Tensor) const {
    if (Index.size() == Entries.size()) {
      auto It = Index.find(Tensor);
      return It == Index.end() ? nullptr : &Entries[It->second];
    }
    for (const Entry &E : Entries)
      if (E.Tensor == Tensor)
        return &E;
    return nullptr;
  }
};

/// Stage 4 (Section 4.2.4): binds shared-memory tensors to physical offsets
/// within the per-block budget, starting from a complete interference graph
/// and removing auxiliary edges (allowing aliasing) only until the
/// allocation fits, then inserting WAR event edges between aliased users
/// (Figure 11). Fails with an out-of-memory diagnostic if even full
/// aliasing cannot fit. \p LimitBytes tightens the budget below the
/// machine's per-block capacity (TaskMapping::SharedLimitBytes — the
/// mapping-level occupancy knob); 0 means the full capacity.
ErrorOr<SharedAllocation> runResourceAllocation(IRModule &Module,
                                                const MachineModel &Machine,
                                                int64_t LimitBytes = 0);

/// Stage 5 (Section 4.2.5): for block bodies whose mapping requested warp
/// specialization, partitions the dependence graph into a data-movement
/// (DMA) agent and compute agents (Figure 12), and software-pipelines the
/// main sequential loop to the mapped depth: multi-buffers shared tensors,
/// rewrites buffer indices to (k mod PIPE), and inserts backward
/// anti-dependence edges so copies wait for the consumers of their
/// destination buffers from PIPE iterations ago.
ErrorOrVoid runWarpSpecialization(IRModule &Module);

/// Counters describing one CUDA emission: how many synchronization
/// constructs and op bodies the printer produced. Tests cross-check these
/// against the post-pipeline IR (e.g. one mbarrier per cross-agent event),
/// and bench_emit reports them next to emit wall time.
struct CudaEmitStats {
  int64_t Kernels = 0;         ///< __global__ kernels (one per grid pfor).
  int64_t Mbarriers = 0;       ///< Cross-agent events lowered to mbarriers.
  int64_t MbarrierWaits = 0;   ///< bar.wait sites (incl. phase-guarded).
  int64_t MbarrierArrives = 0; ///< bar.arrive sites.
  int64_t NamedBarriers = 0;   ///< Intra-compute warpgroup-broadcast syncs.
  int64_t TmaCopies = 0;       ///< cp_async_bulk_tensor sites.
  int64_t SimtCopies = 0;      ///< Plain SIMT copy sites.
  int64_t WgmmaCalls = 0;      ///< Tensor Core calls (commit/wait wrapped).
  int64_t SimtCalls = 0;       ///< SIMT leaf calls.
  int64_t SharedTensors = 0;   ///< Shared-memory prologue declarations.
  int64_t RegisterTensors = 0; ///< Register-fragment prologue declarations.
  int64_t Lines = 0;           ///< Total emitted lines.
};

/// Stage 6a: prints warp-specialized CUDA C++ matching the structure of
/// Figure 1b (mbarriers, TMA intrinsics, wgmma, named barriers). The text
/// is golden-tested; it is not compiled in this environment (see docs/DESIGN.md
/// substitutions). \p Stats receives the emission counters.
std::string emitCudaSource(const IRModule &Module,
                           const SharedAllocation &Alloc,
                           const std::string &KernelName,
                           CudaEmitStats &Stats);

} // namespace cypress

#endif // CYPRESS_COMPILER_PASSES_H
