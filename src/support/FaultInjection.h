//===- FaultInjection.h - Deterministic, seeded fault injection ------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault injector for testing the serving stack's failure
/// paths. Production code queries named sites at the exact places real
/// failures would surface; a fault plan (parsed from the CYPRESS_FAULT_SPEC
/// environment variable, or installed programmatically by tests) decides
/// which queries fire. When no plan is armed every query is a single
/// relaxed atomic load — the injector is zero-overhead in real serving.
///
/// Sites:
///   fail-pass     a named pipeline pass returns an internal error
///   slow-pass     a named pipeline pass is delayed by N microseconds
///   worker-throw  a session compile worker throws (containment test)
///   cost-corrupt  a tuner cost-cache insert is written corrupted
///
/// Spec grammar (clauses separated by ';' or ','):
///
///   CYPRESS_FAULT_SPEC="seed=7;fail-pass=copy-elimination@2;worker-throw~0.25"
///
///   seed=<u64>            PRNG seed shared by every probabilistic clause
///   <site>                fire on every eligible query
///   <site>=<filter>       only queries whose key equals <filter>
///   <site>:<arg>          integer payload (slow-pass delay in micros)
///   <site>@<n>            fire on the n-th eligible query only (1-based)
///   <site>~<p>            fire with probability p per query
///
/// Determinism: a '~p' decision hashes (seed, site, query key) — never a
/// counter or the clock — so with content-derived keys (pass names, mapping
/// fingerprints) the same spec fires on the same work items at any worker
/// count and in every fresh session, preserving the tuner's
/// bit-identical-landscape contract under faults.
/// '@n' clauses count eligible queries in arrival order: exactly one query
/// fires regardless of scheduling, but *which* concurrent query it is is
/// unspecified — use them where arrival order is controlled (single-request
/// tests) or where any-one-of-N is the property under test.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SUPPORT_FAULTINJECTION_H
#define CYPRESS_SUPPORT_FAULTINJECTION_H

#include "support/Error.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace cypress {

/// The values seed '~p' decisions (see decisionUnit), so they stay fixed.
enum class FaultSite : uint8_t {
  FailPass = 1,
  SlowPass,
  WorkerThrow,
  CostCorrupt,
};

/// The spec-grammar name of \p Site ("fail-pass", "slow-pass", ...).
const char *faultSiteName(FaultSite Site);

/// The installed set of fault clauses. One process-wide instance; tests
/// reconfigure it around the block under test and disarm it afterwards.
class FaultPlan {
public:
  /// The process-wide plan. First access parses CYPRESS_FAULT_SPEC (a
  /// malformed env spec aborts loudly — silently running a fault matrix
  /// with no faults armed would vacuously pass).
  static FaultPlan &global();

  /// Parses and installs \p Spec; an empty spec disarms every site.
  /// Thread-safe, but reconfiguring while queries are in flight applies
  /// the new plan to whatever queries follow.
  ErrorOrVoid configure(const std::string &Spec);

  /// The spec string of the installed plan ("" when disarmed). Lets tests
  /// save and restore the active plan around a scoped reconfiguration.
  std::string spec();

  /// True when any clause is installed (the hot-path gate).
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// True when an armed clause fires for this query. \p Key is the query's
  /// stable content identity (pass name, cache key); \p ArgOut receives
  /// the clause payload when non-null.
  bool shouldFire(FaultSite Site, std::string_view Key = {},
                  int64_t *ArgOut = nullptr);

private:
  FaultPlan() = default;

  struct Impl;
  Impl *impl();

  std::atomic<bool> Armed{false};
};

/// The query production code uses: one relaxed load when no plan is armed.
inline bool faultFires(FaultSite Site, std::string_view Key = {},
                       int64_t *ArgOut = nullptr) {
  FaultPlan &Plan = FaultPlan::global();
  return Plan.armed() && Plan.shouldFire(Site, Key, ArgOut);
}

} // namespace cypress

#endif // CYPRESS_SUPPORT_FAULTINJECTION_H
