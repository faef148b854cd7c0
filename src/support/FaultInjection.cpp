//===- FaultInjection.cpp - Deterministic, seeded fault injection ----------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Format.h"
#include "support/Random.h"

#include <cctype>
#include <cstdlib>
#include <mutex>
#include <vector>

using namespace cypress;

const char *cypress::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::FailPass:
    return "fail-pass";
  case FaultSite::SlowPass:
    return "slow-pass";
  case FaultSite::WorkerThrow:
    return "worker-throw";
  case FaultSite::CostCorrupt:
    return "cost-corrupt";
  }
  cypressUnreachable("unknown fault site");
}

namespace {

struct Clause {
  FaultSite Site = FaultSite::FailPass;
  std::string Filter;      ///< Empty = any key.
  int64_t Arg = 0;         ///< Payload (slow-pass delay micros).
  uint64_t NthHit = 0;     ///< >0: fire on this eligible query only.
  double Probability = -1; ///< >=0: fire with this chance per query.
  uint64_t Hits = 0;       ///< Eligible queries seen (for NthHit).
};

std::string_view trim(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

bool siteByName(std::string_view Name, FaultSite &Out) {
  for (FaultSite Site :
        {FaultSite::FailPass, FaultSite::SlowPass, FaultSite::WorkerThrow,
        FaultSite::CostCorrupt})
    if (Name == faultSiteName(Site)) {
      Out = Site;
      return true;
    }
  return false;
}

/// Content hash for probabilistic decisions: a pure function of the seed,
/// the site, and the query key — never of arrival order or time, which is
/// what makes '~p' clauses deterministic at any worker count.
double decisionUnit(uint64_t Seed, FaultSite Site, std::string_view Key) {
  uint64_t H = Seed ^ (0x9e3779b97f4a7c15ull * (uint64_t(Site) + 1));
  for (char C : Key) {
    H ^= static_cast<uint8_t>(C);
    H *= 0x100000001b3ull;
  }
  return SplitMix64(H).nextUnit();
}

} // namespace

struct FaultPlan::Impl {
  std::mutex Mutex;
  std::string Spec;
  uint64_t Seed = 0;
  std::vector<Clause> Clauses;
};

FaultPlan::Impl *FaultPlan::impl() {
  static Impl I;
  return &I;
}

FaultPlan &FaultPlan::global() {
  static FaultPlan Plan;
  static std::once_flag EnvOnce;
  std::call_once(EnvOnce, [] {
    if (const char *Env = std::getenv("CYPRESS_FAULT_SPEC")) {
      // A typo'd spec must not silently run the suite fault-free: the
      // fault-matrix CI job would vacuously pass.
      if (ErrorOrVoid Parsed = Plan.configure(Env); !Parsed)
        cypressUnreachable(Parsed.diagnostic().message().c_str());
    }
  });
  return Plan;
}

ErrorOrVoid FaultPlan::configure(const std::string &Spec) {
  uint64_t Seed = 0;
  std::vector<Clause> Clauses;

  std::string_view Rest = Spec;
  while (!Rest.empty()) {
    size_t Cut = Rest.find_first_of(";,");
    std::string_view Raw = trim(Rest.substr(0, Cut));
    Rest = Cut == std::string_view::npos ? std::string_view()
                                         : Rest.substr(Cut + 1);
    if (Raw.empty())
      continue;

    if (Raw.rfind("seed=", 0) == 0) {
      std::string Digits(Raw.substr(5));
      char *End = nullptr;
      Seed = std::strtoull(Digits.c_str(), &End, 10);
      // strtoull accepts garbage by returning 0 — a typo'd seed silently
      // changing every probabilistic decision is exactly the silent
      // misconfiguration this parser exists to reject.
      if (Digits.empty() || End != Digits.c_str() + Digits.size())
        return Diagnostic(formatString(
            "bad fault spec clause '%s': seed must be an unsigned integer",
            std::string(Raw).c_str()));
      continue;
    }

    Clause C;
    size_t NameEnd = Raw.find_first_of("=:@~");
    if (!siteByName(Raw.substr(0, NameEnd), C.Site))
      return Diagnostic(formatString(
          "bad fault spec clause '%s': unknown site (expected one of "
          "fail-pass, slow-pass, worker-throw, cost-corrupt)",
          std::string(Raw).c_str()));
    std::string_view Tail =
        NameEnd == std::string_view::npos ? std::string_view()
                                          : Raw.substr(NameEnd);
    // Optional parts in order: =filter :arg @n ~p.
    if (!Tail.empty() && Tail.front() == '=') {
      Tail.remove_prefix(1);
      size_t End = Tail.find_first_of(":@~");
      C.Filter = std::string(Tail.substr(0, End));
      Tail = End == std::string_view::npos ? std::string_view()
                                           : Tail.substr(End);
    }
    if (!Tail.empty() && Tail.front() == ':') {
      Tail.remove_prefix(1);
      size_t End = Tail.find_first_of("@~");
      C.Arg = std::strtoll(std::string(Tail.substr(0, End)).c_str(),
                           nullptr, 10);
      Tail = End == std::string_view::npos ? std::string_view()
                                           : Tail.substr(End);
    }
    if (!Tail.empty() && Tail.front() == '@') {
      Tail.remove_prefix(1);
      size_t End = Tail.find_first_of("~");
      C.NthHit = std::strtoull(std::string(Tail.substr(0, End)).c_str(),
                               nullptr, 10);
      if (C.NthHit == 0)
        return Diagnostic(formatString(
            "bad fault spec clause '%s': @n is 1-based and must be positive",
            std::string(Raw).c_str()));
      Tail = End == std::string_view::npos ? std::string_view()
                                           : Tail.substr(End);
    }
    if (!Tail.empty() && Tail.front() == '~') {
      C.Probability =
          std::strtod(std::string(Tail.substr(1)).c_str(), nullptr);
      if (C.Probability < 0.0 || C.Probability > 1.0)
        return Diagnostic(formatString(
            "bad fault spec clause '%s': ~p must be in [0, 1]",
            std::string(Raw).c_str()));
      Tail = std::string_view();
    }
    if (!Tail.empty())
      return Diagnostic(formatString(
          "bad fault spec clause '%s': trailing '%s'",
          std::string(Raw).c_str(), std::string(Tail).c_str()));
    Clauses.push_back(std::move(C));
  }

  Impl &I = *impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  I.Spec = Spec;
  I.Seed = Seed;
  I.Clauses = std::move(Clauses);
  Armed.store(!I.Clauses.empty(), std::memory_order_relaxed);
  return ErrorOrVoid::success();
}

std::string FaultPlan::spec() {
  Impl &I = *impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  return I.Spec;
}

bool FaultPlan::shouldFire(FaultSite Site, std::string_view Key,
                           int64_t *ArgOut) {
  Impl &I = *impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  for (Clause &C : I.Clauses) {
    if (C.Site != Site)
      continue;
    if (!C.Filter.empty() && C.Filter != Key)
      continue;
    bool Fire = true;
    if (C.NthHit > 0)
      Fire = ++C.Hits == C.NthHit;
    else if (C.Probability >= 0.0)
      Fire = decisionUnit(I.Seed, Site, Key) < C.Probability;
    if (Fire) {
      if (ArgOut)
        *ArgOut = C.Arg;
      return true;
    }
  }
  return false;
}
