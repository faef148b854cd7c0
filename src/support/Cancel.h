//===- Cancel.h - Deadlines and cooperative cancellation -------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation for the serving layer. A request carries a
/// Cancellation (an optional wall-clock Deadline plus up to two CancelToken
/// sources: the caller's and the owning session's); long-running loops poll
/// a CancelCheck at natural checkpoints — between pipeline passes, every N
/// worklist pops in copy elimination, per loop iteration in the agent
/// schedule's expansion, every N scheduling steps in the simulator and the
/// CPU lowering, and at tuner round boundaries.
///
/// Cost model: tokens are relaxed atomic loads checked on every poll; the
/// clock (the expensive part) is read only every Stride-th poll, so a
/// checkpoint in a hot loop costs one predictable branch plus an occasional
/// steady_clock read. Code running without a Cancellation passes nullptr
/// and pays a single null test — the golden parity suites see bit-identical
/// behavior because an absent Cancellation changes nothing at all.
///
/// A checkpoint that fires produces a structured Diagnostic
/// (Code::DeadlineExceeded or Code::Cancelled) through cancelDiagnostic();
/// callers propagate it like any other recoverable error, and the caches
/// (kernel cache, cost cache) refuse to memoize those codes — see
/// Diagnostic::isTransient.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SUPPORT_CANCEL_H
#define CYPRESS_SUPPORT_CANCEL_H

#include "support/Error.h"

#include <atomic>
#include <chrono>

namespace cypress {

/// A one-way latch a caller flips to abandon in-flight work. Safe to share
/// across threads; cancellation is observed at the next checkpoint, never
/// preemptively.
class CancelToken {
public:
  void cancel() { Flag.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return Flag.load(std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

/// An absolute wall-clock cutoff. Default-constructed deadlines are
/// inactive (never expire), so plumbing one unconditionally costs nothing.
class Deadline {
public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  static Deadline never() { return Deadline(); }
  static Deadline at(Clock::time_point When) {
    Deadline D;
    D.At = When;
    D.Has = true;
    return D;
  }
  static Deadline afterMicros(double Micros) {
    return at(Clock::now() + std::chrono::microseconds(
                                 static_cast<int64_t>(Micros)));
  }
  static Deadline afterMillis(double Millis) {
    return afterMicros(Millis * 1000.0);
  }

  bool active() const { return Has; }
  bool expired() const { return Has && Clock::now() >= At; }

  /// Microseconds until expiry (negative once past); +inf semantics are
  /// approximated with a large value for inactive deadlines.
  double remainingMicros() const {
    if (!Has)
      return 1e18;
    return std::chrono::duration<double, std::micro>(At - Clock::now())
        .count();
  }

private:
  Clock::time_point At{};
  bool Has = false;
};

/// The full cancellation surface of one request: a deadline plus the
/// caller's token plus (optionally) a session-wide token, so
/// CompilerSession::shutdown(Abort) reaches into every in-flight request
/// without the caller wiring anything. Cheap to copy; the tokens are
/// non-owning and must outlive the request.
struct Cancellation {
  Deadline DeadlineAt;
  const CancelToken *Token = nullptr;
  const CancelToken *SessionToken = nullptr;

  Cancellation() = default;
  Cancellation(Deadline D, const CancelToken *Token = nullptr,
               const CancelToken *SessionToken = nullptr)
      : DeadlineAt(D), Token(Token), SessionToken(SessionToken) {}

  /// False when polling could never fire — the zero-overhead fast path.
  bool active() const {
    return DeadlineAt.active() || Token != nullptr || SessionToken != nullptr;
  }
};

/// Builds the structured diagnostic for a checkpoint that fired. \p What
/// names the work that was abandoned ("compilation", "simulation", ...).
inline Diagnostic cancelDiagnostic(Diagnostic::Code Code,
                                   const std::string &What) {
  return Diagnostic(Code,
                    (Code == Diagnostic::Code::Cancelled
                         ? "request cancelled during "
                         : "deadline exceeded during ") +
                        What);
}

/// The poll object hot loops actually touch. One CancelCheck per thread of
/// work (it holds a stride counter, so sharing one across threads would
/// race); all checks against the same Cancellation agree on when to stop.
/// Once a check fires it latches, so callers may poll again on the unwind
/// path without re-reading the clock.
class CancelCheck {
public:
  CancelCheck() = default;
  explicit CancelCheck(const Cancellation &C, unsigned Stride = 256)
      : C(C), Stride(C.active() ? Stride : 0) {}

  bool enabled() const { return Stride != 0; }

  /// Cheap strided checkpoint for hot loops: tokens every call, clock
  /// every Stride-th call.
  bool shouldStop() {
    if (Stride == 0 || Stopped)
      return Stopped;
    if (tokensFired())
      return true;
    if (++Count >= Stride) {
      Count = 0;
      return pollDeadline();
    }
    return false;
  }

  /// Exact checkpoint for loop boundaries (between passes, between tuner
  /// rounds): always reads the clock.
  bool shouldStopNow() {
    if (Stride == 0 || Stopped)
      return Stopped;
    if (tokensFired())
      return true;
    return pollDeadline();
  }

  /// Why the check fired; only meaningful after shouldStop* returned true.
  Diagnostic::Code code() const { return Why; }

  /// The structured diagnostic for this firing (see cancelDiagnostic).
  Diagnostic diagnostic(const std::string &What) const {
    return cancelDiagnostic(Why, What);
  }

private:
  bool tokensFired() {
    if ((C.Token && C.Token->cancelled()) ||
        (C.SessionToken && C.SessionToken->cancelled())) {
      Stopped = true;
      Why = Diagnostic::Code::Cancelled;
      return true;
    }
    return false;
  }
  bool pollDeadline() {
    if (C.DeadlineAt.expired()) {
      Stopped = true;
      Why = Diagnostic::Code::DeadlineExceeded;
      return true;
    }
    return false;
  }

  Cancellation C;
  unsigned Stride = 0; ///< 0 = inert (no sources to poll).
  unsigned Count = 0;
  bool Stopped = false;
  Diagnostic::Code Why = Diagnostic::Code::Internal;
};

} // namespace cypress

#endif // CYPRESS_SUPPORT_CANCEL_H
