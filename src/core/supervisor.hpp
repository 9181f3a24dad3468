#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "support/error.hpp"

namespace anacin::core {

/// How the run supervisor treats failing work units. Defaults are
/// fail-fast and retry-free, matching the historical behavior exactly.
struct RetryPolicy {
  /// Retries *after* the first attempt; only transient failures
  /// (TransientError and subclasses, including DeadlineExceeded) retry.
  int max_retries = 0;
  /// First backoff duration; doubles per retry, scaled by a deterministic
  /// jitter in [0.5, 1.5) derived from the campaign seed and unit id so a
  /// retried campaign is reproducible. 0 disables sleeping entirely.
  std::uint64_t base_backoff_us = 1000;
  /// Per-attempt wall-clock deadline in milliseconds; an attempt that runs
  /// longer fails with DeadlineExceeded (detected when the attempt
  /// returns — the supervisor never preempts running work). 0 = none.
  double run_deadline_ms = 0.0;
};

/// Outcome of one supervised work unit.
struct UnitReport {
  bool ok = false;
  /// Attempts made (>= 1); attempts - 1 of them failed transiently.
  int attempts = 0;
  /// what() of the final failure; empty on success.
  std::string error;
  /// True when the final failure was transient (retries exhausted) rather
  /// than permanent.
  bool transient = false;
  /// Post-mortem details when the final failure carried them (worker-child
  /// deaths under --isolate=process; see support/error.hpp).
  UnitTriage triage;
  bool has_triage = false;
};

/// Wraps every campaign work unit (per-run simulation, reference run,
/// kernel-distance pair) with the typed error taxonomy, a per-attempt
/// wall-clock deadline, and seeded exponential-backoff retries. Every
/// attempt first runs the installed fault plan's attempt hook
/// (support/fault_plan.hpp). Thread safe: run() may be called
/// concurrently from pool workers.
class Supervisor {
public:
  /// `campaign_seed` feeds the deterministic backoff jitter, so identical
  /// (seed, injected-failure schedule) pairs retry identically.
  Supervisor(RetryPolicy policy, std::uint64_t campaign_seed);

  const RetryPolicy& policy() const { return policy_; }

  /// Execute `work`, retrying transient failures per the policy. Never
  /// throws for unit failures — the report carries the outcome and the
  /// caller chooses fail-fast (throw) or keep-going (quarantine).
  UnitReport run(const std::string& unit_id,
                 const std::function<void()>& work) const;

  /// Total transient retries performed by this supervisor (for the
  /// resilience.retries counter and determinism tests).
  std::uint64_t retries_performed() const;

private:
  std::uint64_t backoff_us(const std::string& unit_id, int attempt) const;

  RetryPolicy policy_;
  std::uint64_t campaign_seed_ = 0;
  mutable std::mutex mutex_;
  mutable std::uint64_t retries_ = 0;
};

}  // namespace anacin::core
