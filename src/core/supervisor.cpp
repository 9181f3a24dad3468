#include "core/supervisor.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "obs/obs.hpp"
#include "store/hash.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"

namespace anacin::core {

Supervisor::Supervisor(RetryPolicy policy, std::uint64_t campaign_seed)
    : policy_(policy), campaign_seed_(campaign_seed) {}

std::uint64_t Supervisor::backoff_us(const std::string& unit_id,
                                     int attempt) const {
  if (policy_.base_backoff_us == 0) return 0;
  // Exponential growth with deterministic jitter: the jitter stream is a
  // pure function of (campaign seed, unit id, attempt), so a re-run of the
  // same campaign with the same failure schedule backs off identically.
  const std::uint64_t unit_hash = store::digest_string(unit_id).lo;
  const std::uint64_t stream = hash_combine(
      hash_combine(mix64(campaign_seed_), unit_hash),
      static_cast<std::uint64_t>(attempt));
  const double jitter =
      0.5 + static_cast<double>(mix64(stream) >> 11) * 0x1.0p-53;
  const int exponent = attempt > 20 ? 20 : attempt - 1;
  const double scaled = static_cast<double>(policy_.base_backoff_us) *
                        static_cast<double>(1ull << exponent) * jitter;
  return static_cast<std::uint64_t>(scaled);
}

UnitReport Supervisor::run(const std::string& unit_id,
                           const std::function<void()>& work) const {
  static obs::Counter& units_counter = obs::counter("resilience.units");
  static obs::Counter& retries_counter = obs::counter("resilience.retries");
  static obs::Counter& transient_counter =
      obs::counter("resilience.transient_failures");
  static obs::Counter& permanent_counter =
      obs::counter("resilience.permanent_failures");
  static obs::Counter& deadline_counter =
      obs::counter("resilience.deadline_exceeded");
  units_counter.add(1);

  UnitReport report;
  const int max_attempts = 1 + (policy_.max_retries < 0 ? 0
                                                        : policy_.max_retries);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    report.attempts = attempt;
    try {
      const auto start = std::chrono::steady_clock::now();
      support::faults::on_attempt(unit_id, attempt);
      work();
      if (policy_.run_deadline_ms > 0.0) {
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (elapsed_ms > policy_.run_deadline_ms) {
          std::ostringstream os;
          os << "unit '" << unit_id << "' exceeded its deadline ("
             << elapsed_ms << " ms > " << policy_.run_deadline_ms << " ms)";
          throw DeadlineExceeded(os.str());
        }
      }
      report.ok = true;
      report.error.clear();
      return report;
    } catch (const TransientError& error) {
      // DeadlineExceeded lands here too (it is-a TransientError).
      transient_counter.add(1);
      if (dynamic_cast<const DeadlineExceeded*>(&error) != nullptr) {
        deadline_counter.add(1);
      }
      report.error = error.what();
      report.transient = true;
      if (const auto* triaged = dynamic_cast<const TriagedError*>(&error)) {
        report.triage = triaged->triage();
        report.has_triage = true;
      }
      if (attempt == max_attempts) return report;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++retries_;
      }
      retries_counter.add(1);
      const std::uint64_t sleep_us = backoff_us(unit_id, attempt);
      if (sleep_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      }
    } catch (const std::exception& error) {
      permanent_counter.add(1);
      report.error = error.what();
      report.transient = false;
      if (const auto* triaged =
              dynamic_cast<const TriagedError*>(&error)) {
        report.triage = triaged->triage();
        report.has_triage = true;
      }
      return report;
    }
  }
  return report;  // unreachable; loop always returns
}

std::uint64_t Supervisor::retries_performed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return retries_;
}

}  // namespace anacin::core
