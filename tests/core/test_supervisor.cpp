#include "core/supervisor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/fault_plan.hpp"

namespace anacin::core {
namespace {

// Policies use base_backoff_us = 0 throughout so retry tests don't sleep.
RetryPolicy fast_policy(int max_retries, double deadline_ms = 0.0) {
  RetryPolicy policy;
  policy.max_retries = max_retries;
  policy.base_backoff_us = 0;
  policy.run_deadline_ms = deadline_ms;
  return policy;
}

TEST(Supervisor, SuccessFirstAttempt) {
  const Supervisor supervisor(fast_policy(3), 1);
  int calls = 0;
  const UnitReport report = supervisor.run("run:0", [&] { ++calls; });
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(report.error.empty());
  EXPECT_EQ(supervisor.retries_performed(), 0u);
}

TEST(Supervisor, TransientFailureRetriesUntilSuccess) {
  const Supervisor supervisor(fast_policy(3), 1);
  int calls = 0;
  const UnitReport report = supervisor.run("run:0", [&] {
    if (++calls < 3) throw TransientError("flaky");
  });
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(supervisor.retries_performed(), 2u);
}

TEST(Supervisor, TransientFailureExhaustsRetries) {
  const Supervisor supervisor(fast_policy(2), 1);
  int calls = 0;
  const UnitReport report =
      supervisor.run("run:0", [&] { ++calls; throw TransientError("flaky"); });
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.transient);
  EXPECT_EQ(report.attempts, 3);  // 1 attempt + 2 retries
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(report.error, "flaky");
}

TEST(Supervisor, PermanentFailureNeverRetries) {
  const Supervisor supervisor(fast_policy(5), 1);
  int calls = 0;
  const UnitReport report = supervisor.run(
      "run:0", [&] { ++calls; throw PermanentError("broken"); });
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.transient);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(supervisor.retries_performed(), 0u);
}

TEST(Supervisor, UntypedExceptionIsPermanent) {
  const Supervisor supervisor(fast_policy(5), 1);
  const UnitReport report =
      supervisor.run("run:0", [] { throw std::runtime_error("surprise"); });
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.transient);
  EXPECT_EQ(report.attempts, 1);
}

TEST(Supervisor, DeadlineExceededIsTransientAndRetries) {
  // 1 ms deadline; a 20 ms body makes every attempt blow it.
  const Supervisor supervisor(fast_policy(1, /*deadline_ms=*/1.0), 1);
  int calls = 0;
  const UnitReport report = supervisor.run("slow", [&] {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.transient);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(calls, 2);
  EXPECT_NE(report.error.find("deadline"), std::string::npos);
}

TEST(Supervisor, DeadlineNotTriggeredByFastWork) {
  const Supervisor supervisor(fast_policy(0, /*deadline_ms=*/5000.0), 1);
  const UnitReport report = supervisor.run("fast", [] {});
  EXPECT_TRUE(report.ok);
}

// The fault plan's unit domain: attempt hooks run inside Supervisor::run,
// body hooks wherever the unit executes.

TEST(FailureInjector, TransientSpecFailsFirstNAttempts) {
  const support::ScopedFaultPlan plan("unit.run:2=transient:3");
  const Supervisor supervisor(fast_policy(5), 1);
  int calls = 0;
  const UnitReport report = supervisor.run("run:2", [&] { ++calls; });
  EXPECT_TRUE(report.ok);
  // Attempts 1..3 are injected failures before the work runs at all.
  EXPECT_EQ(report.attempts, 4);
  EXPECT_EQ(calls, 1);
}

TEST(FailureInjector, OnlyNamedUnitIsAffected) {
  const support::ScopedFaultPlan plan("unit.run:7=permanent");
  const Supervisor supervisor(fast_policy(0), 1);
  EXPECT_TRUE(supervisor.run("run:6", [] {}).ok);
  EXPECT_FALSE(supervisor.run("run:7", [] {}).ok);
}

TEST(FailureInjector, WildcardMatchesAnyUnitWithoutExactEntry) {
  // "*" hits whatever unit comes along — how tests fell a fleet agent on
  // its first unit when unit placement is racy — while an exact entry
  // still wins over the wildcard.
  const support::ScopedFaultPlan plan(
      "unit.*=permanent,unit.run:3=transient:0");
  const Supervisor supervisor(fast_policy(0), 1);
  EXPECT_FALSE(supervisor.run("run:1", [] {}).ok);
  EXPECT_FALSE(supervisor.run("reference", [] {}).ok);
  EXPECT_TRUE(supervisor.run("run:3", [] {}).ok);
}

TEST(FailureInjector, MalformedSpecsThrowConfigError) {
  using support::FaultPlan;
  EXPECT_THROW(FaultPlan::parse("unit.nonsense"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("unit.u=explode"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("unit.u=transient:abc"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("unit.u=sleep:-5"), ConfigError);
}

TEST(FailureInjector, EmptySpecInjectsNothing) {
  using support::FaultPlan;
  EXPECT_TRUE(FaultPlan{}.units.empty());
  EXPECT_TRUE(FaultPlan::parse("").units.empty());
  EXPECT_FALSE(FaultPlan::parse("unit.u=permanent").units.empty());
  // No plan installed: every hook is inert.
  support::install_fault_plan(std::nullopt);
  support::faults::on_attempt("u", 1);
  support::faults::on_unit_body("u");
}

TEST(FailureInjector, CrashSpecParsesSignalNames) {
  using support::FaultPlan;
  EXPECT_EQ(FaultPlan::parse("unit.run:1=crash:SEGV").units.at("run:1")
                .crash_signal,
            SIGSEGV);
  const FaultPlan two = FaultPlan::parse("unit.run:1=crash:KILL,"
                                         "unit.run:2=crash:sigxcpu");
  EXPECT_EQ(two.units.at("run:1").crash_signal, SIGKILL);
  EXPECT_EQ(two.units.at("run:2").crash_signal, SIGXCPU);
  EXPECT_THROW(FaultPlan::parse("unit.run:1=crash:NOTASIGNAL"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("unit.run:1=crash"), ConfigError);
}

TEST(FailureInjector, HangSpecParsesSleepAndStop) {
  using support::FaultPlan;
  EXPECT_EQ(FaultPlan::parse("unit.run:2=sleep:500").units.at("run:2")
                .sleep_ms,
            500.0);
  EXPECT_TRUE(FaultPlan::parse("unit.run:2=stop").units.at("run:2").stop);
  EXPECT_THROW(FaultPlan::parse("unit.run:2=sleep:-5"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("unit.run:2=sleep:abc"), ConfigError);
}

TEST(FailureInjector, ExecutionHooksIgnoreOtherUnits) {
  // Hooks for run:9 must be inert for every other unit — and a sleep hook
  // applied in-process returns normally (the crash hooks are exercised in
  // worker children by the proc/ tests; raising here would kill the test).
  const support::ScopedFaultPlan plan(
      "unit.run:9=sleep:1,unit.run:8=crash:KILL");
  const auto sleeps = [] {
    const auto counters = support::faults::counters();
    const auto it = counters.find("faults.unit.sleep");
    return it == counters.end() ? 0 : it->second;
  };
  const std::uint64_t before = sleeps();
  support::faults::on_unit_body("run:0");
  support::faults::on_unit_body("reference");
  EXPECT_EQ(sleeps(), before);
  support::faults::on_unit_body("run:9");
  EXPECT_EQ(sleeps(), before + 1);
}

TEST(Supervisor, RetryScheduleIsDeterministic) {
  // Same seed + same injected schedule => identical attempt counts and
  // retry totals across repeated executions (the acceptance criterion for
  // reproducible retried campaigns).
  const auto run_campaign_like = [] {
    const support::ScopedFaultPlan plan(
        "unit.a=transient:2,unit.b=transient:1");
    const Supervisor supervisor(fast_policy(4), 42);
    std::vector<int> attempts;
    for (const std::string unit : {"a", "b", "c"}) {
      attempts.push_back(supervisor.run(unit, [] {}).attempts);
    }
    attempts.push_back(static_cast<int>(supervisor.retries_performed()));
    return attempts;
  };
  EXPECT_EQ(run_campaign_like(), run_campaign_like());
}

TEST(Supervisor, ConcurrentRunsAreSafe) {
  const Supervisor supervisor(fast_policy(1), 1);
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const UnitReport report =
          supervisor.run("run:" + std::to_string(t), [] {});
      if (report.ok) ++ok;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), 8);
}

}  // namespace
}  // namespace anacin::core
