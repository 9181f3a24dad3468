// Direct WorkerPool tests: dispatch round-trips, crash triage, resource
// limits, and the preemptive watchdog. These fork the real anacin binary
// (ANACIN_CLI_PATH) as `__worker` children, so they exercise the same
// fork/exec + pipe-protocol path as `--isolate=process`.

#include "proc/worker_pool.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/supervisor.hpp"
#include "proc/worker_main.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

#ifndef ANACIN_CLI_PATH
#error "ANACIN_CLI_PATH must point at the anacin executable"
#endif

namespace anacin::proc {
namespace {

namespace fs = std::filesystem;

/// Scoped environment variable: each worker child reads ANACIN_FAULT_PLAN
/// when it starts, so it must be set before the pool spawns and cleaned up
/// even when an EXPECT fails.
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
};

core::CampaignConfig small_campaign() {
  core::CampaignConfig config;
  config.pattern = "message_race";
  config.shape.num_ranks = 4;
  config.shape.iterations = 2;
  config.num_runs = 4;
  config.base_seed = 42;
  return config;
}

json::Value run_request(const core::CampaignConfig& config, int run_index) {
  const std::string unit = "run:" + std::to_string(run_index);
  return make_run_request(unit, config.pattern, config.shape,
                          config.sim_config_for_run(run_index));
}

class WorkerPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anacin_worker_pool_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  WorkerPoolConfig pool_config() const {
    WorkerPoolConfig config;
    config.worker_exe = ANACIN_CLI_PATH;
    config.store_dir = (dir_ / "store").string();
    return config;
  }

  fs::path dir_;
};

TEST(IsolationMode, ParsesKnownNamesAndRejectsUnknown) {
  EXPECT_EQ(isolation_mode_from_name("none"), IsolationMode::kNone);
  EXPECT_EQ(isolation_mode_from_name("process"), IsolationMode::kProcess);
  EXPECT_THROW(isolation_mode_from_name("container"), ConfigError);
  EXPECT_THROW(isolation_mode_from_name(""), ConfigError);
}

TEST_F(WorkerPoolTest, RunUnitRoundTripsThroughTheStore) {
  WorkerPool pool(pool_config());
  const core::CampaignConfig config = small_campaign();

  const json::Value reply = pool.execute("run:0", run_request(config, 0));
  EXPECT_EQ(reply.at("status").as_string(), "ok");
  const auto key = store::Digest::from_hex(reply.at("key").as_string());
  ASSERT_TRUE(key.has_value());
  // The child computed the same content-addressed key the parent would.
  EXPECT_EQ(*key, store::ArtifactStore::run_key(config.pattern, config.shape,
                                                config.sim_config_for_run(0)));

  // The artifact landed in the shared store, readable by the parent.
  store::ArtifactStore store({dir_ / "store"});
  EXPECT_TRUE(store.load_run(*key).has_value());

  // A warm re-dispatch answers identically (the child hits the store).
  const json::Value again = pool.execute("run:0", run_request(config, 0));
  EXPECT_EQ(again.dump(), reply.dump());
}

TEST_F(WorkerPoolTest, UnknownUnitTypeIsAPermanentFailure) {
  WorkerPool pool(pool_config());
  json::Value request = json::Value::object();
  request.set("unit", "bogus");
  request.set("type", "explode");
  try {
    pool.execute("bogus", request);
    FAIL() << "expected PermanentError";
  } catch (const PermanentError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown unit type"),
              std::string::npos);
  }
}

TEST_F(WorkerPoolTest, CrashTriageCarriesSignalAndPeakRss) {
  const EnvGuard crash("ANACIN_FAULT_PLAN", "unit.run:0=crash:KILL");
  WorkerPool pool(pool_config());
  const core::CampaignConfig config = small_campaign();
  try {
    pool.execute("run:0", run_request(config, 0));
    FAIL() << "expected WorkerCrashError";
  } catch (const WorkerCrashError& error) {
    EXPECT_EQ(error.triage().disposition, "crash");
    EXPECT_EQ(error.triage().signal, "SIGKILL");
    EXPECT_GT(error.triage().peak_rss_kib, 0);
    EXPECT_NE(std::string(error.what()).find("SIGKILL"), std::string::npos);
  }
}

TEST_F(WorkerPoolTest, RlimitBreachIsPermanentWithNoFutileRetries) {
  // SIGXCPU is what a real RLIMIT_CPU breach delivers; injecting it
  // exercises the same classification without burning CPU seconds.
  const EnvGuard crash("ANACIN_FAULT_PLAN", "unit.run:0=crash:XCPU");
  WorkerPool workers(pool_config());
  const core::CampaignConfig config = small_campaign();
  const json::Value request = run_request(config, 0);

  core::RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_backoff_us = 0;
  const core::Supervisor supervisor(policy, 1);
  int calls = 0;
  const core::UnitReport report = supervisor.run("run:0", [&] {
    ++calls;
    workers.execute("run:0", request);
  });
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.transient);
  EXPECT_EQ(report.attempts, 1) << "rlimit breaches must not retry";
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(report.has_triage);
  EXPECT_EQ(report.triage.disposition, "rlimit");
  EXPECT_EQ(report.triage.signal, "SIGXCPU");
}

TEST_F(WorkerPoolTest, WatchdogKillsHungChildWithinTwiceTheDeadline) {
  // The unit sleeps 60 s (heartbeating all the while); only the
  // preemptive wall-clock deadline can stop it.
  const EnvGuard hang("ANACIN_FAULT_PLAN", "unit.run:0=sleep:60000");
  WorkerPoolConfig config = pool_config();
  config.run_deadline_ms = 1000.0;
  WorkerPool pool(config);
  const core::CampaignConfig campaign = small_campaign();

  const auto start = std::chrono::steady_clock::now();
  try {
    pool.execute("run:0", run_request(campaign, 0));
    FAIL() << "expected WorkerDeadlineError";
  } catch (const DeadlineExceeded& error) {
    // Is-a DeadlineExceeded (the catch clause proves it), carries triage.
    const auto* triaged = dynamic_cast<const TriagedError*>(&error);
    ASSERT_NE(triaged, nullptr);
    EXPECT_EQ(triaged->triage().disposition, "deadline");
    EXPECT_NE(std::string(error.what()).find("watchdog"), std::string::npos);
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  // ~2x the deadline, with slack for child spawn and reap on loaded CI.
  EXPECT_LT(elapsed_ms, 6000.0);
}

TEST_F(WorkerPoolTest, HeartbeatStallIsDetectedAndKilled) {
  // SIGSTOP freezes the child including its heartbeat thread, so only the
  // stall detector can catch it — there is no deadline in this config.
  const EnvGuard hang("ANACIN_FAULT_PLAN", "unit.run:0=stop");
  WorkerPoolConfig config = pool_config();
  config.heartbeat_interval_ms = 20.0;
  config.heartbeat_timeout_ms = 750.0;
  WorkerPool pool(config);
  const core::CampaignConfig campaign = small_campaign();

  const auto start = std::chrono::steady_clock::now();
  try {
    pool.execute("run:0", run_request(campaign, 0));
    FAIL() << "expected WorkerDeadlineError";
  } catch (const WorkerDeadlineError& error) {
    EXPECT_EQ(error.triage().disposition, "heartbeat");
    EXPECT_GE(error.triage().heartbeat_age_ms, 750.0);
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_LT(elapsed_ms, 10'000.0);
}

TEST_F(WorkerPoolTest, NoChildOutlivesThePool) {
  std::vector<int> pids;
  {
    WorkerPool pool(pool_config());
    const core::CampaignConfig config = small_campaign();
    pool.execute("run:0", run_request(config, 0));
    pids = pool.live_pids();
    ASSERT_FALSE(pids.empty());
    for (const int pid : pids) {
      EXPECT_EQ(::kill(pid, 0), 0) << "worker should be alive while pooled";
    }
  }
  // The destructor drained and reaped every child.
  for (const int pid : pids) {
    errno = 0;
    EXPECT_EQ(::kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH);
  }
}

}  // namespace
}  // namespace anacin::proc
