// Campaign-level isolation tests: --isolate=process must change *where*
// work executes, never *what* it computes — isolated campaigns and
// bisections are byte-identical to in-process ones — and child deaths must
// surface as quarantined units with full crash triage in the report JSON.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "obs/obs.hpp"
#include "proc/worker_main.hpp"
#include "proc/worker_pool.hpp"
#include "replay/bisect.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

#ifndef ANACIN_CLI_PATH
#error "ANACIN_CLI_PATH must point at the anacin executable"
#endif

namespace anacin::core {
namespace {

namespace fs = std::filesystem;

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

CampaignConfig small_campaign(std::uint64_t base_seed) {
  CampaignConfig config;
  config.pattern = "message_race";
  config.shape.num_ranks = 4;
  config.shape.iterations = 2;
  config.num_runs = 4;
  config.base_seed = base_seed;
  return config;
}

/// Installs `store` as the active store (bisect reads it from there) and
/// uninstalls it on scope exit, also when the bisection throws.
class ActiveStore {
 public:
  explicit ActiveStore(store::ArtifactStore& store) {
    store::set_active_store(&store);
  }
  ~ActiveStore() { store::set_active_store(nullptr); }
  ActiveStore(const ActiveStore&) = delete;
  ActiveStore& operator=(const ActiveStore&) = delete;
};

/// Forwards every unit to `inner` and records the ids it was asked to run.
class RecordingExecutor : public proc::UnitExecutor {
 public:
  explicit RecordingExecutor(proc::UnitExecutor& inner) : inner_(inner) {}

  json::Value execute(const std::string& unit_id,
                      const json::Value& request) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      units_.push_back(unit_id);
    }
    return inner_.execute(unit_id, request);
  }

  std::vector<std::string> units() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return units_;
  }

 private:
  proc::UnitExecutor& inner_;
  mutable std::mutex mutex_;
  std::vector<std::string> units_;
};

/// message_race at full non-determinism: rank 0's receives are all
/// wildcards, so there is a gap to bisect.
replay::BisectConfig small_bisect() {
  replay::BisectConfig config;
  config.pattern = "message_race";
  config.shape.num_ranks = 6;
  config.shape.iterations = 1;
  config.record_sim.num_ranks = 6;
  config.record_sim.seed = 11;
  config.record_sim.network.nd_fraction = 1.0;
  config.replay_seed = 777;
  return config;
}

class IsolatedCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anacin_isolated_campaign_" +
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

  proc::WorkerPoolConfig pool_config(const std::string& store_name) const {
    proc::WorkerPoolConfig config;
    config.worker_exe = ANACIN_CLI_PATH;
    config.store_dir = (dir_ / store_name).string();
    return config;
  }

  fs::path dir_;
};

TEST_F(IsolatedCampaignTest, MatchesInProcessCampaignByteIdentically) {
  ThreadPool pool(2);
  const CampaignConfig config = small_campaign(2026);

  store::ArtifactStore plain_store({dir_ / "store-a"});
  const CampaignResult plain = run_campaign(config, pool, &plain_store);

  store::ArtifactStore iso_store({dir_ / "store-b"});
  proc::WorkerPool workers(pool_config("store-b"));
  ResilienceOptions resilience;
  resilience.executor = &workers;
  const CampaignResult isolated =
      run_campaign(config, pool, &iso_store, resilience);

  // Same bytes, not merely close numbers: every simulation and kernel
  // distance computed in a child matches the in-process computation.
  EXPECT_EQ(isolated.to_json().dump(), plain.to_json().dump());

  // Warm isolated re-run (children answer from the store): still identical.
  const CampaignResult warm =
      run_campaign(config, pool, &iso_store, resilience);
  EXPECT_EQ(warm.to_json().dump(), plain.to_json().dump());
}

TEST_F(IsolatedCampaignTest, BisectionMatchesInProcessWithOneUnitPerCandidate) {
  ThreadPool pool(2);
  const replay::BisectConfig config = small_bisect();

  store::ArtifactStore plain_store({dir_ / "store-a"});
  std::string plain_json;
  std::map<std::string, std::uint64_t> plain_kinds;
  {
    const ActiveStore active(plain_store);
    plain_json =
        replay::bisect_to_json(config, replay::bisect(config, pool)).dump();
    plain_kinds = plain_store.objects().stats().kind_counts;
  }

  store::ArtifactStore iso_store({dir_ / "store-b"});
  proc::WorkerPool workers(pool_config("store-b"));
  RecordingExecutor cold_executor(workers);
  const ActiveStore active(iso_store);
  const replay::BisectResult isolated =
      replay::bisect(config, pool, &cold_executor);

  // Same bytes, and the in-process objects (the reference run, its
  // schedule and features, the bisection's outcome) plus one distance per
  // candidate: the unit's result, which carries it back to this process.
  EXPECT_EQ(replay::bisect_to_json(config, isolated).dump(), plain_json);
  std::map<std::string, std::uint64_t> expected_kinds = plain_kinds;
  EXPECT_EQ(expected_kinds.count("distances"), 0u);
  expected_kinds["distances"] = isolated.candidates;
  EXPECT_EQ(iso_store.objects().stats().kind_counts, expected_kinds);

  // Each candidate is one `replay` unit, dispatched once.
  const std::vector<std::string> units = cold_executor.units();
  EXPECT_EQ(units.size(), isolated.candidates);
  EXPECT_EQ(std::set<std::string>(units.begin(), units.end()).size(),
            units.size());
  for (const std::string& unit : units) {
    EXPECT_EQ(unit.rfind("replay:", 0), 0u) << unit;
  }

  // A warm isolated re-run reads the outcome and dispatches nothing.
  RecordingExecutor warm_executor(workers);
  const replay::BisectResult warm =
      replay::bisect(config, pool, &warm_executor);
  EXPECT_EQ(replay::bisect_to_json(config, warm).dump(), plain_json);
  EXPECT_TRUE(warm_executor.units().empty());

  // A warm in-process re-run over the isolated store simulates nothing.
  obs::Counter& sims = obs::counter("sim.engine.runs");
  const std::uint64_t sims_before = sims.value();
  EXPECT_EQ(
      replay::bisect_to_json(config, replay::bisect(config, pool)).dump(),
      plain_json);
  EXPECT_EQ(sims.value(), sims_before);
}

TEST(ReplayRequest, ResultIsTheDistanceAndInputsAreScheduleAndFeatures) {
  proc::ReplayCandidate candidate;
  candidate.pattern = "message_race";
  candidate.shape.num_ranks = 4;
  candidate.sim.num_ranks = 4;
  candidate.sim.seed = 9;
  candidate.schedule = store::digest_string("schedule");
  candidate.freed = {0, 2};
  candidate.kernel_spec = "wl:2";
  candidate.reference = store::digest_string("reference");

  const json::Value request = proc::make_replay_request("replay:x", candidate);
  const store::Digest replay_run = store::ArtifactStore::replay_run_key(
      candidate.pattern, candidate.shape, candidate.sim, candidate.schedule,
      candidate.freed);
  EXPECT_EQ(request.at("result_key").as_string(),
            store::ArtifactStore::distance_key(candidate.kernel_spec,
                                               candidate.policy,
                                               candidate.reference, replay_run)
                .to_hex());
  EXPECT_EQ(proc::unit_input_keys(request),
            (std::vector<store::Digest>{
                candidate.schedule,
                store::ArtifactStore::features_key(candidate.kernel_spec,
                                                   candidate.policy,
                                                   candidate.reference)}));
}

TEST_F(IsolatedCampaignTest, IsolationRequiresAnArtifactStore) {
  ThreadPool pool(2);
  proc::WorkerPool workers(pool_config("store-x"));
  ResilienceOptions resilience;
  resilience.executor = &workers;
  EXPECT_THROW(
      run_campaign(small_campaign(1), pool, nullptr, resilience), Error);
}

TEST_F(IsolatedCampaignTest, CrashedAndHungUnitsAreQuarantinedWithTriage) {
  // run:1 dies by SIGKILL inside its child; run:2 hangs past the 1.5 s
  // watchdog deadline. Both must be quarantined — with a precise diagnosis
  // each — while the remaining units complete normally.
  const EnvGuard plan("ANACIN_FAULT_PLAN",
                      "unit.run:1=crash:KILL,unit.run:2=sleep:8000");

  ThreadPool pool(2);
  store::ArtifactStore store({dir_ / "store-c"});
  proc::WorkerPoolConfig pool_cfg = pool_config("store-c");
  pool_cfg.run_deadline_ms = 1500.0;
  proc::WorkerPool workers(pool_cfg);
  ResilienceOptions resilience;
  resilience.executor = &workers;
  resilience.keep_going = true;

  const CampaignResult result =
      run_campaign(small_campaign(7), pool, &store, resilience);

  EXPECT_FALSE(result.complete());
  ASSERT_EQ(result.quarantined.size(), 2u);

  const QuarantinedUnit* crashed = nullptr;
  const QuarantinedUnit* hung = nullptr;
  for (const QuarantinedUnit& unit : result.quarantined) {
    if (unit.unit == "run:1") crashed = &unit;
    if (unit.unit == "run:2") hung = &unit;
  }
  ASSERT_NE(crashed, nullptr);
  ASSERT_NE(hung, nullptr);

  ASSERT_TRUE(crashed->has_triage);
  EXPECT_EQ(crashed->triage.disposition, "crash");
  EXPECT_EQ(crashed->triage.signal, "SIGKILL");
  EXPECT_GT(crashed->triage.peak_rss_kib, 0);
  EXPECT_EQ(crashed->attempts, 1);

  ASSERT_TRUE(hung->has_triage);
  EXPECT_EQ(hung->triage.disposition, "deadline");
  EXPECT_NE(hung->error.find("watchdog"), std::string::npos);

  // The quarantine entries in the report JSON carry the triage verbatim:
  // signal name, peak RSS, and the stderr tail field.
  const json::Value crashed_doc = crashed->to_json();
  const json::Value* triage = crashed_doc.find("triage");
  ASSERT_NE(triage, nullptr);
  EXPECT_EQ(triage->at("disposition").as_string(), "crash");
  EXPECT_EQ(triage->at("signal").as_string(), "SIGKILL");
  EXPECT_GT(triage->at("peak_rss_kib").as_number(), 0.0);
  EXPECT_NE(triage->find("stderr_tail"), nullptr);

  // The surviving runs were simulated in children and measured normally.
  EXPECT_GT(result.measurement.distances.size(), 0u);
  EXPECT_GT(result.total_messages, 0u);
}

}  // namespace
}  // namespace anacin::core
