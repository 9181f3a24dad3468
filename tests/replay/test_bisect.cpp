#include "replay/bisect.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "obs/obs.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace anacin::replay {
namespace {

namespace fs = std::filesystem;

/// message_race at full non-determinism: every receive on rank 0 is a
/// wildcard, so the recorded schedule has (ranks - 1) * iterations entries
/// and the seed-to-seed kernel distance is comfortably nonzero.
BisectConfig race_config() {
  BisectConfig config;
  config.pattern = "message_race";
  config.shape.num_ranks = 8;
  config.shape.iterations = 1;
  config.record_sim.num_ranks = 8;
  config.record_sim.seed = 11;
  config.record_sim.network.nd_fraction = 1.0;
  config.replay_seed = 777;
  return config;
}

TEST(Bisect, RejectsDegenerateConfigs) {
  ThreadPool pool;
  {
    BisectConfig config = race_config();
    config.replay_seed = config.record_sim.seed;
    EXPECT_THROW(bisect(config, pool), ConfigError);
  }
  {
    BisectConfig config = race_config();
    config.target_fraction = 0.0;
    EXPECT_THROW(bisect(config, pool), ConfigError);
  }
  {
    BisectConfig config = race_config();
    config.target_fraction = 1.5;
    EXPECT_THROW(bisect(config, pool), ConfigError);
  }
  {
    BisectConfig config = race_config();
    config.slice_window = 0;
    EXPECT_THROW(bisect(config, pool), ConfigError);
  }
}

TEST(Bisect, ConvergesOnMessageRaceAndNamesTheRacyCallsite) {
  ThreadPool pool;
  const BisectConfig config = race_config();
  const BisectResult result = bisect(config, pool);

  ASSERT_GT(result.schedule.total_matches(), 0u);
  ASSERT_GT(result.full_gap, 0.0);
  ASSERT_FALSE(result.minimal.empty());
  // The converged set reproduces the configured fraction of the gap...
  EXPECT_GE(result.achieved, config.target_fraction * result.full_gap);
  // ...and is genuinely minimal with respect to the recording.
  EXPECT_LE(result.minimal.size(), result.schedule.total_matches());
  EXPECT_GT(result.rounds, 0u);
  EXPECT_GT(result.candidates, 0u);

  ASSERT_EQ(result.report.size(), result.minimal.size());
  for (const RacyMatch& match : result.report) {
    // Every racy match is one of rank 0's wildcard receives inside the
    // race_recv scope — the report names the paper's root-cause callsite.
    EXPECT_EQ(match.callsite, "message_race>race_recv>MPI_Recv");
    EXPECT_EQ(match.rank, 0);
    EXPECT_GE(match.source, 1);
  }
  for (std::size_t i = 1; i < result.report.size(); ++i) {
    EXPECT_GE(result.report[i - 1].contribution, result.report[i].contribution);
  }
}

TEST(Bisect, IsDeterministicAcrossInvocations) {
  ThreadPool pool;
  const BisectConfig config = race_config();
  const BisectResult first = bisect(config, pool);
  const BisectResult second = bisect(config, pool);
  EXPECT_EQ(first.minimal, second.minimal);
  EXPECT_EQ(first.rounds, second.rounds);
  EXPECT_EQ(first.candidates, second.candidates);
  EXPECT_DOUBLE_EQ(first.full_gap, second.full_gap);
  EXPECT_DOUBLE_EQ(first.achieved, second.achieved);
}

TEST(Bisect, StoreBackedBisectionMatchesInProcessAndWarmRuns) {
  const fs::path root =
      fs::temp_directory_path() / "anacin_bisect_store_test";
  fs::remove_all(root);
  ThreadPool pool;
  const BisectConfig config = race_config();
  const BisectResult plain = bisect(config, pool);

  // Feature census: the cold bisection extracts each candidate replay's
  // features and the reference's exactly once; the warm one answers every
  // candidate from its stored distance.
  obs::Counter& feature_tasks = obs::counter("kernels.feature_tasks");
  BisectResult cold;
  BisectResult warm;
  std::uint64_t cold_extractions = 0;
  std::uint64_t warm_extractions = 0;
  std::map<std::string, std::uint64_t> cold_kinds;
  {
    store::ArtifactStore artifact_store(store::ObjectStore::Config{root});
    store::set_active_store(&artifact_store);
    std::uint64_t before = feature_tasks.value();
    cold = bisect(config, pool);
    cold_extractions = feature_tasks.value() - before;
    cold_kinds = artifact_store.objects().stats().kind_counts;
    before = feature_tasks.value();
    warm = bisect(config, pool);
    warm_extractions = feature_tasks.value() - before;
    store::set_active_store(nullptr);
  }
  fs::remove_all(root);
  EXPECT_EQ(cold_extractions, cold.candidates + 1);
  EXPECT_EQ(warm_extractions, 0u);
  // A candidate stores only its distance: the reference run, its schedule
  // and its features are the only other objects.
  const std::map<std::string, std::uint64_t> expected_kinds = {
      {"run", 1}, {"schedule", 1}, {"features", 1},
      {"distances", cold.candidates}};
  EXPECT_EQ(cold_kinds, expected_kinds);

  // Store-cached candidate replays produce the same bisection as direct
  // in-process evaluation, and a warm store changes nothing but the work.
  EXPECT_EQ(cold.minimal, plain.minimal);
  EXPECT_DOUBLE_EQ(cold.full_gap, plain.full_gap);
  EXPECT_DOUBLE_EQ(cold.achieved, plain.achieved);
  EXPECT_EQ(warm.minimal, plain.minimal);
  EXPECT_DOUBLE_EQ(warm.achieved, plain.achieved);
}

TEST(Bisect, JsonDocumentCarriesTheRankedReport) {
  ThreadPool pool;
  const BisectConfig config = race_config();
  const BisectResult result = bisect(config, pool);
  const json::Value doc = bisect_to_json(config, result);
  EXPECT_EQ(doc.at("schema").as_string(), "anacin-bisect-1");
  EXPECT_EQ(doc.at("pattern").as_string(), "message_race");
  EXPECT_EQ(doc.at("minimal").size(), result.minimal.size());
  ASSERT_EQ(doc.at("report").size(), result.report.size());
  ASSERT_GT(doc.at("report").size(), 0u);
  EXPECT_EQ(doc.at("report").at(0).at("callsite").as_string(),
            "message_race>race_recv>MPI_Recv");
  EXPECT_EQ(doc.at("replay_seed").as_string(), "777");
}

TEST(Bisect, DeterministicProgramYieldsEmptyMinimalSet) {
  ThreadPool pool;
  BisectConfig config = race_config();
  config.pattern = "ping_pong";
  config.shape.num_ranks = 4;
  config.record_sim.num_ranks = 4;
  config.record_sim.network.nd_fraction = 0.0;
  const BisectResult result = bisect(config, pool);
  EXPECT_EQ(result.schedule.total_matches(), 0u);
  EXPECT_TRUE(result.minimal.empty());
  EXPECT_DOUBLE_EQ(result.full_gap, 0.0);
}

}  // namespace
}  // namespace anacin::replay
