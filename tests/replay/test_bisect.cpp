#include "replay/bisect.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "store/codec.hpp"
#include "store/hash.hpp"
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

/// Installs a store rooted at `root` as the active store for its lifetime.
class ScopedStore {
 public:
  explicit ScopedStore(const fs::path& root)
      : store_(store::ObjectStore::Config{root}) {
    store::set_active_store(&store_);
  }
  ~ScopedStore() { store::set_active_store(nullptr); }
  ScopedStore(const ScopedStore&) = delete;
  ScopedStore& operator=(const ScopedStore&) = delete;

  store::ArtifactStore& get() { return store_; }

 private:
  store::ArtifactStore store_;
};

/// A fresh directory under the temp dir, named after the running test and
/// removed at scope exit.
class TempRoot {
 public:
  TempRoot()
      : path_(fs::temp_directory_path() /
              ("anacin_bisect_" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name()))) {
    fs::remove_all(path_);
  }
  ~TempRoot() { fs::remove_all(path_); }
  TempRoot(const TempRoot&) = delete;
  TempRoot& operator=(const TempRoot&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// The file of `config`'s bisection object in the store at `root`.
fs::path outcome_file(const fs::path& root, const BisectConfig& config) {
  const std::string hex =
      store::ArtifactStore::bisection_key(
          config.kernel_spec, config.label_policy,
          store::ArtifactStore::run_key(config.pattern, config.shape,
                                        config.record_sim),
          config.replay_seed, config.target_fraction)
          .to_hex();
  return root / "objects" / hex.substr(0, 2) / hex.substr(2);
}

/// What one bisection cost: simulations, feature extractions and store
/// objects rejected as corrupt.
struct Work {
  std::uint64_t sims = 0;
  std::uint64_t features = 0;
  std::uint64_t corrupt = 0;
};

std::string bisect_json(const BisectConfig& config, ThreadPool& pool,
                        Work* work = nullptr) {
  obs::Counter& sims = obs::counter("sim.engine.runs");
  obs::Counter& features = obs::counter("kernels.feature_tasks");
  obs::Counter& corrupt = obs::counter("store.corrupt");
  const Work before{sims.value(), features.value(), corrupt.value()};
  const std::string json = bisect_to_json(config, bisect(config, pool)).dump();
  if (work != nullptr) {
    *work = {sims.value() - before.sims, features.value() - before.features,
             corrupt.value() - before.corrupt};
  }
  return json;
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Bisect, StoreBackedBisectionMatchesInProcessAndWarmRuns) {
  ThreadPool pool;
  const BisectConfig config = race_config();
  const std::string plain_json = bisect_json(config, pool);

  const TempRoot root;
  ScopedStore active(root.path());
  Work cold_work;
  const std::string cold_json = bisect_json(config, pool, &cold_work);
  const std::map<std::string, std::uint64_t> cold_kinds =
      active.get().objects().stats().kind_counts;
  Work warm_work;
  const std::string warm_json = bisect_json(config, pool, &warm_work);

  // Feature census: the cold bisection extracts each candidate replay's
  // features and the reference's exactly once.
  const auto candidates = static_cast<std::uint64_t>(
      json::parse(cold_json).at("candidates").as_int());
  EXPECT_GT(candidates, 0u);
  EXPECT_EQ(cold_work.features, candidates + 1);
  // In-process candidates store nothing: the reference run, its schedule
  // and features, and the bisection's outcome are the only objects.
  const std::map<std::string, std::uint64_t> expected_kinds = {
      {"run", 1}, {"schedule", 1}, {"features", 1}, {"bisection", 1}};
  EXPECT_EQ(cold_kinds, expected_kinds);

  // A store changes nothing but the work: the warm pass reads the outcome
  // and replays, simulates and embeds nothing.
  EXPECT_EQ(cold_json, plain_json);
  EXPECT_EQ(warm_json, cold_json);
  EXPECT_EQ(warm_work.sims, 0u);
  EXPECT_EQ(warm_work.features, 0u);
}

TEST(Bisect, OutcomeKeyCoversTheTargetButNotTheSliceWindow) {
  ThreadPool pool;
  const BisectConfig config = race_config();
  const TempRoot root;
  ScopedStore active(root.path());
  const std::string cold_json = bisect_json(config, pool);

  // Another target steers the search elsewhere: its candidates replay
  // again (the reference is still a hit).
  BisectConfig other_target = config;
  other_target.target_fraction = 0.5;
  Work target_work;
  const std::string target_json =
      bisect_json(other_target, pool, &target_work);
  EXPECT_GT(target_work.sims, 0u);
  EXPECT_EQ(target_work.sims,
            static_cast<std::uint64_t>(
                json::parse(target_json).at("candidates").as_int()));

  // Another slice window only relabels the report: no replay, and the same
  // bytes as a bisection without a store at that window.
  BisectConfig other_window = config;
  other_window.slice_window = 3;
  Work window_work;
  const std::string window_json =
      bisect_json(other_window, pool, &window_work);
  EXPECT_EQ(window_work.sims, 0u);
  EXPECT_EQ(window_work.features, 0u);
  store::set_active_store(nullptr);
  EXPECT_EQ(window_json, bisect_json(other_window, pool));
  // The window does move this report's slices, so the warm pass did
  // relabel the stored outcome.
  EXPECT_NE(json::parse(window_json).at("report").dump(),
            json::parse(cold_json).at("report").dump());
}

TEST(Bisect, CorruptOutcomeIsRecomputedNotServed) {
  ThreadPool pool;
  const BisectConfig config = race_config();
  const TempRoot root;
  ScopedStore active(root.path());
  const std::string cold_json = bisect_json(config, pool);
  const fs::path file = outcome_file(root.path(), config);
  ASSERT_TRUE(fs::exists(file));
  const std::vector<std::uint8_t> good = read_bytes(file);

  // A flipped payload byte fails the checksum.
  std::vector<std::uint8_t> flipped = good;
  flipped[store::kEnvelopeSize + 3] ^= 0x40;
  write_bytes(file, flipped);
  Work work;
  EXPECT_EQ(bisect_json(config, pool, &work), cold_json);
  EXPECT_EQ(work.corrupt, 1u);
  EXPECT_GT(work.sims, 0u);
  EXPECT_EQ(read_bytes(file), good);

  // A checksummed object whose last minimal index lies past the schedule
  // decodes, but the load rejects it. Payload: full_gap, achieved, rounds,
  // candidates, the index count, then the indices, 8 bytes each.
  const store::EncodedBisection outcome = store::decode_bisection(good);
  ASSERT_FALSE(outcome.minimal.empty());
  const std::uint64_t total = static_cast<std::uint64_t>(
      json::parse(cold_json).at("total_matches").as_int());
  std::vector<std::uint8_t> out_of_range = good;
  const std::size_t last =
      store::kEnvelopeSize + 40 + 8 * (outcome.minimal.size() - 1);
  for (std::size_t i = 0; i < 8; ++i) {
    out_of_range[last + i] = static_cast<std::uint8_t>(total >> (8 * i));
  }
  store::Fnv1a checksum;
  checksum.update(out_of_range.data() + store::kEnvelopeSize,
                  out_of_range.size() - store::kEnvelopeSize);
  // The envelope's checksum field: offset 16, little-endian.
  for (std::size_t i = 0; i < 8; ++i) {
    out_of_range[16 + i] =
        static_cast<std::uint8_t>(checksum.value() >> (8 * i));
  }
  ASSERT_EQ(store::decode_bisection(out_of_range).minimal.back(), total);
  write_bytes(file, out_of_range);
  EXPECT_EQ(bisect_json(config, pool, &work), cold_json);
  EXPECT_EQ(work.corrupt, 1u);
  EXPECT_GT(work.sims, 0u);
  EXPECT_EQ(read_bytes(file), good);
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
