#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/campaign.hpp"
#include "obs/obs.hpp"
#include "store/store.hpp"
#include "support/error.hpp"

namespace anacin::store {
namespace {

namespace fs = std::filesystem;

/// A run payload opens with six u64 counters; its event graph follows.
constexpr std::size_t kRunCounterBytes = 6 * 8;

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Every object file under `root`.
std::vector<fs::path> object_files(const fs::path& root) {
  std::vector<fs::path> files;
  for (const auto& shard : fs::directory_iterator(root / "objects")) {
    for (const auto& file : fs::directory_iterator(shard.path())) {
      files.push_back(file.path());
    }
  }
  return files;
}

/// The object files under `root` that hold a run, told by the kind field
/// of the envelope (offset 6, little-endian), even in a corrupt object.
std::vector<fs::path> run_object_files(const fs::path& root) {
  std::vector<fs::path> runs;
  for (const fs::path& file : object_files(root)) {
    const std::vector<std::uint8_t> bytes = read_bytes(file);
    if (bytes.size() >= kEnvelopeSize &&
        bytes[6] == static_cast<std::uint8_t>(Kind::kRun) && bytes[7] == 0) {
      runs.push_back(file);
    }
  }
  return runs;
}

core::CampaignConfig small_campaign(std::uint64_t base_seed) {
  core::CampaignConfig config;
  config.pattern = "message_race";
  config.shape.num_ranks = 4;
  config.shape.iterations = 2;
  config.num_runs = 5;
  config.base_seed = base_seed;
  return config;
}

class StoreCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("anacin_campaign_store_" + std::string(::testing::UnitTest::
                                                        GetInstance()
                                                            ->current_test_info()
                                                            ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(StoreCampaignTest, KeysAreStableAndDistanceKeyIsSymmetric) {
  const core::CampaignConfig config = small_campaign(123);
  const Digest a = ArtifactStore::run_key(config.pattern, config.shape,
                                          config.sim_config_for_run(0));
  const Digest b = ArtifactStore::run_key(config.pattern, config.shape,
                                          config.sim_config_for_run(0));
  EXPECT_EQ(a, b);
  const Digest other = ArtifactStore::run_key(config.pattern, config.shape,
                                              config.sim_config_for_run(1));
  EXPECT_NE(a, other);

  const Digest forward = ArtifactStore::distance_key(
      "wl:2", kernels::LabelPolicy::kTypePeer, a, other);
  const Digest backward = ArtifactStore::distance_key(
      "wl:2", kernels::LabelPolicy::kTypePeer, other, a);
  EXPECT_EQ(forward, backward);
  EXPECT_NE(forward, ArtifactStore::distance_key(
                         "wl:3", kernels::LabelPolicy::kTypePeer, a, other));
}

TEST_F(StoreCampaignTest, WarmRerunSkipsAllSimulationAndDistanceWork) {
  ArtifactStore store({root_});
  ThreadPool pool(2);
  const core::CampaignConfig config = small_campaign(2026);

  const core::CampaignResult cold = core::run_campaign(config, pool, &store);

  obs::Counter& sims = obs::counter("sim.engine.runs");
  obs::Counter& distances = obs::counter("kernels.distances_computed");
  const std::uint64_t sims_before = sims.value();
  const std::uint64_t distances_before = distances.value();
  const std::uint64_t hits_before = obs::counter("store.hits").value();

  const core::CampaignResult warm = core::run_campaign(config, pool, &store);

  EXPECT_EQ(sims.value(), sims_before) << "warm campaign ran a simulation";
  EXPECT_EQ(distances.value(), distances_before)
      << "warm campaign recomputed a kernel distance";
  EXPECT_GT(obs::counter("store.hits").value(), hits_before);

  // Bit-identical results, not merely close ones.
  ASSERT_EQ(warm.measurement.distances.size(),
            cold.measurement.distances.size());
  for (std::size_t i = 0; i < cold.measurement.distances.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.measurement.distances[i]),
              std::bit_cast<std::uint64_t>(cold.measurement.distances[i]));
  }
  EXPECT_EQ(warm.total_messages, cold.total_messages);
  EXPECT_EQ(warm.total_wildcard_recvs, cold.total_wildcard_recvs);
  EXPECT_EQ(warm.to_json().dump(), cold.to_json().dump());
}

TEST_F(StoreCampaignTest, StoreDoesNotChangeResults) {
  ArtifactStore store({root_});
  ThreadPool pool(2);
  const core::CampaignConfig config = small_campaign(777);

  const core::CampaignResult without =
      core::run_campaign(config, pool, nullptr);
  const core::CampaignResult with = core::run_campaign(config, pool, &store);
  EXPECT_EQ(with.to_json().dump(), without.to_json().dump());
}

TEST_F(StoreCampaignTest, PairwiseReductionIsAlsoCached) {
  ArtifactStore store({root_});
  ThreadPool pool(2);
  core::CampaignConfig config = small_campaign(31337);
  config.reduction = analysis::DistanceReduction::kPairwise;

  const core::CampaignResult plain = core::run_campaign(config, pool, nullptr);
  const core::CampaignResult cold = core::run_campaign(config, pool, &store);
  EXPECT_EQ(cold.to_json().dump(), plain.to_json().dump());

  obs::Counter& distances = obs::counter("kernels.distances_computed");
  const std::uint64_t before = distances.value();
  const core::CampaignResult warm = core::run_campaign(config, pool, &store);
  EXPECT_EQ(distances.value(), before);
  EXPECT_EQ(warm.to_json().dump(), cold.to_json().dump());
}

TEST_F(StoreCampaignTest, DifferentFaultConfigsNeverShareRunKeys) {
  const core::CampaignConfig clean = small_campaign(99);
  core::CampaignConfig faulty = small_campaign(99);
  faulty.faults.drop_probability = 0.05;
  core::CampaignConfig faultier = small_campaign(99);
  faultier.faults.drop_probability = 0.10;

  const Digest clean_key = ArtifactStore::run_key(
      clean.pattern, clean.shape, clean.sim_config_for_run(0));
  const Digest faulty_key = ArtifactStore::run_key(
      faulty.pattern, faulty.shape, faulty.sim_config_for_run(0));
  const Digest faultier_key = ArtifactStore::run_key(
      faultier.pattern, faultier.shape, faultier.sim_config_for_run(0));
  EXPECT_NE(clean_key, faulty_key);
  EXPECT_NE(faulty_key, faultier_key);

  // The reference run zeroes the faults, so every fault-sweep point shares
  // one clean baseline key.
  EXPECT_EQ(ArtifactStore::run_key(clean.pattern, clean.shape,
                                   clean.reference_sim_config()),
            ArtifactStore::run_key(faulty.pattern, faulty.shape,
                                   faulty.reference_sim_config()));
}

TEST_F(StoreCampaignTest, ChangingOnlyFaultConfigRecomputesOnWarmStore) {
  ArtifactStore store({root_});
  ThreadPool pool(2);
  core::CampaignConfig faulty = small_campaign(2027);
  faulty.faults.drop_probability = 0.5;
  faulty.faults.duplicate_probability = 0.25;

  const core::CampaignResult cold = core::run_campaign(faulty, pool, &store);
  EXPECT_GT(cold.total_drops + cold.total_duplicates, 0u);

  obs::Counter& sims = obs::counter("sim.engine.runs");
  obs::Counter& distances = obs::counter("kernels.distances_computed");

  // Same faults, warm store: zero simulations, zero distances,
  // bit-identical result (fault counters included).
  const std::uint64_t sims_before = sims.value();
  const std::uint64_t distances_before = distances.value();
  const core::CampaignResult warm = core::run_campaign(faulty, pool, &store);
  EXPECT_EQ(sims.value(), sims_before)
      << "warm fault campaign ran a simulation";
  EXPECT_EQ(distances.value(), distances_before);
  EXPECT_EQ(warm.total_drops, cold.total_drops);
  EXPECT_EQ(warm.total_duplicates, cold.total_duplicates);
  EXPECT_EQ(warm.to_json().dump(), cold.to_json().dump());
  ASSERT_EQ(warm.measurement.distances.size(),
            cold.measurement.distances.size());
  for (std::size_t i = 0; i < cold.measurement.distances.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.measurement.distances[i]),
              std::bit_cast<std::uint64_t>(cold.measurement.distances[i]));
  }

  // Different faults, same everything else: no stale cache hits — the
  // noisy runs must be re-simulated.
  core::CampaignConfig other = faulty;
  other.faults.drop_probability = 0.9;
  const std::uint64_t sims_before_other = sims.value();
  const core::CampaignResult changed = core::run_campaign(other, pool, &store);
  EXPECT_EQ(sims.value() - sims_before_other,
            static_cast<std::uint64_t>(other.num_runs))
      << "changing only the FaultConfig must invalidate every noisy run";
  EXPECT_NE(changed.to_json().dump(), cold.to_json().dump());
}

TEST_F(StoreCampaignTest, CorruptObjectIsRecomputedNotServed) {
  ArtifactStore store({root_});
  ThreadPool pool(2);
  const core::CampaignConfig config = small_campaign(555);
  const core::CampaignResult cold = core::run_campaign(config, pool, &store);

  // First corrupt the first payload byte of every stored object; then one
  // byte of each run's graph section, which a warm campaign does not
  // decode but must still checksum.
  for (const bool graph_section : {false, true}) {
    SCOPED_TRACE(graph_section ? "graph section" : "first payload byte");
    const std::vector<fs::path> files =
        graph_section ? run_object_files(root_) : object_files(root_);
    const std::size_t offset =
        kEnvelopeSize + (graph_section ? kRunCounterBytes + 8 : 0);
    for (const fs::path& file : files) {
      std::fstream stream(file,
                          std::ios::binary | std::ios::in | std::ios::out);
      stream.seekp(static_cast<std::streamoff>(offset));
      const char garbage = 0x55;
      stream.write(&garbage, 1);
    }

    const std::uint64_t corrupt_before =
        obs::counter("store.corrupt").value();
    const core::CampaignResult recovered =
        core::run_campaign(config, pool, &store);
    EXPECT_GT(obs::counter("store.corrupt").value(), corrupt_before);
    EXPECT_EQ(recovered.to_json().dump(), cold.to_json().dump());
    // Every re-read artifact was removed, recomputed, and re-published.
    // The jitter-free reference run is served from the in-process memo, so
    // its (corrupted) object is never re-read — it stays as the one bad
    // object.
    EXPECT_LE(store.objects().verify().corrupt.size(), 1u);
  }
}

TEST_F(StoreCampaignTest, WarmCampaignDecodesOnlyRunCounters) {
  ArtifactStore store({root_});
  ThreadPool pool(2);
  const core::CampaignConfig config = small_campaign(606);
  const core::CampaignResult cold = core::run_campaign(config, pool, &store);

  // Give every run object a graph section that does not parse, sealed
  // under a valid checksum: only decoding the graph can tell. (The
  // reference's object is there too unless the in-process memo already
  // held the reference.)
  const std::vector<fs::path> runs = run_object_files(root_);
  ASSERT_GE(runs.size(), static_cast<std::size_t>(config.num_runs));
  for (const fs::path& file : runs) {
    std::vector<std::uint8_t> bytes = read_bytes(file);
    std::fill(bytes.begin() + kEnvelopeSize + kRunCounterBytes, bytes.end(),
              std::uint8_t{0xFF});
    Fnv1a checksum;
    checksum.update(bytes.data() + kEnvelopeSize,
                    bytes.size() - kEnvelopeSize);
    // The envelope's checksum field: offset 16, little-endian.
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[16 + i] = static_cast<std::uint8_t>(checksum.value() >> (8 * i));
    }
    ASSERT_THROW(decode_run(bytes), ParseError);
    write_bytes(file, bytes);
  }

  obs::Counter& sims = obs::counter("sim.engine.runs");
  obs::Counter& corrupt = obs::counter("store.corrupt");
  const std::uint64_t sims_before = sims.value();
  const std::uint64_t corrupt_before = corrupt.value();
  const core::CampaignResult warm = core::run_campaign(config, pool, &store);
  EXPECT_EQ(warm.to_json().dump(), cold.to_json().dump());
  EXPECT_EQ(sims.value(), sims_before) << "warm campaign ran a simulation";
  EXPECT_EQ(corrupt.value(), corrupt_before)
      << "warm campaign decoded a run's graph";

  // Asking for the graphs decodes them: each run is rejected as corrupt
  // and simulated again (the reference comes from the in-process memo).
  std::vector<graph::EventGraph> graphs;
  const core::CampaignResult with_graphs =
      core::run_campaign(config, pool, &store, {}, &graphs);
  const auto num_runs = static_cast<std::uint64_t>(config.num_runs);
  EXPECT_EQ(corrupt.value() - corrupt_before, num_runs);
  EXPECT_EQ(sims.value() - sims_before, num_runs);
  EXPECT_EQ(with_graphs.to_json().dump(), cold.to_json().dump());
  ASSERT_EQ(graphs.size(), num_runs);
  for (const graph::EventGraph& graph : graphs) {
    EXPECT_EQ(graph.num_ranks(), config.shape.num_ranks);
  }
}

TEST_F(StoreCampaignTest, NewKernelDecodesStoredGraphsWithoutSimulating) {
  ArtifactStore store({root_});
  ThreadPool pool(2);
  core::CampaignConfig config = small_campaign(707);
  core::run_campaign(config, pool, &store);

  // Every wl:1 feature misses, so the parallel feature loop decodes each
  // run's graph from the store.
  config.kernel = "wl:1";
  const core::CampaignResult plain = core::run_campaign(config, pool, nullptr);
  obs::Counter& sims = obs::counter("sim.engine.runs");
  obs::Counter& feature_tasks = obs::counter("kernels.feature_tasks");
  const std::uint64_t sims_before = sims.value();
  const std::uint64_t features_before = feature_tasks.value();
  const core::CampaignResult warm = core::run_campaign(config, pool, &store);
  EXPECT_EQ(sims.value(), sims_before);
  EXPECT_EQ(feature_tasks.value() - features_before,
            static_cast<std::uint64_t>(config.num_runs) + 1);
  EXPECT_EQ(warm.to_json().dump(), plain.to_json().dump());
}

}  // namespace
}  // namespace anacin::store
