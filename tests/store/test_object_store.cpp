#include "store/object_store.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "obs/obs.hpp"
#include "store/codec.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/fs.hpp"

namespace anacin::store {
namespace {

namespace fs = std::filesystem;

class ObjectStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("anacin_store_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  static std::vector<std::uint8_t> artifact(double value) {
    return encode_distances({value});
  }

  fs::path object_file(const Digest& key) const {
    const std::string hex = key.to_hex();
    return root_ / "objects" / hex.substr(0, 2) / hex.substr(2);
  }

  fs::path root_;
};

TEST_F(ObjectStoreTest, PutGetRoundTrip) {
  ObjectStore store({root_});
  const std::vector<std::uint8_t> bytes = artifact(1.25);
  const Digest key = digest_bytes(bytes.data(), bytes.size());

  EXPECT_FALSE(store.contains(key));
  EXPECT_EQ(store.get(key), nullptr);
  EXPECT_TRUE(store.put(key, Kind::kDistances, bytes));
  EXPECT_TRUE(store.contains(key));

  const ObjectBytes fetched = store.get(key);
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(*fetched, bytes);
  // Second put of the same key is a no-op.
  EXPECT_FALSE(store.put(key, Kind::kDistances, bytes));
}

TEST_F(ObjectStoreTest, ObjectsLandInShardedLayout) {
  ObjectStore store({root_});
  const std::vector<std::uint8_t> bytes = artifact(2.0);
  const Digest key = digest_bytes(bytes.data(), bytes.size());
  store.put(key, Kind::kDistances, bytes);

  EXPECT_TRUE(fs::exists(object_file(key)));
  // objects/ is the store's only record: nothing else lands in the root.
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(root_)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"objects"});
}

TEST_F(ObjectStoreTest, SurvivesReopen) {
  const std::vector<std::uint8_t> bytes = artifact(3.0);
  const Digest key = digest_bytes(bytes.data(), bytes.size());
  {
    ObjectStore store({root_});
    store.put(key, Kind::kDistances, bytes);
  }
  ObjectStore reopened({root_});
  const ObjectBytes fetched = reopened.get(key);
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(*fetched, bytes);
  EXPECT_EQ(reopened.stats().objects, 1u);
}

// Under --isolate=process the campaign process and its worker children
// share one root, and each opens its own store on it. What one publishes
// after another opened must show up in the other's stats and gc.
TEST_F(ObjectStoreTest, StatsSeeSiblingPublishes) {
  ObjectStore first({root_});
  ObjectStore sibling({root_});
  const std::vector<std::uint8_t> bytes = artifact(11.0);
  const Digest key = digest_bytes(bytes.data(), bytes.size());
  ASSERT_TRUE(sibling.put(key, Kind::kDistances, bytes));

  const ObjectStore::Stats stats = first.stats();
  ASSERT_EQ(stats.objects, 1u);
  EXPECT_EQ(stats.total_bytes, bytes.size());
  EXPECT_EQ(stats.kind_counts.at("distances"), 1u);

  EXPECT_EQ(first.gc(0).removed_objects, 1u);
  EXPECT_FALSE(sibling.contains(key));
}

// Every read comes from disk: once a sibling removes an object, a store
// that read it before no longer serves it.
TEST_F(ObjectStoreTest, GetSeesSiblingRemoval) {
  ObjectStore first({root_});
  ObjectStore sibling({root_});
  const std::vector<std::uint8_t> bytes = artifact(12.0);
  const Digest key = digest_bytes(bytes.data(), bytes.size());
  ASSERT_TRUE(first.put(key, Kind::kDistances, bytes));
  ASSERT_NE(first.get(key), nullptr);

  sibling.remove(key);
  EXPECT_EQ(first.get(key), nullptr);
}

TEST_F(ObjectStoreTest, CountsHitsAndMisses) {
  ObjectStore store({root_});
  const std::vector<std::uint8_t> bytes = artifact(9.0);
  const Digest key = digest_bytes(bytes.data(), bytes.size());

  const std::uint64_t misses_before = obs::counter("store.misses").value();
  const std::uint64_t hits_before = obs::counter("store.hits").value();
  EXPECT_EQ(store.get(key), nullptr);
  EXPECT_EQ(obs::counter("store.misses").value(), misses_before + 1);

  store.put(key, Kind::kDistances, bytes);
  ASSERT_NE(store.get(key), nullptr);
  EXPECT_EQ(obs::counter("store.hits").value(), hits_before + 1);
}

TEST_F(ObjectStoreTest, StatsCountKinds) {
  ObjectStore store({root_});
  for (int i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> blob = artifact(static_cast<double>(i));
    store.put(digest_bytes(blob.data(), blob.size()), Kind::kDistances, blob);
  }
  const ObjectStore::Stats stats = store.stats();
  EXPECT_EQ(stats.objects, 3u);
  EXPECT_EQ(stats.kind_counts.at("distances"), 3u);
  EXPECT_GT(stats.total_bytes, 0u);
}

TEST_F(ObjectStoreTest, VerifyFlagsCorruptAndForeignFiles) {
  ObjectStore store({root_});
  const std::vector<std::uint8_t> bytes = artifact(5.0);
  const Digest key = digest_bytes(bytes.data(), bytes.size());
  store.put(key, Kind::kDistances, bytes);
  EXPECT_TRUE(store.verify().ok());

  // Flip one payload byte on disk.
  const std::string hex = key.to_hex();
  const fs::path path = root_ / "objects" / hex.substr(0, 2) / hex.substr(2);
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(kEnvelopeSize + 2));
    const char garbage = 0x7f;
    file.write(&garbage, 1);
  }
  // Plant a file whose name is not a digest.
  fs::create_directories(root_ / "objects" / "zz");
  std::ofstream(root_ / "objects" / "zz" / "not-a-digest") << "hello";

  const ObjectStore::VerifyReport report = store.verify();
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.corrupt.size(), 1u);
  EXPECT_EQ(report.corrupt.front(), hex);
  EXPECT_EQ(report.foreign.size(), 1u);
}

TEST_F(ObjectStoreTest, RepairQuarantinesCorruptAndForeignObjects) {
  ObjectStore store({root_});
  const std::vector<std::uint8_t> good = artifact(7.0);
  const Digest good_key = digest_bytes(good.data(), good.size());
  store.put(good_key, Kind::kDistances, good);
  const std::vector<std::uint8_t> bad = artifact(8.0);
  const Digest bad_key = digest_bytes(bad.data(), bad.size());
  store.put(bad_key, Kind::kDistances, bad);

  // A healthy store repairs to a no-op.
  EXPECT_TRUE(store.repair().ok());
  EXPECT_EQ(store.repair().quarantined, 0u);

  // Corrupt one object and plant a foreign file.
  const std::string hex = bad_key.to_hex();
  const fs::path bad_path =
      root_ / "objects" / hex.substr(0, 2) / hex.substr(2);
  {
    std::fstream file(bad_path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(kEnvelopeSize + 2));
    const char garbage = 0x7f;
    file.write(&garbage, 1);
  }
  fs::create_directories(root_ / "objects" / "zz");
  std::ofstream(root_ / "objects" / "zz" / "not-a-digest") << "hello";

  const ObjectStore::RepairReport report = store.repair();
  EXPECT_TRUE(report.ok());  // nothing failed to move
  EXPECT_EQ(report.quarantined, 2u);
  EXPECT_EQ(report.verified.corrupt.size(), 1u);
  EXPECT_EQ(report.verified.foreign.size(), 1u);

  // Quarantined objects moved aside (inspectable), not deleted.
  EXPECT_FALSE(fs::exists(bad_path));
  EXPECT_TRUE(fs::exists(root_ / "quarantine" / hex));
  EXPECT_TRUE(fs::exists(root_ / "quarantine" / "not-a-digest"));

  // The store no longer serves the corrupt object (callers recompute) but
  // keeps serving the healthy one.
  EXPECT_FALSE(store.contains(bad_key));
  EXPECT_EQ(store.get(bad_key), nullptr);
  ASSERT_NE(store.get(good_key), nullptr);
  EXPECT_TRUE(store.verify().ok());
}

TEST_F(ObjectStoreTest, RepeatedRepairUniquifiesQuarantineNames) {
  ObjectStore store({root_});
  for (int round = 0; round < 2; ++round) {
    fs::create_directories(root_ / "objects" / "zz");
    std::ofstream(root_ / "objects" / "zz" / "junk") << "round " << round;
    EXPECT_EQ(store.repair().quarantined, 1u);
  }
  EXPECT_TRUE(fs::exists(root_ / "quarantine" / "junk"));
  EXPECT_TRUE(fs::exists(root_ / "quarantine" / "junk.1"));
}

TEST_F(ObjectStoreTest, RemoveDropsObjectEverywhere) {
  ObjectStore store({root_});
  const std::vector<std::uint8_t> bytes = artifact(6.0);
  const Digest key = digest_bytes(bytes.data(), bytes.size());
  store.put(key, Kind::kDistances, bytes);
  store.remove(key);
  EXPECT_FALSE(store.contains(key));
  EXPECT_EQ(store.get(key), nullptr);
  EXPECT_EQ(store.stats().objects, 0u);
}

TEST_F(ObjectStoreTest, GcEvictsDownToBudget) {
  ObjectStore store({root_});
  std::uint64_t one_size = 0;
  for (int i = 0; i < 5; ++i) {
    const std::vector<std::uint8_t> blob = artifact(static_cast<double>(i));
    one_size = blob.size();
    store.put(digest_bytes(blob.data(), blob.size()), Kind::kDistances, blob);
  }
  const ObjectStore::GcReport report = store.gc(2 * one_size);
  EXPECT_EQ(report.removed_objects, 3u);
  EXPECT_EQ(report.remaining_objects, 2u);
  EXPECT_LE(report.remaining_bytes, 2 * one_size);
  EXPECT_EQ(store.stats().objects, 2u);

  // gc(0) empties the store.
  const ObjectStore::GcReport empty = store.gc(0);
  EXPECT_EQ(empty.remaining_objects, 0u);
  EXPECT_EQ(store.stats().objects, 0u);
}

TEST_F(ObjectStoreTest, GcEvictsLeastRecentlyUsedFirst) {
  std::vector<Digest> keys;
  std::uint64_t one_size = 0;
  {
    ObjectStore store({root_});
    for (int i = 0; i < 3; ++i) {
      const std::vector<std::uint8_t> blob = artifact(20.0 + i);
      one_size = blob.size();
      keys.push_back(digest_bytes(blob.data(), blob.size()));
      store.put(keys.back(), Kind::kDistances, blob);
    }
  }
  // Last used hours apart: keys[0] oldest, keys[2] newest.
  const auto now = fs::file_time_type::clock::now();
  for (int i = 0; i < 3; ++i) {
    fs::last_write_time(object_file(keys[i]), now - std::chrono::hours(3 - i));
  }

  // A read makes the oldest object the most recently used, so the middle
  // one is evicted.
  ObjectStore store({root_});
  ASSERT_NE(store.get(keys[0]), nullptr);
  const ObjectStore::GcReport report = store.gc(2 * one_size);
  EXPECT_EQ(report.removed_objects, 1u);
  EXPECT_TRUE(store.contains(keys[0]));
  EXPECT_FALSE(store.contains(keys[1]));
  EXPECT_TRUE(store.contains(keys[2]));
}

// Under --isolate=process sibling worker processes publish the same
// objects at the same moment. Their temp files must never collide: a
// shared temp name let one writer rename the other's bytes away, and the
// loser's rename failed the unit permanently.
TEST_F(ObjectStoreTest, ConcurrentProcessesPublishTheSameKeys) {
  constexpr int kChildren = 4;
  constexpr int kRounds = 4;
  constexpr int kKeys = 24;
  for (int round = 0; round < kRounds; ++round) {
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    std::vector<pid_t> children;
    for (int c = 0; c < kChildren; ++c) {
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        // Child: wait for the gate so every child publishes at once; any
        // exception (or a put that never returns) is a non-zero exit.
        ::close(gate[1]);
        char byte = 0;
        (void)::read(gate[0], &byte, 1);
        try {
          ObjectStore store({root_});
          for (int k = 0; k < kKeys; ++k) {
            const std::vector<std::uint8_t> bytes =
                artifact(round * 1000.0 + k);
            store.put(digest_bytes(bytes.data(), bytes.size()),
                      Kind::kDistances, bytes);
          }
        } catch (...) {
          ::_exit(1);
        }
        ::_exit(0);
      }
      children.push_back(pid);
    }
    ::close(gate[0]);
    ::close(gate[1]);  // open the gate
    for (const pid_t pid : children) {
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "round " << round << ": a publishing child failed";
    }
  }
  ObjectStore store({root_});
  EXPECT_TRUE(store.verify().ok());
  EXPECT_EQ(store.stats().objects,
            static_cast<std::uint64_t>(kRounds * kKeys));
  for (const auto& entry : fs::recursive_directory_iterator(root_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
}

/// Disk-fault tests: every one installs a process-global fault plan, so
/// SetUp/TearDown clear it to keep the plain tests deterministic.
class ObjectStoreChaosTest : public ObjectStoreTest {
 protected:
  void SetUp() override {
    ObjectStoreTest::SetUp();
    support::install_fault_plan(std::nullopt);
  }
  void TearDown() override {
    support::install_fault_plan(std::nullopt);
    ObjectStoreTest::TearDown();
  }

  void corrupt_object(const Digest& key) {
    std::fstream file(object_file(key),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(kEnvelopeSize + 2));
    const char garbage = 0x7f;
    file.write(&garbage, 1);
  }
};

TEST_F(ObjectStoreChaosTest, PutUnderEnospcThrowsAndStoreStaysScannable) {
  ObjectStore store({root_});
  const std::vector<std::uint8_t> bytes = artifact(1.0);
  const Digest key = digest_bytes(bytes.data(), bytes.size());

  support::install_fault_plan(
      support::FaultPlan::parse("disk.enospc=1,disk.scope=store"));
  EXPECT_THROW(store.put(key, Kind::kDistances, bytes), IoError);
  EXPECT_FALSE(store.contains(key));

  // The failed publish left (at most) temp litter, never a partial object:
  // the store still verifies clean.
  support::install_fault_plan(std::nullopt);
  EXPECT_TRUE(store.verify().ok());

  // Once the disk "recovers", the same put succeeds.
  EXPECT_TRUE(store.put(key, Kind::kDistances, bytes));
  const ObjectBytes fetched = store.get(key);
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(*fetched, bytes);
}

TEST_F(ObjectStoreChaosTest, RepairUnderRenameChaosIsRerunnable) {
  ObjectStore store({root_});
  const std::vector<std::uint8_t> good = artifact(7.0);
  const Digest good_key = digest_bytes(good.data(), good.size());
  store.put(good_key, Kind::kDistances, good);
  const std::vector<std::uint8_t> bad = artifact(8.0);
  const Digest bad_key = digest_bytes(bad.data(), bad.size());
  store.put(bad_key, Kind::kDistances, bad);
  corrupt_object(bad_key);

  // Every quarantine rename fails mid-repair, as if the disk died between
  // verify and heal. The repair must report the failures, not abort.
  support::install_fault_plan(
      support::FaultPlan::parse("disk.rename_fail=1,disk.scope=store"));
  const ObjectStore::RepairReport wounded = store.repair();
  EXPECT_FALSE(wounded.ok());
  EXPECT_FALSE(wounded.failed.empty());
  EXPECT_EQ(wounded.quarantined, 0u);

  // The store survived: still scannable, healthy object still served, and
  // a re-run after the disk recovers completes the quarantine.
  support::install_fault_plan(std::nullopt);
  ASSERT_NE(store.get(good_key), nullptr);
  const ObjectStore::RepairReport healed = store.repair();
  EXPECT_TRUE(healed.ok());
  EXPECT_EQ(healed.quarantined, 1u);
  EXPECT_TRUE(store.verify().ok());
  EXPECT_TRUE(fs::exists(root_ / "quarantine" / bad_key.to_hex()));
}

TEST_F(ObjectStoreChaosTest, ConstructionSweepsPreExistingTempLitter) {
  // A crashed predecessor left a stale temp next to the objects; a fresh
  // temp (a sibling worker's in-flight publish) must survive the sweep.
  fs::create_directories(root_ / "objects" / "ab");
  const fs::path stale = root_ / "objects" / "ab" / "cdef.tmp.4";
  std::ofstream(stale) << "orphan";
  fs::last_write_time(stale, support::process_start_file_time() -
                                 std::chrono::hours(1));
  const fs::path fresh = root_ / "objects" / "ab" / "cdef.tmp.5";
  std::ofstream(fresh) << "in flight";

  ObjectStore store({root_});
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_TRUE(store.verify().ok());  // temps are not foreign files
}

TEST_F(ObjectStoreChaosTest, GcReportsSweptTempFiles) {
  ObjectStore store({root_});
  const std::vector<std::uint8_t> bytes = artifact(2.0);
  store.put(digest_bytes(bytes.data(), bytes.size()), Kind::kDistances,
            bytes);
  const fs::path stale = root_ / "objects" / "zz.tmp.1";
  fs::create_directories(stale.parent_path());
  std::ofstream(stale) << "orphan";
  fs::last_write_time(stale, support::process_start_file_time() -
                                 std::chrono::hours(1));

  const ObjectStore::GcReport report = store.gc(1 << 20);
  EXPECT_EQ(report.removed_temp_files, 1u);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_EQ(report.remaining_objects, 1u);
}

TEST_F(ObjectStoreChaosTest, ArtifactStoreDegradesInsteadOfFailing) {
  ArtifactStore store({root_});
  const std::vector<std::uint8_t> bytes = artifact(4.5);
  const Digest key = digest_bytes(bytes.data(), bytes.size());
  EXPECT_FALSE(store.degraded());

  support::install_fault_plan(
      support::FaultPlan::parse("disk.enospc=1,disk.scope=store"));
  const std::uint64_t degraded_before =
      obs::counter("store.degraded").value();
  // A full disk must not kill the campaign: the save is swallowed, the
  // store latches degraded, and the caller just loses caching.
  EXPECT_NO_THROW(store.save_distance(key, 4.5));
  EXPECT_TRUE(store.degraded());
  EXPECT_EQ(obs::counter("store.degraded").value(), degraded_before + 1);
  EXPECT_FALSE(store.load_distance(key).has_value());

  // Degradation latches for the campaign's lifetime — even after the disk
  // recovers, no further publishes are attempted (and the warning fired
  // exactly once).
  support::install_fault_plan(std::nullopt);
  EXPECT_NO_THROW(store.save_distance(key, 4.5));
  EXPECT_TRUE(store.degraded());
  EXPECT_FALSE(store.load_distance(key).has_value());
  EXPECT_EQ(obs::counter("store.degraded").value(), degraded_before + 1);
}

}  // namespace
}  // namespace anacin::store
