#include "support/fs.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "support/error.hpp"
#include "support/fault_plan.hpp"

namespace anacin::support {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class TempDir {
public:
  TempDir() {
    root_ = fs::temp_directory_path() /
            ("anacin_fs_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  fs::path path(const std::string& name) const { return root_ / name; }

private:
  static inline int counter_ = 0;
  fs::path root_;
};

TEST(AtomicWriteFile, WritesContentAndCreatesParents) {
  TempDir dir;
  const fs::path target = dir.path("a/b/c.txt");
  atomic_write_file(target.string(), "hello\n");
  EXPECT_EQ(slurp(target), "hello\n");
}

TEST(AtomicWriteFile, OverwritesExistingFile) {
  TempDir dir;
  const fs::path target = dir.path("f.txt");
  atomic_write_file(target.string(), "old");
  atomic_write_file(target.string(), "new");
  EXPECT_EQ(slurp(target), "new");
}

TEST(AtomicWriteFile, LeavesNoTempFileBehind) {
  TempDir dir;
  atomic_write_file(dir.path("x.json").string(), "{}");
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path(""))) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicWriteFile, CountsSuccessfulWrites) {
  TempDir dir;
  const std::uint64_t before = atomic_write_count();
  atomic_write_file(dir.path("1").string(), "1");
  atomic_write_file(dir.path("2").string(), "2");
  EXPECT_EQ(atomic_write_count(), before + 2);
}

TEST(AtomicWriteFile, InjectedFailureLeavesDestinationUntouched) {
  TempDir dir;
  const fs::path target = dir.path("report.json");
  atomic_write_file(target.string(), "intact previous version");

  {
    // The write fails as if the disk filled mid-write.
    const ScopedFaultPlan plan("disk.enospc=1");
    EXPECT_THROW(atomic_write_file(target.string(), "would-be new version"),
                 IoError);
  }
  EXPECT_EQ(slurp(target), "intact previous version");

  // Without the plan the process recovers.
  atomic_write_file(target.string(), "recovered");
  EXPECT_EQ(slurp(target), "recovered");
}

TEST(AtomicWriteFile, FailedInjectionDoesNotCountAsSuccess) {
  TempDir dir;
  const std::uint64_t before = atomic_write_count();
  const ScopedFaultPlan plan("disk.enospc=1");
  EXPECT_THROW(atomic_write_file(dir.path("f").string(), "x"), IoError);
  EXPECT_EQ(atomic_write_count(), before);
}

TEST(AtomicWriteFile, WritesThroughAFifoAndLeavesItAFifo) {
  TempDir dir;
  const fs::path fifo = dir.path("out.fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // With a reader already open, the writer's open returns at once; a write
  // that bypasses the FIFO leaves this non-blocking read empty, not hung.
  const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  atomic_write_file(fifo.string(), "through the pipe");
  char buffer[64];
  const ssize_t got = ::read(reader, buffer, sizeof(buffer));
  ::close(reader);
  EXPECT_EQ(std::string(buffer, static_cast<std::size_t>(std::max<ssize_t>(
                                    got, 0))),
            "through the pipe");
  EXPECT_TRUE(fs::is_fifo(fs::symlink_status(fifo)));
}

TEST(AtomicWriteFile, WritesThroughASymlinkAndLeavesItASymlink) {
  TempDir dir;
  const fs::path target = dir.path("target.json");
  const fs::path link = dir.path("link.json");
  atomic_write_file(target.string(), "the target's old, longer bytes");
  fs::create_symlink(target, link);
  atomic_write_file(link.string(), "new bytes");
  EXPECT_TRUE(fs::is_symlink(fs::symlink_status(link)));
  EXPECT_EQ(slurp(target), "new bytes");
}

/// Fault-plan-driven fs tests install a process-global plan, so every one
/// of them must clean up or the plain AtomicWriteFile tests above start
/// failing at random.
class FsChaosTest : public ::testing::Test {
protected:
  void SetUp() override {
    install_fault_plan(std::nullopt);
    reset_durability_for_tests();
  }
  void TearDown() override { SetUp(); }

  static std::vector<fs::path> temp_files(const fs::path& root) {
    std::vector<fs::path> temps;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file() &&
          entry.path().filename().string().find(".tmp.") !=
              std::string::npos) {
        temps.push_back(entry.path());
      }
    }
    return temps;
  }
};

TEST_F(FsChaosTest, EnospcLeavesPartialTempAndDestinationUntouched) {
  TempDir dir;
  const fs::path target = dir.path("report.json");
  atomic_write_file(target.string(), "intact previous version");

  install_fault_plan(FaultPlan::parse("disk.enospc=1"));
  try {
    atomic_write_file(target.string(), "0123456789abcdef");
    FAIL() << "injected ENOSPC did not fire";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("ENOSPC"), std::string::npos);
  }
  EXPECT_EQ(slurp(target), "intact previous version");

  // A disk that fills mid-write leaves a partial temp file — exactly what
  // the stale-temp sweeper exists to clean up.
  const std::vector<fs::path> temps = temp_files(dir.path(""));
  ASSERT_EQ(temps.size(), 1u);
  EXPECT_EQ(slurp(temps.front()), "01234567");  // half the bytes landed
}

TEST_F(FsChaosTest, EioIsDistinguishableFromEnospc) {
  TempDir dir;
  install_fault_plan(FaultPlan::parse("disk.eio=1"));
  try {
    atomic_write_file(dir.path("x").string(), "payload");
    FAIL() << "injected EIO did not fire";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("EIO"), std::string::npos);
  }
}

TEST_F(FsChaosTest, OpenFailLeavesNoTempLitter) {
  TempDir dir;
  install_fault_plan(FaultPlan::parse("disk.open_fail=1"));
  EXPECT_THROW(atomic_write_file(dir.path("x").string(), "payload"), IoError);
  EXPECT_TRUE(temp_files(dir.path("")).empty());
}

TEST_F(FsChaosTest, RenameFailLeavesCompleteTempBehind) {
  TempDir dir;
  const fs::path target = dir.path("x");
  install_fault_plan(FaultPlan::parse("disk.rename_fail=1"));
  EXPECT_THROW(atomic_write_file(target.string(), "full payload"), IoError);
  EXPECT_FALSE(fs::exists(target));
  // The write itself completed; only the publishing rename failed.
  const std::vector<fs::path> temps = temp_files(dir.path(""));
  ASSERT_EQ(temps.size(), 1u);
  EXPECT_EQ(slurp(temps.front()), "full payload");
}

TEST_F(FsChaosTest, OutOfScopeWritesSucceed) {
  TempDir dir;
  install_fault_plan(FaultPlan::parse("disk.enospc=1,disk.scope=journal"));
  // Report-class writes sail through a journal-scoped fault config.
  atomic_write_file(dir.path("r.json").string(), "{}", PathClass::kReport);
  EXPECT_EQ(slurp(dir.path("r.json")), "{}");
  EXPECT_THROW(
      atomic_write_file(dir.path("j.jsonl").string(), "{}",
                        PathClass::kJournal),
      IoError);
}

TEST_F(FsChaosTest, StaleTempSweepRemovesOnlyPreExistingTemps) {
  TempDir dir;
  // A temp older than this process: orphaned by a crashed predecessor.
  const fs::path stale = dir.path("report.json.tmp.3");
  std::ofstream(stale) << "orphan";
  fs::last_write_time(stale,
                      process_start_file_time() - std::chrono::hours(1));
  // A fresh temp: could be a concurrent writer's in-flight publish.
  const fs::path fresh = dir.path("sweep.jsonl.tmp.9");
  std::ofstream(fresh) << "in flight";
  // An old non-temp file: never the sweeper's business.
  const fs::path bystander = dir.path("data.json");
  std::ofstream(bystander) << "keep";
  fs::last_write_time(bystander,
                      process_start_file_time() - std::chrono::hours(1));

  EXPECT_EQ(remove_stale_temp_files(dir.path("")), 1u);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_TRUE(fs::exists(bystander));

  // Idempotent: a second sweep finds nothing.
  EXPECT_EQ(remove_stale_temp_files(dir.path("")), 0u);
}

TEST_F(FsChaosTest, StaleTempSweepToleratesMissingRoot) {
  TempDir dir;
  EXPECT_EQ(remove_stale_temp_files(dir.path("does-not-exist")), 0u);
}

TEST_F(FsChaosTest, CommitDurabilityKeepsWritesAtomicAndClean) {
  TempDir dir;
  set_durability(Durability::kCommit);
  const fs::path target = dir.path("a/b.json");
  atomic_write_file(target.string(), "durable", PathClass::kJournal);
  EXPECT_EQ(slurp(target), "durable");
  EXPECT_TRUE(temp_files(dir.path("")).empty());

  set_durability(Durability::kParanoid);
  atomic_write_file(target.string(), "more durable", PathClass::kJournal);
  EXPECT_EQ(slurp(target), "more durable");
}

TEST_F(FsChaosTest, DurableCommitsAdvanceTheDurableOpCount) {
  TempDir dir;
  const std::uint64_t before = faults::counters().at("io.durable_ops");
  atomic_write_file(dir.path("1").string(), "1");
  atomic_write_file(dir.path("2").string(), "2");
  EXPECT_EQ(faults::counters().at("io.durable_ops"), before + 2);
}

}  // namespace
}  // namespace anacin::support
