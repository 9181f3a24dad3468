// End-to-end durability: drive the real `anacin` binary through injected
// disk faults. The centerpiece is the crash-consistency explorer — count
// the durable commits of a reference sweep, then SIGKILL a fresh sweep
// after every single one of them and require that --resume converges to
// byte-identical outputs. Plus graceful degradation under a full disk and
// the fsync-discipline flag.

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <sstream>
#include <string>

#include "cli_e2e.hpp"

namespace anacin {
namespace {

namespace fs = std::filesystem;
using e2e::counter_value;
using e2e::run_command;
using e2e::slurp;

class DurabilityE2e : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anacin_durability_e2e_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// A deliberately small sweep (2 ND points, 1 run each) so the explorer
  /// can afford to crash it once per durable commit. `globals` are CLI
  /// flags before the subcommand (--store, --durability, ...); `plan` is
  /// the process's ANACIN_FAULT_PLAN.
  std::string sweep_command(const fs::path& workdir,
                            const std::string& globals,
                            const std::string& tag,
                            const std::string& extra,
                            const std::string& plan = "") const {
    const fs::path bin(ANACIN_CLI_PATH);
    std::ostringstream os;
    if (!plan.empty()) os << "ANACIN_FAULT_PLAN='" << plan << "' ";
    os << '"' << bin.string() << '"' << ' ' << globals
       << " sweep --pattern message_race --ranks 4 --runs 1 --step 100"
       << " --seed 7 --journal " << (workdir / "sweep.jsonl").string()
       << " --csv " << (workdir / "out.csv").string() << " --json "
       << (workdir / "out.json").string() << ' ' << extra << " > "
       << (workdir / (tag + ".out")).string() << " 2>&1";
    return os.str();
  }

  json::Value metrics(const fs::path& path) const {
    return json::parse(slurp(path));
  }

  fs::path dir_;
};

TEST_F(DurabilityE2e, CrashExplorerResumesByteIdenticallyAtEveryCrashPoint) {
  // Reference run: count the durable commits. The metrics snapshot is
  // taken before the metrics file itself is written, so crash runs (which
  // omit --metrics-out) perform exactly `ops` durable commits.
  const fs::path base = dir_ / "base";
  fs::create_directories(base);
  ASSERT_EQ(run_command(sweep_command(
                base,
                "--store " + (base / "store").string() + " --metrics-out " +
                    (base / "metrics.json").string(),
                "base", "")),
            0)
      << slurp(base / "base.out");
  const int ops = static_cast<int>(
      counter_value(metrics(base / "metrics.json"), "io.durable_ops"));
  ASSERT_GE(ops, 5) << "sweep too small to exercise the explorer";
  const std::string base_csv = slurp(base / "out.csv");
  const std::string base_json = slurp(base / "out.json");
  ASSERT_FALSE(base_csv.empty());
  ASSERT_FALSE(base_json.empty());

  // For every durable commit k: SIGKILL a fresh sweep right after it, then
  // --resume and require convergence. No crash point may leave state that
  // resumption cannot repair.
  for (int k = 1; k <= ops; ++k) {
    const fs::path crash = dir_ / ("crash-" + std::to_string(k));
    fs::create_directories(crash);
    const std::string store_flag = "--store " + (crash / "store").string();
    EXPECT_EQ(run_command(sweep_command(
                  crash, store_flag, "crash", "",
                  "disk.crash_after=" + std::to_string(k))),
              128 + SIGKILL)
        << "crash point " << k << ": " << slurp(crash / "crash.out");
    ASSERT_EQ(
        run_command(sweep_command(crash, store_flag, "resume", "--resume")),
        0)
        << "crash point " << k << ": " << slurp(crash / "resume.out");
    EXPECT_EQ(slurp(crash / "out.csv"), base_csv) << "crash point " << k;
    EXPECT_EQ(slurp(crash / "out.json"), base_json) << "crash point " << k;
    fs::remove_all(crash);  // keep the temp footprint bounded
  }
}

TEST_F(DurabilityE2e, EnospcOnStoreDegradesInsteadOfFailing) {
  const fs::path clean = dir_ / "clean";
  const fs::path full = dir_ / "full";
  fs::create_directories(clean);
  fs::create_directories(full);
  ASSERT_EQ(run_command(sweep_command(
                clean, "--store " + (clean / "store").string(), "clean", "")),
            0)
      << slurp(clean / "clean.out");

  // Persistent ENOSPC on every store publish: the campaign must complete
  // with --no-store semantics, warn once, and record the degradation.
  ASSERT_EQ(run_command(sweep_command(
                full,
                "--store " + (full / "store").string() + " --metrics-out " +
                    (full / "metrics.json").string(),
                "full", "", "disk.enospc=1.0,disk.scope=store")),
            0)
      << slurp(full / "full.out");
  EXPECT_NE(slurp(full / "full.out").find("artifact store degraded"),
            std::string::npos)
      << slurp(full / "full.out");
  EXPECT_EQ(counter_value(metrics(full / "metrics.json"), "store.degraded"),
            1.0);
  EXPECT_GE(counter_value(metrics(full / "metrics.json"),
                          "faults.disk.enospc"),
            1.0);
  EXPECT_NE(slurp(full / "out.json").find("\"store_degraded\": true"),
            std::string::npos);

  // The numbers are identical to the healthy run — only caching was lost.
  EXPECT_EQ(slurp(full / "out.csv"), slurp(clean / "out.csv"));
}

TEST_F(DurabilityE2e, JournalWriteFailureStaysFailFast) {
  const fs::path work = dir_ / "journal";
  fs::create_directories(work);
  // A journal that cannot commit must abort loudly: a sweep that silently
  // loses its resume log would masquerade as durable.
  EXPECT_EQ(run_command(sweep_command(
                work, "--store " + (work / "store").string(), "journal", "",
                "disk.enospc=1.0,disk.scope=journal")),
            1);
  EXPECT_NE(slurp(work / "journal.out").find("injected ENOSPC"),
            std::string::npos)
      << slurp(work / "journal.out");
}

TEST_F(DurabilityE2e, CommitDurabilityChangesBytesOnDiskNotResults) {
  const fs::path none = dir_ / "none";
  const fs::path commit = dir_ / "commit";
  fs::create_directories(none);
  fs::create_directories(commit);
  ASSERT_EQ(run_command(sweep_command(
                none, "--store " + (none / "store").string(), "none", "")),
            0)
      << slurp(none / "none.out");
  ASSERT_EQ(run_command(sweep_command(
                commit,
                "--store " + (commit / "store").string() +
                    " --durability commit --metrics-out " +
                    (commit / "metrics.json").string(),
                "commit", "")),
            0)
      << slurp(commit / "commit.out");
  EXPECT_EQ(slurp(commit / "out.csv"), slurp(none / "out.csv"));
  EXPECT_EQ(slurp(commit / "out.json"), slurp(none / "out.json"));
  EXPECT_GT(counter_value(metrics(commit / "metrics.json"),
                          "io.durable_ops"),
            0.0);
}

}  // namespace
}  // namespace anacin
