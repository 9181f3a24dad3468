// End-to-end crash/resume: SIGKILL a real `anacin sweep` child process
// mid-campaign, then --resume and require byte-identical outputs with no
// redundant simulation work. Exercises the journal + artifact store + CLI
// stack the way an operator would hit it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_e2e.hpp"

namespace anacin {
namespace {

namespace fs = std::filesystem;
using e2e::counter_value;
using e2e::run_command;
using e2e::slurp;

class ResilienceE2e : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anacin_resilience_e2e_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ::unsetenv("ANACIN_FAULT_PLAN");
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// A 3-point sweep (ND 0/50/100) small enough to finish in well under a
  /// second per point.
  std::string sweep_command(const std::string& store,
                            const std::string& journal,
                            const std::string& tag,
                            const std::string& extra) const {
    const fs::path bin(ANACIN_CLI_PATH);
    std::ostringstream os;
    os << '"' << bin.string() << '"' << " --store " << (dir_ / store).string()
       << " --metrics-out " << (dir_ / (tag + "-metrics.json")).string()
       << " sweep --pattern message_race --ranks 4 --runs 2 --step 50"
       << " --seed 7 --journal " << (dir_ / journal).string() << " --csv "
       << (dir_ / (tag + ".csv")).string() << " --json "
       << (dir_ / (tag + ".json")).string() << ' ' << extra << " > "
       << (dir_ / (tag + ".out")).string() << " 2>&1";
    return os.str();
  }

  json::Value metrics(const std::string& tag) const {
    return json::parse(slurp(dir_ / (tag + "-metrics.json")));
  }

  /// Deliver `signal` (a `kill -s` name) to a sweep whose first point is
  /// busy: it must drain in-flight work, journal, and exit `exit_code`,
  /// and the journal it leaves must resume to the uninterrupted bytes.
  void expect_signal_drains_and_resumes(const std::string& signal,
                                        int exit_code) {
    // Baseline for byte-comparison (and to warm the store).
    ASSERT_EQ(run_command(sweep_command("store-t", "tb.jsonl", "tbase", "")),
              0)
        << slurp(dir_ / "tbase.out");

    // An injected 1.5 s sleep in run:1 keeps the first point busy long
    // enough for `timeout` to deliver the signal at the 0.5 s mark.
    ::setenv("ANACIN_FAULT_PLAN", "unit.run:1=sleep:1500", 1);
    EXPECT_EQ(run_command("timeout --preserve-status -s " + signal + " 0.5 " +
                          sweep_command("store-t", "t.jsonl", "sig", "")),
              exit_code);
    ::unsetenv("ANACIN_FAULT_PLAN");
    EXPECT_NE(slurp(dir_ / "sig.out").find("rerun with --resume"),
              std::string::npos)
        << slurp(dir_ / "sig.out");

    // The journal left behind is immediately resumable, and the resumed
    // sweep is byte-identical to the uninterrupted baseline.
    ASSERT_EQ(
        run_command(sweep_command("store-t", "t.jsonl", "resumed", "--resume")),
        0)
        << slurp(dir_ / "resumed.out");
    EXPECT_EQ(slurp(dir_ / "resumed.csv"), slurp(dir_ / "tbase.csv"));
    EXPECT_EQ(slurp(dir_ / "resumed.json"), slurp(dir_ / "tbase.json"));
  }

  fs::path dir_;
};

TEST_F(ResilienceE2e, SigkilledSweepResumesByteIdentically) {
  // Baseline: uninterrupted sweep.
  ASSERT_EQ(run_command(sweep_command("store-a", "a.jsonl", "base", "")), 0)
      << slurp(dir_ / "base.out");
  const std::string base_csv = slurp(dir_ / "base.csv");
  const std::string base_json = slurp(dir_ / "base.json");
  ASSERT_FALSE(base_csv.empty());
  ASSERT_FALSE(base_json.empty());

  // Crash run: the process SIGKILLs itself right after journaling the
  // first point — exactly what a node failure mid-sweep looks like. The
  // journal commits once per fresh point, and nothing else writes
  // journal-class files.
  ::setenv("ANACIN_FAULT_PLAN", "disk.crash_after=1,disk.scope=journal", 1);
  EXPECT_EQ(run_command(sweep_command("store-b", "b.jsonl", "crash", "")),
            128 + SIGKILL);
  ::unsetenv("ANACIN_FAULT_PLAN");
  ASSERT_TRUE(fs::exists(dir_ / "b.jsonl")) << "crash before any journaling";

  // Resume: replays the journaled point, computes the rest.
  ASSERT_EQ(run_command(
                sweep_command("store-b", "b.jsonl", "resumed", "--resume")),
            0)
      << slurp(dir_ / "resumed.out");
  EXPECT_NE(slurp(dir_ / "resumed.out").find("resume: 1 of 3"),
            std::string::npos);

  // Byte-identical outputs despite the kill.
  EXPECT_EQ(slurp(dir_ / "resumed.csv"), base_csv);
  EXPECT_EQ(slurp(dir_ / "resumed.json"), base_json);

  // Zero redundant work for the journaled point: the resumed process
  // replayed it without a single simulation, so it ran strictly fewer
  // simulations than the uninterrupted baseline.
  const json::Value base_metrics = metrics("base");
  const json::Value resumed_metrics = metrics("resumed");
  EXPECT_EQ(counter_value(resumed_metrics, "resilience.points_replayed"), 1.0);
  EXPECT_EQ(counter_value(resumed_metrics,
                          "resilience.journal_units_loaded"),
            1.0);
  EXPECT_LT(counter_value(resumed_metrics, "sim.engine.runs"),
            counter_value(base_metrics, "sim.engine.runs"));
}

TEST_F(ResilienceE2e, TruncatedJournalResumesFromLastIntactRecord) {
  ASSERT_EQ(run_command(sweep_command("store-a", "a.jsonl", "base", "")), 0)
      << slurp(dir_ / "base.out");

  // Journal truncation fixture: cut the final record in half, as if the
  // machine died mid-append on a filesystem without atomic rename.
  std::string journal = slurp(dir_ / "a.jsonl");
  ASSERT_FALSE(journal.empty());
  const std::size_t last_line = journal.rfind('\n', journal.size() - 2) + 1;
  const std::size_t cut = last_line + (journal.size() - last_line) / 2;
  {
    std::ofstream out(dir_ / "a.jsonl", std::ios::binary | std::ios::trunc);
    out << journal.substr(0, cut);
  }

  ASSERT_EQ(run_command(
                sweep_command("store-a", "a.jsonl", "salvaged", "--resume")),
            0)
      << slurp(dir_ / "salvaged.out");
  EXPECT_NE(slurp(dir_ / "salvaged.out").find("resume: 2 of 3"),
            std::string::npos)
      << slurp(dir_ / "salvaged.out");

  EXPECT_EQ(slurp(dir_ / "salvaged.csv"), slurp(dir_ / "base.csv"));
  EXPECT_EQ(slurp(dir_ / "salvaged.json"), slurp(dir_ / "base.json"));

  // The dropped point re-runs against a warm store: no simulations at all.
  EXPECT_EQ(counter_value(metrics("salvaged"), "sim.engine.runs"), 0.0);
}

TEST_F(ResilienceE2e, SigtermDrainsJournalsAndExits143) {
  expect_signal_drains_and_resumes("TERM", 143);
}

TEST_F(ResilienceE2e, SigintDrainsJournalsAndExits130) {
  expect_signal_drains_and_resumes("INT", 130);
}

TEST_F(ResilienceE2e, ChildExitCodesMatchTaxonomy) {
  const std::string bin = '"' + fs::path(ANACIN_CLI_PATH).string() + '"';
  const std::string store = " --store " + (dir_ / "store-x").string();
  // Unknown command: 64 (EX_USAGE), reserved so 2 still means "partial".
  EXPECT_EQ(run_command(bin + " frobnicate > /dev/null 2>&1"), 64);
  // Keep-going quarantine: 2, naming exactly the failed unit.
  ::setenv("ANACIN_FAULT_PLAN", "unit.run:1=permanent", 1);
  const fs::path keep_going = dir_ / "keep_going.out";
  EXPECT_EQ(run_command(bin + store +
                        " measure --pattern message_race --ranks 4 "
                        "--runs 3 --keep-going --backoff-us 0 > " +
                        keep_going.string() + " 2>&1"),
            2);
  EXPECT_NE(slurp(keep_going).find("quarantined run:1"), std::string::npos)
      << slurp(keep_going);
  // Fail-fast: 1.
  EXPECT_EQ(run_command(bin + store +
                        " measure --pattern message_race --ranks 4 "
                        "--runs 3 --backoff-us 0 > /dev/null 2>&1"),
            1);
  ::unsetenv("ANACIN_FAULT_PLAN");
}

}  // namespace
}  // namespace anacin
