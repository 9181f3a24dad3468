// End-to-end process isolation through the CLI: `--isolate process` builds
// its worker pool from the running binary, and must not change a byte of
// output, cold or warm; a crashing and a hanging unit are quarantined with
// their triage in the --json report (exit 2); and a SIGKILLed parent takes
// its busy `__worker` children with it (PR_SET_PDEATHSIG), leaving a store
// that a re-run turns into the uninterrupted bytes.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "cli_e2e.hpp"

namespace anacin {
namespace {

namespace fs = std::filesystem;
using e2e::counter_value;
using e2e::run_command;
using e2e::slurp;

class IsolationE2e : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anacin_isolation_e2e_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path path(const std::string& name) const { return dir_ / name; }

  /// `[env] anacin --store <dir>/<store> --metrics-out
  /// <dir>/<tag>-metrics.json <args>`, its stdout and stderr captured in
  /// <dir>/<tag>.out.
  std::string command(const std::string& tag, const std::string& store,
                      const std::string& args,
                      const std::string& env = "") const {
    std::ostringstream os;
    os << env << (env.empty() ? "" : " ") << '"'
       << fs::path(ANACIN_CLI_PATH).string() << "\" --store "
       << path(store).string() << " --metrics-out "
       << path(tag + "-metrics.json").string() << ' ' << args << " > "
       << path(tag + ".out").string() << " 2>&1";
    return os.str();
  }

  int anacin(const std::string& tag, const std::string& store,
             const std::string& args, const std::string& env = "") const {
    return run_command(command(tag, store, args, env));
  }

  fs::path dir_;
};

TEST_F(IsolationE2e, IsolatedMeasureMatchesInProcessByteForByte) {
  const std::string measure =
      "measure --pattern message_race --ranks 8 --runs 6 --seed 5";
  ASSERT_EQ(anacin("plain", "plain-store",
                   measure + " --json " + path("plain.json").string()),
            0)
      << slurp(path("plain.out"));
  const std::string plain = slurp(path("plain.json"));
  ASSERT_FALSE(plain.empty());

  for (const std::string pass : {"cold", "warm"}) {
    ASSERT_EQ(anacin(pass, "iso-store",
                     measure + " --isolate process --json " +
                         path(pass + ".json").string()),
              0)
        << slurp(path(pass + ".out"));
    EXPECT_EQ(slurp(path(pass + ".json")), plain) << pass;
  }
  // The cold units really ran in worker children.
  EXPECT_GT(counter_value(json::parse(slurp(path("cold-metrics.json"))),
                          "proc.units_dispatched"),
            0.0);
}

TEST_F(IsolationE2e, CrashAndHangAreTriagedAndQuarantined) {
  // run:1 segfaults in its worker child; run:2 sleeps past the deadline,
  // so the watchdog kills its child. --keep-going quarantines both. An
  // ASan build would catch the SEGV in its own handler and exit 1;
  // handle_segv=0 lets the child die by the signal, as other builds do.
  const int rc =
      anacin("triage", "triage-store",
             "measure --pattern message_race --ranks 8 --runs 4 "
             "--backoff-us 0 --isolate process --keep-going "
             "--run-deadline-ms 1000 --json " +
                 path("triage.json").string(),
             "ANACIN_FAULT_PLAN='unit.run:1=crash:SEGV,unit.run:2=sleep:5000' "
             "ASAN_OPTIONS=\"$ASAN_OPTIONS:handle_segv=0\"");
  const std::string out = slurp(path("triage.out"));
  ASSERT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("quarantined run:1"), std::string::npos) << out;
  EXPECT_NE(out.find("quarantined run:2"), std::string::npos) << out;

  const json::Value report = json::parse(slurp(path("triage.json")));
  const json::Value* crash = nullptr;
  const json::Value* hang = nullptr;
  for (const json::Value& unit :
       report.at("resilience").at("quarantined").items()) {
    const std::string id = unit.at("unit").as_string();
    if (id == "run:1") crash = &unit;
    if (id == "run:2") hang = &unit;
  }
  ASSERT_NE(crash, nullptr) << out;
  ASSERT_NE(hang, nullptr) << out;

  const json::Value& crash_triage = crash->at("triage");
  EXPECT_EQ(crash_triage.at("signal").as_string(), "SIGSEGV");
  EXPECT_EQ(crash_triage.at("disposition").as_string(), "crash");
  EXPECT_GT(crash_triage.at("peak_rss_kib").as_number(), 0.0);
  EXPECT_TRUE(crash_triage.contains("stderr_tail"));

  EXPECT_EQ(hang->at("triage").at("disposition").as_string(), "deadline");
  EXPECT_NE(hang->at("error").as_string().find("watchdog"), std::string::npos)
      << hang->at("error").as_string();
  // The campaign reaped every child it spawned.
  EXPECT_TRUE(e2e::no_process_left(dir_.string()));
}

TEST_F(IsolationE2e, KilledParentLeavesNoWorkerAndRerunMatches) {
  const std::string sweep =
      "sweep --pattern message_race --ranks 8 --runs 4 --step 50 --seed 11 "
      "--isolate process --csv ";
  ASSERT_EQ(anacin("base", "base-store", sweep + path("base.csv").string()),
            0)
      << slurp(path("base.out"));

  // SIGKILL the parent alone (not its process group, as `timeout` would)
  // while a child sleeps inside run:1. Only PR_SET_PDEATHSIG can stop the
  // children then: their stdin closes, but they read it only between
  // units. Each worker names its store and `__worker` on its command line;
  // run:1 is dispatched with the first workers, so 0.3 s after they
  // appear its child is asleep.
  const std::string find_workers = "pgrep -f '" +
                                    path("killed-store").string() +
                                    " __worke[r]' > " +
                                    path("workers.txt").string();
  const std::string script =
      command("killed", "killed-store", sweep + path("killed.csv").string(),
              "ANACIN_FAULT_PLAN=unit.run:1=sleep:3000") +
      " &\nP=$!\ni=0\nuntil " + find_workers +
      " || [ $i -ge 100 ]; do sleep 0.05; i=$((i+1)); done\n"
      "sleep 0.3\nkill -KILL $P\nwait $P 2> /dev/null";
  ASSERT_EQ(run_command(script), 128 + SIGKILL) << slurp(path("killed.out"));
  ASSERT_FALSE(slurp(path("workers.txt")).empty())
      << "no worker was alive when the parent was killed";

  // Allow the killed children about a second to be reaped.
  bool gone = e2e::no_process_left(dir_.string());
  for (int i = 0; i < 20 && !gone; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gone = e2e::no_process_left(dir_.string());
  }
  EXPECT_TRUE(gone) << "a __worker outlived its SIGKILLed parent";

  ASSERT_EQ(anacin("rerun", "killed-store", sweep + path("rerun.csv").string()),
            0)
      << slurp(path("rerun.out"));
  EXPECT_EQ(slurp(path("rerun.csv")), slurp(path("base.csv")));
}

}  // namespace
}  // namespace anacin
