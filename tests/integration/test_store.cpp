// End-to-end artifact store: a cold measurement, a cold 5-point sweep, a
// cold drop-probability sweep and a cold bisection fill one store, then the
// same commands re-run in fresh processes. The warm passes must serve every
// run, reference, feature and kernel distance from the store — zero
// simulations, zero distance computations — and reproduce the cold outputs
// byte for byte.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cli_e2e.hpp"

namespace anacin {
namespace {

namespace fs = std::filesystem;
using e2e::counter_value;
using e2e::run_command;
using e2e::slurp;

class StoreE2e : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anacin_store_e2e_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// `anacin --store <dir>/store [--metrics-out <dir>/<tag>-metrics.json]
  /// <args>`, its stdout and stderr captured in <dir>/<tag>.out.
  int anacin(const std::string& tag, const std::string& args,
             bool metrics = true) const {
    std::ostringstream os;
    os << '"' << fs::path(ANACIN_CLI_PATH).string() << '"' << " --store "
       << (dir_ / "store").string();
    if (metrics) {
      os << " --metrics-out " << (dir_ / (tag + "-metrics.json")).string();
    }
    os << ' ' << args << " > " << (dir_ / (tag + ".out")).string() << " 2>&1";
    return run_command(os.str());
  }

  double counter(const std::string& tag, const std::string& name) const {
    return counter_value(json::parse(slurp(dir_ / (tag + "-metrics.json"))),
                         name);
  }

  fs::path dir_;
};

TEST_F(StoreE2e, WarmRerunsInFreshProcessesDoNoSimulationOrDistanceWork) {
  // Each command writes its result to the file named last.
  const std::vector<std::pair<std::string, std::string>> commands = {
      {"measure", "measure --pattern message_race --ranks 8 --runs 6 --json"},
      {"sweep",
       "sweep --pattern message_race --ranks 8 --runs 4 --step 25 --csv"},
      // A deterministic baseline (nd 0): every bit of distance comes from
      // the injected drops.
      {"fault_sweep",
       "sweep --pattern message_race --ranks 8 --runs 5 --nd 0 "
       "--fault-drop 0:0.3:0.1 --csv"},
      {"bisect",
       "bisect --pattern message_race --ranks 8 --nd 100 --seed 11 "
       "--replay-seed 777 --json"}};
  for (const auto& [phase, command] : commands) {
    for (const char* pass : {"cold", "warm"}) {
      const std::string tag = phase + "_" + pass;
      ASSERT_EQ(anacin(tag, command + " " + (dir_ / tag).string()), 0)
          << slurp(dir_ / (tag + ".out"));
    }
    const std::string cold = slurp(dir_ / (phase + "_cold"));
    ASSERT_FALSE(cold.empty()) << phase;
    EXPECT_EQ(slurp(dir_ / (phase + "_warm")), cold) << phase;

    EXPECT_GT(counter(phase + "_cold", "sim.engine.runs"), 0) << phase;
    EXPECT_EQ(counter(phase + "_warm", "sim.engine.runs"), 0) << phase;
    EXPECT_EQ(counter(phase + "_warm", "kernels.distances_computed"), 0)
        << phase;
    EXPECT_GE(counter(phase + "_warm", "store.hits"), 1) << phase;
  }

  // The median distance never falls as the drop probability rises, and
  // the drops move it off 0.
  std::istringstream csv(slurp(dir_ / "fault_sweep_cold"));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  ASSERT_EQ(line.rfind("drop_probability,median,", 0), 0u) << line;
  std::vector<double> medians;
  while (std::getline(csv, line)) {
    medians.push_back(std::stod(line.substr(line.find(',') + 1)));
  }
  ASSERT_GE(medians.size(), 4u);
  for (std::size_t i = 1; i < medians.size(); ++i) {
    EXPECT_GE(medians[i], medians[i - 1]) << "point " << i;
  }
  EXPECT_GT(medians.back(), 0.0);

  // The bisection converges on the racy wildcard receive.
  const json::Value bisect = json::parse(slurp(dir_ / "bisect_cold"));
  EXPECT_EQ(bisect.at("schema").as_string(), "anacin-bisect-1");
  EXPECT_GT(bisect.at("total_matches").as_int(), 0);
  const double full_gap = bisect.at("full_gap").as_number();
  EXPECT_GT(full_gap, 0.0);
  EXPECT_GT(bisect.at("minimal").size(), 0u);
  EXPECT_GE(bisect.at("achieved").as_number(), 0.9 * full_gap);
  ASSERT_GT(bisect.at("report").size(), 0u);
  EXPECT_EQ(bisect.at("report").at(0).at("callsite").as_string(),
            "message_race>race_recv>MPI_Recv");

  ASSERT_EQ(anacin("verify", "cache verify", false), 0)
      << slurp(dir_ / "verify.out");
  EXPECT_NE(slurp(dir_ / "verify.out").find(" 0 corrupt, 0 foreign"),
            std::string::npos)
      << slurp(dir_ / "verify.out");
  ASSERT_EQ(anacin("stats", "cache stats", false), 0)
      << slurp(dir_ / "stats.out");
  EXPECT_NE(slurp(dir_ / "stats.out").find("  run "), std::string::npos)
      << slurp(dir_ / "stats.out");

  // objects/ is the store's only record: nothing else lands in its root.
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(dir_ / "store")) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"objects"});
}

}  // namespace
}  // namespace anacin
