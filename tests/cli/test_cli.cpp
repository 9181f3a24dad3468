#include "cli/cli_app.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <sstream>

#include "obs/obs.hpp"
#include "support/json.hpp"

namespace anacin::cli {
namespace {

struct CliRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliRun invoke(std::vector<std::string> args) {
  args.insert(args.begin(), "anacin");
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.exit_code = run_cli(args, out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

TEST(Cli, NoArgsPrintsUsage) {
  const CliRun run = invoke({});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("usage: anacin"), std::string::npos);
  EXPECT_NE(run.out.find("rootcause"), std::string::npos);
}

TEST(Cli, HelpCommand) {
  EXPECT_EQ(invoke({"help"}).exit_code, 0);
  EXPECT_EQ(invoke({"--help"}).exit_code, 0);
}

TEST(Cli, UnknownCommandFailsWithUsage) {
  // 64 (EX_USAGE), not 2: exit 2 means "completed with quarantined units"
  // under --keep-going (see docs/RESILIENCE.md).
  const CliRun run = invoke({"frobnicate"});
  EXPECT_EQ(run.exit_code, 64);
  EXPECT_NE(run.err.find("unknown command"), std::string::npos);
}

TEST(Cli, SubcommandHelpReturnsZero) {
  for (const std::string command :
       {"run", "measure", "sweep", "rootcause", "replay", "course",
        "patterns", "graph"}) {
    const CliRun run = invoke({command, "--help"});
    EXPECT_EQ(run.exit_code, 0) << command;
  }
}

TEST(Cli, PatternsListsAllPackagedApps) {
  const CliRun run = invoke({"patterns"});
  EXPECT_EQ(run.exit_code, 0);
  for (const std::string name :
       {"message_race", "amg2013", "unstructured_mesh", "ping_pong",
        "reduce_tree", "probe_race"}) {
    EXPECT_NE(run.out.find(name), std::string::npos) << name;
  }
}

TEST(Cli, RunPrintsStatsAndAscii) {
  const CliRun run = invoke(
      {"run", "--pattern", "message_race", "--ranks", "4", "--ascii"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("messages=3"), std::string::npos);
  EXPECT_NE(run.out.find("rank 0"), std::string::npos);
}

TEST(Cli, RunWithMetrics) {
  const CliRun run = invoke(
      {"run", "--pattern", "amg2013", "--ranks", "3", "--metrics"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("communication matrix"), std::string::npos);
  EXPECT_NE(run.out.find("critical path"), std::string::npos);
}

TEST(Cli, RunGraphRoundTripThroughTraceFile) {
  const std::string trace_path = "test_output/cli/trace.json";
  const CliRun run = invoke({"run", "--pattern", "message_race", "--ranks",
                             "4", "--trace-out", trace_path});
  EXPECT_EQ(run.exit_code, 0);
  const CliRun graph = invoke({"graph", "--trace", trace_path, "--metrics"});
  EXPECT_EQ(graph.exit_code, 0);
  EXPECT_NE(graph.out.find("ranks=4"), std::string::npos);
  EXPECT_NE(graph.out.find("messages=3"), std::string::npos);
  std::filesystem::remove_all(trace_path);
}

TEST(Cli, GraphRequiresTraceOption) {
  const CliRun run = invoke({"graph"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--trace is required"), std::string::npos);
}

TEST(Cli, MeasureReportsSummaryAndCi) {
  const CliRun run = invoke({"measure", "--pattern", "message_race",
                             "--ranks", "6", "--runs", "6"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("median="), std::string::npos);
  EXPECT_NE(run.out.find("95% CI"), std::string::npos);
}

TEST(Cli, MeasureWritesCsv) {
  const std::string csv_path = "test_output/cli/distances.csv";
  const CliRun run = invoke({"measure", "--pattern", "message_race",
                             "--ranks", "5", "--runs", "4", "--csv",
                             csv_path});
  EXPECT_EQ(run.exit_code, 0);
  std::ifstream in(csv_path);
  EXPECT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "run,kernel_distance");
  std::filesystem::remove_all(csv_path);
}

TEST(Cli, MeasureRejectsBadReduction) {
  const CliRun run = invoke({"measure", "--reduction", "bogus"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("reduction"), std::string::npos);
}

TEST(Cli, SweepShowsMonotoneTrend) {
  const CliRun run = invoke({"sweep", "--pattern", "amg2013", "--ranks", "6",
                             "--runs", "5", "--step", "50"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("0% ND"), std::string::npos);
  EXPECT_NE(run.out.find("100% ND"), std::string::npos);
  EXPECT_NE(run.out.find("Spearman"), std::string::npos);
}

TEST(Cli, RootcauseNamesWildcardCallsite) {
  const CliRun run = invoke({"rootcause", "--pattern", "amg2013", "--ranks",
                             "6", "--runs", "5"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("likely root source"), std::string::npos);
  EXPECT_NE(run.out.find("MPI_Irecv"), std::string::npos);
}

TEST(Cli, RootcauseOnDeterministicPatternReportsNothing) {
  const CliRun run = invoke({"rootcause", "--pattern", "ping_pong", "--ranks",
                             "6", "--runs", "4"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("appears deterministic"), std::string::npos);
}

TEST(Cli, ReplayReportsZeroDistance) {
  const CliRun run = invoke({"replay", "--pattern", "unstructured_mesh",
                             "--ranks", "6", "--seed", "3", "--replay-seed",
                             "777"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("kernel distance(recorded, replayed) = 0"),
            std::string::npos);
}

TEST(Cli, BisectReportsMinimalRacySetAndCallsite) {
  const CliRun run = invoke({"bisect", "--pattern", "message_race", "--ranks",
                             "6", "--seed", "11", "--replay-seed", "777"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("recorded wildcard matches:"), std::string::npos);
  // Either the seeds happen to coincide (no gap) or a minimal set with the
  // racy callsite is reported; at full ND on message_race the gap is real.
  EXPECT_NE(run.out.find("minimal racy set:"), std::string::npos);
  EXPECT_NE(run.out.find("message_race>race_recv>MPI_Recv"),
            std::string::npos);
  EXPECT_NE(run.out.find("likely root cause:"), std::string::npos);
}

TEST(Cli, BisectWritesJsonAndBarArtifacts) {
  const std::string json_path = "bisect_test_out.json";
  const std::string bar_path = "bisect_test_out.svg";
  const CliRun run =
      invoke({"bisect", "--pattern", "message_race", "--ranks", "6",
              "--seed", "11", "--replay-seed", "777", "--json", json_path,
              "--bar", bar_path});
  EXPECT_EQ(run.exit_code, 0);
  std::ifstream json_file(json_path);
  ASSERT_TRUE(json_file.good());
  const std::string body((std::istreambuf_iterator<char>(json_file)),
                         std::istreambuf_iterator<char>());
  const json::Value doc = json::parse(body);
  EXPECT_EQ(doc.at("schema").as_string(), "anacin-bisect-1");
  EXPECT_GT(doc.at("minimal").size(), 0u);
  std::ifstream bar_file(bar_path);
  EXPECT_TRUE(bar_file.good());
  std::filesystem::remove(json_path);
  std::filesystem::remove(bar_path);
}

TEST(Cli, BisectRejectsKeepGoingAndEqualSeeds) {
  const CliRun keep_going =
      invoke({"bisect", "--pattern", "message_race", "--ranks", "4",
              "--keep-going"});
  EXPECT_EQ(keep_going.exit_code, 1);
  EXPECT_NE(keep_going.err.find("--keep-going"), std::string::npos);
  const CliRun same_seed =
      invoke({"bisect", "--pattern", "message_race", "--ranks", "4",
              "--seed", "7", "--replay-seed", "7"});
  EXPECT_EQ(same_seed.exit_code, 1);
  EXPECT_NE(same_seed.err.find("replay seed"), std::string::npos);
}

TEST(Cli, BadFlagValuesAreConfigErrorsWithoutSourceLocations) {
  // A bad flag value is the user's input, not a broken invariant: exit 1
  // with one error line, never a "check failed ... at <file>:<line>".
  const std::vector<std::vector<std::string>> cases = {
      {"bisect", "--slice-window", "0"},
      {"bisect", "--slice-window", "-1"},
      {"bisect", "--keep-going"},
      {"bisect", "--max-retries", "-1"},
      {"measure", "--runs", "2", "--max-retries", "-1"},
      {"measure", "--runs", "2", "--run-deadline-ms", "-5"},
      {"measure", "--runs", "2", "--unit-mem-limit", "1000"},
      {"sweep", "--runs", "2", "--fault-drop", "0.5:0.2:0.1"},
      {"sweep", "--runs", "2", "--fault-drop", "0:0.2:0"},
      {"sweep", "--runs", "2", "--step", "0"},
  };
  for (const std::vector<std::string>& args : cases) {
    SCOPED_TRACE(args[0] + " " + args[args.size() - 2] + " " + args.back());
    const CliRun run = invoke(args);
    EXPECT_EQ(run.exit_code, 1);
    EXPECT_EQ(run.err.rfind("error: ", 0), 0u) << run.err;
    EXPECT_EQ(run.err.find("check failed"), std::string::npos) << run.err;
  }
}

TEST(Cli, FiguresIndexAndLookup) {
  const CliRun index = invoke({"figures"});
  EXPECT_EQ(index.exit_code, 0);
  EXPECT_NE(index.out.find("fig07_nd_sweep"), std::string::npos);
  const CliRun one = invoke({"figures", "--id", "fig5"});
  EXPECT_EQ(one.exit_code, 0);
  EXPECT_NE(one.out.find("unstructured_mesh"), std::string::npos);
  EXPECT_NE(one.out.find("fig05_process_scaling"), std::string::npos);
  const CliRun missing = invoke({"figures", "--id", "fig99"});
  EXPECT_EQ(missing.exit_code, 1);
}

TEST(Cli, ReportProducesSelfContainedHtml) {
  const std::string path = "test_output/cli/report.html";
  const CliRun run = invoke({"report", "--pattern", "message_race",
                             "--ranks", "5", "--runs", "4", "--out", path});
  EXPECT_EQ(run.exit_code, 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string html((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("message_race"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);       // inline figures
  EXPECT_NE(html.find("root source"), std::string::npos);
  EXPECT_EQ(html.find("src=\"http"), std::string::npos);  // no external assets
  std::filesystem::remove_all(path);
}

TEST(Cli, ReportOnDeterministicPatternSaysSo) {
  const std::string path = "test_output/cli/report2.html";
  const CliRun run = invoke({"report", "--pattern", "ping_pong", "--ranks",
                             "4", "--runs", "4", "--out", path});
  EXPECT_EQ(run.exit_code, 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string html((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(html.find("deterministically"), std::string::npos);
  std::filesystem::remove_all(path);
}

TEST(Cli, CourseTablesPrinted) {
  const CliRun run = invoke({"course"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("Table I"), std::string::npos);
  EXPECT_NE(run.out.find("Table II"), std::string::npos);
}

TEST(Cli, CourseUseCase1Runs) {
  const CliRun run = invoke({"course", "--use-case", "1"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("runs differ: yes"), std::string::npos);
}

TEST(Cli, CourseSchedulePrinted) {
  const CliRun run = invoke({"course", "--schedule"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("Half-day tutorial schedule"), std::string::npos);
  EXPECT_NE(run.out.find("use_case_advanced"), std::string::npos);
}

TEST(Cli, QuizPrintsQuestionsPerLevel) {
  const CliRun run = invoke({"quiz", "--level", "C", "--reveal"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("C.1-q1"), std::string::npos);
  EXPECT_NE(run.out.find("answer:"), std::string::npos);
  const CliRun hidden = invoke({"quiz", "--level", "C"});
  EXPECT_EQ(hidden.out.find("answer:"), std::string::npos);
}

TEST(Cli, QuizGradesSubmissions) {
  const CliRun perfect = invoke({"quiz", "--grade", "A.1-q1=b,A.2-q2=a"});
  EXPECT_EQ(perfect.exit_code, 0);
  EXPECT_NE(perfect.out.find("score: 2/2"), std::string::npos);
  const CliRun flawed = invoke({"quiz", "--grade", "A.1-q1=a"});
  EXPECT_EQ(flawed.exit_code, 1);
  EXPECT_NE(flawed.out.find("review A.1-q1"), std::string::npos);
}

TEST(Cli, QuizRejectsMalformedGradeSpec) {
  EXPECT_EQ(invoke({"quiz", "--grade", "A.1-q1"}).exit_code, 1);
  EXPECT_EQ(invoke({"quiz", "--grade", "A.1-q1=zz"}).exit_code, 1);
  EXPECT_EQ(invoke({"quiz", "--level", "Q"}).exit_code, 1);
}

TEST(Cli, CourseRejectsBadUseCase) {
  const CliRun run = invoke({"course", "--use-case", "9"});
  EXPECT_EQ(run.exit_code, 1);
}

TEST(Cli, GlobalObservabilityFlagsWriteMetricsAndTrace) {
  const std::string metrics_path = "test_output/cli/metrics.json";
  const std::string trace_path = "test_output/cli/spans.json";
  const CliRun run = invoke({"--metrics-out", metrics_path, "--trace-out",
                             trace_path, "measure", "--pattern",
                             "message_race", "--ranks", "5", "--runs", "4"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("metrics written to"), std::string::npos);
  EXPECT_NE(run.out.find("trace written to"), std::string::npos);

  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.good());
  std::string metrics_text((std::istreambuf_iterator<char>(metrics_in)),
                           std::istreambuf_iterator<char>());
  const json::Value metrics = json::parse(metrics_text);
  EXPECT_GT(metrics.at("counters").at("sim.engine.runs").as_number(), 0.0);
  EXPECT_GT(metrics.at("counters").at("sim.engine.messages").as_number(),
            0.0);
  EXPECT_GT(
      metrics.at("counters").at("kernels.wl.feature_extractions").as_number(),
      0.0);

  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::string trace_text((std::istreambuf_iterator<char>(trace_in)),
                         std::istreambuf_iterator<char>());
  const json::Value trace = json::parse(trace_text);
  ASSERT_TRUE(trace.is_array());
  ASSERT_GT(trace.size(), 0u);
  bool saw_engine_run = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.at(i).at("ph").as_string(), "X");
    if (trace.at(i).at("name").as_string() == "sim.engine.run") {
      saw_engine_run = true;
    }
  }
  EXPECT_TRUE(saw_engine_run);
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().clear();
  std::filesystem::remove_all(metrics_path);
  std::filesystem::remove_all(trace_path);
}

TEST(Cli, GlobalFlagsAcceptEqualsForm) {
  const std::string metrics_path = "test_output/cli/metrics_eq.json";
  const CliRun run = invoke({"--metrics-out=" + metrics_path, "run",
                             "--pattern", "message_race", "--ranks", "4"});
  EXPECT_EQ(run.exit_code, 0);
  std::ifstream in(metrics_path);
  EXPECT_TRUE(in.good());
  std::filesystem::remove_all(metrics_path);
}

TEST(Cli, MetricsOutWithoutPathFails) {
  const CliRun run = invoke({"--metrics-out"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("requires a file path"), std::string::npos);
}

TEST(Cli, BadOptionValueSurfacesAsError) {
  const CliRun run = invoke({"run", "--ranks", "not-a-number"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("invalid value"), std::string::npos);
}

TEST(Cli, UnknownPatternSurfacesAsError) {
  const CliRun run = invoke({"run", "--pattern", "bogus"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("unknown pattern"), std::string::npos);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(Cli, CacheWithoutStoreFails) {
  const CliRun run = invoke({"cache", "stats"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--store"), std::string::npos);
}

TEST(Cli, CacheWithoutActionFails) {
  const CliRun run = invoke({"--store", "test_output/cli_cache", "cache"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("stats, verify, or gc"), std::string::npos);
  std::filesystem::remove_all("test_output/cli_cache");
}

TEST(Cli, StoreWarmMeasureSkipsSimulationAndDistanceWork) {
  const std::string dir = "test_output/cli_store";
  const std::vector<std::string> measure = {
      "--store", dir,      "measure", "--pattern", "message_race",
      "--ranks", "4",      "--runs",  "4",         "--seed",
      "90125",   "--json"};

  auto with_json = [&](const std::string& json_path) {
    std::vector<std::string> args = measure;
    args.push_back(json_path);
    return args;
  };
  ASSERT_EQ(invoke(with_json(dir + "/cold.json")).exit_code, 0);

  obs::Counter& sims = obs::counter("sim.engine.runs");
  obs::Counter& distances = obs::counter("kernels.distances_computed");
  const std::uint64_t sims_before = sims.value();
  const std::uint64_t distances_before = distances.value();
  const std::uint64_t hits_before = obs::counter("store.hits").value();

  ASSERT_EQ(invoke(with_json(dir + "/warm.json")).exit_code, 0);
  EXPECT_EQ(sims.value(), sims_before)
      << "warm measure re-ran a simulation";
  EXPECT_EQ(distances.value(), distances_before)
      << "warm measure recomputed a kernel distance";
  EXPECT_GT(obs::counter("store.hits").value(), hits_before);

  const std::string cold = read_file(dir + "/cold.json");
  const std::string warm = read_file(dir + "/warm.json");
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(warm, cold) << "warm measurement JSON is not bit-identical";
  std::filesystem::remove_all(dir);
}

TEST(Cli, CacheStatsVerifyAndGc) {
  const std::string dir = "test_output/cli_cache_ops";
  ASSERT_EQ(invoke({"--store", dir, "measure", "--pattern", "message_race",
                    "--ranks", "4", "--runs", "3", "--seed", "5150"})
                .exit_code,
            0);

  const CliRun stats = invoke({"--store", dir, "cache", "stats"});
  EXPECT_EQ(stats.exit_code, 0);
  EXPECT_NE(stats.out.find("objects:"), std::string::npos);
  EXPECT_NE(stats.out.find("run"), std::string::npos);

  const CliRun verify = invoke({"--store", dir, "cache", "verify"});
  EXPECT_EQ(verify.exit_code, 0);
  EXPECT_NE(verify.out.find("0 corrupt"), std::string::npos);

  EXPECT_EQ(invoke({"--store", dir, "cache", "gc"}).exit_code, 1)
      << "gc without --max-bytes must be rejected";
  const CliRun gc =
      invoke({"--store", dir, "cache", "gc", "--max-bytes", "0"});
  EXPECT_EQ(gc.exit_code, 0);
  EXPECT_NE(gc.out.find("0 objects (0 bytes) remain"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Cli, CacheVerifyFlagsCorruptObjects) {
  const std::string dir = "test_output/cli_cache_corrupt";
  ASSERT_EQ(invoke({"--store", dir, "run", "--pattern", "message_race",
                    "--ranks", "4"})
                .exit_code,
            0);
  // `run` does not use the store yet; plant a bogus object by hand.
  std::filesystem::create_directories(dir + "/objects/ab");
  {
    std::ofstream bad(dir + "/objects/ab" +
                          "/cdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
                      std::ios::binary);
    bad << "this is not an artifact";
  }
  const CliRun verify = invoke({"--store", dir, "cache", "verify"});
  EXPECT_EQ(verify.exit_code, 1);
  EXPECT_NE(verify.out.find("corrupt"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Cli, StoreEnvVarDefaultAndNoStoreOverride) {
  const std::string dir = "test_output/cli_env_store";
  ::setenv("ANACIN_STORE_DIR", dir.c_str(), 1);
  ASSERT_EQ(invoke({"measure", "--pattern", "message_race", "--ranks", "4",
                    "--runs", "2", "--seed", "777001"})
                .exit_code,
            0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/objects"));

  // --no-store wins over the environment.
  std::filesystem::remove_all(dir);
  ASSERT_EQ(invoke({"--no-store", "measure", "--pattern", "message_race",
                    "--ranks", "4", "--runs", "2", "--seed", "777002"})
                .exit_code,
            0);
  EXPECT_FALSE(std::filesystem::exists(dir));
  ::unsetenv("ANACIN_STORE_DIR");
  std::filesystem::remove_all(dir);
}

// The store's in-memory cache and its budget flag are gone: the retired
// flag fails loudly as an unknown command instead of being ignored.
TEST(Cli, RetiredStoreMaxBytesIsAnUnknownCommand) {
  const CliRun run = invoke({"--store-max-bytes", "5", "patterns"});
  EXPECT_EQ(run.exit_code, 64);
  EXPECT_NE(run.err.find("--store-max-bytes"), std::string::npos) << run.err;
}

TEST(Cli, FaultFlagsInjectFaults) {
  const CliRun run = invoke({"run", "--pattern", "message_race", "--ranks",
                             "4", "--fault-drop", "1.0", "--fault-retries",
                             "2", "--fault-dup", "1.0", "--stragglers", "1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("faults: drops=6"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("duplicates=3"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("straggler_events="), std::string::npos) << run.out;
}

TEST(Cli, FaultFlagsRejectMalformedValues) {
  const CliRun bad_drop = invoke({"run", "--ranks", "4", "--fault-drop", "x"});
  EXPECT_EQ(bad_drop.exit_code, 1);
  EXPECT_NE(bad_drop.err.find("--fault-drop"), std::string::npos);

  const CliRun range_outside_sweep =
      invoke({"run", "--ranks", "4", "--fault-drop", "0:0.3:0.1"});
  EXPECT_EQ(range_outside_sweep.exit_code, 1);

  const CliRun bad_list =
      invoke({"run", "--ranks", "4", "--stragglers", "1,x"});
  EXPECT_EQ(bad_list.exit_code, 1);
  EXPECT_NE(bad_list.err.find("--stragglers"), std::string::npos);

  const CliRun out_of_range =
      invoke({"run", "--ranks", "4", "--stragglers", "7"});
  EXPECT_EQ(out_of_range.exit_code, 1);
}

TEST(Cli, SweepOverDropProbability) {
  const CliRun run =
      invoke({"sweep", "--pattern", "message_race", "--ranks", "4", "--runs",
              "3", "--nd", "0", "--fault-drop", "0:0.5:0.25", "--csv",
              "test_output/drop_sweep.csv"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("Spearman(median, drop)"), std::string::npos)
      << run.out;

  std::ifstream csv("test_output/drop_sweep.csv");
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "drop_probability,median,mean");
  int rows = 0;
  for (std::string line; std::getline(csv, line);) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 3);  // 0, 0.25, 0.5
  std::filesystem::remove_all("test_output/drop_sweep.csv");
}

// ---------------------------------------------------------------------------
// Resilience: --keep-going, retries, journal/--resume, cache repair
// ---------------------------------------------------------------------------

/// A fault plan in the environment: run_cli reads ANACIN_FAULT_PLAN on
/// every invocation, exactly as a child process would.
class ScopedInjection {
public:
  explicit ScopedInjection(const char* spec) {
    ::setenv("ANACIN_FAULT_PLAN", spec, 1);
  }
  ~ScopedInjection() { ::unsetenv("ANACIN_FAULT_PLAN"); }
};

const std::vector<std::string> kSmallMeasure = {
    "measure", "--pattern", "message_race", "--ranks", "4",
    "--runs",  "4",         "--seed",       "42",      "--backoff-us", "0"};

std::vector<std::string> with_args(std::vector<std::string> base,
                                   std::initializer_list<std::string> extra) {
  base.insert(base.end(), extra.begin(), extra.end());
  return base;
}

TEST(CliResilience, FailFastAbortsWithExit1) {
  const ScopedInjection inject("unit.run:1=permanent");
  const CliRun run = invoke(kSmallMeasure);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("run:1"), std::string::npos) << run.err;
}

TEST(CliResilience, KeepGoingQuarantinesWithExit2) {
  const ScopedInjection inject("unit.run:1=permanent");
  const CliRun run = invoke(with_args(kSmallMeasure, {"--keep-going"}));
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_NE(run.out.find("PARTIAL RESULTS"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("quarantined run:1"), std::string::npos) << run.out;
}

TEST(CliResilience, TransientFailuresRetryToCleanExit) {
  const ScopedInjection inject("unit.run:0=transient:2");
  const CliRun no_retries = invoke(kSmallMeasure);
  EXPECT_EQ(no_retries.exit_code, 1);
  const CliRun retried =
      invoke(with_args(kSmallMeasure, {"--max-retries", "3"}));
  EXPECT_EQ(retried.exit_code, 0) << retried.err;
}

TEST(CliResilience, DeadlineFlagFailsHangingUnit) {
  // Wide margins on both sides of the deadline: a healthy unit finishes in
  // well under 100 ms even on a loaded CI box, while the injected hang
  // overshoots by 4x. A tight deadline (5 ms) flaked under parallel test
  // load — slow-but-healthy units blew it too, every run got quarantined,
  // and the campaign aborted with exit 1 instead of reporting partial
  // results.
  const ScopedInjection inject("unit.run:2=sleep:400");
  const CliRun run = invoke(
      with_args(kSmallMeasure, {"--run-deadline-ms", "100", "--keep-going"}));
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_NE(run.out.find("deadline"), std::string::npos) << run.out;
}

TEST(CliResilience, RejectsNegativeRetries) {
  const CliRun run = invoke(with_args(kSmallMeasure, {"--max-retries", "-1"}));
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--max-retries"), std::string::npos);
}

std::vector<std::string> small_sweep(std::initializer_list<std::string> extra) {
  std::vector<std::string> args = {
      "sweep", "--pattern", "message_race", "--ranks", "4",
      "--runs", "2",        "--step",       "50",      "--seed", "7"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(CliResilience, SweepResumeReplaysJournalByteIdentically) {
  const std::string dir = "test_output/cli_resume";
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/sweep.jsonl";

  const CliRun first = invoke(small_sweep({"--journal", journal, "--csv",
                                           dir + "/a.csv", "--json",
                                           dir + "/a.json"}));
  ASSERT_EQ(first.exit_code, 0) << first.err;
  ASSERT_TRUE(std::filesystem::exists(journal));

  const std::uint64_t sims_before = obs::counter("sim.engine.runs").value();
  const CliRun resumed = invoke(small_sweep({"--journal", journal, "--resume",
                                             "--csv", dir + "/b.csv",
                                             "--json", dir + "/b.json"}));
  ASSERT_EQ(resumed.exit_code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("resume: 3 of 3 points journaled"),
            std::string::npos)
      << resumed.out;
  // Zero redundant simulations: every point replays from the journal.
  EXPECT_EQ(obs::counter("sim.engine.runs").value(), sims_before);

  EXPECT_EQ(read_file(dir + "/b.csv"), read_file(dir + "/a.csv"));
  EXPECT_EQ(read_file(dir + "/b.json"), read_file(dir + "/a.json"));
  ASSERT_FALSE(read_file(dir + "/a.json").empty());
  std::filesystem::remove_all(dir);
}

TEST(CliResilience, SweepResumeRejectsJournalOfDifferentCampaign) {
  const std::string dir = "test_output/cli_resume_mismatch";
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/sweep.jsonl";
  ASSERT_EQ(invoke(small_sweep({"--journal", journal})).exit_code, 0);
  // Same journal, different sweep configuration (other seed).
  const CliRun mismatched = invoke(
      {"sweep", "--pattern", "message_race", "--ranks", "4", "--runs", "2",
       "--step", "50", "--seed", "8", "--journal", journal, "--resume"});
  EXPECT_EQ(mismatched.exit_code, 1);
  EXPECT_NE(mismatched.err.find("different campaign"), std::string::npos)
      << mismatched.err;
  std::filesystem::remove_all(dir);
}

TEST(CliResilience, SweepWithoutResumeDiscardsStaleJournal) {
  const std::string dir = "test_output/cli_fresh_journal";
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/sweep.jsonl";
  ASSERT_EQ(invoke(small_sweep({"--journal", journal})).exit_code, 0);
  // A non-resume sweep with a different config and the same journal path
  // starts fresh instead of tripping the campaign-key check.
  const CliRun fresh = invoke(
      {"sweep", "--pattern", "message_race", "--ranks", "4", "--runs", "2",
       "--step", "50", "--seed", "8", "--journal", journal});
  EXPECT_EQ(fresh.exit_code, 0) << fresh.err;
  std::filesystem::remove_all(dir);
}

TEST(CliResilience, SweepKeepGoingPropagatesPartialExit) {
  const ScopedInjection inject("unit.run:1=permanent");
  const CliRun run =
      invoke(small_sweep({"--keep-going", "--backoff-us", "0"}));
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_NE(run.out.find("PARTIAL RESULTS"), std::string::npos) << run.out;
}

TEST(CliResilience, CacheVerifyRepairQuarantinesCorruptObjects) {
  const std::string dir = "test_output/cli_cache_repair";
  ASSERT_EQ(invoke({"--store", dir, "measure", "--pattern", "message_race",
                    "--ranks", "4", "--runs", "3", "--seed", "31337"})
                .exit_code,
            0);
  std::filesystem::create_directories(dir + "/objects/ab");
  {
    std::ofstream bad(dir + "/objects/ab/cdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
                      std::ios::binary);
    bad << "this is not an artifact";
  }
  const CliRun repair =
      invoke({"--store", dir, "cache", "verify", "--repair"});
  EXPECT_EQ(repair.exit_code, 0) << repair.err;
  EXPECT_NE(repair.out.find("quarantined"), std::string::npos) << repair.out;
  EXPECT_TRUE(std::filesystem::exists(
      dir + "/quarantine/abcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"));

  // After repair the store verifies clean again.
  const CliRun verify = invoke({"--store", dir, "cache", "verify"});
  EXPECT_EQ(verify.exit_code, 0);
  EXPECT_NE(verify.out.find("0 corrupt"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliResilience, UsageDocumentsExitCodes) {
  const CliRun run = invoke({"help"});
  EXPECT_NE(run.out.find("--keep-going"), std::string::npos);
  EXPECT_NE(run.out.find("130 interrupted"), std::string::npos);
  EXPECT_NE(run.out.find("ANACIN_FAULT_PLAN"), std::string::npos);
}

TEST(CliResilience, RetiredFaultSpellingsFailLoudly) {
  // A stale script that still sets a pre-plan variable must not run a
  // clean campaign while claiming fault coverage.
  for (const char* name :
       {"ANACIN_INJECT_FAILURES", "ANACIN_INJECT_CRASH", "ANACIN_INJECT_HANG",
        "ANACIN_IO_CHAOS", "ANACIN_NET_CHAOS", "ANACIN_FAIL_WRITE_AFTER",
        "ANACIN_CRASH_AFTER_POINTS"}) {
    ::setenv(name, "1", 1);
    const CliRun run = invoke({"patterns"});
    ::unsetenv(name);
    EXPECT_EQ(run.exit_code, 1) << name;
    EXPECT_NE(run.err.find(name), std::string::npos) << run.err;
    EXPECT_NE(run.err.find("ANACIN_FAULT_PLAN"), std::string::npos)
        << run.err;
  }
  // The retired flags are gone too: a global one reads as an unknown
  // command, a subcommand one as an unknown option.
  EXPECT_EQ(invoke({"--io-chaos", "enospc=1", "patterns"}).exit_code, 64);
  EXPECT_EQ(invoke({"agent", "--net-chaos-drop", "0.5"}).exit_code, 1);
  // And a malformed plan is an error, not a clean run.
  const ScopedInjection inject("disk.enospc=0.5x");
  const CliRun bad = invoke({"patterns"});
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.err.find("disk.enospc"), std::string::npos) << bad.err;
}

}  // namespace
}  // namespace anacin::cli
