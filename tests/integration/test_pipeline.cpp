#include <gtest/gtest.h>

#include "core/anacin.hpp"

namespace anacin {
namespace {

/// End-to-end checks that the full pipeline reproduces the paper's
/// qualitative findings at laptop scale.

core::CampaignConfig campaign(const std::string& pattern, int ranks,
                              double nd, int runs, int iterations = 1) {
  core::CampaignConfig config;
  config.pattern = pattern;
  config.shape.num_ranks = ranks;
  config.shape.iterations = iterations;
  config.nd_fraction = nd;
  config.num_runs = runs;
  return config;
}

TEST(PipelineFig5, MoreProcessesMoreNonDeterminism) {
  ThreadPool pool(2);
  const auto big =
      core::run_campaign(campaign("unstructured_mesh", 16, 1.0, 12), pool);
  const auto small =
      core::run_campaign(campaign("unstructured_mesh", 8, 1.0, 12), pool);
  EXPECT_GT(big.distance_summary.median, small.distance_summary.median);
  const double p = analysis::mann_whitney_u(big.measurement.distances,
                                            small.measurement.distances)
                       .p_value;
  EXPECT_LT(p, 0.01);
}

TEST(PipelineFig6, MoreIterationsMoreNonDeterminism) {
  ThreadPool pool(2);
  const auto two = core::run_campaign(
      campaign("unstructured_mesh", 8, 1.0, 12, 2), pool);
  const auto one = core::run_campaign(
      campaign("unstructured_mesh", 8, 1.0, 12, 1), pool);
  EXPECT_GT(two.distance_summary.median, one.distance_summary.median);
}

TEST(PipelineFig7, DistanceGrowsWithNdPercent) {
  ThreadPool pool(2);
  std::vector<double> percents;
  std::vector<double> medians;
  for (const double percent : {0.0, 25.0, 50.0, 75.0, 100.0}) {
    const auto result = core::run_campaign(
        campaign("amg2013", 8, percent / 100.0, 10), pool);
    percents.push_back(percent);
    medians.push_back(result.distance_summary.median);
  }
  EXPECT_DOUBLE_EQ(medians.front(), 0.0);
  EXPECT_GT(medians.back(), 0.0);
  EXPECT_GT(analysis::spearman(percents, medians), 0.8);
}

TEST(PipelineFig8, WildcardRecvCallsiteDominatesHotSlices) {
  ThreadPool pool(2);
  std::vector<graph::EventGraph> graphs;
  core::run_campaign(campaign("amg2013", 8, 1.0, 8), pool,
                     store::active_store(), {}, &graphs);
  const auto kernel = kernels::make_kernel("wl:2");
  const auto report = analysis::find_root_causes(
      *kernel, kernels::LabelPolicy::kTypePeer, graphs, {}, pool);
  ASSERT_FALSE(report.callstacks.empty());
  const auto& top = report.callstacks.front();
  EXPECT_NE(top.path.find("amg2013"), std::string::npos);
  EXPECT_NE(top.path.find("MPI_Irecv"), std::string::npos);
  EXPECT_GT(top.wildcard_share, 0.9);
}

TEST(PipelineControl, DeterministicPatternMeasuresZero) {
  ThreadPool pool(2);
  const auto result =
      core::run_campaign(campaign("ping_pong", 8, 1.0, 8), pool);
  EXPECT_DOUBLE_EQ(result.distance_summary.max, 0.0);
}

TEST(PipelineReplay, ReplaySuppressesMeasuredNd) {
  ThreadPool pool(2);
  // Record one noisy run of the mesh and replay it under several different
  // noise seeds: all replayed graphs must coincide with the recording.
  patterns::PatternConfig shape;
  shape.num_ranks = 8;
  const sim::RankProgram program =
      patterns::make_pattern("unstructured_mesh")->program(shape);

  sim::SimConfig record_config;
  record_config.num_ranks = 8;
  record_config.seed = 5;
  record_config.network.nd_fraction = 1.0;
  const sim::RunResult recorded =
      sim::run_simulation(record_config, program);
  const sim::ReplaySchedule schedule =
      replay::record_schedule(recorded.trace);

  const auto reference = graph::EventGraph::from_trace(recorded.trace);
  std::vector<graph::EventGraph> replayed;
  for (std::uint64_t seed = 100; seed < 105; ++seed) {
    sim::SimConfig config = record_config;
    config.seed = seed;
    config.replay = &schedule;
    replayed.push_back(graph::EventGraph::from_trace(
        sim::run_simulation(config, program).trace));
  }
  const auto kernel = kernels::make_kernel("wl:2");
  const auto measurement = analysis::measure_nd(
      *kernel, kernels::LabelPolicy::kTypePeer, replayed, &reference,
      analysis::DistanceReduction::kToReference, pool);
  for (const double d : measurement.distances) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(PipelineMultiNode, CrossNodeJitterIncreasesNd) {
  ThreadPool pool(2);
  auto on_nodes = [&](int nodes) {
    core::CampaignConfig config = campaign("amg2013", 8, 0.3, 12);
    config.num_nodes = nodes;
    return core::run_campaign(config, pool).distance_summary.median;
  };
  // Inter-node links have larger jitter, so splitting ranks across nodes
  // should not reduce the measured non-determinism (paper: run across
  // multiple compute nodes to increase the likelihood of ND).
  EXPECT_GE(on_nodes(4), on_nodes(1) * 0.8);
}

TEST(PipelineSerialization, TraceGraphsSurviveJsonRoundTrip) {
  ThreadPool pool(1);
  patterns::PatternConfig shape;
  shape.num_ranks = 6;
  sim::SimConfig config;
  config.num_ranks = 6;
  config.network.nd_fraction = 1.0;
  const sim::RunResult run =
      core::run_pattern_once("amg2013", shape, config);
  const trace::Trace copy = trace::Trace::from_json(run.trace.to_json());

  const auto kernel = kernels::make_kernel("wl:2");
  const double distance = kernel->distance(
      kernels::build_labeled_graph(graph::EventGraph::from_trace(run.trace),
                                   kernels::LabelPolicy::kTypePeerCallstack),
      kernels::build_labeled_graph(graph::EventGraph::from_trace(copy),
                                   kernels::LabelPolicy::kTypePeerCallstack));
  EXPECT_DOUBLE_EQ(distance, 0.0);
}

}  // namespace
}  // namespace anacin
