#include "course/use_cases.hpp"

#include <algorithm>

#include "core/campaign.hpp"
#include "kernels/kernel.hpp"
#include "support/error.hpp"

namespace anacin::course {

namespace {

graph::EventGraph run_once(const std::string& pattern, int ranks,
                           double nd_fraction, std::uint64_t seed,
                           int iterations = 1) {
  patterns::PatternConfig shape;
  shape.num_ranks = ranks;
  shape.iterations = iterations;
  sim::SimConfig config;
  config.num_ranks = ranks;
  config.seed = seed;
  config.network.nd_fraction = nd_fraction;
  const sim::RunResult run = core::run_pattern_once(pattern, shape, config);
  return graph::EventGraph::from_trace(run.trace);
}

/// Matched sources of every receive, in per-rank completion order — the
/// observable the beginner use case compares across runs.
std::vector<std::vector<int>> match_orders(const graph::EventGraph& graph) {
  std::vector<std::vector<int>> orders(
      static_cast<std::size_t>(graph.num_ranks()));
  for (const graph::EventNode& node : graph.nodes()) {
    if (node.type == trace::EventType::kRecv) {
      orders[static_cast<std::size_t>(node.rank)].push_back(node.peer);
    }
  }
  return orders;
}

core::CampaignConfig mesh_campaign(int ranks, int iterations, int runs) {
  core::CampaignConfig config;
  config.pattern = "unstructured_mesh";
  config.shape.num_ranks = ranks;
  config.shape.iterations = iterations;
  config.nd_fraction = 1.0;  // the paper runs these lessons at 100% ND
  config.num_runs = runs;
  return config;
}

}  // namespace

UseCase1Result run_use_case_1(std::uint64_t seed_a, std::uint64_t seed_b) {
  ANACIN_CHECK(seed_a != seed_b,
               "use case 1 needs two independent executions");
  UseCase1Result result;
  // Fig 2: message race on 4 ranks (deterministic rendering, ND irrelevant).
  result.message_race = run_once("message_race", 4, 0.0, 1);
  // Fig 3: the AMG 2013 pattern on 2 ranks.
  result.amg_two_ranks = run_once("amg2013", 2, 0.0, 1);
  // Fig 4: same code, same inputs, two independent runs at 100% ND.
  result.race_run_a = run_once("message_race", 4, 1.0, seed_a);
  result.race_run_b = run_once("message_race", 4, 1.0, seed_b);
  result.runs_differ =
      match_orders(result.race_run_a) != match_orders(result.race_run_b);
  return result;
}

UseCase2Result run_use_case_2(ThreadPool& pool, int many, int few, int runs) {
  ANACIN_CHECK(many > few && few >= 2, "process counts out of order");
  UseCase2Result result;

  // Goal B.1 — number of processes (paper Fig 5): same pattern, same
  // settings, only the rank count changes.
  const core::CampaignResult many_result =
      core::run_campaign(mesh_campaign(many, 1, runs), pool);
  const core::CampaignResult few_result =
      core::run_campaign(mesh_campaign(few, 1, runs), pool);
  result.many_procs = many_result.distance_summary;
  result.few_procs = few_result.distance_summary;
  result.procs_p_value =
      analysis::mann_whitney_u(many_result.measurement.distances,
                               few_result.measurement.distances)
          .p_value;
  result.procs_effect_observed =
      result.many_procs.median > result.few_procs.median;

  // Goal B.2 — iterations (paper Fig 6): 16 ranks, 2 vs 1 iterations.
  const core::CampaignResult two_iters =
      core::run_campaign(mesh_campaign(few, 2, runs), pool);
  const core::CampaignResult one_iter =
      core::run_campaign(mesh_campaign(few, 1, runs), pool);
  result.two_iterations = two_iters.distance_summary;
  result.one_iteration = one_iter.distance_summary;
  result.iterations_p_value =
      analysis::mann_whitney_u(two_iters.measurement.distances,
                               one_iter.measurement.distances)
          .p_value;
  result.iterations_effect_observed =
      result.two_iterations.median > result.one_iteration.median;
  return result;
}

UseCase3Result run_use_case_3(ThreadPool& pool, int procs, int runs,
                              int percent_step) {
  ANACIN_CHECK(percent_step >= 1 && percent_step <= 100,
               "percent step out of range");
  UseCase3Result result;

  // Goal C.1 — the ND% sweep of Fig 7: AMG 2013 on `procs` ranks, one
  // node, one iteration, 1-byte messages.
  for (int percent = 0; percent <= 100; percent += percent_step) {
    core::CampaignConfig config;
    config.pattern = "amg2013";
    config.shape.num_ranks = procs;
    config.shape.iterations = 1;
    config.shape.message_bytes = 1;
    config.num_nodes = 1;
    config.nd_fraction = percent / 100.0;
    config.num_runs = runs;
    const core::CampaignResult campaign = core::run_campaign(config, pool);
    result.nd_percents.push_back(percent);
    result.distance_by_percent.push_back(campaign.distance_summary);
    result.distances_by_percent.push_back(campaign.measurement.distances);
  }
  std::vector<double> medians;
  medians.reserve(result.distance_by_percent.size());
  for (const auto& summary : result.distance_by_percent) {
    medians.push_back(summary.median);
  }
  result.spearman_vs_percent =
      analysis::spearman(result.nd_percents, medians);
  result.monotone_observed =
      result.spearman_vs_percent > 0.8 &&
      result.distance_by_percent.front().median <
          result.distance_by_percent.back().median;

  // Goal C.2 — root sources: gather a fresh sample at 100% ND and rank the
  // callstacks inside the most divergent slices (Fig 8).
  core::CampaignConfig full_nd;
  full_nd.pattern = "amg2013";
  full_nd.shape.num_ranks = procs;
  full_nd.nd_fraction = 1.0;
  full_nd.num_runs = std::min(runs, 10);  // slices are pairwise: keep modest
  std::vector<graph::EventGraph> graphs;
  core::run_campaign(full_nd, pool, store::active_store(), {}, &graphs);

  const auto kernel = kernels::make_kernel(full_nd.kernel);
  analysis::RootCauseConfig root_config;
  result.root_causes = analysis::find_root_causes(
      *kernel, full_nd.label_policy, graphs, root_config, pool);
  if (!result.root_causes.callstacks.empty()) {
    const auto& top = result.root_causes.callstacks.front();
    result.wildcard_recv_attributed =
        top.wildcard_share > 0.5 &&
        (top.path.find("MPI_Irecv") != std::string::npos ||
         top.path.find("MPI_Recv") != std::string::npos);
  }
  return result;
}

}  // namespace anacin::course
