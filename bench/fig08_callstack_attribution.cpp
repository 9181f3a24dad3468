// Reproduces Fig 8: callstack visualization for the AMG 2013
// mini-application — the normalized relative frequency of the call paths
// of MPI functions that take place during periods of highly
// non-deterministic execution across the logical time of the event graph.
// Settings follow Fig 7 (32 MPI processes, 100% ND, 1 node, 1 iteration).

#include <iostream>

#include "common.hpp"

using namespace anacin;

int main(int argc, const char** argv) {
  int ranks = 32;
  int runs = 10;
  int slice_window = 16;
  std::string out = core::results_dir() + "/fig08_callstacks.svg";
  ArgParser parser("Fig 8: callstack frequency in high-ND regions (AMG 2013)");
  parser.add_int("ranks", "number of MPI processes", &ranks);
  parser.add_int("runs", "executions to compare", &runs);
  parser.add_int("slice-window", "logical-time slice width", &slice_window);
  parser.add_string("out", "output SVG path", &out);
  if (!parser.parse(argc, argv)) return 0;

  ThreadPool pool;
  bench::announce("Fig 8", "callstacks in high-ND logical-time slices, AMG "
                           "2013 on " +
                               std::to_string(ranks) + " processes");

  core::CampaignConfig config;
  config.pattern = "amg2013";
  config.shape.num_ranks = ranks;
  config.nd_fraction = 1.0;
  config.num_runs = runs;
  std::vector<graph::EventGraph> graphs;
  core::run_campaign(config, pool, store::active_store(), {}, &graphs);

  const auto kernel = kernels::make_kernel(config.kernel);
  analysis::RootCauseConfig root_config;
  root_config.slice_window = static_cast<std::uint64_t>(slice_window);
  const analysis::RootCauseReport report = analysis::find_root_causes(
      *kernel, config.label_policy, graphs, root_config, pool);

  std::cout << "high-ND slices (window " << slice_window << "): ";
  for (const std::size_t s : report.hot_slices) std::cout << s << ' ';
  std::cout << "of " << report.profile.distance.size() << " total\n\n";

  std::cout << "normalized relative frequency of call paths in high-ND "
               "regions:\n";
  std::vector<std::string> labels;
  std::vector<double> values;
  std::vector<viz::Bar> bars;
  for (const auto& entry : report.callstacks) {
    labels.push_back(entry.path);
    values.push_back(entry.frequency);
    bars.push_back({entry.path, entry.frequency});
  }
  std::cout << viz::ascii_bar_chart(labels, values) << '\n';

  if (!report.callstacks.empty()) {
    const auto& top = report.callstacks.front();
    std::cout << "likely root source: " << top.path << " (wildcard share "
              << format_fixed(top.wildcard_share * 100.0, 1) << "%)\n";
    std::cout << "paper's expected shape (wildcard receive callsites "
                 "dominate): "
              << (top.wildcard_share > 0.5 &&
                          top.path.find("MPI_Irecv") != std::string::npos
                      ? "REPRODUCED"
                      : "NOT reproduced")
              << '\n';
  }

  // Slice divergence profile as a line plot companion (where in logical
  // time the runs diverge).
  std::vector<viz::Point> profile_points;
  for (std::size_t s = 0; s < report.profile.distance.size(); ++s) {
    profile_points.push_back(
        {static_cast<double>(s), report.profile.distance[s]});
  }
  viz::line_plot({{"mean pairwise slice distance", profile_points}},
                 {.width = 640,
                  .height = 300,
                  .title = "Fig 8 companion: divergence across logical time",
                  .x_label = "logical-time slice",
                  .y_label = "mean kernel distance"})
      .save(core::results_dir() + "/fig08_slice_profile.svg");

  viz::bar_plot(bars, {.width = 760,
                       .height = 320,
                       .title = "Fig 8: callstacks in high-ND regions "
                                "(AMG 2013)",
                       .x_label = "normalized relative frequency",
                       .y_label = ""})
      .save(out);
  bench::note_artifact(out);
  bench::note_artifact(core::results_dir() + "/fig08_slice_profile.svg");
  return 0;
}
