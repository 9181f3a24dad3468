// Beyond the paper's figures: how the measured non-determinism and the
// analysis cost scale with the process count. The paper's largest use
// cases ran on a 32-process cluster; this bench shows the whole pipeline
// (simulate + graph + WL + distances) stays laptop-friendly well past
// that, and that the Fig-5 relationship (more processes, more ND) holds
// across the sweep rather than at two points only.

#include <chrono>
#include <iostream>

#include "common.hpp"

using namespace anacin;

int main(int argc, const char** argv) {
  int runs = 10;
  std::string out = core::results_dir() + "/extra_scalability.svg";
  ArgParser parser("Scalability: measured ND and pipeline cost vs ranks");
  parser.add_int("runs", "executions per setting", &runs);
  parser.add_string("out", "output SVG path", &out);
  if (!parser.parse(argc, argv)) return 0;

  ThreadPool pool;
  bench::announce("Extra: scalability study",
                  "unstructured mesh at 100% ND, " + std::to_string(runs) +
                      " runs per rank count");

  std::cout << pad_right("ranks", 7) << pad_left("median dist", 13)
            << pad_left("msgs/run", 10) << pad_left("pipeline ms", 13)
            << '\n';
  std::vector<viz::Point> distance_curve;
  std::vector<double> rank_counts;
  std::vector<double> medians;
  for (const int ranks : {4, 8, 16, 32, 48, 64}) {
    core::CampaignConfig config;
    config.pattern = "unstructured_mesh";
    config.shape.num_ranks = ranks;
    config.nd_fraction = 1.0;
    config.num_runs = runs;
    const auto start = std::chrono::steady_clock::now();
    const core::CampaignResult result = core::run_campaign(config, pool);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const std::uint64_t messages_per_run =
        result.total_messages / static_cast<std::uint64_t>(config.num_runs);
    std::cout << pad_right(std::to_string(ranks), 7)
              << pad_left(format_fixed(result.distance_summary.median, 2), 13)
              << pad_left(std::to_string(messages_per_run), 10)
              << pad_left(format_fixed(elapsed_ms, 0), 13) << '\n';
    distance_curve.push_back(
        {static_cast<double>(ranks), result.distance_summary.median});
    rank_counts.push_back(ranks);
    medians.push_back(result.distance_summary.median);
  }

  std::cout << "Spearman(median distance, ranks) = "
            << format_fixed(analysis::spearman(rank_counts, medians), 3)
            << "  (Fig-5 relationship across the whole sweep)\n";

  viz::line_plot({{"median kernel distance", distance_curve}},
                 {.width = 560,
                  .height = 360,
                  .title = "Measured non-determinism vs process count",
                  .x_label = "MPI processes",
                  .y_label = "median kernel distance"})
      .save(out);
  bench::note_artifact(out);
  return 0;
}
