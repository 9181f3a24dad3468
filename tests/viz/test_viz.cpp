#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "analysis/kde.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"
#include "viz/ascii.hpp"
#include "viz/event_graph_render.hpp"
#include "viz/heatmap.hpp"
#include "viz/plots.hpp"
#include "viz/svg.hpp"

namespace anacin::viz {
namespace {

graph::EventGraph race_graph(int ranks = 4) {
  sim::SimConfig config;
  config.num_ranks = ranks;
  config.network.nd_fraction = 0.0;
  const trace::Trace trace =
      sim::run_simulation(config,
                          [](sim::Comm& comm) {
                            if (comm.rank() == 0) {
                              for (int i = 0; i < comm.size() - 1; ++i) {
                                (void)comm.recv();
                              }
                            } else {
                              comm.send(0, 0);
                            }
                          })
          .trace;
  return graph::EventGraph::from_trace(trace);
}

/// Crude well-formedness check: every opened tag closes, quotes balance.
void expect_svg_well_formed(const std::string& svg) {
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_EQ(std::count(svg.begin(), svg.end(), '"') % 2, 0);
  // No unescaped raw ampersands or angle brackets inside text content is
  // approximated by requiring no "<<" and no "&" at all (we never emit
  // entities).
  EXPECT_EQ(svg.find("<<"), std::string::npos);
}

TEST(Svg, BasicShapesRender) {
  SvgDocument svg(200, 100);
  svg.line(0, 0, 10, 10, {});
  svg.circle(5, 5, 2, {.fill = "#ff0000", .stroke = "none",
                       .stroke_width = 0, .opacity = 0.5, .dash = ""});
  svg.rect(1, 1, 5, 5, {});
  svg.polygon({{0, 0}, {1, 0}, {1, 1}}, {});
  svg.polyline({{0, 0}, {2, 2}}, {});
  svg.text(10, 20, "hello <world> & \"friends\"", {});
  const std::string out = svg.render();
  expect_svg_well_formed(out);
  EXPECT_NE(out.find("<line"), std::string::npos);
  EXPECT_NE(out.find("<circle"), std::string::npos);
  EXPECT_NE(out.find("<rect"), std::string::npos);
  EXPECT_NE(out.find("<polygon"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
}

TEST(Svg, RejectsEmptyCanvas) {
  EXPECT_THROW(SvgDocument(0, 100), Error);
}

TEST(Svg, SaveCreatesDirectories) {
  SvgDocument svg(10, 10);
  const std::string path = "test_output/svg/nested/out.svg";
  svg.save(path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::filesystem::remove_all("test_output/svg");
}

TEST(NiceTicks, CoverRangeWithRoundSteps) {
  const auto ticks = nice_ticks(0.0, 103.0);
  ASSERT_GE(ticks.size(), 3u);
  EXPECT_LE(ticks.front(), 1e-9);
  EXPECT_GE(ticks.back(), 90.0);
  const double step = ticks[1] - ticks[0];
  for (std::size_t i = 2; i < ticks.size(); ++i) {
    EXPECT_NEAR(ticks[i] - ticks[i - 1], step, 1e-9);
  }
}

TEST(NiceTicks, DegenerateRange) {
  const auto ticks = nice_ticks(5.0, 5.0);
  EXPECT_GE(ticks.size(), 2u);
}

TEST(ViolinPlot, RendersOneViolinPerSeries) {
  const std::vector<double> a{1.0, 2.0, 3.0, 2.5, 1.5};
  const std::vector<double> b{4.0, 5.0, 6.0, 5.5, 4.5};
  std::vector<ViolinSeries> series;
  series.push_back({"16 procs", analysis::gaussian_kde(a)});
  series.push_back({"32 procs", analysis::gaussian_kde(b)});
  const SvgDocument svg =
      violin_plot(series, {.width = 480, .height = 320,
                           .title = "Kernel distance",
                           .x_label = "processes", .y_label = "distance"});
  const std::string out = svg.render();
  expect_svg_well_formed(out);
  EXPECT_NE(out.find("16 procs"), std::string::npos);
  EXPECT_NE(out.find("32 procs"), std::string::npos);
  EXPECT_NE(out.find("Kernel distance"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n') > 10, true);
}

TEST(ViolinPlot, DegenerateAllZeroSample) {
  const std::vector<double> zeros(10, 0.0);
  std::vector<ViolinSeries> series;
  series.push_back({"0%", analysis::gaussian_kde(zeros)});
  EXPECT_NO_THROW(violin_plot(series, {}));
}

TEST(BarPlot, RendersBarsAndLabels) {
  const std::vector<Bar> bars{{"main>phase>MPI_Irecv", 0.61},
                              {"main>phase>MPI_Send", 0.29},
                              {"main>MPI_Barrier", 0.10}};
  const SvgDocument svg = bar_plot(bars, {.width = 600, .height = 240,
                                          .title = "Callstacks",
                                          .x_label = "relative frequency",
                                          .y_label = ""});
  const std::string out = svg.render();
  expect_svg_well_formed(out);
  EXPECT_NE(out.find("MPI_Irecv"), std::string::npos);
  EXPECT_NE(out.find("relative frequency"), std::string::npos);
}

TEST(LinePlot, MultipleSeries) {
  std::vector<LineSeries> series;
  series.push_back({"wl", {{0, 0}, {50, 3}, {100, 5}}});
  series.push_back({"vh", {{0, 0}, {50, 1}, {100, 2}}});
  const SvgDocument svg = line_plot(series, {.width = 480, .height = 320,
                                             .title = "sweep",
                                             .x_label = "nd %",
                                             .y_label = "distance"});
  expect_svg_well_formed(svg.render());
}

TEST(PlotInputValidation, EmptyInputsThrow) {
  EXPECT_THROW(violin_plot({}, {}), Error);
  EXPECT_THROW(bar_plot({}, {}), Error);
  EXPECT_THROW(line_plot({}, {}), Error);
  EXPECT_THROW(line_plot({{"empty", {}}}, {}), Error);
}

TEST(EventGraphRender, ContainsAllNodesAndRankLabels) {
  const graph::EventGraph graph = race_graph(4);
  const SvgDocument svg = render_event_graph(graph, {.node_radius = 7,
                                                     .column_width = 30,
                                                     .row_height = 50,
                                                     .title = "Fig 2",
                                                     .annotate_matches = true,
                                                     .hide_collective_traffic = false});
  const std::string out = svg.render();
  expect_svg_well_formed(out);
  EXPECT_NE(out.find("Rank 0"), std::string::npos);
  EXPECT_NE(out.find("Rank 3"), std::string::npos);
  // One circle per event node (plus none extra beyond arrowheads which are
  // polygons).
  const std::string needle = "<circle";
  std::size_t count = 0;
  for (std::size_t pos = out.find(needle); pos != std::string::npos;
       pos = out.find(needle, pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, graph.num_nodes());
}

TEST(EventGraphRender, CollectiveTrafficCanBeHidden) {
  sim::SimConfig config;
  config.num_ranks = 4;
  const trace::Trace trace =
      sim::run_simulation(config, [](sim::Comm& comm) { comm.barrier(); })
          .trace;
  const graph::EventGraph graph = graph::EventGraph::from_trace(trace);
  EventGraphRenderConfig hide;
  hide.hide_collective_traffic = true;
  const std::string hidden = render_event_graph(graph, hide).render();
  const std::string shown = render_event_graph(graph, {}).render();
  EXPECT_LT(hidden.size(), shown.size());
}

TEST(Heatmap, RendersOneCellPerRankPair) {
  const graph::EventGraph graph = race_graph(4);
  const graph::CommMatrix matrix = graph::communication_matrix(graph);
  const SvgDocument svg = comm_matrix_heatmap(matrix, "traffic");
  const std::string out = svg.render();
  expect_svg_well_formed(out);
  EXPECT_NE(out.find("traffic"), std::string::npos);
  EXPECT_NE(out.find("sender rank"), std::string::npos);
  std::size_t rects = 0;
  for (std::size_t pos = out.find("<rect"); pos != std::string::npos;
       pos = out.find("<rect", pos + 1)) {
    ++rects;
  }
  // 16 cells + the background rect.
  EXPECT_EQ(rects, 16u + 1u);
}

TEST(Heatmap, AsciiMatrixShowsCounts) {
  const graph::EventGraph graph = race_graph(3);
  const std::string art =
      ascii_comm_matrix(graph::communication_matrix(graph));
  EXPECT_NE(art.find("src\\dst"), std::string::npos);
  // Ranks 1 and 2 each sent one message to rank 0.
  EXPECT_NE(art.find('1'), std::string::npos);
}

TEST(Heatmap, RejectsEmptyMatrix) {
  EXPECT_THROW(comm_matrix_heatmap({}), Error);
  EXPECT_THROW(ascii_comm_matrix({}), Error);
}

TEST(AsciiEventGraph, GridAndLegend) {
  const graph::EventGraph graph = race_graph(4);
  const std::string art = ascii_event_graph(graph);
  EXPECT_NE(art.find("rank 0"), std::string::npos);
  EXPECT_NE(art.find('I'), std::string::npos);
  EXPECT_NE(art.find('S'), std::string::npos);
  EXPECT_NE(art.find('R'), std::string::npos);
  EXPECT_NE(art.find('F'), std::string::npos);
  EXPECT_NE(art.find("wildcard recv"), std::string::npos);
  EXPECT_NE(art.find("msg: rank"), std::string::npos);
}

TEST(AsciiEventGraph, EdgeTruncation) {
  const graph::EventGraph graph = race_graph(8);
  const std::string art = ascii_event_graph(graph, 2);
  EXPECT_NE(art.find("more message(s)"), std::string::npos);
}

TEST(AsciiHistogram, BinsSumToSampleSize) {
  const std::vector<double> values{1, 1, 2, 3, 3, 3, 9};
  const std::string art = ascii_histogram(values, 4, 20);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_THROW(ascii_histogram(std::vector<double>{}, 4, 20), Error);
}

TEST(AsciiBarChart, LabelsAligned) {
  const std::vector<std::string> labels{"a", "longer_label"};
  const std::vector<double> values{0.25, 1.0};
  const std::string art = ascii_bar_chart(labels, values, 10);
  EXPECT_NE(art.find("longer_label"), std::string::npos);
  EXPECT_THROW(ascii_bar_chart({"x"}, std::vector<double>{1.0, 2.0}, 10),
               Error);
}

}  // namespace
}  // namespace anacin::viz
