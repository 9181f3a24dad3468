#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"

namespace anacin::core {
namespace {

CampaignConfig small_campaign(double nd, int runs = 6) {
  CampaignConfig config;
  config.pattern = "message_race";
  config.shape.num_ranks = 6;
  config.nd_fraction = nd;
  config.num_runs = runs;
  return config;
}

TEST(Campaign, ProducesOneGraphPerRun) {
  ThreadPool pool(2);
  std::vector<graph::EventGraph> graphs;
  const CampaignResult result = run_campaign(
      small_campaign(1.0), pool, store::active_store(), {}, &graphs);
  ASSERT_EQ(graphs.size(), 6u);
  for (const graph::EventGraph& graph : graphs) {
    EXPECT_EQ(graph.num_ranks(), 6);
  }
  EXPECT_EQ(result.measurement.distances.size(), 6u);
  EXPECT_GT(result.total_messages, 0u);
  EXPECT_GT(result.total_wildcard_recvs, 0u);
}

TEST(Campaign, ZeroNdGivesZeroDistances) {
  ThreadPool pool(2);
  const CampaignResult result = run_campaign(small_campaign(0.0), pool);
  for (const double d : result.measurement.distances) {
    EXPECT_DOUBLE_EQ(d, 0.0);
  }
  EXPECT_DOUBLE_EQ(result.distance_summary.max, 0.0);
}

TEST(Campaign, FullNdGivesMostlyPositiveDistances) {
  ThreadPool pool(2);
  const CampaignResult result = run_campaign(small_campaign(1.0, 10), pool);
  int positive = 0;
  for (const double d : result.measurement.distances) {
    if (d > 0.0) ++positive;
  }
  EXPECT_GE(positive, 8);
  EXPECT_GT(result.distance_summary.median, 0.0);
}

TEST(Campaign, IsReproducible) {
  ThreadPool pool(2);
  const CampaignResult a = run_campaign(small_campaign(1.0), pool);
  const CampaignResult b = run_campaign(small_campaign(1.0), pool);
  ASSERT_EQ(a.measurement.distances.size(), b.measurement.distances.size());
  for (std::size_t i = 0; i < a.measurement.distances.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.measurement.distances[i], b.measurement.distances[i]);
  }
}

TEST(Campaign, RunSeedsAreDistinct) {
  const CampaignConfig config = small_campaign(1.0);
  const auto s0 = config.sim_config_for_run(0).seed;
  const auto s1 = config.sim_config_for_run(1).seed;
  const auto ref = config.reference_sim_config();
  EXPECT_NE(s0, s1);
  EXPECT_DOUBLE_EQ(ref.network.nd_fraction, 0.0);
}

TEST(Campaign, PairwiseReductionWorks) {
  ThreadPool pool(2);
  CampaignConfig config = small_campaign(1.0, 5);
  config.reduction = analysis::DistanceReduction::kPairwise;
  const CampaignResult result = run_campaign(config, pool);
  EXPECT_EQ(result.measurement.distances.size(), 10u);
}

TEST(Campaign, JsonReportHasAllSections) {
  ThreadPool pool(2);
  const CampaignResult result = run_campaign(small_campaign(1.0, 3), pool);
  const json::Value doc = result.to_json();
  EXPECT_TRUE(doc.contains("config"));
  EXPECT_TRUE(doc.contains("distances"));
  EXPECT_TRUE(doc.contains("summary"));
  EXPECT_EQ(doc.at("distances").size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("config").at("nd_percent").as_number(), 100.0);
  EXPECT_EQ(doc.at("config").at("pattern").as_string(), "message_race");
}

TEST(Campaign, ReferenceSimulatedOncePerUniqueKeyWithoutStore) {
  ThreadPool pool(2);
  obs::Counter& reference_sims = obs::counter("campaign.reference_sims");

  // A sweep varies nd_fraction while (pattern, shape, base_seed) stay
  // fixed; the jitter-free reference is identical across all points and
  // must be simulated exactly once — even with no artifact store.
  // The reference memo is process-wide, so every invocation (a
  // --gtest_repeat iteration) takes two base seeds no earlier one used.
  static std::uint64_t invocation = 0;
  const std::uint64_t base_seed = 987654321 + 2 * invocation++;
  CampaignConfig config = small_campaign(1.0, 3);
  config.base_seed = base_seed;  // unique key within this test binary
  const std::uint64_t before = reference_sims.value();
  for (const double nd : {0.2, 0.6, 1.0}) {
    config.nd_fraction = nd;
    run_campaign(config, pool, nullptr);
  }
  EXPECT_EQ(reference_sims.value(), before + 1);

  // A different base_seed is a different reference: one more simulation.
  config.base_seed = base_seed + 1;
  run_campaign(config, pool, nullptr);
  EXPECT_EQ(reference_sims.value(), before + 2);
}

TEST(Campaign, InvalidConfigsRejected) {
  ThreadPool pool(1);
  CampaignConfig bad_runs = small_campaign(1.0, 0);
  EXPECT_THROW(run_campaign(bad_runs, pool), Error);
  CampaignConfig bad_nd = small_campaign(1.5);
  EXPECT_THROW(run_campaign(bad_nd, pool), Error);
  CampaignConfig bad_pattern = small_campaign(1.0);
  bad_pattern.pattern = "nope";
  EXPECT_THROW(run_campaign(bad_pattern, pool), ConfigError);
}

TEST(RunPatternOnce, ShapeMismatchRejected) {
  patterns::PatternConfig shape;
  shape.num_ranks = 4;
  sim::SimConfig config;
  config.num_ranks = 5;
  EXPECT_THROW(run_pattern_once("message_race", shape, config), Error);
}

// ---------------------------------------------------------------------------
// Resilience (supervised units, keep-going, cancellation)
// ---------------------------------------------------------------------------

/// Injected failures: the Supervisor inside run_campaign runs the
/// installed fault plan's attempt hooks.
using ScopedInjection = support::ScopedFaultPlan;

ResilienceOptions no_backoff(bool keep_going, int max_retries = 0) {
  ResilienceOptions resilience;
  resilience.keep_going = keep_going;
  resilience.retry.max_retries = max_retries;
  resilience.retry.base_backoff_us = 0;
  return resilience;
}

TEST(CampaignResilience, FailFastAbortsOnPermanentFailure) {
  const ScopedInjection inject("unit.run:2=permanent");
  ThreadPool pool(2);
  EXPECT_THROW(run_campaign(small_campaign(1.0), pool, nullptr,
                            no_backoff(/*keep_going=*/false)),
               PermanentError);
}

TEST(CampaignResilience, KeepGoingQuarantinesExactlyTheFailingRun) {
  const ScopedInjection inject("unit.run:2=permanent");
  ThreadPool pool(2);
  std::vector<graph::EventGraph> graphs;
  const CampaignResult result =
      run_campaign(small_campaign(1.0), pool, nullptr,
                   no_backoff(/*keep_going=*/true), &graphs);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined.front().unit, "run:2");
  EXPECT_EQ(result.quarantined.front().attempts, 1);
  EXPECT_FALSE(result.complete());
  // The failed slot is an empty graph; the survivors are measured.
  ASSERT_EQ(graphs.size(), 6u);
  EXPECT_EQ(graphs[2].num_nodes(), 0u);
  EXPECT_EQ(result.measurement.distances.size(), 5u);
  EXPECT_EQ(result.distance_summary.count, 5u);
}

TEST(CampaignResilience, TransientFailuresRetryToSuccess) {
  const ScopedInjection inject("unit.run:1=transient:2");
  ThreadPool pool(2);
  const CampaignResult result =
      run_campaign(small_campaign(1.0), pool, nullptr,
                   no_backoff(/*keep_going=*/false, /*max_retries=*/3));
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.retries, 2u);
  EXPECT_EQ(result.measurement.distances.size(), 6u);
}

TEST(CampaignResilience, RetriedCampaignMatchesUnfailedCampaign) {
  ThreadPool pool(2);
  const CampaignResult clean = run_campaign(small_campaign(1.0), pool);
  const ScopedInjection inject(
      "unit.run:0=transient:1,unit.run:3=transient:2");
  const CampaignResult retried =
      run_campaign(small_campaign(1.0), pool, nullptr,
                   no_backoff(/*keep_going=*/false, /*max_retries=*/2));
  // Retries must not leak into the results: same seeds, same graphs, same
  // distances as a campaign that never failed.
  EXPECT_EQ(retried.retries, 3u);
  ASSERT_EQ(retried.measurement.distances.size(),
            clean.measurement.distances.size());
  for (std::size_t i = 0; i < clean.measurement.distances.size(); ++i) {
    EXPECT_DOUBLE_EQ(retried.measurement.distances[i],
                     clean.measurement.distances[i]);
  }
}

TEST(CampaignResilience, AllRunsQuarantinedIsFatalEvenWithKeepGoing) {
  const ScopedInjection inject(
      "unit.run:0=permanent,unit.run:1=permanent,unit.run:2=permanent");
  ThreadPool pool(2);
  EXPECT_THROW(run_campaign(small_campaign(1.0, /*runs=*/3), pool, nullptr,
                            no_backoff(/*keep_going=*/true)),
               Error);
}

TEST(CampaignResilience, ReferenceFailureIsFatalEvenWithKeepGoing) {
  const ScopedInjection inject("unit.reference=permanent");
  ThreadPool pool(2);
  EXPECT_THROW(run_campaign(small_campaign(1.0), pool, nullptr,
                            no_backoff(/*keep_going=*/true)),
               PermanentError);
}

TEST(CampaignResilience, CancelledTokenInterrupts) {
  ThreadPool pool(2);
  CancelToken token;
  token.cancel();
  ResilienceOptions resilience;
  resilience.cancel = &token;
  EXPECT_THROW(run_campaign(small_campaign(1.0), pool, nullptr, resilience),
               InterruptedError);
}

TEST(CampaignResilience, QuarantineIsSurfacedInJson) {
  const ScopedInjection inject("unit.run:4=permanent");
  ThreadPool pool(2);
  const CampaignResult result = run_campaign(
      small_campaign(1.0), pool, nullptr, no_backoff(/*keep_going=*/true));
  const json::Value doc = result.to_json();
  EXPECT_FALSE(doc.at("resilience").at("complete").as_bool());
  ASSERT_EQ(doc.at("resilience").at("quarantined").size(), 1u);
  EXPECT_EQ(
      doc.at("resilience").at("quarantined").at(0).at("unit").as_string(),
      "run:4");
}

}  // namespace
}  // namespace anacin::core
