#pragma once

#include <string>
#include <vector>

#include "analysis/nd_measurement.hpp"
#include "analysis/stats.hpp"
#include "core/supervisor.hpp"
#include "graph/event_graph.hpp"
#include "kernels/kernel.hpp"
#include "patterns/pattern.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "store/store.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace anacin::proc {
class UnitExecutor;  // proc/executor.hpp
}

namespace anacin::core {

/// One experimental setting: a mini-application shape, a platform
/// configuration, and how many independent executions to sample. This is
/// the unit in which the paper's figures are expressed ("20 executions of
/// the Unstructured Mesh mini-application on 32 MPI processes at 100%
/// non-determinism").
struct CampaignConfig {
  std::string pattern = "message_race";
  patterns::PatternConfig shape;
  int num_nodes = 1;
  /// The paper's "percentage of non-determinism" as a fraction in [0,1].
  double nd_fraction = 1.0;
  sim::NetworkConfig network;  // nd_fraction above overrides network's
  /// Fault injection applied to every noisy run; the reference run is
  /// always fault-free, so fault sweeps measure distance against one clean
  /// baseline.
  sim::FaultConfig faults;
  int num_runs = 20;
  /// Run i uses seed derive(base_seed, i); the reference run disables
  /// jitter entirely.
  std::uint64_t base_seed = 1000;
  std::string kernel = "wl:2";
  kernels::LabelPolicy label_policy = kernels::LabelPolicy::kTypePeer;
  analysis::DistanceReduction reduction =
      analysis::DistanceReduction::kToReference;

  sim::SimConfig sim_config_for_run(int run_index) const;
  sim::SimConfig reference_sim_config() const;
  bool measurement_reduction_is_reference() const;
  json::Value to_json() const;
};

/// How run_campaign behaves when a work unit fails or the user interrupts
/// the process. Defaults reproduce the historical behavior: fail-fast, no
/// retries, no deadline, no cancellation.
struct ResilienceOptions {
  RetryPolicy retry;
  /// Quarantine failed work units (recorded in CampaignResult) instead of
  /// aborting the campaign; the default aborts on the first permanent
  /// failure and cancels all not-yet-started units.
  bool keep_going = false;
  /// External cancellation (the CLI's SIGINT/SIGTERM token). When
  /// cancelled, in-flight units finish, unstarted units are skipped, and
  /// run_campaign throws InterruptedError.
  CancelToken* cancel = nullptr;
  /// When set, run/reference/pair work units execute out-of-process
  /// through this executor — a sandboxed worker pool (--isolate=process)
  /// or a fleet of remote agents (`anacin serve`) — with results flowing
  /// back through the artifact store, which therefore must be present.
  /// Not owned. nullptr = historical in-process execution.
  proc::UnitExecutor* executor = nullptr;
};

/// A work unit that permanently failed under --keep-going. `unit` names
/// the supervisor's work unit ("run:<i>", "pair:<a>-<b>", "measure").
struct QuarantinedUnit {
  std::string unit;
  std::string error;
  int attempts = 0;
  /// Crash-triage details when the unit died in a worker child (signal
  /// name, peak RSS, stderr tail, ...); see support/error.hpp.
  UnitTriage triage;
  bool has_triage = false;

  json::Value to_json() const;
};

/// The kernel-distance measurement of one campaign's runs and their
/// aggregate counters (the runs' event graphs are run_campaign's optional
/// output).
struct CampaignResult {
  CampaignConfig config;
  analysis::NdMeasurement measurement;
  analysis::Summary distance_summary;
  /// Aggregate simulator counters over the noisy runs.
  std::uint64_t total_messages = 0;
  std::uint64_t total_wildcard_recvs = 0;
  std::uint64_t total_drops = 0;
  std::uint64_t total_duplicates = 0;
  std::uint64_t total_straggler_events = 0;
  /// Failed work units recorded under --keep-going (empty = clean run).
  std::vector<QuarantinedUnit> quarantined;
  /// Transient retries the supervisor performed for this campaign.
  std::uint64_t retries = 0;
  /// True when the artifact store hit a persistent disk fault (ENOSPC,
  /// EIO) during this campaign and fell back to --no-store semantics.
  /// The results are complete — just computed without caching.
  bool store_degraded = false;

  bool complete() const { return quarantined.empty(); }

  json::Value to_json() const;
};

/// Execute a campaign: num_runs simulations (parallel across the pool),
/// the reference run, and the kernel-distance reduction.
///
/// With a store (the process-global one by default — the default argument
/// is evaluated at each call, so installing a store via
/// store::set_active_store() makes every campaign incremental), each run
/// and each kernel distance is a content-addressed lookup first and a
/// computation only on a miss; a warm store re-runs a campaign without a
/// single simulation or distance computation, bit-identically. Pass
/// nullptr to force everything to be recomputed.
///
/// The jitter-free reference execution is additionally memoized in-process
/// (independent of the store), so sweep points that share
/// (pattern, shape, base_seed) simulate it once — see the
/// `campaign.reference_sims` counter.
///
/// Resilience (see docs/RESILIENCE.md): every work unit (per-run
/// simulation, reference run, kernel-distance pair) runs under a
/// Supervisor with typed retries and an optional per-attempt deadline.
/// The default is fail-fast — the first permanent failure cancels all
/// unstarted units and rethrows. With `resilience.keep_going` the failed
/// units are quarantined in the result instead and the campaign
/// completes with the surviving runs.
///
/// `graphs`, when given, receives the event graphs of the `num_runs`
/// noisy executions; a quarantined run leaves its slot an empty graph.
/// Without it, a run found in the store is read for its counters only,
/// and its graph is decoded only if its kernel features miss.
CampaignResult run_campaign(
    const CampaignConfig& config, ThreadPool& pool,
    store::ArtifactStore* store = store::active_store(),
    const ResilienceOptions& resilience = {},
    std::vector<graph::EventGraph>* graphs = nullptr);

/// Convenience for single executions of a pattern.
sim::RunResult run_pattern_once(const std::string& pattern,
                                const patterns::PatternConfig& shape,
                                const sim::SimConfig& sim_config);

}  // namespace anacin::core
