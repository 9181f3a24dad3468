#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/supervisor.hpp"
#include "kernels/labeled_graph.hpp"
#include "patterns/pattern.hpp"
#include "proc/executor.hpp"
#include "sim/config.hpp"
#include "sim/replay_schedule.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace anacin::replay {

/// Configuration of one bisection: record a reference run, then
/// delta-debug over its recorded wildcard matches to find the minimal set
/// of races that reproduces the kernel-distance gap.
struct BisectConfig {
  std::string pattern = "message_race";
  patterns::PatternConfig shape;
  /// Recording config — typically high nd_fraction so races actually fire.
  /// `replay` must be unset; the driver wires schedules in itself.
  sim::SimConfig record_sim;
  /// Seed of the candidate replays. Must differ from record_sim.seed:
  /// replaying the *same* seed reproduces the recording even with every
  /// entry freed, leaving no gap to bisect.
  std::uint64_t replay_seed = 0;
  std::string kernel_spec = "wl:2";
  kernels::LabelPolicy label_policy = kernels::LabelPolicy::kTypePeer;
  /// A candidate freed-set "reproduces" the gap when its replay's distance
  /// to the reference reaches this fraction of the all-freed distance.
  double target_fraction = 0.9;
  /// Logical-time slice width used to localize each racy match in the
  /// ranked report (same windowing as analysis::find_root_causes).
  std::uint64_t slice_window = 16;
  /// Per-candidate supervision (retries/deadline), as in campaigns.
  core::RetryPolicy retry;
};

/// One line of the ranked root-cause report: a recorded wildcard match
/// that survived bisection, localized to its callsite and logical-time
/// slice, with the kernel distance reproduced by freeing it alone.
struct RacyMatch {
  /// Flat rank-major index of the schedule entry.
  std::size_t schedule_index = 0;
  /// Receiver side: rank, event seq in the reference graph, and the call
  /// path of the wildcard receive.
  int rank = -1;
  std::int64_t recv_seq = -1;
  std::string callsite;
  /// Lamport slice of the receive in the reference run (the "phase").
  std::uint32_t slice = 0;
  /// Recorded match outcome (sender rank + its send event seq).
  std::int32_t source = -1;
  std::int64_t send_seq = -1;
  /// Kernel distance to the reference when only this entry is freed —
  /// the entry's standalone contribution to the gap.
  double contribution = 0.0;
};

struct BisectResult {
  /// The recorded schedule (all entries pinned).
  sim::ReplaySchedule schedule;
  /// Kernel distance between the reference and the all-freed replay — the
  /// full non-determinism gap the minimal set must reproduce.
  double full_gap = 0.0;
  /// Distance achieved by the converged minimal freed set.
  double achieved = 0.0;
  /// Flat rank-major schedule indices of the minimal racy set, ascending.
  std::vector<std::size_t> minimal;
  /// The minimal set ranked by standalone contribution, descending.
  std::vector<RacyMatch> report;
  /// ddmin rounds executed and candidate replays evaluated (memoized
  /// repeats excluded). A warm re-run reports the counts of the search
  /// its stored outcome came from.
  std::size_t rounds = 0;
  std::size_t candidates = 0;
};

/// Record + delta-debug + rank. Candidate replays are campaign-style work
/// units: each runs under the supervisor (retries, deadlines, injected
/// faults). With a store active, a bisection stores four objects: the
/// reference run, its schedule, its features and one `bisection` object
/// with the outcome (gaps, rounds, candidates, minimal set and
/// contributions). A warm re-run loads the reference, its schedule and
/// the outcome, evaluates no candidate and rebuilds the ranked report at
/// the requested slice window. In-process candidates store nothing. An
/// optional UnitExecutor (the `--isolate=process` worker pool) runs each
/// candidate as one `replay` unit, whose stored distance carries the
/// result back. `cancel` aborts between rounds (SIGINT); an interrupted
/// bisection stores no outcome.
///
/// Throws Error subclasses on unrecoverable failures (a candidate that
/// fails permanently aborts the bisection — its distance is load-bearing).
BisectResult bisect(const BisectConfig& config, ThreadPool& pool,
                    proc::UnitExecutor* executor = nullptr,
                    CancelToken* cancel = nullptr);

/// JSON document of a bisection outcome (schema "anacin-bisect-1").
json::Value bisect_to_json(const BisectConfig& config,
                           const BisectResult& result);

}  // namespace anacin::replay
