#pragma once

#include <functional>
#include <string>
#include <vector>

#include "graph/event_graph.hpp"
#include "kernels/kernel.hpp"
#include "kernels/labeled_graph.hpp"
#include "patterns/pattern.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/replay_schedule.hpp"
#include "store/hash.hpp"
#include "store/store.hpp"
#include "support/json.hpp"

namespace anacin::proc {

// The run, features and candidate-distance producers below are the one
// place that decides what those artifacts hold. Campaigns (run units,
// reference, feature phase), bisect (reference features, candidates), the
// `__worker` child and `anacin agent` all make these artifacts through
// them, so every execution environment stores identical bytes. `store` may
// be null: then nothing is loaded or published. The producers never call
// faults::on_unit_body; their callers do, under their own unit ids.

/// The run artifact of one finished simulation: its event graph plus the
/// RunStats counters a campaign aggregates (`retries` stays 0). Bisect's
/// record step, which also needs the trace, encodes through this too.
store::EncodedRun run_artifact(const sim::RunResult& run);

/// The run artifact named `key`: a store hit, or else a simulation of
/// `pattern` at `shape` under `sim_config` (a replay when
/// `sim_config.replay` is set), encoded and published. Without
/// `with_graph` a hit decodes only the counters and leaves `graph` empty;
/// a simulation always returns its graph. Either way it is one store
/// lookup. Sets `*simulated` when it simulated.
store::EncodedRun load_or_simulate_run(store::ArtifactStore* store,
                                       const store::Digest& key,
                                       const std::string& pattern,
                                       const patterns::PatternConfig& shape,
                                       const sim::SimConfig& sim_config,
                                       bool with_graph,
                                       bool* simulated = nullptr);

/// The features artifact of run `run_key` under `kernel` (spelled
/// `kernel_spec`) and `policy`: a store hit, or else the features of
/// `graph()`, published. `graph` is called only on a miss, so a hit never
/// loads or simulates the run. Counts each real extraction in
/// `kernels.feature_tasks`.
kernels::FeatureVector load_or_extract_features(
    store::ArtifactStore* store, const kernels::GraphKernel& kernel,
    const std::string& kernel_spec, kernels::LabelPolicy policy,
    const store::Digest& run_key,
    const std::function<const graph::EventGraph&()>& graph);

/// One bisect candidate: the replay of the recorded schedule `schedule`
/// with the `freed` entries freed, measured by its kernel distance to the
/// recording `reference`. Everything the distance is a function of.
struct ReplayCandidate {
  std::string pattern;
  patterns::PatternConfig shape;
  /// The replay's config (the replay seed), with `replay` unset.
  sim::SimConfig sim;
  /// Key of the recorded schedule artifact.
  store::Digest schedule;
  /// Flat rank-major schedule entries to free, sorted and unique.
  std::vector<std::size_t> freed;
  std::string kernel_spec;
  kernels::LabelPolicy policy = kernels::LabelPolicy::kTypePeer;
  /// Run key of the recording: the reference run.
  store::Digest reference;

  /// Key of the candidate's distance: distance_key of the reference and
  /// the candidate's replay_run_key. That run key only names the
  /// candidate; no object is stored under it.
  store::Digest distance_key() const;
};

/// The distance artifact of `candidate`: a store hit, or else the replay of
/// `schedule` (the artifact `candidate.schedule`) with the candidate's
/// entries freed, its features under `kernel`, and their distance to
/// `reference_features`, computed in (reference, candidate) order. Only
/// the distance is published; the replayed run and its features are never
/// stored. Counts each extraction in `kernels.feature_tasks`.
double load_or_replay_distance(
    store::ArtifactStore* store, const ReplayCandidate& candidate,
    const kernels::GraphKernel& kernel, const sim::ReplaySchedule& schedule,
    const kernels::FeatureVector& reference_features);

/// Build the request frame for one simulated run (`run:<i>` or
/// `reference`). Everything the unit is a function of travels fully
/// resolved — the child never re-derives a config, so parent and child
/// compute identical store keys. The seed additionally travels as a
/// decimal string: json::Value holds numbers as doubles, which would
/// silently round 64-bit seeds above 2^53. The request carries the
/// precomputed key of the unit's result artifact ("result_key"), so a
/// scheduler can short-circuit dispatch when its store already holds the
/// result (net::AgentServer) without re-deriving keys from the body.
json::Value make_run_request(const std::string& unit,
                             const std::string& pattern,
                             const patterns::PatternConfig& shape,
                             const sim::SimConfig& sim_config);

/// Build the request frame for one bisect candidate (`replay:<set>`): the
/// candidate's fields, the seed again as a decimal string, and its
/// distance key as the result key. The worker loads the schedule and the
/// reference's features from the store and publishes only the distance.
json::Value make_replay_request(const std::string& unit,
                                const ReplayCandidate& candidate);

/// Build the request frame for one pair distance (`pair:<a>-<b>`). The two
/// run digests travel in request order — distance_key orders them
/// internally for the key, but the distance itself is computed in (a, b)
/// order so isolated results are float-identical to in-process ones.
json::Value make_pair_request(const std::string& unit,
                              const std::string& kernel_spec,
                              kernels::LabelPolicy policy,
                              const store::Digest& a, const store::Digest& b);

/// Execute one work-unit request against `store`: make the store contain
/// the unit's result artifact (a run for `run` units, a distance for
/// `pair` and `replay` units; see make_run_request / make_pair_request /
/// make_replay_request) through the producers above and return the reply
/// document {status, key}. Shared by the pipe worker (`anacin __worker`)
/// and the socket agent (`anacin agent`). Throws the typed error taxonomy
/// on failure.
json::Value execute_unit(store::ArtifactStore& store,
                         const json::Value& request);

/// Store keys a unit reads before executing: the two run artifacts for
/// `pair` units, the recorded schedule and the reference's features for
/// `replay` units, empty for `run` units. The agent uses this to prefetch
/// missing inputs from the scheduler.
std::vector<store::Digest> unit_input_keys(const json::Value& request);

/// Entry point of the `__worker` child process: serve request frames from
/// stdin until EOF (clean shutdown, exit 0), writing results to the shared
/// artifact store and replying with result/fail frames on stdout. A
/// heartbeat thread beats on stdout while a unit executes so the parent's
/// watchdog can tell "slow" from "wedged".
int worker_main(store::ArtifactStore& store, double heartbeat_interval_ms);

}  // namespace anacin::proc
