#include "replay/bisect.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "graph/event_graph.hpp"
#include "graph/slicing.hpp"
#include "kernels/kernel.hpp"
#include "obs/obs.hpp"
#include "proc/worker_main.hpp"
#include "replay/replay.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"

namespace anacin::replay {

namespace {

/// Stable short label for a candidate freed set: "<size>@<fnv64 hex>" of
/// the canonical index list. Unit ids feed the supervisor's backoff
/// jitter and the fault plan's unit hooks, so equal sets must label
/// equally across runs and processes.
std::string candidate_label(const std::vector<std::size_t>& freed) {
  store::Fnv1a hash;
  for (const std::size_t index : freed) {
    const std::uint64_t value = index;
    hash.update(&value, sizeof(value));
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash.value()));
  return std::to_string(freed.size()) + "@" + hex;
}

/// Evaluates candidate freed sets as supervised campaign work units,
/// memoizing distances per canonical set. Thread-safe: ddmin rounds
/// evaluate their candidates through pool.parallel_for.
class CandidateEvaluator {
 public:
  CandidateEvaluator(const BisectConfig& config,
                     const core::Supervisor& supervisor,
                     proc::UnitExecutor* executor,
                     store::ArtifactStore* store,
                     const sim::ReplaySchedule& schedule,
                     const store::Digest& reference_key,
                     const store::Digest& schedule_key,
                     const kernels::FeatureVector& reference_features)
      : supervisor_(supervisor),
        executor_(executor),
        store_(store),
        schedule_(schedule),
        reference_features_(reference_features),
        kernel_(kernels::make_kernel(config.kernel_spec)) {
    prototype_.pattern = config.pattern;
    prototype_.shape = config.shape;
    prototype_.sim = config.record_sim;
    prototype_.sim.seed = config.replay_seed;
    prototype_.sim.replay = nullptr;
    prototype_.schedule = schedule_key;
    prototype_.kernel_spec = config.kernel_spec;
    prototype_.policy = config.label_policy;
    prototype_.reference = reference_key;
  }

  /// Kernel distance between the reference and the replay with `freed`
  /// entries freed. `freed` must be sorted and deduplicated.
  double evaluate(const std::vector<std::size_t>& freed) {
    {
      const std::lock_guard<std::mutex> lock(memo_mutex_);
      const auto it = memo_.find(freed);
      if (it != memo_.end()) return it->second;
    }
    const std::string unit = "replay:" + candidate_label(freed);
    double distance = 0.0;
    const core::UnitReport report =
        supervisor_.run(unit, [&] { distance = compute(unit, freed); });
    if (!report.ok) {
      // Candidate distances are load-bearing (they steer the search), so
      // a unit that stays failed after retries aborts the bisection.
      throw PermanentError("bisect: candidate " + unit +
                           " failed: " + report.error);
    }
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    memo_.emplace(freed, distance);
    return distance;
  }

  std::size_t candidates_evaluated() const {
    return candidates_.load(std::memory_order_relaxed);
  }

 private:
  /// The candidate's distance from one replay. In-process nothing is
  /// stored: the bisection's outcome object is what a warm re-run reads.
  double compute(const std::string& unit,
                 const std::vector<std::size_t>& freed) {
    candidates_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("replay.bisect_candidates").add(1);
    proc::ReplayCandidate candidate = prototype_;
    candidate.freed = freed;
    if (executor_ == nullptr) {
      support::faults::on_unit_body(unit);
      return proc::load_or_replay_distance(nullptr, candidate, *kernel_,
                                           schedule_, reference_features_);
    }
    // The worker or agent replays the candidate and publishes its
    // distance, the unit's transport back to this process, which reads it
    // through the store; so isolated bisections are byte-identical to
    // in-process ones.
    const store::Digest key = candidate.distance_key();
    if (const auto hit = store_->load_distance(key)) return *hit;
    executor_->execute(unit, proc::make_replay_request(unit, candidate));
    const auto distance = store_->load_distance(key);
    if (!distance) {
      throw TransientError(
          "bisect: executor reported candidate " + unit +
          " done but the distance artifact is missing from the store");
    }
    return *distance;
  }

  const core::Supervisor& supervisor_;
  proc::UnitExecutor* executor_;
  store::ArtifactStore* store_;
  const sim::ReplaySchedule& schedule_;
  const kernels::FeatureVector& reference_features_;
  std::unique_ptr<kernels::GraphKernel> kernel_;
  /// Every field of a candidate but its freed set.
  proc::ReplayCandidate prototype_;

  std::mutex memo_mutex_;
  std::map<std::vector<std::size_t>, double> memo_;
  std::atomic<std::size_t> candidates_{0};
};

/// Split `items` into `n` near-equal contiguous chunks (first chunks get
/// the remainder), preserving order. Every chunk is non-empty when
/// n <= items.size().
std::vector<std::vector<std::size_t>> partition(
    const std::vector<std::size_t>& items, std::size_t n) {
  std::vector<std::vector<std::size_t>> chunks;
  chunks.reserve(n);
  const std::size_t base = items.size() / n;
  const std::size_t extra = items.size() % n;
  std::size_t offset = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t size = base + (c < extra ? 1 : 0);
    chunks.emplace_back(items.begin() + static_cast<std::ptrdiff_t>(offset),
                        items.begin() +
                            static_cast<std::ptrdiff_t>(offset + size));
    offset += size;
  }
  return chunks;
}

std::vector<std::size_t> complement_of(const std::vector<std::size_t>& all,
                                       const std::vector<std::size_t>& chunk) {
  std::vector<std::size_t> result;
  result.reserve(all.size() - chunk.size());
  std::set_difference(all.begin(), all.end(), chunk.begin(), chunk.end(),
                      std::back_inserter(result));
  return result;
}

void check_cancel(CancelToken* cancel) {
  if (cancel != nullptr && cancel->cancelled()) {
    throw InterruptedError("interrupted during bisection");
  }
}

/// Map each recorded (source, send_seq) match to its wildcard receive
/// node in the reference graph. A send matches exactly one receive, so
/// the mapping is unique — and it works on store-loaded graphs, which do
/// not carry completion order.
std::map<std::pair<std::int32_t, std::int64_t>, graph::NodeId>
wildcard_recvs_by_match(const graph::EventGraph& reference) {
  std::map<std::pair<std::int32_t, std::int64_t>, graph::NodeId> by_match;
  for (const auto& [send_node, recv_node] : reference.message_edges()) {
    const graph::EventNode& recv = reference.node(recv_node);
    if (recv.posted_source != sim::kAnySource) continue;
    const graph::EventNode& send = reference.node(send_node);
    by_match[{send.rank, send.seq}] = recv_node;
  }
  return by_match;
}

/// Delta-debug the recorded schedule's `total` entries: the full gap, the
/// ddmin loop over the freed set, and the minimal set's standalone
/// contributions.
store::EncodedBisection search(const BisectConfig& config, ThreadPool& pool,
                               CandidateEvaluator& evaluator,
                               std::size_t total, CancelToken* cancel) {
  store::EncodedBisection outcome;
  std::vector<std::size_t> all(total);
  std::iota(all.begin(), all.end(), std::size_t{0});
  if (total == 0) return outcome;  // deterministic program: nothing to bisect

  // --- the full gap: reference vs the all-freed (unconstrained) replay ---
  outcome.full_gap = evaluator.evaluate(all);
  if (outcome.full_gap <= 0.0) {
    outcome.candidates = evaluator.candidates_evaluated();
    return outcome;  // the replay seed happens to reproduce the reference
  }
  const double target = config.target_fraction * outcome.full_gap;

  // --- ddmin over the freed set ---
  //
  // Invariant: freeing `current` reproduces >= target of the gap. Each
  // round partitions `current` into n chunks and tests every chunk and
  // (for n > 2) every complement concurrently; the winner is chosen
  // deterministically (first passing chunk in partition order, then first
  // passing complement), so identical inputs bisect identically no matter
  // how the pool schedules the candidate replays.
  std::vector<std::size_t> current = all;
  std::size_t n = 2;
  while (current.size() >= 2 && n <= current.size()) {
    check_cancel(cancel);
    ++outcome.rounds;

    const std::vector<std::vector<std::size_t>> chunks =
        partition(current, n);
    std::vector<std::vector<std::size_t>> candidates = chunks;
    if (n > 2) {
      for (const auto& chunk : chunks) {
        candidates.push_back(complement_of(current, chunk));
      }
    }
    std::vector<double> distances(candidates.size(), 0.0);
    pool.parallel_for(
        0, candidates.size(),
        [&](std::size_t i) { distances[i] = evaluator.evaluate(candidates[i]); },
        cancel);
    check_cancel(cancel);

    std::size_t winner = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (distances[i] >= target) {
        winner = i;
        break;
      }
    }
    if (winner < chunks.size()) {
      current = candidates[winner];  // reduce to the passing chunk
      n = 2;
    } else if (winner < candidates.size()) {
      current = candidates[winner];  // reduce to the passing complement
      n = std::max<std::size_t>(n - 1, 2);
    } else if (n < current.size()) {
      n = std::min(n * 2, current.size());  // refine granularity
    } else {
      break;  // 1-minimal: no chunk or complement passes
    }
  }

  outcome.minimal = current;
  outcome.achieved = evaluator.evaluate(outcome.minimal);

  // --- standalone contributions for the ranked report ---
  outcome.contributions.assign(outcome.minimal.size(), 0.0);
  pool.parallel_for(
      0, outcome.minimal.size(),
      [&](std::size_t i) {
        outcome.contributions[i] = evaluator.evaluate({outcome.minimal[i]});
      },
      cancel);
  check_cancel(cancel);
  outcome.candidates = evaluator.candidates_evaluated();
  return outcome;
}

/// The minimal set located in the reference run (rank, recorded outcome,
/// callsite, Lamport slice at `slice_window`) and ranked by standalone
/// contribution, descending.
std::vector<RacyMatch> ranked_report(
    const graph::EventGraph& reference, const sim::ReplaySchedule& schedule,
    const std::vector<std::size_t>& minimal,
    const std::vector<double>& contributions, std::uint64_t slice_window) {
  std::vector<RacyMatch> report;
  if (minimal.empty()) return report;
  const auto by_match = wildcard_recvs_by_match(reference);
  const graph::SliceSet slices =
      graph::slice_by_lamport_window(reference, slice_window);
  report.reserve(minimal.size());
  for (std::size_t i = 0; i < minimal.size(); ++i) {
    const std::size_t flat = minimal[i];
    // Locate the entry's rank and recorded outcome.
    std::size_t index = flat;
    int rank = 0;
    for (const auto& per_rank : schedule.wildcard_matches) {
      if (index < per_rank.size()) break;
      index -= per_rank.size();
      ++rank;
    }
    const sim::ReplaySchedule::Match& match =
        schedule.wildcard_matches[static_cast<std::size_t>(rank)][index];
    RacyMatch entry;
    entry.schedule_index = flat;
    entry.rank = rank;
    entry.source = match.source;
    entry.send_seq = match.send_seq;
    entry.contribution = contributions[i];
    const auto node_it = by_match.find({match.source, match.send_seq});
    if (node_it != by_match.end()) {
      const graph::EventNode& node = reference.node(node_it->second);
      entry.recv_seq = node.seq;
      entry.callsite = reference.callstacks().path(node.callstack_id);
      entry.slice = slices.slice_of_node[node_it->second];
    }
    report.push_back(std::move(entry));
  }
  std::sort(report.begin(), report.end(),
            [](const RacyMatch& a, const RacyMatch& b) {
              if (a.contribution != b.contribution) {
                return a.contribution > b.contribution;
              }
              return a.schedule_index < b.schedule_index;
            });
  return report;
}

}  // namespace

BisectResult bisect(const BisectConfig& config, ThreadPool& pool,
                    proc::UnitExecutor* executor, CancelToken* cancel) {
  ANACIN_SPAN("replay.bisect");
  obs::counter("replay.bisections").add(1);
  ANACIN_CHECK(config.record_sim.replay == nullptr,
               "bisect records its own schedule: record_sim.replay must be "
               "unset");
  if (config.target_fraction <= 0.0 || config.target_fraction > 1.0) {
    throw ConfigError("bisect target fraction must be in (0, 1]");
  }
  if (config.slice_window < 1) {
    throw ConfigError("bisect slice window must be >= 1");
  }
  if (config.replay_seed == config.record_sim.seed) {
    throw ConfigError(
        "bisect replay seed equals the recording seed: the all-freed "
        "replay would reproduce the recording and leave no gap to bisect");
  }
  store::ArtifactStore* const store = store::active_store();
  ANACIN_CHECK(executor == nullptr || store != nullptr,
               "isolated/distributed bisection requires an artifact store: "
               "candidate results flow back through it");

  const core::Supervisor supervisor(config.retry, config.record_sim.seed);
  const store::Digest reference_key = store::ArtifactStore::run_key(
      config.pattern, config.shape, config.record_sim);
  const store::Digest schedule_key = store::ArtifactStore::schedule_key(
      config.pattern, config.shape, config.record_sim);

  // --- record the reference (or load it from a warm store) ---
  BisectResult result;
  graph::EventGraph reference;
  {
    bool loaded = false;
    if (store != nullptr) {
      auto cached_run = store->load_run(reference_key);
      auto cached_schedule = store->load_schedule(schedule_key);
      if (cached_run && cached_schedule) {
        reference = std::move(cached_run->graph);
        result.schedule = std::move(*cached_schedule);
        loaded = true;
      }
    }
    if (!loaded) {
      const core::UnitReport report = supervisor.run("record", [&] {
        support::faults::on_unit_body("record");
        const auto pattern_impl = patterns::make_pattern(config.pattern);
        const sim::RunResult run = sim::run_simulation(
            config.record_sim, pattern_impl->program(config.shape));
        result.schedule = record_schedule(run.trace);
        store::EncodedRun encoded = proc::run_artifact(run);
        if (store != nullptr) {
          store->save_run(reference_key, encoded);
          store->save_schedule(schedule_key, result.schedule);
        }
        reference = std::move(encoded.graph);
      });
      if (!report.ok) {
        throw PermanentError("bisect: recording the reference failed: " +
                             report.error);
      }
    }
  }
  check_cancel(cancel);

  // --- the outcome: one stored object, or else the search ---
  const std::size_t total = result.schedule.total_matches();
  const store::Digest outcome_key = store::ArtifactStore::bisection_key(
      config.kernel_spec, config.label_policy, reference_key,
      config.replay_seed, config.target_fraction);
  std::optional<store::EncodedBisection> outcome;
  if (store != nullptr) outcome = store->load_bisection(outcome_key, total);
  if (!outcome) {
    const kernels::FeatureVector reference_features =
        proc::load_or_extract_features(
            store, *kernels::make_kernel(config.kernel_spec),
            config.kernel_spec, config.label_policy, reference_key,
            [&]() -> const graph::EventGraph& { return reference; });
    CandidateEvaluator evaluator(config, supervisor, executor, store,
                                 result.schedule, reference_key,
                                 schedule_key, reference_features);
    outcome = search(config, pool, evaluator, total, cancel);
    if (store != nullptr) store->save_bisection(outcome_key, *outcome);
  }

  result.full_gap = outcome->full_gap;
  result.achieved = outcome->achieved;
  result.rounds = outcome->rounds;
  result.candidates = outcome->candidates;
  result.minimal = std::move(outcome->minimal);
  result.report =
      ranked_report(reference, result.schedule, result.minimal,
                    outcome->contributions, config.slice_window);
  return result;
}

json::Value bisect_to_json(const BisectConfig& config,
                           const BisectResult& result) {
  json::Value doc = json::Value::object();
  doc.set("schema", "anacin-bisect-1");
  doc.set("pattern", config.pattern);
  doc.set("shape", config.shape.to_json());
  doc.set("sim", config.record_sim.to_json());
  doc.set("replay_seed", std::to_string(config.replay_seed));
  doc.set("kernel", config.kernel_spec);
  doc.set("label_policy",
          std::string(kernels::label_policy_name(config.label_policy)));
  doc.set("target_fraction", config.target_fraction);
  doc.set("slice_window", static_cast<std::int64_t>(config.slice_window));
  doc.set("total_matches",
          static_cast<std::int64_t>(result.schedule.total_matches()));
  doc.set("full_gap", result.full_gap);
  doc.set("achieved", result.achieved);
  doc.set("rounds", static_cast<std::int64_t>(result.rounds));
  doc.set("candidates", static_cast<std::int64_t>(result.candidates));
  json::Value minimal = json::Value::array();
  for (const std::size_t index : result.minimal) {
    minimal.push_back(static_cast<std::int64_t>(index));
  }
  doc.set("minimal", std::move(minimal));
  json::Value report = json::Value::array();
  for (const RacyMatch& entry : result.report) {
    json::Value record = json::Value::object();
    record.set("schedule_index",
               static_cast<std::int64_t>(entry.schedule_index));
    record.set("rank", entry.rank);
    record.set("recv_seq", entry.recv_seq);
    record.set("callsite", entry.callsite);
    record.set("slice", static_cast<std::int64_t>(entry.slice));
    record.set("source", entry.source);
    record.set("send_seq", entry.send_seq);
    record.set("contribution", entry.contribution);
    report.push_back(std::move(record));
  }
  doc.set("report", std::move(report));
  return doc;
}

}  // namespace anacin::replay
