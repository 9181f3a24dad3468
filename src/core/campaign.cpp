#include "core/campaign.hpp"

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "proc/executor.hpp"
#include "proc/worker_main.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/rng.hpp"

namespace anacin::core {

sim::SimConfig CampaignConfig::sim_config_for_run(int run_index) const {
  sim::SimConfig config;
  config.num_ranks = shape.num_ranks;
  config.num_nodes = num_nodes;
  config.seed = hash_combine(mix64(base_seed),
                             static_cast<std::uint64_t>(run_index));
  config.network = network;
  config.network.nd_fraction = nd_fraction;
  config.faults = faults;
  return config;
}

sim::SimConfig CampaignConfig::reference_sim_config() const {
  sim::SimConfig config = sim_config_for_run(0);
  config.seed = mix64(base_seed);
  config.network.nd_fraction = 0.0;
  // The reference is always fault-free: a fault sweep's points then share
  // one clean baseline, so the measured distance isolates the faults.
  config.faults = sim::FaultConfig{};
  return config;
}

json::Value CampaignConfig::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("pattern", pattern);
  doc.set("num_ranks", shape.num_ranks);
  doc.set("iterations", shape.iterations);
  doc.set("message_bytes", static_cast<std::int64_t>(shape.message_bytes));
  doc.set("num_nodes", num_nodes);
  doc.set("nd_percent", nd_fraction * 100.0);
  doc.set("num_runs", num_runs);
  doc.set("base_seed", base_seed);
  doc.set("kernel", kernel);
  doc.set("label_policy",
          std::string(kernels::label_policy_name(label_policy)));
  doc.set("reduction",
          measurement_reduction_is_reference() ? "to_reference" : "pairwise");
  doc.set("faults", faults.to_json());
  return doc;
}

bool CampaignConfig::measurement_reduction_is_reference() const {
  return reduction == analysis::DistanceReduction::kToReference;
}

json::Value QuarantinedUnit::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("unit", unit);
  doc.set("error", error);
  doc.set("attempts", static_cast<std::int64_t>(attempts));
  if (has_triage) {
    json::Value details = json::Value::object();
    details.set("disposition", triage.disposition);
    if (!triage.signal.empty()) details.set("signal", triage.signal);
    if (triage.exit_status >= 0) {
      details.set("exit_status", static_cast<std::int64_t>(triage.exit_status));
    }
    details.set("peak_rss_kib", static_cast<std::int64_t>(triage.peak_rss_kib));
    details.set("heartbeat_age_ms", triage.heartbeat_age_ms);
    details.set("stderr_tail", triage.stderr_tail);
    doc.set("triage", std::move(details));
  }
  return doc;
}

json::Value CampaignResult::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("config", config.to_json());
  doc.set("distances", json::Value::array_of(measurement.distances));
  json::Value summary = json::Value::object();
  summary.set("count", static_cast<std::int64_t>(distance_summary.count));
  summary.set("mean", distance_summary.mean);
  summary.set("stddev", distance_summary.stddev);
  summary.set("min", distance_summary.min);
  summary.set("q1", distance_summary.q1);
  summary.set("median", distance_summary.median);
  summary.set("q3", distance_summary.q3);
  summary.set("max", distance_summary.max);
  doc.set("summary", std::move(summary));
  doc.set("total_messages", total_messages);
  doc.set("total_wildcard_recvs", total_wildcard_recvs);
  doc.set("total_drops", total_drops);
  doc.set("total_duplicates", total_duplicates);
  doc.set("total_straggler_events", total_straggler_events);
  json::Value resilience = json::Value::object();
  resilience.set("complete", complete());
  // Deliberately no retry count here: retries are operational telemetry
  // (they vary with where and how the campaign ran — a re-queued unit on
  // a replacement agent produces the identical artifact), and the report
  // must stay byte-identical across local, isolated, and distributed
  // execution. Retry observability lives in the metrics snapshot
  // (resilience.retries) and CampaignResult::retries.
  json::Value quarantine = json::Value::array();
  for (const QuarantinedUnit& unit : quarantined) {
    quarantine.push_back(unit.to_json());
  }
  resilience.set("quarantined", std::move(quarantine));
  // Degradation is deterministic under io chaos (seeded) and false on
  // every healthy run, so the report stays byte-identical across local,
  // isolated, and distributed execution.
  resilience.set("store_degraded", store_degraded);
  doc.set("resilience", std::move(resilience));
  return doc;
}

sim::RunResult run_pattern_once(const std::string& pattern,
                                const patterns::PatternConfig& shape,
                                const sim::SimConfig& sim_config) {
  ANACIN_CHECK(sim_config.num_ranks == shape.num_ranks,
               "pattern shape and sim config disagree on rank count");
  const auto pattern_impl = patterns::make_pattern(pattern);
  return sim::run_simulation(sim_config, pattern_impl->program(shape));
}

namespace {

/// Process-wide memo of jitter-free reference executions, keyed by the
/// reference run's artifact key. Sweep points differ only in nd_fraction,
/// which the reference run zeroes out, so an 11-point sweep shares one
/// reference simulation. Works with or without an artifact store.
struct ReferenceMemo {
  std::mutex mutex;
  std::unordered_map<std::string, std::shared_ptr<const graph::EventGraph>>
      by_key;
};

ReferenceMemo& reference_memo() {
  static ReferenceMemo memo;
  return memo;
}

/// Coarse bound so a long-lived process sweeping many shapes cannot grow
/// the memo without limit (graphs are a few MB each at paper scale).
constexpr std::size_t kMaxReferenceMemoEntries = 64;

/// Produce the reference event graph (run key `key`): memo, then the run
/// producer (store, then simulate). Each unique reference key is simulated
/// at most once per process (see the `campaign.reference_sims` counter).
std::shared_ptr<const graph::EventGraph> reference_graph(
    const CampaignConfig& config, const store::Digest& key,
    store::ArtifactStore* store) {
  const std::string hex = key.to_hex();

  ReferenceMemo& memo = reference_memo();
  {
    std::lock_guard<std::mutex> lock(memo.mutex);
    if (const auto it = memo.by_key.find(hex); it != memo.by_key.end()) {
      return it->second;
    }
  }

  bool simulated = false;
  store::EncodedRun run = proc::load_or_simulate_run(
      store, key, config.pattern, config.shape, config.reference_sim_config(),
      /*with_graph=*/true, &simulated);
  if (simulated) obs::counter("campaign.reference_sims").add(1);
  auto graph = std::make_shared<const graph::EventGraph>(std::move(run.graph));

  std::lock_guard<std::mutex> lock(memo.mutex);
  if (memo.by_key.size() >= kMaxReferenceMemoEntries) memo.by_key.clear();
  memo.by_key.emplace(hex, graph);
  return graph;
}

/// Store-backed equivalent of analysis::measure_nd: every pair distance is
/// a store lookup first; only misses build features and compute (via
/// kernels::counted_distance, so `kernels.distances_computed` stays an
/// exact census and a fully warm campaign leaves it untouched). Argument
/// orders mirror the batched kernels:: entry points so results are
/// bit-identical with and without a store.
///
/// `runs` may be a subset of the campaign's runs (quarantined runs are
/// excluded); `run_labels[i]` carries the original run index so pair work
/// units keep stable ids. A null `runs[i]` is a run whose graph is still in
/// its store object: it is loaded only if that run's features miss. With
/// `workers` the children build every feature, and `reference` may be null.
/// Each missing pair distance is a supervised work unit: with
/// `keep_going`, a permanently failing pair is dropped from the sample and
/// appended to `quarantined` instead of aborting.
analysis::NdMeasurement measure_nd_with_store(
    const CampaignConfig& config,
    const std::vector<const graph::EventGraph*>& runs,
    const std::vector<store::Digest>& run_keys,
    const std::vector<int>& run_labels, const graph::EventGraph* reference,
    const store::Digest& reference_key, ThreadPool& pool,
    store::ArtifactStore& store, const Supervisor& supervisor,
    bool keep_going, CancelToken* cancel,
    std::vector<QuarantinedUnit>* quarantined,
    proc::UnitExecutor* workers) {
  ANACIN_SPAN("analysis.measure_nd");
  obs::counter("analysis.nd_measurements").add(1);
  const auto kernel = kernels::make_kernel(config.kernel);
  const std::size_t n = runs.size();

  struct Pair {
    std::size_t a;  // index into runs, or n for the reference
    std::size_t b;
    std::size_t out;  // slot in measurement.distances
    store::Digest key;
  };
  const auto key_of = [&](std::size_t index) -> const store::Digest& {
    return index == n ? reference_key : run_keys[index];
  };
  const auto label_of = [&](std::size_t index) {
    return index == n ? std::string("ref")
                      : std::to_string(run_labels[index]);
  };

  std::vector<Pair> pairs;
  if (config.measurement_reduction_is_reference()) {
    pairs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // distances_to_reference order: (reference, run i).
      pairs.push_back({n, i, i, {}});
    }
  } else {
    pairs.reserve(n * (n - 1) / 2);
    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        // upper_triangle order of pairwise_distances.
        pairs.push_back({i, j, out++, {}});
      }
    }
  }
  for (Pair& pair : pairs) {
    pair.key = store::ArtifactStore::distance_key(
        config.kernel, config.label_policy, key_of(pair.a), key_of(pair.b));
  }

  analysis::NdMeasurement measurement;
  measurement.reduction = config.reduction;
  measurement.distances.assign(pairs.size(), 0.0);

  std::vector<Pair> misses;
  std::vector<char> need_features(n + 1, 0);
  for (const Pair& pair : pairs) {
    if (const auto hit = store.load_distance(pair.key)) {
      measurement.distances[pair.out] = *hit;
    } else {
      need_features[pair.a] = 1;
      need_features[pair.b] = 1;
      misses.push_back(pair);
    }
  }
  if (misses.empty()) return measurement;

  // Feature-embed only the graphs that participate in a miss (index n is
  // the reference). Under --isolate=process the worker children build
  // features themselves, so the campaign process skips this entirely.
  std::vector<kernels::FeatureVector> features(n + 1);
  if (workers == nullptr) {
    ANACIN_SPAN("kernels.feature_extraction");
    pool.parallel_for(
        0, n + 1,
        [&](std::size_t i) {
          if (!need_features[i]) return;
          // A re-run of an interrupted campaign or a switched --reduction
          // loads each run's features instead of re-walking its graph.
          graph::EventGraph loaded;
          features[i] = proc::load_or_extract_features(
              &store, *kernel, config.kernel, config.label_policy, key_of(i),
              [&]() -> const graph::EventGraph& {
                if (i == n) return *reference;
                if (runs[i] != nullptr) return *runs[i];
                loaded = proc::load_or_simulate_run(
                             &store, key_of(i), config.pattern, config.shape,
                             config.sim_config_for_run(run_labels[i]),
                             /*with_graph=*/true)
                             .graph;
                return loaded;
              });
        },
        cancel);
    if (cancel != nullptr && cancel->cancelled()) {
      throw InterruptedError("interrupted during feature extraction");
    }
  }

  std::vector<UnitReport> reports(misses.size());
  std::vector<char> slot_failed(measurement.distances.size(), 0);
  pool.parallel_for(
      0, misses.size(),
      [&](std::size_t m) {
        const Pair& pair = misses[m];
        const std::string unit =
            "pair:" + label_of(pair.a) + "-" + label_of(pair.b);
        reports[m] = supervisor.run(unit, [&] {
          if (workers != nullptr) {
            // The child computes and publishes the distance; the parent
            // reads it back through the store, so isolated results are
            // byte-identical to in-process ones. Digests travel in
            // request order — the child computes in that order too.
            workers->execute(unit, proc::make_pair_request(
                                       unit, config.kernel,
                                       config.label_policy, key_of(pair.a),
                                       key_of(pair.b)));
            const auto hit = store.load_distance(pair.key);
            if (!hit) {
              throw PermanentError(
                  "worker child reported success for unit '" + unit +
                  "' but the distance artifact is missing from the store");
            }
            measurement.distances[pair.out] = *hit;
            return;
          }
          support::faults::on_unit_body(unit);
          const double distance =
              kernels::counted_distance(features[pair.a], features[pair.b]);
          measurement.distances[pair.out] = distance;
          store.save_distance(pair.key, distance);
        });
        if (!reports[m].ok) {
          if (!keep_going) {
            throw PermanentError("work unit '" + unit + "' failed after " +
                                 std::to_string(reports[m].attempts) +
                                 " attempt(s): " + reports[m].error);
          }
          slot_failed[pair.out] = 1;
        }
      },
      cancel);
  if (cancel != nullptr && cancel->cancelled()) {
    throw InterruptedError("interrupted during distance measurement");
  }

  // Quarantine failed pairs (in deterministic miss order) and compact
  // their slots out of the sample.
  bool any_failed = false;
  for (std::size_t m = 0; m < misses.size(); ++m) {
    if (reports[m].ok) continue;
    any_failed = true;
    const Pair& pair = misses[m];
    quarantined->push_back({"pair:" + label_of(pair.a) + "-" + label_of(pair.b),
                            reports[m].error, reports[m].attempts,
                            reports[m].triage, reports[m].has_triage});
    obs::counter("resilience.pairs_quarantined").add(1);
  }
  if (any_failed) {
    std::vector<double> surviving;
    surviving.reserve(measurement.distances.size());
    for (std::size_t slot = 0; slot < measurement.distances.size(); ++slot) {
      if (!slot_failed[slot]) surviving.push_back(measurement.distances[slot]);
    }
    measurement.distances = std::move(surviving);
  }
  return measurement;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config, ThreadPool& pool,
                            store::ArtifactStore* store,
                            const ResilienceOptions& resilience,
                            std::vector<graph::EventGraph>* graphs) {
  ANACIN_SPAN("campaign.run");
  ANACIN_CHECK(config.num_runs >= 1, "campaign needs at least one run");
  ANACIN_CHECK(config.nd_fraction >= 0.0 && config.nd_fraction <= 1.0,
               "nd_fraction must be in [0,1]");
  obs::counter("campaign.campaigns").add(1);
  obs::counter("campaign.runs")
      .add(static_cast<std::uint64_t>(config.num_runs));
  // The producers build the program only on a miss; building it here
  // rejects an unknown pattern or a bad shape (ConfigError) before any
  // unit runs.
  patterns::make_pattern(config.pattern)->program(config.shape);
  const std::size_t num_runs = static_cast<std::size_t>(config.num_runs);

  proc::UnitExecutor* const workers = resilience.executor;
  ANACIN_CHECK(workers == nullptr || store != nullptr,
               "--isolate=process requires an artifact store: isolated "
               "results flow back through it");

  const Supervisor supervisor(resilience.retry, config.base_seed);
  CancelToken* const cancel = resilience.cancel;
  const auto check_interrupt = [&](const char* where) {
    if (cancel != nullptr && cancel->cancelled()) {
      throw InterruptedError(std::string("interrupted during ") + where +
                             " — in-flight work drained");
    }
  };

  CampaignResult result;
  result.config = config;
  // A run's graph is kept only when this campaign simulated it or the
  // caller asked for graphs; any other store hit decodes just the counters.
  const bool with_graphs = graphs != nullptr;
  std::vector<graph::EventGraph> run_graphs(num_runs);
  std::vector<char> has_graph(num_runs, 0);
  std::vector<std::uint64_t> messages(num_runs);
  std::vector<std::uint64_t> wildcards(num_runs);
  std::vector<std::uint64_t> drops(num_runs);
  std::vector<std::uint64_t> duplicates(num_runs);
  std::vector<std::uint64_t> stragglers(num_runs);
  std::vector<store::Digest> run_keys(num_runs);
  std::vector<UnitReport> run_reports(num_runs);

  {
    ANACIN_SPAN("campaign.simulate");
    pool.parallel_for(
        0, num_runs,
        [&](std::size_t i) {
          ANACIN_SPAN("campaign.simulate_run");
          const std::string unit = "run:" + std::to_string(i);
          run_reports[i] = supervisor.run(unit, [&] {
            const sim::SimConfig sim_config =
                config.sim_config_for_run(static_cast<int>(i));
            run_keys[i] = store::ArtifactStore::run_key(
                config.pattern, config.shape, sim_config);
            if (workers != nullptr) {
              // Dispatch even on a warm store: the child answers fast from
              // the cache, injected faults stay deterministic, and the
              // parent's load below is guaranteed to hit.
              workers->execute(unit,
                               proc::make_run_request(unit, config.pattern,
                                                      config.shape,
                                                      sim_config));
            } else {
              support::faults::on_unit_body(unit);
            }
            bool simulated = false;
            store::EncodedRun run = proc::load_or_simulate_run(
                store, run_keys[i], config.pattern, config.shape, sim_config,
                with_graphs, &simulated);
            if (with_graphs || simulated) {
              run_graphs[i] = std::move(run.graph);
              has_graph[i] = 1;
            }
            messages[i] = run.messages;
            wildcards[i] = run.wildcard_recvs;
            drops[i] = run.drops;
            duplicates[i] = run.duplicates;
            stragglers[i] = run.straggler_events;
          });
          if (!run_reports[i].ok && !resilience.keep_going) {
            // Fail fast: parallel_for's cancellation skips every
            // not-yet-started run before this rethrows.
            throw PermanentError("work unit '" + unit + "' failed after " +
                                 std::to_string(run_reports[i].attempts) +
                                 " attempt(s): " + run_reports[i].error);
          }
        },
        cancel);
  }
  check_interrupt("simulation");

  // Quarantine failed runs in deterministic index order; their stat slots
  // stay zero and their graphs stay empty.
  std::vector<std::size_t> ok_runs;
  ok_runs.reserve(num_runs);
  for (std::size_t i = 0; i < num_runs; ++i) {
    if (run_reports[i].ok) {
      ok_runs.push_back(i);
    } else {
      result.quarantined.push_back(
          {"run:" + std::to_string(i), run_reports[i].error,
           run_reports[i].attempts, run_reports[i].triage,
           run_reports[i].has_triage});
      obs::counter("resilience.runs_quarantined").add(1);
      run_graphs[i] = graph::EventGraph{};
      messages[i] = wildcards[i] = drops[i] = duplicates[i] =
          stragglers[i] = 0;
    }
  }
  ANACIN_CHECK(!ok_runs.empty(),
               "campaign quarantined every run — nothing left to measure");
  for (std::size_t i = 0; i < messages.size(); ++i) {
    result.total_messages += messages[i];
    result.total_wildcard_recvs += wildcards[i];
    result.total_drops += drops[i];
    result.total_duplicates += duplicates[i];
    result.total_straggler_events += stragglers[i];
  }

  const store::Digest reference_key = store::ArtifactStore::run_key(
      config.pattern, config.shape, config.reference_sim_config());
  std::shared_ptr<const graph::EventGraph> reference;
  {
    ANACIN_SPAN("campaign.reference_run");
    // The reference is the measurement baseline: a permanent failure here
    // is fatal even under keep-going (there is nothing to measure
    // against), but it still gets the supervisor's retries and deadline.
    const UnitReport report = supervisor.run("reference", [&] {
      if (workers != nullptr) {
        workers->execute("reference",
                         proc::make_run_request("reference", config.pattern,
                                                config.shape,
                                                config.reference_sim_config()));
        // The children build every feature, so the parent needs only the
        // reference object, not its graph.
        bool simulated = false;
        proc::load_or_simulate_run(store, reference_key, config.pattern,
                                   config.shape, config.reference_sim_config(),
                                   /*with_graph=*/false, &simulated);
        if (simulated) obs::counter("campaign.reference_sims").add(1);
        return;
      }
      support::faults::on_unit_body("reference");
      reference = reference_graph(config, reference_key, store);
    });
    if (!report.ok) {
      throw PermanentError("work unit 'reference' failed after " +
                           std::to_string(report.attempts) +
                           " attempt(s): " + report.error);
    }
  }
  check_interrupt("reference run");

  {
    ANACIN_SPAN("campaign.measure");
    const bool subset = ok_runs.size() < num_runs;
    if (store != nullptr) {
      std::vector<const graph::EventGraph*> run_view;
      std::vector<store::Digest> key_view;
      std::vector<int> label_view;
      run_view.reserve(ok_runs.size());
      key_view.reserve(ok_runs.size());
      label_view.reserve(ok_runs.size());
      for (const std::size_t i : ok_runs) {
        run_view.push_back(has_graph[i] ? &run_graphs[i] : nullptr);
        key_view.push_back(run_keys[i]);
        label_view.push_back(static_cast<int>(i));
      }
      result.measurement = measure_nd_with_store(
          config, run_view, key_view, label_view, reference.get(),
          reference_key, pool, *store, supervisor, resilience.keep_going,
          cancel, &result.quarantined, workers);
    } else {
      // Without a store the batched kernels:: entry points do the work;
      // supervise the measurement as one unit (pair-level supervision is
      // the store path's job). Every run was simulated, so every graph is
      // in memory.
      const std::vector<graph::EventGraph>* run_set = &run_graphs;
      std::vector<graph::EventGraph> surviving;
      if (subset) {
        surviving.reserve(ok_runs.size());
        for (const std::size_t i : ok_runs) {
          surviving.push_back(run_graphs[i]);
        }
        run_set = &surviving;
      }
      const auto kernel = kernels::make_kernel(config.kernel);
      const UnitReport report = supervisor.run("measure", [&] {
        support::faults::on_unit_body("measure");
        result.measurement =
            analysis::measure_nd(*kernel, config.label_policy, *run_set,
                                 reference.get(), config.reduction, pool);
      });
      if (!report.ok) {
        if (!resilience.keep_going) {
          throw PermanentError("work unit 'measure' failed after " +
                               std::to_string(report.attempts) +
                               " attempt(s): " + report.error);
        }
        result.quarantined.push_back({"measure", report.error, report.attempts,
                                      report.triage, report.has_triage});
        obs::counter("resilience.pairs_quarantined").add(1);
        result.measurement = analysis::NdMeasurement{};
        result.measurement.reduction = config.reduction;
      }
    }
    result.distance_summary =
        result.measurement.distances.empty()
            ? analysis::Summary{}
            : analysis::summarize(result.measurement.distances);
  }
  check_interrupt("measurement");
  result.retries = supervisor.retries_performed();
  result.store_degraded = store != nullptr && store->degraded();
  if (!result.quarantined.empty()) {
    obs::counter("resilience.campaigns_partial").add(1);
  }
  if (graphs != nullptr) *graphs = std::move(run_graphs);
  return result;
}

}  // namespace anacin::core
