#include "proc/worker_main.hpp"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "kernels/distance_matrix.hpp"
#include "obs/obs.hpp"
#include "proc/protocol.hpp"
#include "sim/simulator.hpp"
#include "store/codec.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"

namespace anacin::proc {

namespace {

std::uint64_t parse_seed(const std::string& text) {
  try {
    std::size_t consumed = 0;
    const std::uint64_t seed = std::stoull(text, &consumed);
    ANACIN_CHECK(consumed == text.size(), "trailing garbage");
    return seed;
  } catch (const std::exception&) {
    throw PermanentError("worker: malformed seed '" + text + "' in request");
  }
}

store::Digest parse_digest(const json::Value& request,
                           const std::string& key) {
  const auto digest = store::Digest::from_hex(request.at(key).as_string());
  if (!digest) {
    throw PermanentError("worker: malformed digest '" +
                         request.at(key).as_string() + "' in request");
  }
  return *digest;
}

/// The features of `graph` under `kernel`, counted in
/// `kernels.feature_tasks`.
kernels::FeatureVector extract_features(const kernels::GraphKernel& kernel,
                                        kernels::LabelPolicy policy,
                                        const graph::EventGraph& graph) {
  static obs::Counter& feature_tasks = obs::counter("kernels.feature_tasks");
  kernels::FeatureVector features =
      kernel.features(kernels::build_labeled_graph(graph, policy));
  feature_tasks.add(1);
  return features;
}

json::Value ok_reply(const store::Digest& key) {
  json::Value reply = json::Value::object();
  reply.set("status", "ok");
  reply.set("key", key.to_hex());
  return reply;
}

/// Execute one `run` unit: make the store contain the run artifact.
json::Value execute_run(store::ArtifactStore& store,
                        const json::Value& request) {
  const std::string pattern = request.at("pattern").as_string();
  const patterns::PatternConfig shape =
      patterns::PatternConfig::from_json(request.at("shape"));
  sim::SimConfig sim_config = sim::SimConfig::from_json(request.at("sim"));
  sim_config.seed = parse_seed(request.at("seed").as_string());

  const store::Digest key =
      store::ArtifactStore::run_key(pattern, shape, sim_config);
  load_or_simulate_run(&store, key, pattern, shape, sim_config,
                       /*with_graph=*/false);
  return ok_reply(key);
}

/// Execute one `replay` unit: make the store contain the candidate's
/// distance. The recorded schedule and the reference's features are store
/// artifacts (named by digest, shipped to agents by hash like any other
/// input); the request's `freed` array lists the flat rank-major schedule
/// entries to free before replaying.
json::Value execute_replay(store::ArtifactStore& store,
                           const json::Value& request) {
  ReplayCandidate candidate;
  candidate.pattern = request.at("pattern").as_string();
  candidate.shape = patterns::PatternConfig::from_json(request.at("shape"));
  candidate.sim = sim::SimConfig::from_json(request.at("sim"));
  candidate.sim.seed = parse_seed(request.at("seed").as_string());
  candidate.schedule = parse_digest(request, "schedule");
  for (const json::Value& index : request.at("freed").items()) {
    const std::int64_t value = index.as_int();
    if (value < 0) {
      throw PermanentError("worker: negative freed index in replay request");
    }
    candidate.freed.push_back(static_cast<std::size_t>(value));
  }
  candidate.kernel_spec = request.at("kernel").as_string();
  candidate.policy =
      kernels::label_policy_from_name(request.at("policy").as_string());
  candidate.reference = parse_digest(request, "reference");

  // Both inputs exist before the bisection dispatches its first candidate.
  const auto missing = [](const char* what, const store::Digest& key) {
    return PermanentError("worker: " + std::string(what) + " artifact " +
                          key.to_hex() +
                          " missing from the store — replay units are "
                          "dispatched only after the reference is stored");
  };
  const auto schedule = store.load_schedule(candidate.schedule);
  if (!schedule) throw missing("schedule", candidate.schedule);
  const store::Digest features_key = store::ArtifactStore::features_key(
      candidate.kernel_spec, candidate.policy, candidate.reference);
  const auto reference_features = store.load_features(features_key);
  if (!reference_features) throw missing("reference features", features_key);

  const auto kernel = kernels::make_kernel(candidate.kernel_spec);
  load_or_replay_distance(&store, candidate, *kernel, *schedule,
                          *reference_features);
  return ok_reply(candidate.distance_key());
}

/// Execute one `pair` unit: make the store contain the distance artifact.
json::Value execute_pair(store::ArtifactStore& store,
                         const json::Value& request) {
  const std::string kernel_spec = request.at("kernel").as_string();
  const kernels::LabelPolicy policy =
      kernels::label_policy_from_name(request.at("policy").as_string());
  const store::Digest a = parse_digest(request, "a");
  const store::Digest b = parse_digest(request, "b");

  const store::Digest key =
      store::ArtifactStore::distance_key(kernel_spec, policy, a, b);
  if (store.load_distance(key)) return ok_reply(key);

  // Across the many pair units that share a run, only the first one pays
  // for its features; later ones load them.
  const auto kernel = kernels::make_kernel(kernel_spec);
  const auto features_of = [&](const store::Digest& digest) {
    graph::EventGraph loaded;
    return load_or_extract_features(
        &store, *kernel, kernel_spec, policy, digest,
        [&]() -> const graph::EventGraph& {
          auto run = store.load_run(digest);
          if (!run) {
            throw PermanentError("worker: run artifact " + digest.to_hex() +
                                 " missing from the store — pair units are "
                                 "dispatched only after their runs complete");
          }
          loaded = std::move(run->graph);
          return loaded;
        });
  };
  const kernels::FeatureVector features_a = features_of(a);
  const kernels::FeatureVector features_b = features_of(b);
  store.save_distance(key, kernels::counted_distance(features_a, features_b));
  return ok_reply(key);
}

bool send_fail(std::mutex& write_mutex, const char* kind,
               const std::string& error) {
  json::Value payload = json::Value::object();
  payload.set("kind", kind);
  payload.set("error", error);
  const std::lock_guard<std::mutex> lock(write_mutex);
  return write_frame(STDOUT_FILENO, FrameType::kFail, payload.dump());
}

}  // namespace

store::EncodedRun run_artifact(const sim::RunResult& run) {
  store::EncodedRun encoded;
  encoded.graph = graph::EventGraph::from_trace(run.trace);
  encoded.messages = run.stats.messages;
  encoded.wildcard_recvs = run.stats.wildcard_recvs;
  encoded.drops = run.stats.drops;
  encoded.duplicates = run.stats.duplicates;
  encoded.straggler_events = run.stats.straggler_events;
  return encoded;
}

store::EncodedRun load_or_simulate_run(store::ArtifactStore* store,
                                       const store::Digest& key,
                                       const std::string& pattern,
                                       const patterns::PatternConfig& shape,
                                       const sim::SimConfig& sim_config,
                                       bool with_graph, bool* simulated) {
  if (store != nullptr) {
    if (auto cached = store->load_run(key, with_graph)) {
      return std::move(*cached);
    }
  }
  const auto pattern_impl = patterns::make_pattern(pattern);
  store::EncodedRun run = run_artifact(
      sim::run_simulation(sim_config, pattern_impl->program(shape)));
  if (store != nullptr) store->save_run(key, run);
  if (simulated != nullptr) *simulated = true;
  return run;
}

kernels::FeatureVector load_or_extract_features(
    store::ArtifactStore* store, const kernels::GraphKernel& kernel,
    const std::string& kernel_spec, kernels::LabelPolicy policy,
    const store::Digest& run_key,
    const std::function<const graph::EventGraph&()>& graph) {
  const store::Digest key =
      store::ArtifactStore::features_key(kernel_spec, policy, run_key);
  if (store != nullptr) {
    if (auto cached = store->load_features(key)) return std::move(*cached);
  }
  kernels::FeatureVector features = extract_features(kernel, policy, graph());
  if (store != nullptr) store->save_features(key, features);
  return features;
}

store::Digest ReplayCandidate::distance_key() const {
  return store::ArtifactStore::distance_key(
      kernel_spec, policy, reference,
      store::ArtifactStore::replay_run_key(pattern, shape, sim, schedule,
                                           freed));
}

double load_or_replay_distance(
    store::ArtifactStore* store, const ReplayCandidate& candidate,
    const kernels::GraphKernel& kernel, const sim::ReplaySchedule& schedule,
    const kernels::FeatureVector& reference_features) {
  const store::Digest key = candidate.distance_key();
  if (store != nullptr) {
    if (const auto hit = store->load_distance(key)) return *hit;
  }
  sim::ReplaySchedule replay = schedule;
  for (const std::size_t index : candidate.freed) {
    if (!replay.free_entry(index)) {
      throw PermanentError("freed index " + std::to_string(index) +
                           " out of range for schedule " +
                           candidate.schedule.to_hex());
    }
  }
  sim::SimConfig sim_config = candidate.sim;
  sim_config.replay = &replay;
  const sim::RunResult run = sim::run_simulation(
      sim_config,
      patterns::make_pattern(candidate.pattern)->program(candidate.shape));
  const double distance = kernels::counted_distance(
      reference_features,
      extract_features(kernel, candidate.policy,
                       graph::EventGraph::from_trace(run.trace)));
  if (store != nullptr) store->save_distance(key, distance);
  return distance;
}

json::Value execute_unit(store::ArtifactStore& store,
                         const json::Value& request) {
  const std::string type = request.at("type").as_string();
  if (type == "run") return execute_run(store, request);
  if (type == "pair") return execute_pair(store, request);
  if (type == "replay") return execute_replay(store, request);
  throw PermanentError("worker: unknown unit type '" + type + "'");
}

std::vector<store::Digest> unit_input_keys(const json::Value& request) {
  std::vector<store::Digest> keys;
  const std::string type = request.at("type").as_string();
  if (type == "pair") {
    keys.push_back(parse_digest(request, "a"));
    keys.push_back(parse_digest(request, "b"));
  } else if (type == "replay") {
    keys.push_back(parse_digest(request, "schedule"));
    keys.push_back(store::ArtifactStore::features_key(
        request.at("kernel").as_string(),
        kernels::label_policy_from_name(request.at("policy").as_string()),
        parse_digest(request, "reference")));
  }
  return keys;
}

json::Value make_run_request(const std::string& unit,
                             const std::string& pattern,
                             const patterns::PatternConfig& shape,
                             const sim::SimConfig& sim_config) {
  json::Value request = json::Value::object();
  request.set("unit", unit);
  request.set("type", "run");
  request.set("pattern", pattern);
  request.set("shape", shape.to_json());
  request.set("sim", sim_config.to_json());
  request.set("seed", std::to_string(sim_config.seed));
  request.set("result_key",
              store::ArtifactStore::run_key(pattern, shape, sim_config)
                  .to_hex());
  return request;
}

json::Value make_replay_request(const std::string& unit,
                                const ReplayCandidate& candidate) {
  json::Value request = json::Value::object();
  request.set("unit", unit);
  request.set("type", "replay");
  request.set("pattern", candidate.pattern);
  request.set("shape", candidate.shape.to_json());
  request.set("sim", candidate.sim.to_json());
  request.set("seed", std::to_string(candidate.sim.seed));
  request.set("schedule", candidate.schedule.to_hex());
  json::Value freed = json::Value::array();
  for (const std::size_t index : candidate.freed) {
    freed.push_back(static_cast<std::int64_t>(index));
  }
  request.set("freed", std::move(freed));
  request.set("kernel", candidate.kernel_spec);
  request.set("policy",
              std::string(kernels::label_policy_name(candidate.policy)));
  request.set("reference", candidate.reference.to_hex());
  request.set("result_key", candidate.distance_key().to_hex());
  return request;
}

json::Value make_pair_request(const std::string& unit,
                              const std::string& kernel_spec,
                              kernels::LabelPolicy policy,
                              const store::Digest& a,
                              const store::Digest& b) {
  json::Value request = json::Value::object();
  request.set("unit", unit);
  request.set("type", "pair");
  request.set("kernel", kernel_spec);
  request.set("policy", std::string(kernels::label_policy_name(policy)));
  request.set("a", a.to_hex());
  request.set("b", b.to_hex());
  request.set(
      "result_key",
      store::ArtifactStore::distance_key(kernel_spec, policy, a, b).to_hex());
  return request;
}

int worker_main(store::ArtifactStore& store, double heartbeat_interval_ms) {
  ::signal(SIGPIPE, SIG_IGN);
  std::mutex write_mutex;

  while (true) {
    const ReadResult incoming = read_frame(STDIN_FILENO);
    if (incoming.status == ReadStatus::kEof) {
      return 0;  // parent closed our stdin at a boundary: clean shutdown
    }
    if (incoming.status != ReadStatus::kFrame) {
      // A torn frame on our own stdin means the parent-side stream broke
      // mid-write; exiting non-zero lets the pool's triage see the
      // difference from a retirement.
      std::fprintf(stderr, "worker: protocol error on stdin: %s\n",
                   incoming.error.c_str());
      return 1;
    }
    const Frame& frame = incoming.frame;
    if (frame.type != FrameType::kRequest) {
      std::fprintf(stderr, "worker: unexpected frame type %d\n",
                   static_cast<int>(frame.type));
      return 1;
    }
    std::string unit = "?";
    try {
      const json::Value request = json::parse(frame.payload);
      unit = request.at("unit").as_string();
      const Heartbeater heartbeater(STDOUT_FILENO, heartbeat_interval_ms,
                                    write_mutex);
      // Injected crashes/hangs fire in whichever process executes the
      // unit — here, when isolation is on.
      support::faults::on_unit_body(unit);
      const json::Value reply = execute_unit(store, request);
      const std::lock_guard<std::mutex> lock(write_mutex);
      if (!write_frame(STDOUT_FILENO, FrameType::kResult, reply.dump())) {
        return 1;  // parent gone mid-reply
      }
    } catch (const TransientError& error) {
      if (!send_fail(write_mutex, "transient", error.what())) return 1;
    } catch (const std::exception& error) {
      if (!send_fail(write_mutex, "permanent", error.what())) return 1;
    }
  }
}

}  // namespace anacin::proc
