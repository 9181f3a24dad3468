#include "store/store.hpp"

#include <atomic>
#include <utility>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace anacin::store {

namespace {

obs::Counter& corrupt_counter() {
  static obs::Counter& counter = obs::counter("store.corrupt");
  return counter;
}

std::atomic<ArtifactStore*> g_active_store{nullptr};

}  // namespace

ArtifactStore::ArtifactStore(ObjectStore::Config config)
    : objects_(std::move(config)) {}

Digest ArtifactStore::run_key(const std::string& pattern,
                              const patterns::PatternConfig& shape,
                              const sim::SimConfig& sim_config) {
  json::Value doc = json::Value::object();
  doc.set("artifact", "run");
  doc.set("codec", static_cast<std::int64_t>(kFormatVersion));
  doc.set("pattern", pattern);
  doc.set("shape", shape.to_json());
  doc.set("sim", sim_config.to_json());
  return digest_json(doc);
}

Digest ArtifactStore::distance_key(const std::string& kernel_spec,
                                   kernels::LabelPolicy policy,
                                   const Digest& a, const Digest& b) {
  const std::string hex_a = a.to_hex();
  const std::string hex_b = b.to_hex();
  json::Value doc = json::Value::object();
  doc.set("artifact", "distance");
  doc.set("codec", static_cast<std::int64_t>(kFormatVersion));
  doc.set("kernel", kernel_spec);
  doc.set("label_policy", std::string(kernels::label_policy_name(policy)));
  doc.set("run_lo", hex_a <= hex_b ? hex_a : hex_b);
  doc.set("run_hi", hex_a <= hex_b ? hex_b : hex_a);
  return digest_json(doc);
}

Digest ArtifactStore::features_key(const std::string& kernel_spec,
                                   kernels::LabelPolicy policy,
                                   const Digest& run) {
  json::Value doc = json::Value::object();
  doc.set("artifact", "features");
  doc.set("codec", static_cast<std::int64_t>(kFormatVersion));
  doc.set("kernel", kernel_spec);
  doc.set("label_policy", std::string(kernels::label_policy_name(policy)));
  doc.set("run", run.to_hex());
  return digest_json(doc);
}

Digest ArtifactStore::schedule_key(const std::string& pattern,
                                   const patterns::PatternConfig& shape,
                                   const sim::SimConfig& sim_config) {
  json::Value doc = json::Value::object();
  doc.set("artifact", "schedule");
  doc.set("codec", static_cast<std::int64_t>(kFormatVersion));
  doc.set("pattern", pattern);
  doc.set("shape", shape.to_json());
  doc.set("sim", sim_config.to_json());
  return digest_json(doc);
}

Digest ArtifactStore::replay_run_key(const std::string& pattern,
                                     const patterns::PatternConfig& shape,
                                     const sim::SimConfig& sim_config,
                                     const Digest& schedule,
                                     const std::vector<std::size_t>& freed) {
  json::Value doc = json::Value::object();
  doc.set("artifact", "replay_run");
  doc.set("codec", static_cast<std::int64_t>(kFormatVersion));
  doc.set("pattern", pattern);
  doc.set("shape", shape.to_json());
  doc.set("sim", sim_config.to_json());
  doc.set("schedule", schedule.to_hex());
  json::Value freed_array = json::Value::array();
  for (const std::size_t index : freed) {
    freed_array.push_back(static_cast<std::int64_t>(index));
  }
  doc.set("freed", std::move(freed_array));
  return digest_json(doc);
}

Digest ArtifactStore::bisection_key(const std::string& kernel_spec,
                                    kernels::LabelPolicy policy,
                                    const Digest& reference,
                                    std::uint64_t replay_seed,
                                    double target_fraction) {
  json::Value doc = json::Value::object();
  doc.set("artifact", "bisection");
  doc.set("codec", static_cast<std::int64_t>(kFormatVersion));
  doc.set("kernel", kernel_spec);
  doc.set("label_policy", std::string(kernels::label_policy_name(policy)));
  doc.set("reference", reference.to_hex());
  // Decimal, like the seed of a work-unit request: JSON numbers are
  // doubles and would round seeds above 2^53.
  doc.set("replay_seed", std::to_string(replay_seed));
  doc.set("target_fraction", target_fraction);
  return digest_json(doc);
}

std::optional<EncodedRun> ArtifactStore::load_run(const Digest& key,
                                                  bool with_graph) {
  const ObjectBytes bytes = objects_.get(key);
  if (!bytes) return std::nullopt;
  try {
    return with_graph ? decode_run(*bytes) : decode_run_counters(*bytes);
  } catch (const Error&) {
    corrupt_counter().add(1);
    objects_.remove(key);
    return std::nullopt;
  }
}

void ArtifactStore::publish(const Digest& key, Kind kind,
                            const std::vector<std::uint8_t>& bytes,
                            const char* what) {
  if (degraded_.load(std::memory_order_acquire)) return;
  try {
    objects_.put(key, kind, bytes);
  } catch (const IoError& fault) {
    if (!degraded_.exchange(true, std::memory_order_acq_rel)) {
      obs::counter("store.degraded").add(1);
      ANACIN_LOG_WARN("artifact store degraded ("
                      << what << " " << key.to_hex()
                      << "): " << fault.what()
                      << " — continuing without artifact caching "
                         "(--no-store semantics); reads still served");
    }
  }
}

void ArtifactStore::save_run(const Digest& key, const EncodedRun& run) {
  publish(key, Kind::kRun, encode_run(run), "run");
}

std::optional<double> ArtifactStore::load_distance(const Digest& key) {
  const ObjectBytes bytes = objects_.get(key);
  if (!bytes) return std::nullopt;
  try {
    const std::vector<double> values = decode_distances(*bytes);
    if (values.size() != 1) {
      throw ParseError("distance artifact holds " +
                       std::to_string(values.size()) + " values, expected 1");
    }
    return values.front();
  } catch (const Error&) {
    corrupt_counter().add(1);
    objects_.remove(key);
    return std::nullopt;
  }
}

void ArtifactStore::save_distance(const Digest& key, double value) {
  publish(key, Kind::kDistances, encode_distances({value}), "distance");
}

std::optional<kernels::SparseHistogram> ArtifactStore::load_features(
    const Digest& key) {
  const ObjectBytes bytes = objects_.get(key);
  if (!bytes) return std::nullopt;
  try {
    return decode_features(*bytes);
  } catch (const Error&) {
    corrupt_counter().add(1);
    objects_.remove(key);
    return std::nullopt;
  }
}

void ArtifactStore::save_features(const Digest& key,
                                  const kernels::SparseHistogram& features) {
  publish(key, Kind::kFeatures, encode_features(features), "features");
}

std::optional<sim::ReplaySchedule> ArtifactStore::load_schedule(
    const Digest& key) {
  const ObjectBytes bytes = objects_.get(key);
  if (!bytes) return std::nullopt;
  try {
    return decode_schedule(*bytes);
  } catch (const Error&) {
    corrupt_counter().add(1);
    objects_.remove(key);
    return std::nullopt;
  }
}

void ArtifactStore::save_schedule(const Digest& key,
                                  const sim::ReplaySchedule& schedule) {
  publish(key, Kind::kSchedule, encode_schedule(schedule), "schedule");
}

std::optional<EncodedBisection> ArtifactStore::load_bisection(
    const Digest& key, std::size_t total_matches) {
  const ObjectBytes bytes = objects_.get(key);
  if (!bytes) return std::nullopt;
  try {
    EncodedBisection outcome = decode_bisection(*bytes);
    if (!outcome.minimal.empty() && outcome.minimal.back() >= total_matches) {
      throw ParseError("bisection artifact: minimal index " +
                       std::to_string(outcome.minimal.back()) +
                       " outside a schedule of " +
                       std::to_string(total_matches) + " matches");
    }
    return outcome;
  } catch (const Error&) {
    corrupt_counter().add(1);
    objects_.remove(key);
    return std::nullopt;
  }
}

void ArtifactStore::save_bisection(const Digest& key,
                                   const EncodedBisection& outcome) {
  publish(key, Kind::kBisection, encode_bisection(outcome), "bisection");
}

ArtifactStore* active_store() {
  return g_active_store.load(std::memory_order_acquire);
}

void set_active_store(ArtifactStore* store) {
  g_active_store.store(store, std::memory_order_release);
}

}  // namespace anacin::store
