#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernels/labeled_graph.hpp"
#include "patterns/pattern.hpp"
#include "sim/config.hpp"
#include "store/codec.hpp"
#include "store/hash.hpp"
#include "store/object_store.hpp"

namespace anacin::store {

/// Typed facade over the content-addressed ObjectStore.
///
/// Keys are digests of canonical JSON documents describing *everything the
/// artifact is a function of* — the simulator is deterministic, so a run
/// artifact is fully determined by (pattern, shape, sim config) and a
/// distance artifact by (kernel, label policy, the two runs' keys). The
/// documents embed the codec format version, so bumping kFormatVersion
/// invalidates every old key instead of misreading old payloads.
///
/// Loads that hit a corrupt object (failed envelope or payload decode)
/// remove the object, bump the `store.corrupt` counter, and report a miss
/// so callers transparently recompute.
///
/// Saves that hit a disk fault (typed IoError: full disk, device error,
/// failed publish) degrade instead of aborting: the first failure logs a
/// warning and bumps `store.degraded`, and every later save becomes a
/// no-op — the campaign continues with --no-store semantics (recompute
/// everything, cache nothing). Loads keep working: already-published
/// objects are content-addressed and immutable, so reads can only help.
/// The journal deliberately does NOT get this treatment (see
/// core::CampaignJournal::persist).
class ArtifactStore {
 public:
  explicit ArtifactStore(ObjectStore::Config config);

  ObjectStore& objects() { return objects_; }
  const ObjectStore& objects() const { return objects_; }

  /// Key of one simulated run (simulation + event-graph construction).
  static Digest run_key(const std::string& pattern,
                        const patterns::PatternConfig& shape,
                        const sim::SimConfig& sim_config);

  /// Key of one kernel distance between two runs. Symmetric: the two run
  /// digests are ordered before hashing, so (a, b) and (b, a) collide.
  static Digest distance_key(const std::string& kernel_spec,
                             kernels::LabelPolicy policy, const Digest& a,
                             const Digest& b);

  /// Key of one run's kernel feature histogram: extraction is a pure
  /// function of (kernel spec, label policy, run), so the cached histogram
  /// substitutes bit-for-bit for re-extraction.
  static Digest features_key(const std::string& kernel_spec,
                             kernels::LabelPolicy policy, const Digest& run);

  /// Key of the replay schedule recorded from one run. Recording is a pure
  /// function of the run's trace, so the key covers the same inputs as
  /// run_key.
  static Digest schedule_key(const std::string& pattern,
                             const patterns::PatternConfig& shape,
                             const sim::SimConfig& sim_config);

  /// Key of a replayed run: the recording's schedule digest plus the set of
  /// schedule entries freed (flat rank-major indices, ascending) fully
  /// determine the replay outcome given the replay sim config.
  static Digest replay_run_key(const std::string& pattern,
                               const patterns::PatternConfig& shape,
                               const sim::SimConfig& sim_config,
                               const Digest& schedule,
                               const std::vector<std::size_t>& freed);

  /// Key of one bisection's outcome: the reference run (which fixes the
  /// recorded schedule and, with the replay seed, every candidate's
  /// replay), the kernel and label policy that measure candidates, and the
  /// target fraction that steers the search. The report's slice window and
  /// the retry policy are left out: they change no stored number.
  static Digest bisection_key(const std::string& kernel_spec,
                              kernels::LabelPolicy policy,
                              const Digest& reference,
                              std::uint64_t replay_seed,
                              double target_fraction);

  /// The run named `key`. With `with_graph` false only its counters are
  /// decoded and `graph` stays empty; the whole object is still
  /// checksummed, so a corrupt one takes the corrupt path either way.
  std::optional<EncodedRun> load_run(const Digest& key, bool with_graph = true);
  void save_run(const Digest& key, const EncodedRun& run);

  std::optional<double> load_distance(const Digest& key);
  void save_distance(const Digest& key, double value);

  std::optional<kernels::SparseHistogram> load_features(const Digest& key);
  void save_features(const Digest& key,
                     const kernels::SparseHistogram& features);

  std::optional<sim::ReplaySchedule> load_schedule(const Digest& key);
  void save_schedule(const Digest& key, const sim::ReplaySchedule& schedule);

  /// The bisection outcome named `key`, over a schedule of
  /// `total_matches` entries: a minimal index outside the schedule takes
  /// the corrupt path like any other undecodable object.
  std::optional<EncodedBisection> load_bisection(const Digest& key,
                                                 std::size_t total_matches);
  void save_bisection(const Digest& key, const EncodedBisection& outcome);

  /// True once a save hit a disk fault and the store fell back to
  /// --no-store semantics for publishes. Reported under `resilience.
  /// store_degraded` in campaign reports.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

 private:
  /// Publish `bytes` unless degraded; a typed disk fault flips the
  /// degraded latch (warning + store.degraded counter) instead of
  /// propagating.
  void publish(const Digest& key, Kind kind,
               const std::vector<std::uint8_t>& bytes, const char* what);

  ObjectStore objects_;
  std::atomic<bool> degraded_{false};
};

/// Process-global store used by default throughout the campaign layer;
/// nullptr (the initial state) disables artifact caching. The CLI installs
/// a store here when --store is given. Not owned.
ArtifactStore* active_store();
void set_active_store(ArtifactStore* store);

}  // namespace anacin::store
