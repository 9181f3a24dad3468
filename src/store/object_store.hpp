#pragma once

#include <cstdint>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/codec.hpp"
#include "store/hash.hpp"

namespace anacin::store {

/// Shared immutable bytes of one object (what the LRU cache holds).
using ObjectBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

/// File-backed content-addressed object store.
///
/// Layout under the root directory:
///   objects/<first 2 hex chars>/<remaining 30 hex chars>   one artifact each
///
/// The objects directory is the store's only record. `stats`, `verify` and
/// `gc` walk it: an object's size and last use come from its file, and its
/// kind from its envelope. A read from disk stamps the file's mtime, so
/// `gc` evicts least-recently-used objects first. Opening a store only
/// creates `objects/` and sweeps crashed writers' temp files, so many
/// processes (the `--isolate=process` worker children) can share one root
/// and each sees the others' publishes.
///
/// Publishes are atomic: objects are written to a uniquely named temp file
/// in the final directory and rename()d into place, so concurrent writers
/// and readers never observe partial objects.
///
/// Reads are fronted by a byte-bounded in-memory LRU cache. All public
/// methods are thread-safe; file reads happen outside the lock.
class ObjectStore {
 public:
  struct Config {
    std::filesystem::path root;
    /// Byte bound of the in-memory LRU cache (0 disables caching).
    std::uint64_t memory_max_bytes = 256ull << 20;
  };

  explicit ObjectStore(Config config);

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  const std::filesystem::path& root() const { return config_.root; }

  /// Fetch an object's bytes (memory cache first, then disk); nullptr when
  /// absent. A disk read stamps the file's mtime (the last use `gc` sees).
  /// Counts store.hits / store.misses / store.bytes_read.
  ObjectBytes get(const Digest& key);

  /// Publish an object; a key that already exists is left untouched.
  /// Returns true when newly written. Counts store.bytes_written. `kind`
  /// is not recorded separately: the envelope in `bytes` carries it.
  bool put(const Digest& key, Kind kind, std::span<const std::uint8_t> bytes);

  bool contains(const Digest& key) const;

  /// Drop an object from disk and memory cache (used when a load
  /// detects corruption so the artifact is recomputed, not re-served).
  void remove(const Digest& key);

  struct Stats {
    std::uint64_t objects = 0;
    std::uint64_t total_bytes = 0;
    /// Object count per artifact kind name.
    std::map<std::string, std::uint64_t> kind_counts;
    std::uint64_t memory_objects = 0;
    std::uint64_t memory_bytes = 0;
    std::uint64_t memory_max_bytes = 0;
  };
  Stats stats() const;

  struct VerifyReport {
    std::uint64_t checked = 0;
    /// Keys whose files fail envelope validation (bad magic, truncation,
    /// checksum mismatch, unsupported version).
    std::vector<std::string> corrupt;
    /// Files in objects/ whose names are not valid digests.
    std::vector<std::string> foreign;

    bool ok() const { return corrupt.empty() && foreign.empty(); }
  };
  /// Re-read every object from disk and validate its envelope.
  VerifyReport verify() const;

  struct RepairReport {
    /// verify() results the repair acted on.
    VerifyReport verified;
    /// Objects moved into quarantine/ (corrupt + foreign).
    std::uint64_t quarantined = 0;
    /// Files that could not be moved (e.g. permissions); left in place.
    std::vector<std::string> failed;

    bool ok() const { return failed.empty(); }
  };
  /// Heal a damaged store: re-verify, then move every corrupt and foreign
  /// object aside into `<root>/quarantine/` (preserving the file name,
  /// uniquified on collision) so subsequent loads recompute instead of
  /// tripping over bad bytes. Nothing is deleted — a quarantined object
  /// can be inspected or restored by hand.
  RepairReport repair();

  struct GcReport {
    std::uint64_t removed_objects = 0;
    std::uint64_t removed_bytes = 0;
    std::uint64_t remaining_objects = 0;
    std::uint64_t remaining_bytes = 0;
    /// Orphaned `*.tmp.*` files swept (crashed writers' litter).
    std::uint64_t removed_temp_files = 0;
  };
  /// Evict least-recently-used objects (oldest mtime first) until total
  /// size <= max_bytes. Also sweeps stale temp files older than this
  /// process.
  GcReport gc(std::uint64_t max_bytes);

 private:
  std::filesystem::path object_path(const std::string& hex) const;
  void touch_memory_locked(const std::string& hex, ObjectBytes bytes);
  void evict_memory_locked();
  void drop_memory_locked(const std::string& hex);

  Config config_;
  mutable std::mutex mutex_;

  /// LRU over object hex keys, most recent at the front.
  std::list<std::pair<std::string, ObjectBytes>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, ObjectBytes>>::iterator>
      lru_lookup_;
  std::uint64_t lru_bytes_ = 0;
};

}  // namespace anacin::store
