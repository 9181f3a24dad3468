#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "store/codec.hpp"
#include "store/hash.hpp"

namespace anacin::store {

/// Shared immutable bytes of one object.
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
/// Every read comes from disk; the page cache does the caching. The store
/// holds no mutable state (only its root), so it is thread-safe by
/// construction, and a sibling process's publish or removal is visible to
/// the next read.
class ObjectStore {
 public:
  struct Config {
    std::filesystem::path root;
  };

  explicit ObjectStore(Config config);

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  const std::filesystem::path& root() const { return config_.root; }

  /// Read an object's bytes from disk; nullptr when absent. A read stamps
  /// the file's mtime (the last use `gc` sees). Counts store.hits /
  /// store.misses / store.bytes_read.
  ObjectBytes get(const Digest& key);

  /// Publish an object; a key that already exists is left untouched.
  /// Returns true when newly written. Counts store.bytes_written. `kind`
  /// is not recorded separately: the envelope in `bytes` carries it.
  bool put(const Digest& key, Kind kind, std::span<const std::uint8_t> bytes);

  bool contains(const Digest& key) const;

  /// Delete an object's file (used when a load detects corruption so the
  /// artifact is recomputed, not re-served).
  void remove(const Digest& key);

  struct Stats {
    std::uint64_t objects = 0;
    std::uint64_t total_bytes = 0;
    /// Object count per artifact kind name.
    std::map<std::string, std::uint64_t> kind_counts;
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

  const Config config_;
};

}  // namespace anacin::store
