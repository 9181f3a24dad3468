#include "store/object_store.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/fs.hpp"

namespace anacin::store {

namespace fs = std::filesystem;

namespace {

std::int64_t now_unix() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

obs::Counter& hits_counter() {
  static obs::Counter& counter = obs::counter("store.hits");
  return counter;
}
obs::Counter& misses_counter() {
  static obs::Counter& counter = obs::counter("store.misses");
  return counter;
}
obs::Counter& evictions_counter() {
  static obs::Counter& counter = obs::counter("store.evictions");
  return counter;
}
obs::Counter& bytes_read_counter() {
  static obs::Counter& counter = obs::counter("store.bytes_read");
  return counter;
}
obs::Counter& bytes_written_counter() {
  static obs::Counter& counter = obs::counter("store.bytes_written");
  return counter;
}

std::optional<std::vector<std::uint8_t>> read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) return std::nullopt;
  bytes.resize(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in.good() && !bytes.empty()) return std::nullopt;
  return bytes;
}

}  // namespace

ObjectStore::ObjectStore(Config config) : config_(std::move(config)) {
  ANACIN_CHECK(!config_.root.empty(), "object store needs a root directory");
  fs::create_directories(config_.root / "objects");
  // Sweep litter from crashed writers before scanning. Only temps older
  // than this process are touched: a fresh temp may be a sibling worker's
  // in-flight publish (many processes share one store root under
  // --isolate=process), and deleting it mid-write would torpedo a valid
  // commit.
  const std::uint64_t stale = support::remove_stale_temp_files(config_.root);
  if (stale > 0) obs::counter("store.stale_temps_removed").add(stale);
  load_index();
  scan_objects();
}

ObjectStore::~ObjectStore() {
  try {
    flush_index();
  } catch (...) {
    // Destructors must not throw; a stale index self-heals on next open.
  }
}

fs::path ObjectStore::object_path(const std::string& hex) const {
  return config_.root / "objects" / hex.substr(0, 2) / hex.substr(2);
}

void ObjectStore::load_index() {
  const fs::path path = config_.root / "index.json";
  std::ifstream in(path);
  if (!in.good()) return;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  try {
    const json::Value doc = json::parse(text);
    if (!doc.is_object() || !doc.contains("objects")) return;
    for (const auto& [hex, meta] : doc.at("objects").members()) {
      Entry entry;
      entry.kind = static_cast<std::uint16_t>(meta.at("kind").as_int());
      entry.size = static_cast<std::uint64_t>(meta.at("size").as_int());
      entry.created_unix = meta.at("created").as_int();
      entry.last_used_unix = meta.at("last_used").as_int();
      index_[hex] = entry;
    }
  } catch (const Error&) {
    // A corrupt index is discarded; scan_objects() rebuilds the metadata.
    index_.clear();
  }
}

void ObjectStore::scan_objects() {
  // The directory is the source of truth: drop index entries whose file is
  // gone and adopt files the index does not know (kind is read lazily from
  // the envelope; unreadable files keep kind 0 = unknown).
  std::map<std::string, Entry> scanned;
  const fs::path objects_dir = config_.root / "objects";
  for (const auto& shard : fs::directory_iterator(objects_dir)) {
    if (!shard.is_directory()) continue;
    for (const auto& file : fs::directory_iterator(shard.path())) {
      if (!file.is_regular_file()) continue;
      const std::string name = file.path().filename().string();
      if (name.find(".tmp.") != std::string::npos) {
        // Unpublished temp file: either a crashed writer's litter (the
        // constructor's stale sweep removed the old ones already) or a
        // concurrent writer's in-flight publish — skip, never delete.
        continue;
      }
      const std::string hex = shard.path().filename().string() + name;
      if (!Digest::from_hex(hex).has_value()) continue;
      Entry entry;
      if (const auto it = index_.find(hex); it != index_.end()) {
        entry = it->second;
      } else {
        entry.created_unix = entry.last_used_unix = now_unix();
        index_dirty_ = true;
      }
      entry.size = file.file_size();
      if (entry.kind == 0) {
        if (const auto bytes = read_file_bytes(file.path())) {
          try {
            entry.kind =
                static_cast<std::uint16_t>(validate_envelope(*bytes).kind);
          } catch (const Error&) {
            // Corrupt object: keep it listed so verify/load can report it.
          }
        }
      }
      scanned[hex] = entry;
    }
  }
  if (scanned.size() != index_.size()) index_dirty_ = true;
  index_ = std::move(scanned);
}

void ObjectStore::save_index_locked() {
  if (!config_.persist_index) {
    // The index is only a cache; a reader-owned store rebuilds it by
    // scanning objects/ at construction.
    index_dirty_ = false;
    return;
  }
  json::Value doc = json::Value::object();
  doc.set("schema", "anacin-store-index-1");
  json::Value objects = json::Value::object();
  for (const auto& [hex, entry] : index_) {
    json::Value meta = json::Value::object();
    meta.set("kind", static_cast<std::int64_t>(entry.kind));
    meta.set("size", static_cast<std::int64_t>(entry.size));
    meta.set("created", entry.created_unix);
    meta.set("last_used", entry.last_used_unix);
    objects.set(hex, std::move(meta));
  }
  doc.set("objects", std::move(objects));

  // Routed through atomic_write_file: unique temp name (no fixed-path
  // race), disk-fault coverage under the store path class, and fsync at
  // --durability=commit and above.
  const fs::path path = config_.root / "index.json";
  support::atomic_write_file(path.string(), doc.dump(2) + "\n",
                             support::PathClass::kStore);
  index_dirty_ = false;
}

void ObjectStore::flush_index() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_dirty_) save_index_locked();
}

void ObjectStore::touch_memory_locked(const std::string& hex,
                                      ObjectBytes bytes) {
  if (config_.memory_max_bytes == 0) return;
  if (const auto it = lru_lookup_.find(hex); it != lru_lookup_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_bytes_ += bytes->size();
  lru_.emplace_front(hex, std::move(bytes));
  lru_lookup_[hex] = lru_.begin();
  evict_memory_locked();
}

void ObjectStore::evict_memory_locked() {
  while (lru_bytes_ > config_.memory_max_bytes && !lru_.empty()) {
    const auto& [hex, bytes] = lru_.back();
    lru_bytes_ -= bytes->size();
    lru_lookup_.erase(hex);
    lru_.pop_back();
    evictions_counter().add(1);
  }
}

void ObjectStore::drop_memory_locked(const std::string& hex) {
  if (const auto it = lru_lookup_.find(hex); it != lru_lookup_.end()) {
    lru_bytes_ -= it->second->second->size();
    lru_.erase(it->second);
    lru_lookup_.erase(it);
  }
}

ObjectBytes ObjectStore::get(const Digest& key) {
  const std::string hex = key.to_hex();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = lru_lookup_.find(hex); it != lru_lookup_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_counter().add(1);
      const auto entry = index_.find(hex);
      if (entry != index_.end()) entry->second.last_used_unix = now_unix();
      return it->second->second;
    }
  }
  // Disk read outside the lock; the path is an immutable function of the
  // key, and published objects are never rewritten in place.
  auto bytes = read_file_bytes(object_path(hex));
  if (!bytes.has_value()) {
    misses_counter().add(1);
    return nullptr;
  }
  bytes_read_counter().add(bytes->size());
  hits_counter().add(1);
  auto shared =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(*bytes));
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto entry = index_.find(hex); entry != index_.end()) {
    entry->second.last_used_unix = now_unix();
    index_dirty_ = true;
  }
  touch_memory_locked(hex, shared);
  return shared;
}

bool ObjectStore::put(const Digest& key, Kind kind,
                      std::span<const std::uint8_t> bytes) {
  const std::string hex = key.to_hex();
  const fs::path path = object_path(hex);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.contains(hex)) return false;
  }
  std::error_code ec;
  if (fs::exists(path, ec)) return false;

  fs::create_directories(path.parent_path(), ec);
  if (ec) {
    throw IoError("cannot create object directory " +
                  path.parent_path().string() + ": " + ec.message());
  }
  // One disk decision per publish; injected failures throw the same typed
  // IoError a real full disk would, which is what lets the campaign layer
  // degrade to --no-store semantics instead of aborting.
  using DiskFault = support::faults::DiskFault;
  const DiskFault fault =
      support::faults::next_disk_fault(support::PathClass::kStore);
  if (fault.kind == DiskFault::Kind::kOpenFail) {
    throw IoError("injected open failure (fault plan) for object " + hex);
  }
  // Renamed into place: readers never see a partially written object, and
  // concurrent writers of the same key — sibling worker processes publish
  // the same objects — are both valid (identical content), so
  // last-rename-wins is safe as long as their temps never collide.
  const fs::path temp = support::unique_temp_path(path);
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw IoError("cannot write object at " + temp.string());
    }
    if (fault.kind == DiskFault::Kind::kEnospc ||
        fault.kind == DiskFault::Kind::kEio) {
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size() / 2));
      out.flush();
      throw IoError(std::string("injected ") +
                    (fault.kind == DiskFault::Kind::kEnospc ? "ENOSPC"
                                                            : "EIO") +
                    " (fault plan) writing object " + hex);
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      throw IoError("short write for object at " + temp.string() +
                    " (disk full?)");
    }
  }
  // Object publishes are the hot path: fsync only at --durability=paranoid
  // (a lost object is re-derivable from its inputs; a lost journal entry
  // is re-done work — see docs/RESILIENCE.md).
  const bool durable =
      support::durability_level() == support::Durability::kParanoid;
  if (durable && !fault.drop_fsync) {
    support::fsync_path(temp, /*is_directory=*/false);
  }
  if (fault.kind == DiskFault::Kind::kRenameFail) {
    throw IoError("injected rename failure (fault plan) publishing object " +
                  hex);
  }
  fs::rename(temp, path, ec);
  if (ec) {
    const std::string reason = ec.message();
    fs::remove(temp, ec);
    throw IoError("cannot publish object " + hex + ": " + reason);
  }
  if (durable && !fault.drop_fsync) {
    support::fsync_path(path.parent_path(), /*is_directory=*/true);
  }
  bytes_written_counter().add(bytes.size());
  support::faults::note_durable_commit(support::PathClass::kStore);

  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.kind = static_cast<std::uint16_t>(kind);
  entry.size = bytes.size();
  entry.created_unix = entry.last_used_unix = now_unix();
  index_[hex] = entry;
  touch_memory_locked(
      hex, std::make_shared<const std::vector<std::uint8_t>>(bytes.begin(),
                                                             bytes.end()));
  save_index_locked();
  return true;
}

bool ObjectStore::contains(const Digest& key) const {
  const std::string hex = key.to_hex();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.contains(hex)) return true;
  }
  std::error_code ec;
  return fs::exists(object_path(hex), ec);
}

void ObjectStore::remove(const Digest& key) {
  const std::string hex = key.to_hex();
  std::error_code ec;
  fs::remove(object_path(hex), ec);
  std::lock_guard<std::mutex> lock(mutex_);
  drop_memory_locked(hex);
  if (index_.erase(hex) > 0) save_index_locked();
}

ObjectStore::Stats ObjectStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.memory_objects = lru_.size();
  stats.memory_bytes = lru_bytes_;
  stats.memory_max_bytes = config_.memory_max_bytes;
  for (const auto& [hex, entry] : index_) {
    stats.objects += 1;
    stats.total_bytes += entry.size;
    const std::string kind =
        entry.kind >= 1 && entry.kind <= 5
            ? std::string(kind_name(static_cast<Kind>(entry.kind)))
            : "unknown";
    stats.kind_counts[kind] += 1;
  }
  return stats;
}

ObjectStore::VerifyReport ObjectStore::verify() const {
  VerifyReport report;
  const fs::path objects_dir = config_.root / "objects";
  for (const auto& shard : fs::directory_iterator(objects_dir)) {
    if (!shard.is_directory()) continue;
    for (const auto& file : fs::directory_iterator(shard.path())) {
      if (!file.is_regular_file()) continue;
      const std::string name = file.path().filename().string();
      if (name.find(".tmp.") != std::string::npos) {
        // A writer's temp file — in-flight publish or crash litter. The
        // stale-temp sweeper owns these; quarantining them as "foreign"
        // would yank a concurrent publish out from under its rename.
        continue;
      }
      const std::string hex = shard.path().filename().string() + name;
      if (!Digest::from_hex(hex).has_value()) {
        report.foreign.push_back(file.path().string());
        continue;
      }
      report.checked += 1;
      const auto bytes = read_file_bytes(file.path());
      if (!bytes.has_value()) {
        report.corrupt.push_back(hex);
        continue;
      }
      try {
        validate_envelope(*bytes);
      } catch (const Error&) {
        report.corrupt.push_back(hex);
      }
    }
  }
  return report;
}

ObjectStore::RepairReport ObjectStore::repair() {
  RepairReport report;
  report.verified = verify();
  if (report.verified.ok()) return report;

  const fs::path quarantine_dir = config_.root / "quarantine";
  std::error_code ec;
  fs::create_directories(quarantine_dir, ec);
  if (ec) {
    report.failed.push_back(quarantine_dir.string());
    return report;
  }

  const auto quarantine_file = [&](const fs::path& source,
                                   const std::string& name) {
    fs::path target = quarantine_dir / name;
    // Uniquify on collision so repeated repairs never clobber evidence.
    for (int attempt = 1; fs::exists(target, ec); ++attempt) {
      target = quarantine_dir / (name + "." + std::to_string(attempt));
    }
    // Repair is itself a writer, so it is fault-injectable too: a failed
    // quarantine move leaves the object in place (still listed in
    // `failed`) and a later repair run picks it up again.
    if (support::faults::rename_fails(support::PathClass::kStore)) {
      report.failed.push_back(source.string());
      return false;
    }
    fs::rename(source, target, ec);
    if (ec) {
      report.failed.push_back(source.string());
      return false;
    }
    report.quarantined += 1;
    return true;
  };

  for (const std::string& hex : report.verified.corrupt) {
    if (!quarantine_file(object_path(hex), hex)) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    drop_memory_locked(hex);
    if (index_.erase(hex) > 0) index_dirty_ = true;
  }
  for (const std::string& path : report.verified.foreign) {
    const fs::path source(path);
    quarantine_file(source, source.filename().string());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    try {
      if (index_dirty_) save_index_locked();
    } catch (const IoError&) {
      // The index is a self-healing cache: a failed save leaves the store
      // scannable and the next repair (or open) rebuilds it. Surface the
      // failure without abandoning the quarantines already done.
      report.failed.push_back((config_.root / "index.json").string());
    }
  }
  obs::counter("store.objects_quarantined").add(report.quarantined);
  return report;
}

ObjectStore::GcReport ObjectStore::gc(std::uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  GcReport report;
  std::uint64_t total = 0;
  for (const auto& [hex, entry] : index_) total += entry.size;

  // Oldest last-use first.
  std::vector<std::pair<std::int64_t, std::string>> by_age;
  by_age.reserve(index_.size());
  for (const auto& [hex, entry] : index_) {
    by_age.emplace_back(entry.last_used_unix, hex);
  }
  std::sort(by_age.begin(), by_age.end());

  for (const auto& [last_used, hex] : by_age) {
    if (total <= max_bytes) break;
    const auto it = index_.find(hex);
    std::error_code ec;
    fs::remove(object_path(hex), ec);
    total -= it->second.size;
    report.removed_objects += 1;
    report.removed_bytes += it->second.size;
    drop_memory_locked(hex);
    index_.erase(it);
  }
  report.remaining_objects = index_.size();
  report.remaining_bytes = total;
  report.removed_temp_files = support::remove_stale_temp_files(config_.root);
  save_index_locked();
  return report;
}

}  // namespace anacin::store
