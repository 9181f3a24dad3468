#include "store/object_store.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <tuple>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/fs.hpp"

namespace anacin::store {

namespace fs = std::filesystem;

namespace {

obs::Counter& hits_counter() {
  static obs::Counter& counter = obs::counter("store.hits");
  return counter;
}
obs::Counter& misses_counter() {
  static obs::Counter& counter = obs::counter("store.misses");
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

/// Visit every file under objects/ as (entry, hex); `hex` is empty when the
/// name is not a digest (a foreign file). Writers' temp files are skipped:
/// they are in-flight publishes or crash litter, which the stale-temp sweep
/// owns, and touching them would yank a concurrent publish out from under
/// its rename.
template <typename Visit>
void for_each_object_file(const fs::path& root, Visit&& visit) {
  for (const auto& shard : fs::directory_iterator(root / "objects")) {
    if (!shard.is_directory()) continue;
    for (const auto& file : fs::directory_iterator(shard.path())) {
      if (!file.is_regular_file()) continue;
      const std::string name = file.path().filename().string();
      if (name.find(".tmp.") != std::string::npos) continue;
      const std::string hex = shard.path().filename().string() + name;
      visit(file, Digest::from_hex(hex).has_value() ? hex : std::string());
    }
  }
}

/// The kind in an object file's envelope; nullopt when the file cannot be
/// read or fails validation (bad magic, truncation, checksum mismatch).
std::optional<Kind> read_kind(const fs::path& path) {
  const auto bytes = read_file_bytes(path);
  if (!bytes.has_value()) return std::nullopt;
  try {
    return validate_envelope(*bytes).kind;
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace

ObjectStore::ObjectStore(Config config) : config_(std::move(config)) {
  ANACIN_CHECK(!config_.root.empty(), "object store needs a root directory");
  fs::create_directories(config_.root / "objects");
  // Sweep litter from crashed writers. Only temps older than this process
  // are touched: a fresh temp may be a sibling worker's in-flight publish
  // (many processes share one store root under --isolate=process), and
  // deleting it mid-write would torpedo a valid commit.
  const std::uint64_t stale = support::remove_stale_temp_files(config_.root);
  if (stale > 0) obs::counter("store.stale_temps_removed").add(stale);
}

fs::path ObjectStore::object_path(const std::string& hex) const {
  return config_.root / "objects" / hex.substr(0, 2) / hex.substr(2);
}

ObjectBytes ObjectStore::get(const Digest& key) {
  // The path is an immutable function of the key, and published objects
  // are never rewritten in place, so a read needs no lock.
  const fs::path path = object_path(key.to_hex());
  auto bytes = read_file_bytes(path);
  if (!bytes.has_value()) {
    misses_counter().add(1);
    return nullptr;
  }
  bytes_read_counter().add(bytes->size());
  hits_counter().add(1);
  // The mtime is the last use gc evicts by. Best effort: a store on a
  // read-only mount still serves its objects.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(*bytes));
}

// The kind is unnamed: the envelope in `bytes` already records it.
bool ObjectStore::put(const Digest& key, Kind /*kind*/,
                      std::span<const std::uint8_t> bytes) {
  const std::string hex = key.to_hex();
  const fs::path path = object_path(hex);
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
  return true;
}

bool ObjectStore::contains(const Digest& key) const {
  std::error_code ec;
  return fs::exists(object_path(key.to_hex()), ec);
}

void ObjectStore::remove(const Digest& key) {
  std::error_code ec;
  fs::remove(object_path(key.to_hex()), ec);
}

ObjectStore::Stats ObjectStore::stats() const {
  Stats stats;
  for_each_object_file(config_.root, [&](const fs::directory_entry& file,
                                         const std::string& hex) {
    if (hex.empty()) return;
    std::error_code ec;
    const std::uint64_t size = file.file_size(ec);
    if (ec) return;  // removed since the walk listed it
    const std::optional<Kind> kind = read_kind(file.path());
    stats.objects += 1;
    stats.total_bytes += size;
    stats.kind_counts[kind ? std::string(kind_name(*kind)) : "unknown"] += 1;
  });
  return stats;
}

ObjectStore::VerifyReport ObjectStore::verify() const {
  VerifyReport report;
  for_each_object_file(config_.root, [&](const fs::directory_entry& file,
                                         const std::string& hex) {
    if (hex.empty()) {
      report.foreign.push_back(file.path().string());
      return;
    }
    report.checked += 1;
    if (!read_kind(file.path()).has_value()) report.corrupt.push_back(hex);
  });
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
      return;
    }
    fs::rename(source, target, ec);
    if (ec) {
      report.failed.push_back(source.string());
      return;
    }
    report.quarantined += 1;
  };

  for (const std::string& hex : report.verified.corrupt) {
    quarantine_file(object_path(hex), hex);
  }
  for (const std::string& path : report.verified.foreign) {
    const fs::path source(path);
    quarantine_file(source, source.filename().string());
  }
  obs::counter("store.objects_quarantined").add(report.quarantined);
  return report;
}

ObjectStore::GcReport ObjectStore::gc(std::uint64_t max_bytes) {
  struct Object {
    fs::file_time_type last_used;
    std::string hex;
    std::uint64_t size = 0;
  };
  std::vector<Object> objects;
  std::uint64_t total = 0;
  for_each_object_file(config_.root, [&](const fs::directory_entry& file,
                                         const std::string& hex) {
    if (hex.empty()) return;
    std::error_code time_ec;
    std::error_code size_ec;
    Object object{file.last_write_time(time_ec), hex, file.file_size(size_ec)};
    if (time_ec || size_ec) return;  // removed since the walk listed it
    total += object.size;
    objects.push_back(std::move(object));
  });
  // Least recently used first; the key breaks mtime ties deterministically.
  std::sort(objects.begin(), objects.end(), [](const Object& a,
                                               const Object& b) {
    return std::tie(a.last_used, a.hex) < std::tie(b.last_used, b.hex);
  });

  GcReport report;
  for (const Object& object : objects) {
    if (total <= max_bytes) break;
    std::error_code ec;
    fs::remove(object_path(object.hex), ec);
    total -= object.size;
    report.removed_objects += 1;
    report.removed_bytes += object.size;
  }
  report.remaining_objects = objects.size() - report.removed_objects;
  report.remaining_bytes = total;
  report.removed_temp_files = support::remove_stale_temp_files(config_.root);
  return report;
}

}  // namespace anacin::store
