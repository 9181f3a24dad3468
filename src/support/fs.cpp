#include "support/fs.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "support/error.hpp"
#include "support/fault_plan.hpp"

namespace anacin::support {

namespace fs = std::filesystem;

namespace {

std::atomic<std::uint64_t> g_write_count{0};

/// Captured during static initialization, before main() can write any
/// temp file, so "older than this" cleanly separates a previous process's
/// litter from a live writer's in-flight publish.
const fs::file_time_type g_process_start = fs::file_time_type::clock::now();

std::atomic<int> g_durability{-1};  // -1 = not yet resolved from env

}  // namespace

const char* durability_name(Durability level) {
  switch (level) {
    case Durability::kNone: return "none";
    case Durability::kCommit: return "commit";
    case Durability::kParanoid: return "paranoid";
  }
  return "none";
}

Durability parse_durability(const std::string& text) {
  if (text == "none") return Durability::kNone;
  if (text == "commit") return Durability::kCommit;
  if (text == "paranoid") return Durability::kParanoid;
  throw ConfigError("--durability must be none, commit, or paranoid, got '" +
                    text + "'");
}

Durability durability_level() {
  int level = g_durability.load(std::memory_order_acquire);
  if (level < 0) {
    const char* env = std::getenv("ANACIN_DURABILITY");
    const Durability parsed = (env != nullptr && *env != '\0')
                                  ? parse_durability(env)
                                  : Durability::kNone;
    level = static_cast<int>(parsed);
    g_durability.store(level, std::memory_order_release);
  }
  return static_cast<Durability>(level);
}

void set_durability(Durability level) {
  g_durability.store(static_cast<int>(level), std::memory_order_release);
}

void reset_durability_for_tests() {
  g_durability.store(-1, std::memory_order_release);
}

fs::path unique_temp_path(const fs::path& path) {
  static std::atomic<std::uint64_t> sequence{0};
  return path.string() + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
}

void fsync_path(const fs::path& path, bool is_directory) {
#ifndef _WIN32
  // Directory fsync is how POSIX makes a rename durable: the new
  // directory entry itself must reach the disk.
  const int flags = is_directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    if (is_directory) return;
    throw IoError("cannot open '" + path.string() + "' for fsync");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0 && !is_directory) {
    throw IoError("fsync failed for '" + path.string() + "'");
  }
#else
  (void)path;
  (void)is_directory;
#endif
}

void atomic_write_file(const std::string& path, const std::string& content,
                       PathClass path_class) {
  const fs::path file_path(path);
  std::error_code ec;
  if (file_path.has_parent_path()) {
    fs::create_directories(file_path.parent_path(), ec);
    if (ec) {
      throw IoError("cannot create directory '" +
                    file_path.parent_path().string() + "': " + ec.message());
    }
  }

  // One fault decision per durable-write op, drawn before any disk work
  // so the stream position is independent of filesystem state.
  const faults::DiskFault fault = faults::next_disk_fault(path_class);
  using Kind = faults::DiskFault::Kind;
  if (fault.kind == Kind::kOpenFail) {
    throw IoError("injected open failure (fault plan) for '" + path + "'");
  }

  // Only a regular file (or nothing) is replaced by rename: renaming over
  // a FIFO, a device or a symlink would swap it for a regular file. One
  // lstat decides; anything else is written through in place.
  const fs::file_type type = fs::symlink_status(file_path, ec).type();
  const bool in_place = type != fs::file_type::none &&
                        type != fs::file_type::not_found &&
                        type != fs::file_type::regular;
  // Otherwise the final rename is the single atomic commit point.
  const fs::path target = in_place ? file_path : unique_temp_path(file_path);

  {
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw IoError("cannot open '" + target.string() + "' for writing");
    }
    if (fault.kind == Kind::kEnospc || fault.kind == Kind::kEio) {
      // Simulate a disk filling (or dying) mid-write: a partial temp file
      // is left on disk (as a real crash would leave) and the destination
      // stays untouched, unless it is written in place.
      out << content.substr(0, content.size() / 2);
      out.flush();
      throw IoError(std::string("injected ") +
                    (fault.kind == Kind::kEnospc ? "ENOSPC" : "EIO") +
                    " (fault plan) writing '" + path + "'");
    }
    out << content;
    out.flush();
    if (!out.good()) {
      out.close();
      if (!in_place) fs::remove(target, ec);
      throw IoError("short write for '" + path + "' (disk full?)");
    }
  }

  if (!in_place) {
    const bool durable = durability_level() != Durability::kNone;
    if (durable && !fault.drop_fsync) {
      fsync_path(target, /*is_directory=*/false);
    }

    if (fault.kind == Kind::kRenameFail) {
      // The fully written temp stays behind — exactly the litter the
      // stale-temp sweeper exists for.
      throw IoError("injected rename failure (fault plan) publishing '" +
                    path + "'");
    }
    fs::rename(target, file_path, ec);
    if (ec) {
      fs::remove(target, ec);
      throw IoError("cannot publish '" + path + "': rename failed");
    }
    if (durable && !fault.drop_fsync && file_path.has_parent_path()) {
      fsync_path(file_path.parent_path(), /*is_directory=*/true);
    }
  }
  g_write_count.fetch_add(1, std::memory_order_relaxed);
  faults::note_durable_commit(path_class);
}

std::uint64_t atomic_write_count() {
  return g_write_count.load(std::memory_order_relaxed);
}

fs::file_time_type process_start_file_time() { return g_process_start; }

std::uint64_t remove_stale_temp_files(const fs::path& root) {
  std::error_code ec;
  std::uint64_t removed = 0;
  fs::recursive_directory_iterator it(
      root, fs::directory_options::skip_permission_denied, ec);
  if (ec) return 0;
  for (const fs::recursive_directory_iterator end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.find(".tmp.") == std::string::npos) continue;
    const fs::file_time_type mtime = fs::last_write_time(it->path(), ec);
    if (ec) continue;
    // Grace window below process start: file timestamps come from the
    // kernel's coarse clock, which can lag the precise clock we sampled
    // at startup by a tick — and a sibling process that began moments
    // before us may legitimately still be writing. Only clearly-older
    // temps are orphans.
    if (mtime >= g_process_start - std::chrono::seconds(30)) continue;
    if (fs::remove(it->path(), ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace anacin::support
