#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

namespace anacin::support {

/// Which durable-write subsystem a path belongs to. Disk faults are scoped
/// by class (`disk.scope=` in the fault plan), so a campaign can starve the
/// artifact store of space while the journal keeps committing — the split
/// the graceful-degradation contract needs to be testable.
enum class PathClass { kJournal, kStore, kReport, kOther };

/// How hard a committed write chases the platters. See the "Durability
/// model" section of docs/RESILIENCE.md for what each tier guarantees
/// after power loss.
///   kNone      rename-atomic only (page cache decides when bytes land)
///   kCommit    fsync the data file before rename and the parent
///              directory after, at every atomic_write_file commit point
///              (journal, reports)
///   kParanoid  kCommit plus fsync of every store object publish
enum class Durability { kNone, kCommit, kParanoid };

const char* durability_name(Durability level);

/// Strict parse of "none" | "commit" | "paranoid"; anything else throws
/// ConfigError.
Durability parse_durability(const std::string& text);

/// Process-global durability level. Defaults to kNone; the first read
/// consults the ANACIN_DURABILITY environment variable (strictly parsed)
/// so forked worker children inherit the campaign's setting.
Durability durability_level();
void set_durability(Durability level);

/// Forget the resolved level so the next durability_level() re-reads the
/// environment (tests).
void reset_durability_for_tests();

/// `<path>.tmp.<pid>.<n>`: a temp sibling no other writer — thread or
/// process — can pick, so concurrent publishers of the same path never
/// truncate or rename each other's in-progress bytes.
std::filesystem::path unique_temp_path(const std::filesystem::path& path);

/// Crash-consistent file write: the content is written to a
/// unique_temp_path() sibling, the stream state is checked after every stage
/// (open, write, flush), and the temp file is renamed into place only when
/// the bytes are durably complete. Readers therefore never observe a
/// truncated file — a crash or full disk leaves at worst a stale previous
/// version plus an orphaned temp file, never a plausible-looking prefix.
///
/// Durability: at durability_level() >= kCommit the temp file is fsync'd
/// before the rename and the parent directory after it, so the commit
/// survives power loss, not just a process crash (docs/RESILIENCE.md,
/// "Durability model").
///
/// Only an absent or regular-file destination is replaced that way. A
/// destination that one lstat shows is anything else (a FIFO, a device, a
/// symlink) is opened and written in place, with no rename and no fsync,
/// so it stays what it was and its reader or target gets the bytes.
///
/// Fault injection: every call draws one disk decision from the installed
/// fault plan (support/fault_plan.hpp) under `path_class`. Injected
/// failures throw IoError and leave the same on-disk shapes real faults
/// would: enospc/eio leave a partial temp (a partial destination when
/// written in place), rename_fail leaves a complete temp (an in-place
/// write has no rename to fail), open_fail leaves nothing.
///
/// Parent directories are created as needed. Throws IoError on any
/// failure.
void atomic_write_file(const std::string& path, const std::string& content,
                       PathClass path_class = PathClass::kOther);

/// Number of successful atomic_write_file calls so far (test observability).
std::uint64_t atomic_write_count();

/// fsync one path. For regular files a failure throws IoError (the bytes
/// are not durable); directory fsyncs are best-effort (some filesystems
/// refuse O_DIRECTORY reads) and directory fsync is what makes a rename
/// survive power loss. No-op on platforms without fsync.
void fsync_path(const std::filesystem::path& path, bool is_directory);

/// Filesystem timestamp captured at process start (static initialization).
/// Temp files older than this belong to a previous — crashed — process.
std::filesystem::file_time_type process_start_file_time();

/// Recursively remove orphaned `*.tmp.*` litter under `root` that is
/// clearly older than this process — a 30 s grace window below the
/// process start absorbs coarse-clock timestamp skew (atomic_write_file
/// and the object store leave partial temps behind on crashes and
/// injected faults). Fresh temps — possibly another live writer's
/// in-flight publish — are left alone.
/// Returns the number of files removed; never throws (cleanup is
/// best-effort, errors skip the file).
std::uint64_t remove_stale_temp_files(const std::filesystem::path& root);

}  // namespace anacin::support
