#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "support/fs.hpp"
#include "support/rng.hpp"

namespace anacin::support {

/// One seeded record of every fault a test campaign injects, parsed from a
/// single spec string (the ANACIN_FAULT_PLAN environment variable):
///
///   seed=N                           base seed of every domain's stream
///   unit.<id>=transient:N|permanent  attempt hooks (campaign process)
///   unit.<id>=sleep:MS|stop|crash:SIG  body hooks (executing process)
///   disk.enospc|eio|open_fail|rename_fail|fsync_drop=P
///   disk.crash_after=N  disk.scope=journal+store+report+other|all
///   net.drop|corrupt|reorder|reset|delay|partition=P
///   net.delay_ms|partition_ms=MS
///
/// Every probability is drawn from a stream seeded by `seed`, so a fault
/// campaign replays bit-for-bit. The parser is strict: a typo'd plan
/// silently running a *clean* campaign would invalidate the experiment.
/// docs/RESILIENCE.md has the full grammar.
struct FaultPlan {
  /// Hooks for one work unit. Unit ids are the supervisor's ids
  /// ("run:<i>", "reference", "pair:<a>-<b>", "measure", "replay:<set>",
  /// "record"); the id "*" matches any unit without an exact entry.
  struct Unit {
    /// Attempt hook: the first N attempts throw TransientError.
    int transient = 0;
    /// Attempt hook: every attempt throws PermanentError.
    bool permanent = false;
    /// Body hook: sleep this long before the work runs.
    double sleep_ms = 0.0;
    /// Body hook: raise(SIGSTOP) — the process freezes, heartbeats
    /// included, until a watchdog kills it.
    bool stop = false;
    /// Body hook: raise this signal (0 = none).
    int crash_signal = 0;
  };

  /// Faults at the durable-write commit points (atomic_write_file,
  /// ObjectStore::put, repair's rename).
  struct Disk {
    /// Write fails as if the disk filled mid-write (partial temp left).
    double enospc = 0.0;
    /// Same shape as enospc, reported as a device I/O error.
    double eio = 0.0;
    /// Opening the temp file fails (no temp left).
    double open_fail = 0.0;
    /// The publishing rename fails (complete temp left).
    double rename_fail = 0.0;
    /// The fsync is silently skipped.
    double fsync_drop = 0.0;
    /// SIGKILL right after the Nth in-scope durable commit (0 = off).
    std::int64_t crash_after = 0;
    /// Bit set of PathClass values the faults apply to.
    unsigned scope = kAllScopes;

    static constexpr unsigned kAllScopes = 0xf;
    bool enabled() const;
    bool in_scope(PathClass path_class) const;
  };

  /// Frame-level faults on a connection's send path.
  struct Net {
    double drop = 0.0;
    double corrupt = 0.0;
    double reorder = 0.0;
    double reset = 0.0;
    double delay = 0.0;
    double delay_ms = 20.0;
    double partition = 0.0;
    double partition_ms = 200.0;

    bool enabled() const;
  };

  std::uint64_t seed = 0;
  std::map<std::string, Unit> units;
  Disk disk;
  Net net;

  /// Strict parse; every malformed entry throws a ConfigError naming its
  /// key.
  static FaultPlan parse(std::string_view spec);

  /// The plan in ANACIN_FAULT_PLAN (nullopt when unset or empty). Throws
  /// ConfigError when a retired fault variable is set, so a stale script
  /// cannot run a clean campaign while claiming fault coverage. Only the
  /// CLI entry point calls this; library code sees the installed plan.
  static std::optional<FaultPlan> from_env();

  /// Canonical spec listing only non-default entries; parse(spec())
  /// reproduces the plan.
  std::string spec() const;
};

/// Install `plan` process-wide (nullopt clears it) and restart the disk
/// stream from its seed. Must not race with running hooks: the CLI
/// installs once per invocation, tests between phases.
void install_fault_plan(std::optional<FaultPlan> plan);

/// The installed plan, or nullptr. Valid until the next install.
const FaultPlan* installed_fault_plan();

/// Installs a parsed plan for one scope, then clears it (tests).
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(std::string_view spec) {
    install_fault_plan(FaultPlan::parse(spec));
  }
  ~ScopedFaultPlan() { install_fault_plan(std::nullopt); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

/// The net domain's stream for one connection, seeded with
/// hash_combine(mix64(seed), connection serial) so concurrent connections
/// fault independently but reproducibly. It also owns the one-way
/// partition window. Not thread safe; the connection serializes sends.
class SendFaults {
 public:
  SendFaults(const FaultPlan& plan, std::uint64_t connection_serial);

  struct Decision {
    enum class Kind {
      kSend,       // the frame goes out, subject to the fields below
      kReset,      // tear the connection down
      kPartition,  // blackholed: a window opened or is still open
      kDrop,       // silently dropped
    };
    Kind kind = Kind::kSend;
    /// Sleep this long before sending (0 = no delay drawn).
    double delay_ms = 0.0;
    /// Flip the byte at this offset of the encoded frame (0 = clean;
    /// never the 5-byte header, so the stream stays frame-aligned).
    std::size_t corrupt_offset = 0;
    /// Hold the frame and send it after the next one.
    bool hold = false;
  };

  /// Fate of the next frame of `frame_size` encoded bytes. `can_hold` is
  /// false while a reordered frame is already held. The draw order is
  /// fixed: reset, partition, drop, delay, corrupt, reorder.
  Decision next_send(std::size_t frame_size, bool can_hold);

 private:
  FaultPlan::Net net_;
  Rng rng_;
  std::chrono::steady_clock::time_point partition_until_{};
};

/// Hook points of the installed plan. With no plan installed every hook
/// returns after one atomic load: no lock, no draw.
namespace faults {

/// Attempt hook, at the top of every supervised attempt (campaign
/// process); throws the planned Transient/PermanentError.
void on_attempt(const std::string& unit_id, int attempt);

/// Body hook, at the top of the unit body in whichever process executes
/// it (a worker child, an agent, or the campaign process in-process).
void on_unit_body(const std::string& unit_id);

/// One disk decision per durable-write op on `path_class`. Stages draw in
/// a fixed order from the seeded disk stream (open, enospc, eio, rename,
/// fsync); the first firing stage wins. Out-of-scope classes draw nothing.
struct DiskFault {
  enum class Kind { kNone, kOpenFail, kEnospc, kEio, kRenameFail };
  Kind kind = Kind::kNone;
  bool drop_fsync = false;
};
DiskFault next_disk_fault(PathClass path_class);

/// Single-stage decision for rename-only operations (repair's quarantine).
bool rename_fails(PathClass path_class);

/// A durable commit completed: counts io.durable_ops, and fires
/// disk.crash_after (SIGKILL) on the Nth in-scope commit.
void note_durable_commit(PathClass path_class);

/// This process's fault metrics: io.durable_ops plus every
/// faults.<domain>.<kind> counter that fired.
std::map<std::string, std::uint64_t> counters();

}  // namespace faults

}  // namespace anacin::support
