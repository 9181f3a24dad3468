#pragma once

#include <string>

#include "support/json.hpp"

namespace anacin::proc {

/// The campaign's contract with whatever executes its work units outside
/// the calling thread. Two implementations exist: proc::WorkerPool runs a
/// unit in a sandboxed fork/exec'd child on this machine
/// (--isolate=process), and net::AgentServer farms it to a remote
/// `anacin agent` over TCP (`anacin serve`). Both speak the same work-unit
/// request JSON (make_run_request / make_pair_request /
/// make_replay_request) and both make the unit's result artifact appear
/// in the campaign's content-addressed store before execute() returns —
/// which is what keeps local, isolated, and distributed campaigns
/// byte-identical.
class UnitExecutor {
 public:
  virtual ~UnitExecutor() = default;

  /// Execute one work unit: block until the unit's artifacts are in the
  /// campaign store, throw the typed taxonomy of support/error.hpp on
  /// failure (transient errors re-queue via the supervisor's retries).
  /// Thread safe — campaign pool workers call this concurrently.
  virtual json::Value execute(const std::string& unit_id,
                              const json::Value& request) = 0;
};

}  // namespace anacin::proc
