#pragma once

#include <cstdint>
#include <string>

#include "net/socket.hpp"
#include "store/store.hpp"
#include "support/error.hpp"

namespace anacin::net {

struct AgentConfig {
  /// Scheduler to join.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// How the agent introduces itself in kHello (diagnostics only; the
  /// scheduler assigns the numeric id). Default: "<hostname>:<pid>".
  std::string name;
  /// How often to heartbeat the scheduler while a unit executes — must be
  /// well under the scheduler's heartbeat timeout.
  double heartbeat_interval_ms = 50.0;
  int connect_timeout_ms = 10'000;
  /// Exit after serving this many units (0 = serve until the scheduler
  /// hangs up). Tests use 1 to exercise mid-campaign agent loss.
  std::uint64_t max_units = 0;
  /// Reconnection policy: after losing the scheduler connection the agent
  /// re-dials with seeded exponential backoff (base doubling per failure,
  /// ±50% jitter) and presents its session token so the scheduler resumes
  /// the session instead of re-registering it. This many *consecutive*
  /// failures end the agent — exit 0 when it had registered (the
  /// scheduler is simply gone, i.e. the campaign ended hard), exit 1 when
  /// it never managed to register at all.
  int reconnect_max = 5;
  double reconnect_backoff_ms = 100.0;
};

/// The scheduler connection died mid-conversation (hang-up during a
/// fetch/publish/reply). Distinct from a unit failure: the agent does not
/// report kFail for these — it reconnects with its session token and lets
/// the scheduler re-dispatch the unit.
class ConnectionLostError : public TransientError {
 public:
  explicit ConnectionLostError(const std::string& what)
      : TransientError(what) {}
};

/// Pull one missing input object from the scheduler into the local store,
/// validating the envelope before the store admits a byte. Corruption —
/// a kCorrupt frame (CRC mismatch) or a well-framed object whose envelope
/// checksum fails — triggers a re-fetch (net.fetch_corrupt counts them),
/// up to 3 attempts before the unit fails transient; a corrupted transfer
/// is never written. Exposed for the byte-flip regression test.
void fetch_object(Connection& conn, store::ObjectStore& objects,
                  const store::Digest& key);

/// Run one agent: connect to the scheduler, register (negotiating the
/// frame protocol version and receiving a session token), then serve
/// work-unit requests until the scheduler sends kShutdown (clean exit 0).
/// A lost connection is survived, not fatal: the agent redials with
/// backoff and resumes its session, and the scheduler re-dispatches
/// whatever unit was in flight — answered from the agent's warm store, so
/// a blip costs a round-trip, not a re-simulation. Results travel
/// content-addressed: the agent fetches missing input artifacts from the
/// scheduler by hash, executes the unit against its own store (a warm
/// store means zero simulation — execute_unit returns on the existing
/// artifact), publishes the result object by hash, and only then reports
/// the unit done. Returns a process exit code; failure to ever register
/// (including a protocol version rejection) prints to stderr and returns
/// non-zero.
int run_agent(store::ArtifactStore& store, const AgentConfig& config);

}  // namespace anacin::net
