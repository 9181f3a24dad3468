#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/lease.hpp"
#include "net/socket.hpp"
#include "proc/executor.hpp"
#include "store/store.hpp"

namespace anacin::net {

struct AgentServerConfig {
  /// Listener address; port 0 binds an ephemeral port (see port()).
  std::string bind_host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Declare an agent's connection stalled when a unit is in flight and no
  /// frame (result or heartbeat) has arrived for this long; the scheduler
  /// then closes the connection, which turns a wedged-but-alive agent into
  /// a reconnect (0 disables the stall detector).
  double heartbeat_timeout_ms = 10'000.0;
  /// How long execute() waits for an idle agent before giving up on the
  /// attempt (transient — the supervisor's retries wait again, so a fleet
  /// that lost every agent gets this long per retry for a replacement to
  /// join).
  double checkout_timeout_ms = 60'000.0;
  /// Unit lease window (see lease.hpp): a disconnected session has this
  /// long — measured from the last frame it sent — to reconnect and
  /// resume before the unit is re-queued on another agent.
  double unit_lease_ms = 30'000.0;
  /// Backpressure: at most this many units admitted to the fabric at
  /// once; further execute() calls queue (0 = unbounded). Bounds the
  /// scheduler's memory for request/result JSON under wide campaigns.
  std::size_t max_inflight = 0;
};

/// The scheduler's side of the distributed fabric: accepts `anacin agent`
/// connections and executes campaign work units on them, one unit per
/// agent at a time (proc::UnitExecutor — the campaign cannot tell this
/// apart from the local worker pool). The unit exchange is synchronous
/// per agent: send kRequest, then serve kFetch (ship objects the agent is
/// missing) and absorb kPublish (the unit's result object) until kResult /
/// kFail. Object traffic rides the content-addressed store, so a warm
/// agent publishes from cache without simulating, and the scheduler
/// short-circuits dispatch entirely when its own store already holds the
/// request's result ("result_key").
///
/// Registration issues a session token (kHello/kHelloOk, which also
/// negotiate the frame protocol version — see proc/protocol.hpp). The
/// token outlives the TCP connection: an agent that loses its socket
/// reconnects, presents the token, and the new connection is spliced into
/// the existing session — the execute() call that was mid-unit on that
/// session re-dispatches the same unit on the fresh connection, and the
/// agent answers from its warm store. Publishes are idempotent (the store
/// is content-addressed), so a result that was lost in flight is simply
/// published again.
///
/// Failure model (see docs/DISTRIBUTED.md): a dropped connection, torn or
/// corrupt frame, or heartbeat stall costs a reconnect, NOT a re-queue.
/// Only lease expiry — the session stayed gone for the whole
/// unit_lease_ms window — maps to WorkerCrashError, which the supervisor
/// retries on a surviving agent. The sweep journal (core/journal.hpp)
/// stays the authoritative ledger above this layer: a scheduler crash is
/// replayed with --resume exactly like a local one.
///
/// The destructor sends kShutdown and closes every connection; agents
/// exit 0 and do not reconnect, so tearing down the scheduler leaves no
/// orphaned remote processes.
class AgentServer : public proc::UnitExecutor {
 public:
  AgentServer(AgentServerConfig config, store::ArtifactStore& store);
  ~AgentServer() override;

  AgentServer(const AgentServer&) = delete;
  AgentServer& operator=(const AgentServer&) = delete;

  /// The bound listener port (after an ephemeral bind).
  std::uint16_t port() const;

  /// Block until at least `count` agents are registered (`timeout_ms` < 0
  /// waits forever). Returns false on timeout.
  bool wait_for_agents(std::size_t count, int timeout_ms = -1);

  /// Sessions currently registered (idle + executing + briefly
  /// disconnected but within their lease).
  std::size_t agent_count() const;

  /// Execute one work unit on some idle agent. Thread safe; blocks until
  /// the unit finishes, its lease expires (WorkerCrashError), or no agent
  /// frees up within checkout_timeout_ms (also WorkerCrashError — both
  /// are transient, so supervisor retries re-queue the unit).
  json::Value execute(const std::string& unit_id,
                      const json::Value& request) override;

 private:
  /// One registered agent. The session — not the connection — is the unit
  /// of identity: `conn` is replaced on reconnect and `generation` counts
  /// the splices, which is how a waiting execute() notices the session
  /// came back.
  struct Session {
    std::string token;
    std::string name;
    int id = 0;
    std::uint64_t generation = 0;
    bool busy = false;
    std::shared_ptr<Connection> conn;
  };
  using SessionPtr = std::shared_ptr<Session>;

  void accept_loop();
  /// Handle one freshly accepted connection: handshake, version
  /// negotiation, and either a new session or a token resume.
  void register_connection(std::unique_ptr<TcpConnection> raw);
  SessionPtr checkout(const std::string& unit_id);
  void checkin(const SessionPtr& session);
  /// Remove a session for good (lease expired or teardown).
  void drop_session(const SessionPtr& session);
  /// Wait for `session` to reconnect (generation to pass `seen`) until the
  /// unit's lease deadline. True when it reconnected in time.
  bool await_reconnect(const SessionPtr& session, std::uint64_t seen,
                       const std::string& unit_id);
  [[noreturn]] void expire_and_throw(const SessionPtr& session,
                                     const std::string& unit_id,
                                     const std::string& reason);
  /// Answer one kFetch: ship the object or admit it is missing.
  void serve_fetch(Connection& conn, const std::string& agent_name,
                   const std::string& payload);
  /// Absorb one kPublish into the scheduler store.
  void absorb_publish(const std::string& agent_name,
                      const std::string& payload);

  AgentServerConfig config_;
  store::ArtifactStore& store_;
  TcpListener listener_;
  LeaseTable leases_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;      // sessions entering idle_
  std::condition_variable reattach_cv_;  // generation bumps
  std::condition_variable inflight_cv_;  // backpressure slots freeing
  std::unordered_map<std::string, SessionPtr> sessions_;  // by token
  std::deque<SessionPtr> idle_;
  std::size_t inflight_ = 0;
  std::size_t waiting_ = 0;  // execute() calls queued on backpressure
  int next_agent_id_ = 0;
  std::uint64_t token_salt_ = 0;
  bool stopping_ = false;

  std::thread acceptor_;
};

}  // namespace anacin::net
