#include "net/server.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <sstream>
#include <utility>

#include "net/chaos.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"
#include "store/codec.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace anacin::net {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Poll granularity of the per-unit serve loop: short enough that stall
/// detection and shutdown stay responsive, long enough to stay off the
/// scheduler's profile.
constexpr int kServePollMs = 100;

/// Budget for the kHello/kHelloOk exchange on a fresh connection.
constexpr int kHandshakeTimeoutMs = 5'000;

/// A unit is re-dispatched to its session after every reconnect; this
/// bounds how many times before the scheduler gives up on the session
/// (a pathological agent that reconnects but never finishes would
/// otherwise renew its lease forever).
constexpr int kMaxDispatchAttempts = 5;

struct InflightGuard {
  InflightGuard() { obs::gauge("net.units_inflight").add(1.0); }
  ~InflightGuard() { obs::gauge("net.units_inflight").add(-1.0); }
};

std::string hex64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string text(16, '0');
  for (int i = 15; i >= 0; --i) {
    text[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return text;
}

}  // namespace

AgentServer::AgentServer(AgentServerConfig config, store::ArtifactStore& store)
    : config_(std::move(config)),
      store_(store),
      listener_(config_.bind_host, config_.port),
      leases_(config_.unit_lease_ms) {
  // Tokens only need uniqueness across the schedulers an agent might meet
  // (an agent resuming against a *restarted* scheduler must not collide
  // into someone else's session), not unpredictability.
  token_salt_ = hash_combine(
      static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()),
      reinterpret_cast<std::uintptr_t>(this));
  acceptor_ = std::thread([this] { accept_loop(); });
}

AgentServer::~AgentServer() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
  // kShutdown tells each agent the campaign is over — distinct from a bare
  // EOF, which session-resume agents would treat as a blip and reconnect
  // through. Then close; either way no remote process outlives us.
  std::vector<SessionPtr> all;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [token, session] : sessions_) all.push_back(session);
    sessions_.clear();
    idle_.clear();
  }
  for (const SessionPtr& session : all) {
    if (session->conn) {
      session->conn->send_frame(proc::FrameType::kShutdown, {});
      session->conn->close();
    }
  }
  idle_cv_.notify_all();
  reattach_cv_.notify_all();
  inflight_cv_.notify_all();
}

std::uint16_t AgentServer::port() const { return listener_.port(); }

std::size_t AgentServer::agent_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

bool AgentServer::wait_for_agents(std::size_t count, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto ready = [&] { return sessions_.size() >= count; };
  if (timeout_ms < 0) {
    idle_cv_.wait(lock, ready);
    return true;
  }
  return idle_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           ready);
}

void AgentServer::accept_loop() {
  while (true) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    auto conn = listener_.accept(kServePollMs);
    if (!conn) continue;
    // Registration is synchronous and cheap, so the accept thread handles
    // it inline: one kHello in, one kHelloOk out.
    register_connection(std::move(conn));
  }
}

void AgentServer::register_connection(std::unique_ptr<TcpConnection> raw) {
  // The installed fault plan's net.* faults apply to every accepted
  // connection (scheduler→agent direction).
  std::shared_ptr<Connection> conn(maybe_wrap_faults(std::move(raw)));

  // The handshake always travels as v1 frames — the framing every peer
  // version can parse — and carries the version claim as data.
  const proc::ReadResult hello = conn->recv_frame(kHandshakeTimeoutMs);
  if (!hello || hello.frame.type != proc::FrameType::kHello) return;

  std::string name;
  std::string token;
  std::uint16_t theirs = proc::kProtocolV1;  // absent field = legacy peer
  try {
    const json::Value doc = json::parse(hello.frame.payload);
    if (const json::Value* field = doc.find("name")) {
      name = field->as_string();
    }
    if (const json::Value* field = doc.find("token")) {
      token = field->as_string();
    }
    if (const json::Value* field = doc.find("proto")) {
      theirs = static_cast<std::uint16_t>(field->as_number());
    }
  } catch (const std::exception&) {
    return;  // malformed registration: drop silently
  }

  if (theirs < proc::kProtocolV1 || theirs > proc::kProtocolVersion) {
    // A peer from a different release: refuse loudly (the agent surfaces
    // this as ProtocolVersionError) instead of letting frame CRCs fail
    // one by one.
    obs::counter("net.version_rejects").add(1);
    json::Value refusal = json::Value::object();
    refusal.set("error", "unsupported frame protocol version " +
                             std::to_string(theirs) + " (this scheduler "
                             "speaks " +
                             std::to_string(proc::kProtocolV1) + ".." +
                             std::to_string(proc::kProtocolVersion) + ")");
    conn->send_frame(proc::FrameType::kHelloOk, refusal.dump());
    conn->close();
    return;
  }
  const std::uint16_t agreed = std::min(theirs, proc::kProtocolVersion);

  // Token resume: splice the fresh connection into the existing session
  // and wake whichever execute() was waiting out the disconnect.
  if (!token.empty()) {
    SessionPtr session;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto found = sessions_.find(token);
      if (found != sessions_.end()) session = found->second;
    }
    if (session) {
      json::Value welcome = json::Value::object();
      welcome.set("id", static_cast<double>(session->id));
      welcome.set("token", session->token);
      welcome.set("proto", static_cast<double>(agreed));
      // Counted at handshake-accept: the agent holds the welcome the
      // moment this send returns, so telemetry must already agree. The
      // splice stays after the send — a dispatcher waking on the new
      // connection must not race a kRequest ahead of the kHelloOk.
      obs::counter("net.sessions_resumed").add(1);
      if (!conn->send_frame(proc::FrameType::kHelloOk, welcome.dump())) {
        return;
      }
      conn->set_version(agreed);
      std::shared_ptr<Connection> old;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        old = std::move(session->conn);
        session->conn = conn;
        ++session->generation;
      }
      if (old) old->close();
      reattach_cv_.notify_all();
      idle_cv_.notify_all();
      return;
    }
    // Unknown token (scheduler restarted since it was issued): fall
    // through and register the agent as a brand-new session.
  }

  auto session = std::make_shared<Session>();
  session->name = name;
  session->conn = conn;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    session->id = next_agent_id_++;
    session->token = hex64(hash_combine(
        token_salt_, static_cast<std::uint64_t>(session->id) + 1));
  }
  if (session->name.empty()) {
    session->name = "agent-" + std::to_string(session->id);
  }
  json::Value welcome = json::Value::object();
  welcome.set("id", static_cast<double>(session->id));
  welcome.set("token", session->token);
  welcome.set("proto", static_cast<double>(agreed));
  // Register BEFORE sending the welcome: the instant the agent holds its
  // token it may disconnect and resume with it, and that reconnect must
  // find the session. Going idle waits until the send succeeds, though —
  // a dispatcher must not race a kRequest ahead of the kHelloOk.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sessions_[session->token] = session;
  }
  if (!conn->send_frame(proc::FrameType::kHelloOk, welcome.dump())) {
    const std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(session->token);
    return;
  }
  conn->set_version(agreed);
  obs::counter("net.agents_connected").add(1);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(session);
  }
  idle_cv_.notify_all();
}

AgentServer::SessionPtr AgentServer::checkout(const std::string& unit_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const bool got = idle_cv_.wait_for(
      lock,
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(
              config_.checkout_timeout_ms)),
      [&] { return !idle_.empty() || stopping_; });
  if (!got || stopping_ || idle_.empty()) {
    const std::size_t registered = sessions_.size();
    lock.unlock();
    // Transient on purpose: the supervisor's retries each wait the full
    // checkout budget again, giving a drained fleet time to refill.
    UnitTriage triage;
    triage.disposition = "crash";
    throw WorkerCrashError("no agent available for unit '" + unit_id +
                               "' within " +
                               std::to_string(config_.checkout_timeout_ms) +
                               " ms (registered agents: " +
                               std::to_string(registered) + ")",
                           std::move(triage));
  }
  SessionPtr session = std::move(idle_.front());
  idle_.pop_front();
  session->busy = true;
  return session;
}

void AgentServer::checkin(const SessionPtr& session) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    session->busy = false;
    if (!stopping_) {
      idle_.push_back(session);
      idle_cv_.notify_all();
      return;
    }
    sessions_.erase(session->token);
  }
  if (session->conn) {
    session->conn->send_frame(proc::FrameType::kShutdown, {});
    session->conn->close();
  }
}

void AgentServer::drop_session(const SessionPtr& session) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(session->token);
    for (auto it = idle_.begin(); it != idle_.end(); ++it) {
      if ((*it)->token == session->token) {
        idle_.erase(it);
        break;
      }
    }
  }
  if (session->conn) session->conn->close();
  obs::counter("net.agent_disconnects").add(1);
}

bool AgentServer::await_reconnect(const SessionPtr& session,
                                  std::uint64_t seen,
                                  const std::string& unit_id) {
  obs::counter("net.conn_drops").add(1);
  const auto deadline = leases_.deadline(unit_id);
  std::unique_lock<std::mutex> lock(mutex_);
  reattach_cv_.wait_until(lock, deadline, [&] {
    return stopping_ || session->generation != seen;
  });
  return !stopping_ && session->generation != seen;
}

void AgentServer::expire_and_throw(const SessionPtr& session,
                                   const std::string& unit_id,
                                   const std::string& reason) {
  const int attempts = leases_.attempts(unit_id);
  leases_.release(unit_id);
  obs::counter("net.leases_expired").add(1);
  drop_session(session);
  UnitTriage triage;
  triage.disposition = "crash";
  throw WorkerCrashError("agent '" + session->name + "' executing unit '" +
                             unit_id + "': " + reason + " (dispatch attempts: " +
                             std::to_string(attempts) +
                             "); the unit will be re-queued",
                         std::move(triage));
}

void AgentServer::serve_fetch(Connection& conn, const std::string& agent_name,
                              const std::string& payload) {
  const auto key = store::Digest::from_hex(payload);
  if (!key) {
    throw ParseError("agent '" + agent_name + "' fetched a malformed digest");
  }
  const store::ObjectBytes bytes = store_.objects().get(*key);
  if (!bytes) {
    conn.send_frame(proc::FrameType::kMissing, payload);
    return;
  }
  conn.send_frame(proc::FrameType::kObject,
                  encode_object_payload(*key, *bytes));
  obs::counter("net.objects_shipped").add(1);
}

void AgentServer::absorb_publish(const std::string& agent_name,
                                 const std::string& payload) {
  std::string error;
  const auto object = decode_object_payload(payload, &error);
  if (!object) {
    throw ParseError("agent '" + agent_name + "' published a bad " +
                     "object frame: " + error);
  }
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(object->bytes.data()),
      object->bytes.size());
  // Same validation a local read performs — a corrupt transfer never
  // reaches the scheduler's store. put() on an existing key is a no-op,
  // which is exactly what makes duplicate publishes (a result re-sent
  // after a reconnect) idempotent.
  const store::Envelope envelope = store::validate_envelope(bytes);
  store_.objects().put(object->key, envelope.kind, bytes);
  obs::counter("net.objects_absorbed").add(1);
}

json::Value AgentServer::execute(const std::string& unit_id,
                                 const json::Value& request) {
  // Warm-scheduler short-circuit: when the store already holds the unit's
  // result, there is nothing for a remote agent to add — this is what
  // keeps resumed / re-run campaigns from re-simulating on cold agents.
  if (const json::Value* key_text = request.find("result_key")) {
    if (const auto key = store::Digest::from_hex(key_text->as_string());
        key && store_.objects().contains(*key)) {
      obs::counter("net.units_cached").add(1);
      json::Value reply = json::Value::object();
      reply.set("status", "ok");
      reply.set("key", key->to_hex());
      return reply;
    }
  }

  obs::counter("net.units_dispatched").add(1);
  const InflightGuard inflight_gauge;

  // Backpressure: a bounded number of units on the fabric at once; the
  // queue-depth histogram records how many execute() calls were stacked
  // up behind the limit (or merely arriving concurrently when unbounded).
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++waiting_;
    obs::histogram("net.queue_depth").observe(static_cast<double>(waiting_));
    if (config_.max_inflight > 0) {
      inflight_cv_.wait(lock, [&] {
        return stopping_ || inflight_ < config_.max_inflight;
      });
    }
    ++inflight_;
    --waiting_;
  }
  struct SlotRelease {
    AgentServer* server;
    ~SlotRelease() {
      {
        const std::lock_guard<std::mutex> lock(server->mutex_);
        --server->inflight_;
      }
      server->inflight_cv_.notify_one();
    }
  } slot_release{this};

  SessionPtr session = checkout(unit_id);
  leases_.acquire(unit_id, session->token);
  const auto started = Clock::now();
  const std::string request_text = request.dump();

  for (;;) {  // one iteration per dispatch attempt on this session
    std::shared_ptr<Connection> conn;
    std::uint64_t generation = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      conn = session->conn;
      generation = session->generation;
    }

    bool attached =
        conn && conn->send_frame(proc::FrameType::kRequest, request_text);
    auto last_activity = Clock::now();
    std::string detach_reason = "connection closed before dispatch";

    while (attached) {
      proc::ReadResult reply = conn->recv_frame(kServePollMs);
      const auto now = Clock::now();
      switch (reply.status) {
        case proc::ReadStatus::kTimeout:
          if (config_.heartbeat_timeout_ms > 0.0 &&
              ms_between(last_activity, now) > config_.heartbeat_timeout_ms) {
            // Close rather than re-queue: a wedged agent that recovers
            // will reconnect and resume; a dead one lets the lease run
            // out. Either way the unit is not duplicated.
            obs::counter("net.stall_drops").add(1);
            conn->close();
            attached = false;
            detach_reason = "stopped heartbeating";
          } else if (leases_.expired(unit_id)) {
            expire_and_throw(session, unit_id,
                             "lease expired while the connection idled");
          }
          continue;
        case proc::ReadStatus::kEof:
          attached = false;
          detach_reason = "connection closed mid-unit";
          continue;
        case proc::ReadStatus::kCorrupt:
          // The frame's bytes failed their CRC — whatever it was (result?
          // publish?) is lost, so the request/reply state machine cannot
          // continue on this connection. Force a reconnect; the lease
          // keeps the unit owned and the re-dispatch re-runs it warm.
          conn->close();
          attached = false;
          detach_reason = "corrupt frame: " + reply.error;
          continue;
        case proc::ReadStatus::kError:
          obs::counter("net.protocol_errors").add(1);
          conn->close();
          attached = false;
          detach_reason = "protocol error: " + reply.error;
          continue;
        case proc::ReadStatus::kFrame:
          break;
      }
      last_activity = now;
      leases_.renew(unit_id);

      switch (reply.frame.type) {
        case proc::FrameType::kHeartbeat:
          obs::counter("net.heartbeats").add(1);
          continue;
        case proc::FrameType::kFetch:
        case proc::FrameType::kPublish:
          try {
            if (reply.frame.type == proc::FrameType::kFetch) {
              serve_fetch(*conn, session->name, reply.frame.payload);
            } else {
              absorb_publish(session->name, reply.frame.payload);
            }
          } catch (const std::exception& error) {
            // Bad digest / bad envelope with a valid frame CRC: treat it
            // like corruption — drop the connection and re-dispatch —
            // rather than poisoning the store or failing the unit.
            obs::counter("net.protocol_errors").add(1);
            conn->close();
            attached = false;
            detach_reason = error.what();
          }
          continue;
        case proc::FrameType::kResult:
        case proc::FrameType::kFail:
          break;
        default:
          obs::counter("net.protocol_errors").add(1);
          conn->close();
          attached = false;
          detach_reason =
              "unexpected frame type " +
              std::to_string(static_cast<int>(reply.frame.type));
          continue;
      }

      // kResult / kFail: the unit is decided.
      json::Value payload;
      try {
        payload = json::parse(reply.frame.payload);
      } catch (const std::exception& error) {
        obs::counter("net.protocol_errors").add(1);
        conn->close();
        attached = false;
        detach_reason = std::string("malformed reply: ") + error.what();
        continue;
      }

      const double unit_ms = ms_between(started, now);
      obs::histogram("net.unit_ms").observe(unit_ms);
      obs::histogram("net.agent." + std::to_string(session->id) + ".unit_ms")
          .observe(unit_ms);
      obs::histogram("net.lease_age_ms").observe(leases_.release(unit_id));

      if (reply.frame.type == proc::FrameType::kResult) {
        checkin(session);
        return payload;
      }
      // The agent caught the failure and reported it cleanly: the unit
      // failed but the agent is healthy, so it goes back in the pool.
      obs::counter("net.unit_failures").add(1);
      const json::Value* kind = payload.find("kind");
      const json::Value* message = payload.find("error");
      const std::string what =
          "agent '" + session->name + "' reported for unit '" + unit_id +
          "': " + (message != nullptr ? message->as_string()
                                      : reply.frame.payload);
      const bool transient =
          kind != nullptr && kind->as_string() == "transient";
      checkin(session);
      if (transient) throw TransientError(what);
      throw PermanentError(what);
    }

    // The connection is gone but the lease still owns the unit: wait for
    // the session token to come back on a fresh socket, then re-dispatch.
    if (leases_.attempts(unit_id) >= kMaxDispatchAttempts) {
      expire_and_throw(session, unit_id,
                       detach_reason + "; too many dispatch attempts");
    }
    if (!await_reconnect(session, generation, unit_id)) {
      expire_and_throw(session, unit_id,
                       detach_reason + "; session did not reconnect within "
                       "its lease");
    }
    leases_.rebind(unit_id, session->token);
    obs::counter("net.redispatches").add(1);
  }
}

}  // namespace anacin::net
