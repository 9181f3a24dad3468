#include "net/agent.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "net/chaos.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"
#include "proc/protocol.hpp"
#include "proc/worker_main.hpp"
#include "store/codec.hpp"
#include "support/fault_plan.hpp"
#include "support/rng.hpp"

namespace anacin::net {

namespace {

std::string default_agent_name() {
  char hostname[256] = "agent";
  ::gethostname(hostname, sizeof(hostname) - 1);
  return std::string(hostname) + ":" + std::to_string(::getpid());
}

/// Ship the unit's result object back to the scheduler. The scheduler
/// put()s it before it reads our kResult, which is what preserves the
/// UnitExecutor contract (artifact present before execute() returns).
void publish_object(Connection& conn, store::ObjectStore& objects,
                    const store::Digest& key) {
  const store::ObjectBytes bytes = objects.get(key);
  if (!bytes) {
    // The usual cause is a degraded local store (disk fault swallowed by
    // the ArtifactStore's --no-store fallback): the unit's computation
    // succeeded but the artifact never landed. Transient — the scheduler
    // re-queues it onto an agent whose disk still works.
    throw TransientError("agent: executed a unit but its result object " +
                         key.to_hex() +
                         " is not in the local store (disk fault / store "
                         "degraded?)");
  }
  const std::string payload = encode_object_payload(key, *bytes);
  if (!conn.send_frame(proc::FrameType::kPublish, payload)) {
    throw ConnectionLostError("agent: scheduler hung up during publish of " +
                              key.to_hex());
  }
  obs::counter("net.objects_published").add(1);
}

/// What one registration attempt produced.
struct Registration {
  int id = -1;
  std::string token;
  std::uint16_t proto = proc::kProtocolV1;
};

/// One connect + kHello/kHelloOk exchange. Returns nullopt on transport
/// failure (caller backs off and retries); throws ProtocolVersionError
/// when the scheduler refuses our frame protocol (retrying cannot help).
std::optional<Registration> register_with(Connection& conn,
                                          const std::string& name,
                                          const std::string& token,
                                          int timeout_ms) {
  const json::Value hello = make_hello(name, proc::kProtocolVersion, token);
  if (!conn.send_frame(proc::FrameType::kHello, hello.dump())) {
    return std::nullopt;
  }
  const proc::ReadResult welcome = conn.recv_frame(timeout_ms);
  if (!welcome || welcome.frame.type != proc::FrameType::kHelloOk) {
    return std::nullopt;
  }
  Registration reg;
  try {
    const json::Value doc = json::parse(welcome.frame.payload);
    if (const json::Value* error = doc.find("error")) {
      throw ProtocolVersionError("agent: scheduler refused registration: " +
                                 error->as_string());
    }
    reg.id = static_cast<int>(doc.at("id").as_number());
    if (const json::Value* field = doc.find("token")) {
      reg.token = field->as_string();
    }
    if (const json::Value* field = doc.find("proto")) {
      reg.proto = static_cast<std::uint16_t>(field->as_number());
    }
  } catch (const ProtocolVersionError&) {
    throw;
  } catch (const std::exception&) {
    return std::nullopt;  // malformed welcome: treat as transport failure
  }
  return reg;
}

}  // namespace

void fetch_object(Connection& conn, store::ObjectStore& objects,
                  const store::Digest& key) {
  constexpr int kMaxFetchAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    if (!conn.send_frame(proc::FrameType::kFetch, key.to_hex())) {
      throw ConnectionLostError("agent: scheduler hung up during fetch of " +
                                key.to_hex());
    }
    const proc::ReadResult reply = conn.recv_frame();
    if (reply.status == proc::ReadStatus::kCorrupt) {
      // The per-unit exchange is strictly request/reply, so the mangled
      // frame was our kObject: ask again rather than store garbage.
      obs::counter("net.fetch_corrupt").add(1);
      if (attempt >= kMaxFetchAttempts) {
        throw TransientError("agent: object " + key.to_hex() +
                             " arrived corrupt " +
                             std::to_string(kMaxFetchAttempts) +
                             " times: " + reply.error);
      }
      continue;
    }
    if (!reply) {
      throw ConnectionLostError(
          "agent: scheduler hung up before answering fetch of " +
          key.to_hex());
    }
    if (reply.frame.type == proc::FrameType::kMissing) {
      // The scheduler dispatched a unit whose inputs it cannot serve — a
      // scheduler-side bug, so don't retry.
      throw PermanentError("agent: scheduler has no object " + key.to_hex() +
                           " (pair units are dispatched only after their "
                           "runs complete)");
    }
    if (reply.frame.type != proc::FrameType::kObject) {
      throw PermanentError("agent: unexpected frame type " +
                           std::to_string(
                               static_cast<int>(reply.frame.type)) +
                           " in reply to fetch");
    }
    std::string error;
    const auto object = decode_object_payload(reply.frame.payload, &error);
    if (!object) throw PermanentError("agent: bad object frame: " + error);
    if (!(object->key == key)) {
      throw PermanentError("agent: fetched " + key.to_hex() +
                           " but the scheduler sent " + object->key.to_hex());
    }
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(object->bytes.data()),
        object->bytes.size());
    // Full envelope validation before the store accepts the bytes: the
    // digest matched, but the payload checksum is what proves the bytes
    // survived the trip. A mismatch means corruption the frame CRC could
    // not see (or predates it) — re-fetch, never write.
    try {
      const store::Envelope envelope = store::validate_envelope(bytes);
      try {
        objects.put(key, envelope.kind, bytes);
      } catch (const IoError& disk) {
        // Local disk fault during admission (full disk, device error —
        // possibly injected disk faults riding on top of net faults). The
        // bytes were fine; the *disk* failed. Transient from the fleet's
        // point of view: the scheduler re-queues the unit and a healthy
        // agent picks it up.
        obs::counter("net.store_admission_failures").add(1);
        throw TransientError("agent: cannot admit object " + key.to_hex() +
                             " into the local store: " + disk.what());
      }
    } catch (const ParseError& bad) {
      obs::counter("net.fetch_corrupt").add(1);
      if (attempt >= kMaxFetchAttempts) {
        throw TransientError("agent: object " + key.to_hex() +
                             " failed envelope validation " +
                             std::to_string(kMaxFetchAttempts) +
                             " times: " + bad.what());
      }
      continue;
    }
    obs::counter("net.objects_fetched").add(1);
    return;
  }
}

int run_agent(store::ArtifactStore& store, const AgentConfig& config) {
  const std::string name =
      config.name.empty() ? default_agent_name() : config.name;
  // Seeded jitter so a whole fleet redialing a restarted scheduler does
  // not thunder in lock-step; per-agent stream via the name, base seed
  // from the fault plan (0 without one).
  std::uint64_t name_hash = 1469598103934665603ull;
  for (const char c : name) {
    name_hash = (name_hash ^ static_cast<unsigned char>(c)) *
                1099511628211ull;
  }
  const support::FaultPlan* plan = support::installed_fault_plan();
  Rng backoff_rng(
      hash_combine(mix64(plan == nullptr ? 0 : plan->seed), name_hash));

  std::shared_ptr<Connection> conn;
  std::string token;  // session identity; survives reconnects
  bool registered = false;
  int consecutive_failures = 0;
  std::uint64_t units_served = 0;

  const auto drop_connection = [&] {
    if (conn) conn->close();
    conn.reset();
  };

  while (true) {
    // (Re)establish the connection. The session token rides along, so on
    // the scheduler side this is a resume, not a new agent.
    while (!conn) {
      if (consecutive_failures > 0) {
        const double base =
            config.reconnect_backoff_ms *
            static_cast<double>(1ull << std::min(consecutive_failures - 1, 10));
        const double delay_ms =
            std::min(base, 2'000.0) * backoff_rng.uniform(0.5, 1.5);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
      }
      try {
        // The installed fault plan's net.* faults apply to the agent's
        // side of the connection (agent→scheduler direction).
        std::unique_ptr<Connection> fresh =
            maybe_wrap_faults(TcpConnection::connect(
                config.host, config.port, config.connect_timeout_ms));
        std::optional<Registration> reg;
        try {
          reg = register_with(*fresh, name, token,
                              config.connect_timeout_ms);
        } catch (const ProtocolVersionError& refused) {
          std::fprintf(stderr, "%s\n", refused.what());
          return 1;
        }
        if (!reg) {
          throw ConnectionLostError("agent: registration not acknowledged");
        }
        fresh->set_version(reg->proto);
        token = reg->token;
        if (registered) obs::counter("net.reconnects").add(1);
        registered = true;
        consecutive_failures = 0;
        conn = std::shared_ptr<Connection>(std::move(fresh));
      } catch (const std::exception& error) {
        ++consecutive_failures;
        if (consecutive_failures >= config.reconnect_max) {
          std::fprintf(stderr, "agent: %s (gave up after %d attempts)\n",
                       error.what(), consecutive_failures);
          // Exit 0 once registered: an unreachable scheduler after a
          // completed registration means the campaign is over (or died);
          // either way the agent must not linger. Exit 1 when we never
          // got in at all — that is an operator error worth flagging.
          return registered ? 0 : 1;
        }
      }
    }

    const proc::ReadResult incoming = conn->recv_frame();
    if (incoming.status != proc::ReadStatus::kFrame) {
      // EOF, torn frame, or corrupt frame: all spell "this connection is
      // done". The session survives — reconnect and resume.
      drop_connection();
      continue;
    }
    if (incoming.frame.type == proc::FrameType::kShutdown) {
      return 0;  // campaign over; do NOT reconnect
    }
    if (incoming.frame.type != proc::FrameType::kRequest) {
      std::fprintf(stderr, "agent: unexpected frame type %d\n",
                   static_cast<int>(incoming.frame.type));
      drop_connection();
      continue;
    }

    std::string unit = "?";
    try {
      const json::Value request = json::parse(incoming.frame.payload);
      unit = request.at("unit").as_string();
      // Heartbeats go through the connection object (not the raw fd) so
      // injected net faults apply to them like any other frame.
      const proc::Heartbeater heartbeater(
          [connection = conn.get()] {
            connection->send_frame(proc::FrameType::kHeartbeat, {});
          },
          config.heartbeat_interval_ms);
      for (const store::Digest& input : proc::unit_input_keys(request)) {
        if (!store.objects().contains(input)) {
          fetch_object(*conn, store.objects(), input);
        }
      }
      // Injected crashes/hangs fire in whichever process executes the
      // unit — here, in distributed mode (the scheduler waits out the
      // lease, then re-queues).
      support::faults::on_unit_body(unit);
      const json::Value reply = proc::execute_unit(store, request);
      const auto result_key =
          store::Digest::from_hex(reply.at("key").as_string());
      ANACIN_CHECK(result_key.has_value(), "execute_unit returned a bad key");
      publish_object(*conn, store.objects(), *result_key);
      if (!conn->send_frame(proc::FrameType::kResult, reply.dump())) {
        throw ConnectionLostError("agent: scheduler hung up mid-reply");
      }
    } catch (const ConnectionLostError&) {
      // Mid-unit transport loss. Drop the unit on the floor — after the
      // reconnect the scheduler re-dispatches it and the warm store makes
      // the re-execution free.
      drop_connection();
      continue;
    } catch (const std::exception& error) {
      json::Value payload = json::Value::object();
      payload.set("kind", dynamic_cast<const TransientError*>(&error) !=
                                  nullptr
                              ? "transient"
                              : "permanent");
      payload.set("error", error.what());
      if (!conn->send_frame(proc::FrameType::kFail, payload.dump())) {
        drop_connection();
        continue;
      }
    }
    if (config.max_units > 0 && ++units_served >= config.max_units) {
      return 0;  // deliberate retirement (tests exercise requeue with this)
    }
  }
}

}  // namespace anacin::net
