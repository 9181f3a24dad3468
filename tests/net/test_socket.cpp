// In-process tests for the TCP layer (net/socket.hpp): ephemeral-port
// listeners, frame round-trips over loopback, timeouts, clean EOF, and the
// AgentServer's no-agent checkout timeout. Everything runs on 127.0.0.1
// with port 0 so parallel test jobs never collide.

#include "net/socket.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/agent.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"
#include "store/codec.hpp"
#include "support/error.hpp"

namespace anacin::net {
namespace {

namespace fs = std::filesystem;

TEST(TcpListener, EphemeralBindReportsRealPort) {
  TcpListener listener("127.0.0.1", 0);
  EXPECT_GT(listener.port(), 0);
}

TEST(TcpListener, AcceptTimesOutWithoutClient) {
  TcpListener listener("127.0.0.1", 0);
  EXPECT_EQ(listener.accept(50), nullptr);
}

TEST(TcpListener, ClosedListenerStopsAccepting) {
  TcpListener listener("127.0.0.1", 0);
  listener.close();
  EXPECT_EQ(listener.accept(50), nullptr);
}

TEST(TcpListener, CloseFromAnotherThreadWakesBlockedAccept) {
  // The scheduler's destructor closes its listener while the acceptor
  // thread waits in accept(); that wait must end at once, not at its
  // timeout.
  TcpListener listener("127.0.0.1", 0);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    listener.close();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(listener.accept(5000), nullptr);
  const auto waited = std::chrono::steady_clock::now() - start;
  closer.join();
  EXPECT_LT(waited, std::chrono::seconds(1));
}

TEST(TcpConnection, ConnectToDeadPortThrowsIoError) {
  // Bind an ephemeral port, remember it, and release it — connecting to it
  // afterwards is refused (nothing re-binds it within the test).
  std::uint16_t dead_port = 0;
  {
    TcpListener listener("127.0.0.1", 0);
    dead_port = listener.port();
  }
  EXPECT_THROW(TcpConnection::connect("127.0.0.1", dead_port, 1000),
               IoError);
}

TEST(TcpConnection, FrameRoundTripBothDirections) {
  TcpListener listener("127.0.0.1", 0);
  std::unique_ptr<TcpConnection> client;
  std::thread dialer([&] {
    client = TcpConnection::connect("127.0.0.1", listener.port(), 5000);
  });
  std::unique_ptr<TcpConnection> server = listener.accept(5000);
  dialer.join();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->send_frame(proc::FrameType::kHello, "{\"name\":\"t\"}"));
  proc::ReadResult got = server->recv_frame(5000);
  ASSERT_TRUE(got) << got.error;
  EXPECT_EQ(got.frame.type, proc::FrameType::kHello);
  EXPECT_EQ(got.frame.payload, "{\"name\":\"t\"}");

  // Binary payloads (object frames carry raw envelope bytes, including
  // NULs) must survive untouched.
  const std::string binary("\x00\x01\xff\x7f bytes", 10);
  ASSERT_TRUE(server->send_frame(proc::FrameType::kObject, binary));
  got = client->recv_frame(5000);
  ASSERT_TRUE(got) << got.error;
  EXPECT_EQ(got.frame.type, proc::FrameType::kObject);
  EXPECT_EQ(got.frame.payload, binary);
}

TEST(TcpConnection, RecvTimesOutOnSilentPeer) {
  TcpListener listener("127.0.0.1", 0);
  std::unique_ptr<TcpConnection> client;
  std::thread dialer([&] {
    client = TcpConnection::connect("127.0.0.1", listener.port(), 5000);
  });
  std::unique_ptr<TcpConnection> server = listener.accept(5000);
  dialer.join();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(client, nullptr);
  const proc::ReadResult got = server->recv_frame(50);
  EXPECT_EQ(got.status, proc::ReadStatus::kTimeout);
}

TEST(TcpConnection, PeerCloseReadsAsCleanEof) {
  TcpListener listener("127.0.0.1", 0);
  std::unique_ptr<TcpConnection> client;
  std::thread dialer([&] {
    client = TcpConnection::connect("127.0.0.1", listener.port(), 5000);
  });
  std::unique_ptr<TcpConnection> server = listener.accept(5000);
  dialer.join();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(client, nullptr);
  client->close();
  const proc::ReadResult got = server->recv_frame(5000);
  EXPECT_EQ(got.status, proc::ReadStatus::kEof);
}

/// AgentServer facts that need no live agent: it binds an ephemeral port,
/// reports zero agents, times out waiting for a fleet that never joins,
/// and a unit dispatched into an empty fleet surfaces as the transient
/// WorkerCrashError that lets supervisor retries wait for a replacement.
class AgentServerNoFleet : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anacin_net_server_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    store::ObjectStore::Config config;
    config.root = dir_ / "store";
    store_ = std::make_unique<store::ArtifactStore>(config);
  }
  void TearDown() override {
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  std::unique_ptr<store::ArtifactStore> store_;
};

TEST_F(AgentServerNoFleet, BindsEphemeralPortAndCountsZeroAgents) {
  AgentServerConfig config;
  AgentServer server(config, *store_);
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(server.agent_count(), 0u);
  EXPECT_FALSE(server.wait_for_agents(1, 50));
}

TEST_F(AgentServerNoFleet, ExecuteWithoutAgentsThrowsTransient) {
  AgentServerConfig config;
  config.checkout_timeout_ms = 50.0;
  AgentServer server(config, *store_);
  json::Value request = json::Value::object();
  request.set("kind", "run");
  try {
    server.execute("run:0", request);
    FAIL() << "execute() must not succeed with no agents connected";
  } catch (const WorkerCrashError& error) {
    EXPECT_NE(std::string(error.what()).find("no agent available"),
              std::string::npos);
  }
}

/// A connected loopback pair at protocol v2 (what the fabric speaks after
/// the handshake), for driving agent-side protocol paths against a fake
/// scheduler.
struct LoopbackPair {
  std::unique_ptr<TcpConnection> agent_side;
  std::unique_ptr<TcpConnection> sched_side;

  LoopbackPair() {
    TcpListener listener("127.0.0.1", 0);
    std::thread dialer([&] {
      agent_side = TcpConnection::connect("127.0.0.1", listener.port(), 5000);
    });
    sched_side = listener.accept(5000);
    dialer.join();
    EXPECT_NE(agent_side, nullptr);
    EXPECT_NE(sched_side, nullptr);
    agent_side->set_version(proc::kProtocolV2);
    sched_side->set_version(proc::kProtocolV2);
  }
};

// The object-fetch admission gate: a kObject whose envelope fails
// validation (here: one payload byte flipped by "the network" upstream of
// the frame CRC) must trigger a re-fetch and must never reach the store.
// The second, clean copy is admitted.
TEST_F(AgentServerNoFleet, FetchRefetchesCorruptObjectWithoutPoisoningStore) {
  LoopbackPair pair;
  const std::vector<std::uint8_t> envelope =
      store::encode_distances({1.0, 2.5, 3.25});
  const store::Digest key = store::digest_bytes(envelope.data(),
                                                envelope.size());

  std::thread fake_scheduler([&] {
    // First fetch: serve a copy with the last payload byte flipped — the
    // envelope checksum catches what the frame CRC cannot (the flip
    // happened before framing).
    proc::ReadResult request = pair.sched_side->recv_frame(5000);
    ASSERT_TRUE(request) << request.error;
    ASSERT_EQ(request.frame.type, proc::FrameType::kFetch);
    std::vector<std::uint8_t> mangled = envelope;
    mangled.back() ^= 0xff;
    ASSERT_TRUE(pair.sched_side->send_frame(
        proc::FrameType::kObject,
        encode_object_payload(key, {mangled.data(), mangled.size()})));
    // The agent must come back for another copy; serve it clean.
    request = pair.sched_side->recv_frame(5000);
    ASSERT_TRUE(request) << request.error;
    ASSERT_EQ(request.frame.type, proc::FrameType::kFetch);
    ASSERT_TRUE(pair.sched_side->send_frame(
        proc::FrameType::kObject,
        encode_object_payload(key, {envelope.data(), envelope.size()})));
  });

  const std::uint64_t corrupt_before =
      obs::counter("net.fetch_corrupt").value();
  fetch_object(*pair.agent_side, store_->objects(), key);
  fake_scheduler.join();

  EXPECT_EQ(obs::counter("net.fetch_corrupt").value(), corrupt_before + 1);
  const store::ObjectBytes stored = store_->objects().get(key);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, envelope);  // the clean copy, byte for byte
}

// When every copy arrives corrupt, the fetch gives up transient (the
// supervisor retries the whole unit) — and still never writes the bytes.
TEST_F(AgentServerNoFleet, FetchGivesUpTransientAfterRepeatedCorruption) {
  LoopbackPair pair;
  const std::vector<std::uint8_t> envelope =
      store::encode_distances({4.0, 5.0});
  const store::Digest key = store::digest_bytes(envelope.data(),
                                                envelope.size());

  std::thread fake_scheduler([&] {
    for (int i = 0; i < 3; ++i) {
      const proc::ReadResult request = pair.sched_side->recv_frame(5000);
      if (!request) return;
      std::vector<std::uint8_t> mangled = envelope;
      mangled.front() ^= 0x01;  // corrupt the magic — always rejected
      pair.sched_side->send_frame(
          proc::FrameType::kObject,
          encode_object_payload(key, {mangled.data(), mangled.size()}));
    }
  });

  EXPECT_THROW(fetch_object(*pair.agent_side, store_->objects(), key),
               TransientError);
  fake_scheduler.join();
  EXPECT_FALSE(store_->objects().contains(key));
}

// Version negotiation: a kHello advertising a protocol this build cannot
// speak gets a typed {"error": ...} kHelloOk, not a session.
TEST_F(AgentServerNoFleet, HelloWithUnsupportedProtocolIsRefused) {
  AgentServerConfig config;
  AgentServer server(config, *store_);
  const auto conn =
      TcpConnection::connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(conn->send_frame(proc::FrameType::kHello,
                               make_hello("time-traveler", 99).dump()));
  const proc::ReadResult welcome = conn->recv_frame(5000);
  ASSERT_TRUE(welcome) << welcome.error;
  ASSERT_EQ(welcome.frame.type, proc::FrameType::kHelloOk);
  const json::Value doc = json::parse(welcome.frame.payload);
  EXPECT_NE(doc.find("error"), nullptr);
  EXPECT_EQ(doc.find("token"), nullptr);
  EXPECT_EQ(server.agent_count(), 0u);
}

// Session resume at the handshake level: a second connection presenting
// the first one's token splices into the existing session instead of
// registering a new agent.
TEST_F(AgentServerNoFleet, ReconnectWithTokenResumesSessionNotNewAgent) {
  AgentServerConfig config;
  AgentServer server(config, *store_);

  const auto first = TcpConnection::connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(first->send_frame(
      proc::FrameType::kHello,
      make_hello("ag", proc::kProtocolVersion).dump()));
  const proc::ReadResult hello_ok = first->recv_frame(5000);
  ASSERT_TRUE(hello_ok) << hello_ok.error;
  const json::Value doc = json::parse(hello_ok.frame.payload);
  const std::string token = doc.at("token").as_string();
  ASSERT_FALSE(token.empty());
  EXPECT_EQ(static_cast<int>(doc.at("proto").as_number()),
            proc::kProtocolVersion);
  EXPECT_EQ(server.agent_count(), 1u);

  const std::uint64_t resumed_before =
      obs::counter("net.sessions_resumed").value();
  const auto second = TcpConnection::connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(second->send_frame(
      proc::FrameType::kHello,
      make_hello("ag", proc::kProtocolVersion, token).dump()));
  const proc::ReadResult resumed = second->recv_frame(5000);
  ASSERT_TRUE(resumed) << resumed.error;
  ASSERT_EQ(resumed.frame.type, proc::FrameType::kHelloOk);
  const json::Value redoc = json::parse(resumed.frame.payload);
  EXPECT_EQ(redoc.at("token").as_string(), token);
  EXPECT_EQ(server.agent_count(), 1u);  // resumed, not re-registered
  EXPECT_EQ(obs::counter("net.sessions_resumed").value(),
            resumed_before + 1);
  // The replaced connection is closed by the server.
  EXPECT_EQ(first->recv_frame(5000).status, proc::ReadStatus::kEof);
}

}  // namespace
}  // namespace anacin::net
