// Tests for the fault plan's net domain (net/chaos.hpp's FaultyConnection):
// the net.* keys, and each fault knob driven at probability 1.0 through a
// real loopback socket pair so the receiver-visible effect is asserted
// (kCorrupt, silence, EOF, swapped order), plus a seeded fuzz proving a
// plan with every net probability at zero is byte-transparent. Also the
// socket-boundary malformed-input cases (torn frame mid-payload, oversized
// length, unknown type byte) and the EINTR regression: poll-based waits
// must retry interrupted syscalls against their original deadline.

#include "net/chaos.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"

namespace anacin::net {
namespace {

using Clock = std::chrono::steady_clock;

/// A connected loopback pair: `a` dialed, `b` accepted.
struct SocketPair {
  std::unique_ptr<TcpConnection> a;
  std::unique_ptr<TcpConnection> b;

  SocketPair() {
    TcpListener listener("127.0.0.1", 0);
    std::thread dialer([&] {
      a = TcpConnection::connect("127.0.0.1", listener.port(), 5000);
    });
    b = listener.accept(5000);
    dialer.join();
    EXPECT_NE(a, nullptr);
    EXPECT_NE(b, nullptr);
    // The fabric speaks v2 after the handshake; run the pair there too so
    // the CRC trailer (which the corruption tests rely on) is in force.
    a->set_version(proc::kProtocolV2);
    b->set_version(proc::kProtocolV2);
  }
};

using support::FaultPlan;

/// A seed-7 plan with one net knob set.
FaultPlan only(double FaultPlan::Net::* knob, double value) {
  FaultPlan plan;
  plan.seed = 7;
  plan.net.*knob = value;
  return plan;
}

// --- The net.* keys of the fault plan ---------------------------------

TEST(ChaosConfig, ParsesFullSpec) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=42, net.drop=0.05, net.corrupt=0.02, net.reorder=0.1, "
      "net.reset=0.01, net.delay=0.2, net.delay_ms=15, net.partition=0.005, "
      "net.partition_ms=250");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.net.drop, 0.05);
  EXPECT_DOUBLE_EQ(plan.net.corrupt, 0.02);
  EXPECT_DOUBLE_EQ(plan.net.reorder, 0.1);
  EXPECT_DOUBLE_EQ(plan.net.reset, 0.01);
  EXPECT_DOUBLE_EQ(plan.net.delay, 0.2);
  EXPECT_DOUBLE_EQ(plan.net.delay_ms, 15.0);
  EXPECT_DOUBLE_EQ(plan.net.partition, 0.005);
  EXPECT_DOUBLE_EQ(plan.net.partition_ms, 250.0);
  EXPECT_TRUE(plan.net.enabled());
}

TEST(ChaosConfig, SeedAloneIsInert) {
  EXPECT_FALSE(FaultPlan::parse("seed=9").net.enabled());
  // Disk faults alone leave the wire clean too.
  EXPECT_FALSE(FaultPlan::parse("seed=9,disk.enospc=1").net.enabled());
}

TEST(ChaosConfig, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(FaultPlan::parse("net.dorp=0.1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("net.drop=1.5"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("net.drop=-0.1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("net.drop=lots"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("net.drop"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("net.delay_ms=-5"), ConfigError);
}

TEST(ChaosConfig, FromEnvReadsSpec) {
  ::setenv("ANACIN_FAULT_PLAN", "seed=3,net.drop=0.25", 1);
  const auto plan = FaultPlan::from_env();
  ::unsetenv("ANACIN_FAULT_PLAN");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 3u);
  EXPECT_DOUBLE_EQ(plan->net.drop, 0.25);
  EXPECT_FALSE(FaultPlan::from_env().has_value());
}

TEST(ChaosConfig, MaybeWrapLeavesInertConfigsUnwrapped) {
  SocketPair pair;
  Connection* raw = pair.a.get();
  std::unique_ptr<Connection> conn = std::move(pair.a);
  conn = maybe_wrap_faults(std::move(conn));  // no plan installed
  EXPECT_EQ(conn.get(), raw);  // pass-through, no decorator
  {
    const support::ScopedFaultPlan disk_only("disk.enospc=1");
    conn = maybe_wrap_faults(std::move(conn));
    EXPECT_EQ(conn.get(), raw);
  }
  const support::ScopedFaultPlan plan("seed=7,net.drop=0.5");
  conn = maybe_wrap_faults(std::move(conn));
  EXPECT_NE(conn.get(), raw);
}

// --- FaultyConnection, one knob at a time -----------------------------

// Transparency: with every probability zero the wrapper must be
// byte-invisible — same frames, same payloads, both directions. This is
// what licenses wrapping every fleet connection unconditionally when
// chaos is configured.
TEST(FaultyConnection, ZeroProbabilityConfigIsTransparent) {
  SocketPair pair;
  FaultPlan inert;
  inert.seed = 1234;
  FaultyConnection chaotic(std::move(pair.a), inert);

  std::mt19937 rng(20260808u);
  std::uniform_int_distribution<std::size_t> size_dist(0, 2048);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int i = 0; i < 50; ++i) {
    std::string payload(size_dist(rng), '\0');
    for (char& c : payload) c = static_cast<char>(byte_dist(rng));
    ASSERT_TRUE(chaotic.send_frame(proc::FrameType::kObject, payload));
    const proc::ReadResult got = pair.b->recv_frame(5000);
    ASSERT_TRUE(got) << got.error;
    ASSERT_EQ(got.frame.payload, payload);
    // And the reverse direction, received through the wrapper.
    ASSERT_TRUE(pair.b->send_frame(proc::FrameType::kResult, payload));
    const proc::ReadResult back = chaotic.recv_frame(5000);
    ASSERT_TRUE(back) << back.error;
    ASSERT_EQ(back.frame.payload, payload);
  }
}

// corrupt=1.0: every frame arrives, every frame fails its CRC, and the
// stream stays aligned — the receiver sees a parade of kCorrupt, never a
// torn stream.
TEST(FaultyConnection, CorruptionSurfacesAsTypedCorruptFrames) {
  SocketPair pair;
  FaultyConnection chaotic(std::move(pair.a),
                           only(&FaultPlan::Net::corrupt, 1.0));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(chaotic.send_frame(proc::FrameType::kResult, "payload"));
    const proc::ReadResult got = pair.b->recv_frame(5000);
    EXPECT_EQ(got.status, proc::ReadStatus::kCorrupt) << got.error;
  }
  // The wrapper corrupts sends only; a clean peer frame still reads fine.
  ASSERT_TRUE(pair.b->send_frame(proc::FrameType::kResult, "clean"));
  const proc::ReadResult back = chaotic.recv_frame(5000);
  ASSERT_TRUE(back) << back.error;
  EXPECT_EQ(back.frame.payload, "clean");
}

// drop=1.0: sends report success, nothing reaches the peer.
TEST(FaultyConnection, DropsVanishSilently) {
  SocketPair pair;
  FaultyConnection chaotic(std::move(pair.a),
                           only(&FaultPlan::Net::drop, 1.0));
  ASSERT_TRUE(chaotic.send_frame(proc::FrameType::kHeartbeat, {}));
  ASSERT_TRUE(chaotic.send_frame(proc::FrameType::kResult, "gone"));
  const proc::ReadResult got = pair.b->recv_frame(100);
  EXPECT_EQ(got.status, proc::ReadStatus::kTimeout);
}

// reset=1.0: the first send tears the connection down; the sender sees a
// failed write and the peer a clean EOF — exactly a mid-unit process
// death, which is what the session-resume machinery trains against.
TEST(FaultyConnection, ResetTearsDownTheConnection) {
  SocketPair pair;
  FaultyConnection chaotic(std::move(pair.a),
                           only(&FaultPlan::Net::reset, 1.0));
  EXPECT_FALSE(chaotic.send_frame(proc::FrameType::kResult, "doomed"));
  EXPECT_FALSE(chaotic.valid());
  const proc::ReadResult got = pair.b->recv_frame(5000);
  EXPECT_EQ(got.status, proc::ReadStatus::kEof);
}

// reorder=1.0: consecutive frames swap pairwise (the window is bounded at
// one frame), and close() flushes a trailing held frame instead of
// leaking it.
TEST(FaultyConnection, ReorderSwapsAdjacentFramesAndFlushesOnClose) {
  SocketPair pair;
  FaultyConnection chaotic(std::move(pair.a),
                           only(&FaultPlan::Net::reorder, 1.0));
  ASSERT_TRUE(chaotic.send_frame(proc::FrameType::kResult, "first"));
  ASSERT_TRUE(chaotic.send_frame(proc::FrameType::kResult, "second"));
  proc::ReadResult got = pair.b->recv_frame(5000);
  ASSERT_TRUE(got) << got.error;
  EXPECT_EQ(got.frame.payload, "second");
  got = pair.b->recv_frame(5000);
  ASSERT_TRUE(got) << got.error;
  EXPECT_EQ(got.frame.payload, "first");

  ASSERT_TRUE(chaotic.send_frame(proc::FrameType::kResult, "held"));
  chaotic.close();  // must flush, then close
  got = pair.b->recv_frame(5000);
  ASSERT_TRUE(got) << got.error;
  EXPECT_EQ(got.frame.payload, "held");
  EXPECT_EQ(pair.b->recv_frame(5000).status, proc::ReadStatus::kEof);
}

// A held reordered frame must not deadlock a request/reply exchange: the
// wrapper flushes it before blocking in recv.
TEST(FaultyConnection, RecvFlushesHeldFrame) {
  SocketPair pair;
  FaultyConnection chaotic(std::move(pair.a),
                           only(&FaultPlan::Net::reorder, 1.0));
  ASSERT_TRUE(chaotic.send_frame(proc::FrameType::kFetch, "request"));
  std::thread peer([&] {
    const proc::ReadResult request = pair.b->recv_frame(5000);
    ASSERT_TRUE(request) << request.error;
    EXPECT_EQ(request.frame.payload, "request");
    ASSERT_TRUE(pair.b->send_frame(proc::FrameType::kObject, "reply"));
  });
  const proc::ReadResult reply = chaotic.recv_frame(5000);
  peer.join();
  ASSERT_TRUE(reply) << reply.error;
  EXPECT_EQ(reply.frame.payload, "reply");
}

// partition=1.0: sends blackhole (pretending success) for the window,
// then flow resumes.
TEST(FaultyConnection, PartitionBlackholesOneDirectionForAWindow) {
  SocketPair pair;
  FaultPlan plan = only(&FaultPlan::Net::partition, 1.0);
  plan.net.partition_ms = 150.0;
  FaultyConnection chaotic(std::move(pair.a), plan);
  ASSERT_TRUE(chaotic.send_frame(proc::FrameType::kResult, "eaten"));
  EXPECT_EQ(pair.b->recv_frame(50).status, proc::ReadStatus::kTimeout);
  // The reverse direction stays up (one-way partition).
  ASSERT_TRUE(pair.b->send_frame(proc::FrameType::kResult, "upstream"));
  const proc::ReadResult up = chaotic.recv_frame(5000);
  ASSERT_TRUE(up) << up.error;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Window over — but under partition=1.0 every later send re-rolls a new
  // window, so assert via a config with a one-shot window instead: after
  // the wait, a fresh frame must still be eaten only by a NEW roll. Here
  // we just assert the wrapper survived the window.
  EXPECT_TRUE(chaotic.valid());
}

// --- Socket-boundary malformed input ----------------------------------

TEST(SocketBoundary, TornFrameMidPayloadReadsAsError) {
  SocketPair pair;
  const std::vector<char> frame =
      proc::encode_frame(proc::FrameType::kResult, "abcdefgh");
  ASSERT_TRUE(pair.a->send_raw({frame.data(), 9}));  // header + 4 of 8 bytes
  pair.a->close();
  const proc::ReadResult got = pair.b->recv_frame(5000);
  EXPECT_EQ(got.status, proc::ReadStatus::kError);
  EXPECT_NE(got.error.find("truncated"), std::string::npos);
}

TEST(SocketBoundary, OversizedLengthRejected) {
  SocketPair pair;
  const std::uint32_t length = proc::kMaxFramePayload + 1;
  const char header[5] = {
      static_cast<char>(length & 0xff),
      static_cast<char>((length >> 8) & 0xff),
      static_cast<char>((length >> 16) & 0xff),
      static_cast<char>((length >> 24) & 0xff),
      static_cast<char>(proc::FrameType::kObject)};
  ASSERT_TRUE(pair.a->send_raw({header, sizeof(header)}));
  const proc::ReadResult got = pair.b->recv_frame(5000);
  EXPECT_EQ(got.status, proc::ReadStatus::kError);
  EXPECT_NE(got.error.find("exceeds"), std::string::npos);
}

TEST(SocketBoundary, UnknownTypeByteRejected) {
  SocketPair pair;
  const char header[5] = {0, 0, 0, 0, 0x6e};
  ASSERT_TRUE(pair.a->send_raw({header, sizeof(header)}));
  const proc::ReadResult got = pair.b->recv_frame(5000);
  EXPECT_EQ(got.status, proc::ReadStatus::kError);
  EXPECT_NE(got.error.find("unknown frame type"), std::string::npos);
}

// --- EINTR hardening ---------------------------------------------------

/// Installs a no-op SIGUSR1 handler WITHOUT SA_RESTART for the test's
/// lifetime, so every signal delivery interrupts blocking syscalls with
/// EINTR instead of transparently restarting them.
class InterruptingSignal {
 public:
  InterruptingSignal() {
    struct sigaction action {};
    action.sa_handler = [](int) {};
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // deliberately no SA_RESTART
    sigaction(SIGUSR1, &action, &previous_);
  }
  ~InterruptingSignal() { sigaction(SIGUSR1, &previous_, nullptr); }

 private:
  struct sigaction previous_ {};
};

/// Hammers `target` with SIGUSR1 every few milliseconds until stopped.
class SignalStorm {
 public:
  explicit SignalStorm(pthread_t target)
      : thread_([this, target] {
          while (!stop_.load()) {
            pthread_kill(target, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
          }
        }) {}
  ~SignalStorm() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// The regression this guards: accept()'s poll used to return nullptr on
// EINTR, so a single stray signal read as "no client within the timeout".
// Under a storm of signals the accept must still honor its full deadline
// (EINTR retried against the original deadline, not aborted, not reset).
TEST(Eintr, ListenerAcceptHonorsDeadlineUnderSignalStorm) {
  const InterruptingSignal handler;
  TcpListener listener("127.0.0.1", 0);
  const auto started = Clock::now();
  {
    const SignalStorm storm(pthread_self());
    EXPECT_EQ(listener.accept(250), nullptr);
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - started);
  EXPECT_GE(elapsed.count(), 200);   // not cut short by EINTR
  EXPECT_LT(elapsed.count(), 5000);  // not restarted-forever either
}

// And the frame read path: a frame that arrives WHILE signals interrupt
// the reader must still be delivered whole.
TEST(Eintr, RecvFrameSurvivesSignalStorm) {
  const InterruptingSignal handler;
  SocketPair pair;
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(pair.a->send_frame(proc::FrameType::kResult,
                                   std::string(100'000, 'x')));
  });
  {
    const SignalStorm storm(pthread_self());
    const proc::ReadResult got = pair.b->recv_frame(5000);
    ASSERT_TRUE(got) << got.error;
    EXPECT_EQ(got.frame.payload.size(), 100'000u);
  }
  sender.join();
}

// accept() interrupted while a client IS arriving must deliver it.
TEST(Eintr, AcceptDeliversClientUnderSignalStorm) {
  const InterruptingSignal handler;
  TcpListener listener("127.0.0.1", 0);
  std::unique_ptr<TcpConnection> client;
  std::thread dialer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    client = TcpConnection::connect("127.0.0.1", listener.port(), 5000);
  });
  {
    const SignalStorm storm(pthread_self());
    EXPECT_NE(listener.accept(5000), nullptr);
  }
  dialer.join();
  EXPECT_NE(client, nullptr);
}

}  // namespace
}  // namespace anacin::net
