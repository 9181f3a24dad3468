// The wire cost of the distributed fabric: frame encode/decode throughput
// for the unified codec (what every unit, object, and heartbeat pays) and
// the loopback TCP round-trip latency of one framed request/response —
// the per-unit floor `anacin serve` adds over a local worker pool. Every
// frame benchmark runs at both protocol versions (second arg: 1 = legacy
// no-trailer framing, 2 = CRC32C trailer), so the integrity tax of v2 is
// a first-class, regression-gated number: the CI perf-gate job asserts
// the v2 loopback round trip stays within 5% of v1 at 64 bytes (the
// control-plane frame size, where the CRC hides under the syscalls) and
// within a coarse ceiling at 4 KiB (bulk frames are throughput-bound:
// four CRC passes per round trip at ~10 GB/s — see BM_Crc32c — are an
// irreducible fraction of loopback bandwidth), and archives the run
// against the committed BENCH_net.json baseline.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "proc/protocol.hpp"
#include "support/crc32c.hpp"

using namespace anacin;

namespace {

std::string payload_of(std::size_t size) {
  std::string payload(size, '\0');
  // Deterministic non-trivial bytes so memcmp-style dedup can't cheat.
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<char>((i * 131u + 7u) & 0xffu);
  }
  return payload;
}

std::uint16_t version_arg(const benchmark::State& state) {
  return static_cast<std::uint16_t>(state.range(1));
}

/// Raw CRC32C throughput — the ceiling on what the v2 trailer can cost.
/// Picks the hardware (SSE4.2) path where available, slice-by-8 otherwise.
void BM_Crc32c(benchmark::State& state) {
  const std::string payload = payload_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        support::crc32c(payload.data(), payload.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4 << 10)->Arg(256 << 10);

/// encode_frame: one header + memcpy (+ CRC32C at v2) per frame; the
/// write path of both transports.
void BM_FrameEncode(benchmark::State& state) {
  const std::string payload = payload_of(static_cast<std::size_t>(state.range(0)));
  const std::uint16_t version = version_arg(state);
  for (auto _ : state) {
    const std::vector<char> buffer =
        proc::encode_frame(proc::FrameType::kObject, payload, version);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(payload.size() + proc::frame_overhead(version)));
}
BENCHMARK(BM_FrameEncode)
    ->Args({64, 1})->Args({64, 2})
    ->Args({4 << 10, 1})->Args({4 << 10, 2})
    ->Args({256 << 10, 1})->Args({256 << 10, 2});

/// Header parse + payload read (+ trailer verify at v2) through a pipe —
/// the read path, including the syscalls a real frame costs.
void BM_FrameDecodeThroughPipe(benchmark::State& state) {
  const std::string payload = payload_of(static_cast<std::size_t>(state.range(0)));
  const std::uint16_t version = version_arg(state);
  int fds[2];
  if (::pipe(fds) != 0) {
    state.SkipWithError("pipe() failed");
    return;
  }
  for (auto _ : state) {
    if (!proc::write_frame(fds[1], proc::FrameType::kObject, payload,
                           version)) {
      state.SkipWithError("write_frame failed");
      break;
    }
    const proc::ReadResult got = proc::read_frame(fds[0], 10'000, version);
    if (!got) {
      state.SkipWithError("read_frame failed");
      break;
    }
    benchmark::DoNotOptimize(got.frame.payload.data());
  }
  ::close(fds[0]);
  ::close(fds[1]);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(payload.size() + proc::frame_overhead(version)));
}
// Pipe capacity bounds the in-flight frame; stay under 64 KiB.
BENCHMARK(BM_FrameDecodeThroughPipe)
    ->Args({64, 1})->Args({64, 2})
    ->Args({4 << 10, 1})->Args({4 << 10, 2})
    ->Args({48 << 10, 1})->Args({48 << 10, 2});

/// One framed request/response over loopback TCP — the synchronous
/// per-unit round trip between scheduler and agent. The echo peer mirrors
/// an agent answering a kRequest with a kResult. Comparing the v1 and v2
/// rows of this benchmark is the end-to-end CRC overhead the CI gate
/// enforces: two checksum computations and two verifications per
/// iteration. At 64 bytes they bury under the four syscalls (<5% gate);
/// at larger sizes the four passes are a fixed fraction of loopback
/// bandwidth and the gate is a coarse regression ceiling instead.
void BM_LoopbackRoundTrip(benchmark::State& state) {
  const std::uint16_t version = version_arg(state);
  net::TcpListener listener("127.0.0.1", 0);
  std::unique_ptr<net::TcpConnection> client;
  std::thread dialer([&] {
    client = net::TcpConnection::connect("127.0.0.1", listener.port(), 5000);
  });
  std::unique_ptr<net::TcpConnection> server = listener.accept(5000);
  dialer.join();
  if (server == nullptr || client == nullptr) {
    state.SkipWithError("loopback connect failed");
    return;
  }
  client->set_version(version);
  server->set_version(version);

  std::thread echo([&] {
    for (;;) {
      proc::ReadResult request = server->recv_frame(-1);
      if (!request) break;  // client closed: bench finished
      if (!server->send_frame(proc::FrameType::kResult,
                              request.frame.payload)) {
        break;
      }
    }
  });

  const std::string payload = payload_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    if (!client->send_frame(proc::FrameType::kRequest, payload)) {
      state.SkipWithError("send failed");
      break;
    }
    const proc::ReadResult reply = client->recv_frame(10'000);
    if (!reply) {
      state.SkipWithError("recv failed");
      break;
    }
    benchmark::DoNotOptimize(reply.frame.payload.data());
  }

  client->close();
  echo.join();
  server->close();
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 2 *
      static_cast<std::int64_t>(payload.size() + proc::frame_overhead(version)));
}
BENCHMARK(BM_LoopbackRoundTrip)
    ->Args({64, 1})->Args({64, 2})
    ->Args({4 << 10, 1})->Args({4 << 10, 2})
    ->Args({256 << 10, 1})->Args({256 << 10, 2});

}  // namespace

BENCHMARK_MAIN();
