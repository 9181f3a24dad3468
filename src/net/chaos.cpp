#include "net/chaos.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace anacin::net {

namespace {

/// Process-wide connection serial: the per-connection fault stream is
/// derived from (seed, serial), so two agents wrapped with the same seed
/// inside one process still fault independently.
std::uint64_t next_connection_serial() {
  static std::atomic<std::uint64_t> serial{0};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

struct FaultyConnection::Impl {
  support::SendFaults faults;
  std::mutex mutex;        // guards faults and held
  std::vector<char> held;  // reorder buffer (at most one frame)

  explicit Impl(const support::FaultPlan& plan)
      : faults(plan, next_connection_serial()) {}

  /// Send the held (reordered) frame, if any. Caller holds `mutex`.
  void flush_held(Connection& inner) {
    if (held.empty()) return;
    std::vector<char> frame;
    frame.swap(held);
    inner.send_raw({frame.data(), frame.size()});
  }
};

FaultyConnection::FaultyConnection(std::unique_ptr<Connection> inner,
                                   const support::FaultPlan& plan)
    : inner_(std::move(inner)), impl_(std::make_unique<Impl>(plan)) {}

FaultyConnection::~FaultyConnection() { close(); }

bool FaultyConnection::valid() const { return inner_->valid(); }

void FaultyConnection::close() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->flush_held(*inner_);
  }
  inner_->close();
}

bool FaultyConnection::send_frame(proc::FrameType type,
                                  std::string_view payload) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!inner_->valid()) return false;

  // Encode at the connection's version before deciding, so a corruption
  // lands AFTER the CRC32C trailer is computed — the receiver's CRC check
  // must fail.
  std::vector<char> frame =
      proc::encode_frame(type, payload, inner_->version());
  if (frame.empty()) return false;  // oversized payload

  using Kind = support::SendFaults::Decision::Kind;
  const support::SendFaults::Decision fault =
      impl_->faults.next_send(frame.size(), impl_->held.empty());
  switch (fault.kind) {
    case Kind::kReset:
      // Tear the transport down: the sender sees a failed write, the peer
      // EOF. The reset also eats any held frame.
      impl_->held.clear();
      inner_->close();
      return false;
    case Kind::kPartition:
    case Kind::kDrop:
      // Gone, yet the send reports success — exactly how a blackholing
      // middlebox looks; the liveness machinery must notice.
      return true;
    case Kind::kSend:
      break;
  }
  if (fault.delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(fault.delay_ms));
  }
  if (fault.corrupt_offset != 0) {
    frame[fault.corrupt_offset] =
        static_cast<char>(frame[fault.corrupt_offset] ^ 0xff);
  }
  if (fault.hold) {
    // Held; it goes out after the next send (or is flushed by the next
    // recv/close so a request/response peer cannot deadlock).
    impl_->held = std::move(frame);
    return true;
  }
  const bool sent = inner_->send_raw({frame.data(), frame.size()});
  impl_->flush_held(*inner_);
  return sent;
}

bool FaultyConnection::send_raw(std::string_view bytes) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const bool sent = inner_->send_raw(bytes);
  impl_->flush_held(*inner_);
  return sent;
}

proc::ReadResult FaultyConnection::recv_frame(int timeout_ms) {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->flush_held(*inner_);
  }
  return inner_->recv_frame(timeout_ms);
}

std::uint16_t FaultyConnection::version() const { return inner_->version(); }

void FaultyConnection::set_version(std::uint16_t version) {
  inner_->set_version(version);
}

std::unique_ptr<Connection> maybe_wrap_faults(
    std::unique_ptr<Connection> conn) {
  const support::FaultPlan* plan = support::installed_fault_plan();
  if (plan == nullptr || !plan->net.enabled()) return conn;
  return std::make_unique<FaultyConnection>(std::move(conn), *plan);
}

}  // namespace anacin::net
