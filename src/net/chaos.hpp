#pragma once

#include <cstdint>
#include <memory>

#include "net/socket.hpp"
#include "support/fault_plan.hpp"

namespace anacin::net {

/// A Connection decorator that applies a fault plan's net.* faults to the
/// send path. The wrapped connection does the real I/O; the plan's
/// per-connection stream (support::SendFaults) decides, per frame, whether
/// the bytes go out clean, corrupted, late, out of order, or not at all.
/// Faults are injected at the frame boundary, which keeps the TCP stream
/// byte-aligned — a corrupted frame still parses as a frame, it just fails
/// its CRC32C check. recv_frame passes through untouched (apart from
/// flushing a held reordered frame first, so a request/response peer
/// can't deadlock behind the reorder buffer).
///
/// Determinism contract: the fault sequence is a pure function of
/// (plan seed, connection serial, frame index on this connection).
class FaultyConnection : public Connection {
 public:
  /// Wrap `inner`, deriving this connection's fault stream from the plan
  /// seed and a process-wide connection serial (so two connections in one
  /// process fault independently).
  FaultyConnection(std::unique_ptr<Connection> inner,
                   const support::FaultPlan& plan);
  ~FaultyConnection() override;

  bool valid() const override;
  void close() override;
  bool send_frame(proc::FrameType type, std::string_view payload) override;
  bool send_raw(std::string_view bytes) override;
  proc::ReadResult recv_frame(int timeout_ms = -1) override;
  std::uint16_t version() const override;
  void set_version(std::uint16_t version) override;

  /// The wrapped connection (tests reach through to the TcpConnection).
  Connection& inner() { return *inner_; }

 private:
  struct Impl;
  std::unique_ptr<Connection> inner_;
  std::unique_ptr<Impl> impl_;
};

/// Wrap `conn` in a FaultyConnection when the installed fault plan has any
/// net fault enabled; otherwise return it unchanged (zero overhead on the
/// clean path).
std::unique_ptr<Connection> maybe_wrap_faults(
    std::unique_ptr<Connection> conn);

}  // namespace anacin::net
