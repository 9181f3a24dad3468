#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"
#include "support/rng.hpp"

namespace anacin::sim {

class Engine;
class Comm;

/// RAII handle pushing a named frame onto the rank's simulated callstack.
/// Every MPI event recorded while the scope is alive carries the frame in
/// its call path — this is how the root-cause analysis (paper Fig. 8)
/// attributes non-determinism to source locations.
class CallScope {
public:
  CallScope(CallScope&& other) noexcept : comm_(other.comm_) {
    other.comm_ = nullptr;
  }
  CallScope& operator=(CallScope&&) = delete;
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;
  ~CallScope();

private:
  friend class Comm;
  explicit CallScope(Comm* comm) : comm_(comm) {}
  Comm* comm_;
};

/// Communication interface handed to simulated rank programs.
///
/// The API mirrors the MPI point-to-point calls the paper's course module
/// teaches (Send/Isend/Ssend/Recv/Irecv/Wait/Waitany/Waitall with
/// MPI_ANY_SOURCE and MPI_ANY_TAG), plus a set of collectives composed
/// from point-to-point messages. All virtual time and randomness is managed
/// by the engine, so a program using only this interface is reproducible
/// from the run seed.
///
/// Every rank runs as a fiber on the thread that called Engine::run(), so
/// all ranks of a simulation share that thread's thread-local state. Two
/// rules follow for rank programs:
///  - Open no obs span (ANACIN_SPAN): the span depth is thread-local.
///  - Call no Comm method inside a `catch` handler: the C++ runtime keeps
///    one caught-exception stack per thread, and a blocking call switches
///    to another rank's fiber while the handler is still active.
/// A rank's stack is 256 KiB; a program that recurses past it dies on the
/// stack's guard page.
class Comm {
public:
  Comm(Engine* engine, int rank);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const { return rank_; }
  int size() const;
  /// Compute node hosting this rank (block mapping).
  int node() const;
  int num_nodes() const;

  /// Advance this rank's virtual clock by `microseconds` of local work.
  void compute(double microseconds);

  /// Buffered send: completes locally, message delivered asynchronously.
  void send(int dest, int tag = 0, Payload payload = {},
            std::uint32_t size_hint = 0);
  /// Nonblocking buffered send; retire with wait().
  [[nodiscard]] Request isend(int dest, int tag = 0, Payload payload = {},
                              std::uint32_t size_hint = 0);
  /// Synchronous send: blocks until the message is matched by a receive.
  void ssend(int dest, int tag = 0, Payload payload = {},
             std::uint32_t size_hint = 0);
  /// Nonblocking synchronous send; the request completes at match time.
  [[nodiscard]] Request issend(int dest, int tag = 0, Payload payload = {},
                               std::uint32_t size_hint = 0);

  /// Blocking receive. `source`/`tag` may be kAnySource / kAnyTag.
  RecvResult recv(int source = kAnySource, int tag = kAnyTag);
  /// Nonblocking receive; retire with wait()/wait_any()/wait_all().
  [[nodiscard]] Request irecv(int source = kAnySource, int tag = kAnyTag);

  RecvResult wait(Request request);
  WaitAnyResult wait_any(std::span<const Request> requests);
  std::vector<RecvResult> wait_all(std::span<const Request> requests);

  /// Block until a matching message is available without receiving it
  /// (mirrors MPI_Probe). Probe-then-recv(source) is itself a root source
  /// of non-determinism when used with kAnySource.
  ProbeResult probe(int source = kAnySource, int tag = kAnyTag);
  /// Nonblocking probe; empty when no matching message has arrived yet.
  std::optional<ProbeResult> iprobe(int source = kAnySource,
                                    int tag = kAnyTag);

  /// Combined send+receive without deadlock (mirrors MPI_Sendrecv).
  RecvResult sendrecv(int dest, int send_tag, Payload payload, int source,
                      int recv_tag);

  // --- collectives, composed from point-to-point messages -----------------
  /// Reduction operators for reduce/allreduce/scan.
  enum class ReduceOp { kSum, kMin, kMax };

  /// Dissemination barrier.
  void barrier();
  /// Binary-tree broadcast; returns the root's payload on every rank.
  Payload broadcast(int root, Payload value = {});
  /// Binary-tree reduction; result valid on root only (0.0 elsewhere).
  /// Children combine in a fixed order, so floating-point results are
  /// bit-stable across runs.
  double reduce(int root, double value, ReduceOp op);
  double reduce_sum(int root, double value);
  /// reduce to rank 0 followed by a broadcast.
  double allreduce(double value, ReduceOp op);
  double allreduce_sum(double value);
  /// Gather payloads to root; on root, result[i] is rank i's payload.
  std::vector<Payload> gather(int root, Payload value);
  /// Gather to rank 0 then broadcast: every rank gets all payloads.
  std::vector<Payload> allgather(Payload value);
  /// Root sends chunks[i] to rank i; returns this rank's chunk.
  Payload scatter(int root, std::vector<Payload> chunks = {});
  /// Inclusive prefix sum: rank r gets sum of values from ranks 0..r.
  double scan_sum(double value);
  /// Personalized all-to-all exchange; send_buffers[i] goes to rank i,
  /// result[i] came from rank i.
  std::vector<Payload> all_to_all(std::vector<Payload> send_buffers);

  // --- instrumentation -----------------------------------------------------
  /// Push a named frame for root-cause callstack attribution.
  [[nodiscard]] CallScope scoped_frame(std::string_view name);
  /// Deterministic per-rank random stream (varies with the run seed).
  Rng& rng();

private:
  friend class CallScope;
  void pop_frame();
  int next_collective_tag();

  Engine* engine_;
  int rank_;
  int collective_counter_ = 0;
};

}  // namespace anacin::sim
