#pragma once

#include <ucontext.h>

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/replay_schedule.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace anacin::sim {

class Comm;

/// A simulated MPI program: one function body executed by every rank
/// (SPMD), branching on `comm.rank()` exactly like a real MPI application.
using RankProgram = std::function<void(Comm&)>;

struct RunStats {
  std::uint64_t messages = 0;
  std::uint64_t jittered_messages = 0;
  std::uint64_t wildcard_recvs = 0;
  std::uint64_t calls = 0;
  /// Receives completed by matching a message (posted or unexpected).
  std::uint64_t matched_messages = 0;
  /// High-water mark of any rank's unexpected-message queue.
  std::uint64_t max_unexpected_depth = 0;
  /// Fault injection (see sim/faults.hpp): transmission attempts dropped,
  /// retransmissions issued (equal under the bounded-retry model),
  /// duplicate deliveries discarded, and ranks that stretched a compute
  /// phase as stragglers / slow-node residents.
  std::uint64_t drops = 0;
  std::uint64_t retries = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t straggler_events = 0;
  double makespan_us = 0.0;
};

/// Outcome of one simulated execution.
struct RunResult {
  trace::Trace trace;
  RunStats stats;
};

/// Deterministic discrete-event engine executing a RankProgram on
/// `config.num_ranks` simulated MPI processes.
///
/// Concurrency model: each rank runs as a fiber (a ucontext with its own
/// guarded stack) on the thread that calls run(), and the engine switches
/// to exactly one rank at a time, so execution is sequential and fully
/// deterministic and a simulation creates no OS threads. The engine always
/// advances the entity with the smallest virtual timestamp — either a rank
/// that is ready to execute its next program step, or the in-flight message
/// with the earliest delivery time. Ties break on a monotonically increasing
/// sequence number.
///
/// Non-determinism across runs therefore comes from one place only: the
/// seeded NetworkModel jitter, i.e. the paper's "percentage of
/// non-determinism" knob. Identical (program, SimConfig) pairs produce
/// bit-identical traces.
///
/// Message matching follows the MPI standard: per-(source, destination)
/// channels are FIFO (no overtaking), receives match posted-order first and
/// unexpected-arrival-order second, and `kAnySource` receives race between
/// channels — the root source of communication non-determinism.
class Engine {
public:
  Engine(SimConfig config, RankProgram program);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Execute the program to completion. Callable exactly once.
  RunResult run();

  int num_ranks() const { return config_.num_ranks; }
  int num_nodes() const { return config_.num_nodes; }
  int node_of(int rank) const { return config_.node_of(rank); }

private:
  friend class Comm;

  enum class CallKind : std::uint8_t {
    kCompute,
    kSend,
    kRecv,
    kIrecv,
    kWait,
    kWaitAny,
    kWaitAll,
    kProbe,
    kIprobe,
  };

  enum class SendMode : std::uint8_t {
    kBuffered,
    kSync,
    kNonblocking,
    kNonblockingSync,
  };

  /// One MPI call crossing from a rank fiber into the engine. Lives on the
  /// rank fiber's stack; the engine accesses it only while the fiber is
  /// suspended.
  struct Call {
    CallKind kind = CallKind::kCompute;
    // send parameters
    SendMode send_mode = SendMode::kBuffered;
    int peer = -1;
    int tag = 0;
    Payload payload;
    std::uint32_t size_hint = 0;
    // recv parameters
    int src_filter = kAnySource;
    int tag_filter = kAnyTag;
    double compute_us = 0.0;
    // wait parameters
    std::vector<std::uint64_t> request_ids;
    // outputs
    std::uint64_t out_request = 0;
    RecvResult out_recv;
    std::size_t out_index = 0;
    std::vector<RecvResult> out_recv_all;
    bool out_flag = false;        // iprobe: message available
    ProbeResult out_probe;        // probe/iprobe result
  };

  enum class RankState : std::uint8_t { kReady, kBlocked, kDone };
  enum class BlockKind : std::uint8_t {
    kNone,
    kRecv,
    kWaitOne,
    kWaitAny,
    kWaitAll,
    kSyncSend,
    kProbe,
  };

  struct PostedRecv {
    std::uint64_t request_id = 0;
    int src_filter = kAnySource;
    int tag_filter = kAnyTag;
  };

  struct ArrivedMsg {
    int src = -1;
    int tag = 0;
    Payload payload;
    std::int64_t src_seq = -1;
    std::uint32_t size = 0;
    double deliver_time = 0.0;
    bool jittered = false;
    std::uint64_t order = 0;
    /// Sender-side request id for synchronous sends (0 otherwise).
    std::uint64_t sync_send_request = 0;
    /// Spurious duplicate injected by the fault model; detected at the
    /// receiver (by sequence number) and discarded, never matched.
    bool duplicate = false;
  };

  struct TransitMsg {
    int dst = -1;
    ArrivedMsg msg;
  };

  struct RequestState {
    bool is_recv = false;
    bool sync_send = false;
    bool complete = false;
    double post_time = 0.0;
    double complete_time = 0.0;
    std::uint64_t completion_order = 0;
    int src_filter = kAnySource;
    int tag_filter = kAnyTag;
    std::uint32_t callstack_id = 0;
    RecvResult result;
    int matched_rank = -1;
    std::int64_t matched_seq = -1;
    bool jittered = false;
    std::uint32_t size = 0;
  };

  struct RankCtx {
    RankCtx() = default;
    RankCtx(const RankCtx&) = delete;
    RankCtx& operator=(const RankCtx&) = delete;
    /// Unmaps the fiber's stack; the fiber must not be suspended mid-call.
    ~RankCtx();

    int rank = -1;
    /// The rank's fiber: saved registers and the stack mapping (a PROT_NONE
    /// guard page below the usable stack).
    ucontext_t fiber{};
    void* stack_mapping = nullptr;
    /// Sanitizer state of the fiber, unused without sanitizers: ASan's fake
    /// stack while the fiber is suspended, and TSan's fiber handle.
    void* asan_fake_stack = nullptr;
    void* tsan_fiber = nullptr;
    RankState state = RankState::kReady;
    double clock = 0.0;
    /// Pending/in-progress call, owned by the rank fiber's stack.
    Call* call = nullptr;
    bool has_pending_call = false;
    bool call_done = false;
    /// `started`: the fiber has run. `finished`: it has returned, normally,
    /// by error or by abort.
    bool started = false;
    bool finished = false;
    std::exception_ptr error;
    BlockKind block_kind = BlockKind::kNone;
    std::deque<PostedRecv> posted;
    std::deque<ArrivedMsg> unexpected;
    std::unordered_map<std::uint64_t, RequestState> requests;
    std::uint64_t next_request = 1;
    std::vector<std::string> frames;
    std::size_t replay_cursor = 0;
    bool draining_replay = false;
    /// Under replay, wildcard completions are delivered in schedule order:
    /// a message matched out of its arrival order completes no earlier than
    /// its predecessors in the schedule (the replay tool "holds" it).
    /// Freed schedule entries (Match::pinned == false) neither honour nor
    /// advance the floor, so an all-freed replay matches an unconstrained
    /// run byte for byte.
    double replay_time_floor = 0.0;
    /// (source, send_seq) pairs already matched by *some* receive on this
    /// rank during replay. With part of the schedule freed, a racing freed
    /// completion or an explicit-source receive can consume the message a
    /// later pinned entry forces; that entry then falls back to free
    /// matching instead of deadlocking the candidate replay.
    std::set<std::pair<std::int32_t, std::int64_t>> consumed_matches;
    /// One straggler fault event is recorded per affected rank per run,
    /// on its first stretched compute phase.
    bool straggler_event_recorded = false;
    Rng rng;
  };

  struct AbortSignal {};

  // --- entry points used by Comm (called on rank fibers) ---
  void rank_call(int rank, Call& call);
  void push_frame(int rank, std::string frame);
  void pop_frame(int rank);
  Rng& rank_rng(int rank);

  // --- fiber switching ---
  void start_fibers();
  void resume_rank(RankCtx& ctx);
  void yield_to_engine(RankCtx& ctx);
  /// Resume every suspended fiber once so that it unwinds.
  void abort_all_ranks();
  static void fiber_entry(unsigned engine_hi, unsigned engine_lo, int rank);
  void rank_fiber_main(RankCtx& ctx);

  // --- engine mechanics (engine context only) ---
  void main_loop();
  void step_rank(RankCtx& ctx);
  void process_call(RankCtx& ctx, Call& call);
  void process_delivery();
  void do_send(RankCtx& ctx, Call& call);
  void do_recv(RankCtx& ctx, Call& call);
  void do_irecv(RankCtx& ctx, Call& call);
  void do_wait(RankCtx& ctx, Call& call);
  void do_wait_any(RankCtx& ctx, Call& call);
  void do_wait_all(RankCtx& ctx, Call& call);
  void do_probe(RankCtx& ctx, Call& call);
  void do_iprobe(RankCtx& ctx, Call& call);
  /// First unexpected message matching the filters, or nullptr.
  const ArrivedMsg* find_unexpected(const RankCtx& ctx, int src_filter,
                                    int tag_filter) const;

  std::uint64_t new_recv_request(RankCtx& ctx, int src_filter, int tag_filter,
                                 std::uint32_t callstack_id);
  bool match_allowed(const RankCtx& ctx, int src_filter,
                     const ArrivedMsg& msg) const;
  bool filters_match(int src_filter, int tag_filter,
                     const ArrivedMsg& msg) const;
  /// Try to satisfy a just-posted receive from the unexpected queue.
  bool try_match_unexpected(RankCtx& ctx, std::uint64_t request_id);
  /// After a replay-cursor advance, posted wildcard receives may newly
  /// match queued unexpected messages; drain all such pairs.
  void drain_replay_matches(RankCtx& ctx);
  void complete_recv_request(RankCtx& ctx, std::uint64_t request_id,
                             ArrivedMsg msg, double match_time);
  void complete_sync_send(std::uint64_t request_id, int sender_rank,
                          double match_time);
  void maybe_unblock(RankCtx& ctx);

  void finish_recv_like(RankCtx& ctx, Call& call, std::uint64_t request_id,
                        bool record_event_flag);
  void record_recv_event(RankCtx& ctx, const RequestState& request);
  /// Append a kFault event on `ctx` at its current clock. `cause` becomes
  /// the event's callstack path (FAULT_retransmit / FAULT_duplicate /
  /// FAULT_straggler), so fault kinds are distinguishable under every
  /// label policy that looks at callstacks, and fault presence under all
  /// of them (distinct node type).
  void record_fault_event(RankCtx& ctx, int peer, int tag,
                          std::uint32_t size_bytes, std::string_view cause);
  void record_init_events();
  void record_finalize_event(RankCtx& ctx);
  std::uint32_t callstack_id(RankCtx& ctx, std::string_view mpi_function);

  RequestState& request_state(RankCtx& ctx, std::uint64_t request_id);
  [[noreturn]] void throw_deadlock();

  void push_transit(TransitMsg msg);
  TransitMsg pop_transit();

  SimConfig config_;
  RankProgram program_;
  NetworkModel network_;
  FaultModel faults_;
  trace::Trace trace_;
  RunStats stats_;
  const ReplaySchedule* replay_ = nullptr;

  std::vector<std::unique_ptr<RankCtx>> ranks_;
  std::vector<TransitMsg> transit_;  // binary min-heap by (deliver_time, order)
  std::unordered_map<std::uint64_t, double> channel_last_delivery_;
  std::uint64_t order_counter_ = 0;
  std::uint64_t completion_counter_ = 0;
  std::uint64_t processed_calls_ = 0;
  std::uint64_t matched_messages_ = 0;
  std::uint64_t max_unexpected_depth_ = 0;
  bool ran_ = false;

  /// The context run() switches out of and every rank fiber back into,
  /// with the bounds ASan reports for its stack and its TSan fiber.
  ucontext_t engine_context_{};
  const void* engine_stack_bottom_ = nullptr;
  std::size_t engine_stack_size_ = 0;
  void* engine_tsan_fiber_ = nullptr;
  /// Set for teardown: a resumed fiber throws AbortSignal.
  bool aborting_ = false;
};

}  // namespace anacin::sim
