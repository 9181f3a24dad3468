#include "sim/engine.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "obs/obs.hpp"
#include "sim/comm.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "trace/callstack.hpp"

namespace anacin::sim {

namespace {

/// Minimum spacing between deliveries in the same (src, dst) channel.
/// Enforces the MPI non-overtaking rule: matching order per channel equals
/// send order, even when jitter would reorder raw network arrival.
constexpr double kChannelFifoEpsilon = 1e-9;

/// Usable stack of one rank fiber. A PROT_NONE guard page sits below it,
/// so an overflow faults instead of writing into a neighbouring mapping.
constexpr std::size_t kFiberStackBytes = 256 * 1024;

std::size_t page_size() {
  static const auto size = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

SimConfig validated(SimConfig config) {
  config.validate();
  return config;
}

// Sanitizer fiber hooks, no-ops without the sanitizer. ASan must learn the
// bounds of the stack each switch lands on (or it reports a throwing rank
// program as a stack-buffer-overflow), and TSan which fiber runs.

/// Announce a switch to `tsan_fiber`, whose stack is [bottom, bottom+size).
/// `fake_stack_save` keeps ASan's fake stack of the context being left; it
/// is null when that context never runs again.
void start_switch([[maybe_unused]] void** fake_stack_save,
                  [[maybe_unused]] const void* bottom,
                  [[maybe_unused]] std::size_t size,
                  [[maybe_unused]] void* tsan_fiber) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
}

/// First call after a switch lands; reports the stack that was left.
void finish_switch([[maybe_unused]] void* fake_stack_save,
                   [[maybe_unused]] const void** bottom_old,
                   [[maybe_unused]] std::size_t* size_old) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

}  // namespace

Engine::Engine(SimConfig config, RankProgram program)
    : config_(validated(std::move(config))),
      program_(std::move(program)),
      network_(config_.network, config_,
               Rng(config_.seed).derive(0xC0FFEEull)),
      // The fault model draws from its own derived stream: enabling or
      // disabling faults never shifts the network/rank RNG sequences.
      faults_(config_.faults, config_.num_ranks, config_.num_nodes,
              Rng(config_.seed).derive(0xFA017Bull)),
      trace_(config_.num_ranks, config_.num_nodes),
      replay_(config_.replay) {
  ANACIN_CHECK(program_ != nullptr, "rank program must be callable");
  ranks_.reserve(static_cast<std::size_t>(config_.num_ranks));
  for (int r = 0; r < config_.num_ranks; ++r) {
    auto ctx = std::make_unique<RankCtx>();
    ctx->rank = r;
    ctx->rng = Rng(config_.seed)
                   .derive(hash_combine(0x52414E4Bull,
                                        static_cast<std::uint64_t>(r)));
    ranks_.push_back(std::move(ctx));
  }
}

Engine::RankCtx::~RankCtx() {
  if (stack_mapping == nullptr) return;
  const std::size_t bytes = page_size() + kFiberStackBytes;
#if defined(__SANITIZE_ADDRESS__)
  // The stack may still carry redzones of frames that never returned; a
  // later mapping at this address must not inherit them.
  ASAN_UNPOISON_MEMORY_REGION(stack_mapping, bytes);
#endif
  ::munmap(stack_mapping, bytes);
#if defined(__SANITIZE_THREAD__)
  if (tsan_fiber != nullptr) __tsan_destroy_fiber(tsan_fiber);
#endif
}

// --------------------------------------------------------------------------
// Fiber switching
// --------------------------------------------------------------------------

void Engine::start_fibers() {
#if defined(__SANITIZE_THREAD__)
  engine_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  const std::size_t guard = page_size();
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  for (auto& ctx : ranks_) {
    void* mapping = ::mmap(nullptr, guard + kFiberStackBytes,
                           PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (mapping == MAP_FAILED) {
      throw Error(std::string("cannot map a rank stack: ") +
                  std::strerror(errno));
    }
    ctx->stack_mapping = mapping;
    if (::mprotect(mapping, guard, PROT_NONE) != 0) {
      throw Error(std::string("cannot protect a rank stack's guard page: ") +
                  std::strerror(errno));
    }
    ANACIN_CHECK(::getcontext(&ctx->fiber) == 0, "getcontext failed");
    ctx->fiber.uc_stack.ss_sp = static_cast<char*>(mapping) + guard;
    ctx->fiber.uc_stack.ss_size = kFiberStackBytes;
    ctx->fiber.uc_link = nullptr;
    // makecontext passes int arguments only: split `this` into two halves.
    ::makecontext(&ctx->fiber, reinterpret_cast<void (*)()>(&fiber_entry), 3,
                  static_cast<unsigned>(self >> 32),
                  static_cast<unsigned>(self & 0xFFFFFFFFu), ctx->rank);
#if defined(__SANITIZE_THREAD__)
    ctx->tsan_fiber = __tsan_create_fiber(0);
#endif
  }
}

void Engine::resume_rank(RankCtx& ctx) {
  ctx.started = true;
  void* engine_fake_stack = nullptr;
  start_switch(&engine_fake_stack, ctx.fiber.uc_stack.ss_sp, kFiberStackBytes,
               ctx.tsan_fiber);
  ::swapcontext(&engine_context_, &ctx.fiber);
  finish_switch(engine_fake_stack, nullptr, nullptr);
}

void Engine::yield_to_engine(RankCtx& ctx) {
  start_switch(&ctx.asan_fake_stack, engine_stack_bottom_, engine_stack_size_,
               engine_tsan_fiber_);
  ::swapcontext(&ctx.fiber, &engine_context_);
  finish_switch(ctx.asan_fake_stack, &engine_stack_bottom_,
                &engine_stack_size_);
  if (aborting_) throw AbortSignal{};
}

void Engine::abort_all_ranks() {
  aborting_ = true;
  // Each suspended fiber wakes in yield_to_engine, throws AbortSignal and
  // unwinds its stack, so its locals are destroyed before the stack is
  // unmapped. A fiber that never ran has nothing to unwind.
  for (auto& ctx : ranks_) {
    if (ctx->started && !ctx->finished) resume_rank(*ctx);
  }
}

void Engine::fiber_entry(unsigned engine_hi, unsigned engine_lo, int rank) {
  auto* engine = reinterpret_cast<Engine*>(
      (static_cast<std::uintptr_t>(engine_hi) << 32) | engine_lo);
  RankCtx& ctx = *engine->ranks_[static_cast<std::size_t>(rank)];
  finish_switch(nullptr, &engine->engine_stack_bottom_,
                &engine->engine_stack_size_);
  engine->rank_fiber_main(ctx);
  // Final switch: this fiber never runs again, so ASan drops its fake stack.
  start_switch(nullptr, engine->engine_stack_bottom_,
               engine->engine_stack_size_, engine->engine_tsan_fiber_);
  ::setcontext(&engine->engine_context_);
  std::abort();  // setcontext returns only on failure
}

void Engine::rank_fiber_main(RankCtx& ctx) {
  try {
    Comm comm(this, ctx.rank);
    program_(comm);
  } catch (const AbortSignal&) {
    // Engine-initiated teardown: the stack has unwound, nothing to report.
  } catch (...) {
    ctx.error = std::current_exception();
  }
  ctx.finished = true;
}

// --------------------------------------------------------------------------
// Rank-side entry points (called on rank fibers)
// --------------------------------------------------------------------------

void Engine::rank_call(int rank, Call& call) {
  RankCtx& ctx = *ranks_[static_cast<std::size_t>(rank)];
  ctx.call = &call;
  ctx.has_pending_call = true;
  ctx.call_done = false;
  yield_to_engine(ctx);
  ANACIN_CHECK(ctx.call_done, "engine resumed rank " << rank
                                                     << " with incomplete call");
  ctx.call = nullptr;
}

void Engine::push_frame(int rank, std::string frame) {
  ranks_[static_cast<std::size_t>(rank)]->frames.push_back(std::move(frame));
}

void Engine::pop_frame(int rank) {
  auto& frames = ranks_[static_cast<std::size_t>(rank)]->frames;
  ANACIN_CHECK(!frames.empty(), "pop_frame with empty frame stack");
  frames.pop_back();
}

Rng& Engine::rank_rng(int rank) {
  return ranks_[static_cast<std::size_t>(rank)]->rng;
}

// --------------------------------------------------------------------------
// Engine mechanics
// --------------------------------------------------------------------------

RunResult Engine::run() {
  ANACIN_CHECK(!ran_, "Engine::run is single-use");
  ran_ = true;
  ANACIN_SPAN("sim.engine.run");
  const auto wall_start = std::chrono::steady_clock::now();
  record_init_events();

  try {
    start_fibers();
    main_loop();
  } catch (...) {
    abort_all_ranks();
    throw;
  }

  stats_.calls = processed_calls_;
  stats_.matched_messages = matched_messages_;
  stats_.max_unexpected_depth = max_unexpected_depth_;
  stats_.makespan_us = trace_.makespan();

  // One registry update per run (the per-event counts are aggregated in
  // members above), so instrumentation cost is independent of trace size.
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  static obs::Counter& runs_counter = obs::counter("sim.engine.runs");
  static obs::Counter& events_counter = obs::counter("sim.engine.events");
  static obs::Counter& calls_counter = obs::counter("sim.engine.calls");
  static obs::Counter& messages_counter = obs::counter("sim.engine.messages");
  static obs::Counter& matched_counter =
      obs::counter("sim.engine.messages_matched");
  static obs::Counter& wildcard_counter =
      obs::counter("sim.engine.wildcard_recvs");
  static obs::Histogram& wall_histogram =
      obs::histogram("sim.engine.run_wall_ms");
  static obs::Histogram& unexpected_histogram =
      obs::histogram("sim.engine.max_unexpected_depth");
  static obs::Counter& drops_counter = obs::counter("sim.faults.drops");
  static obs::Counter& retries_counter = obs::counter("sim.faults.retries");
  static obs::Counter& duplicates_counter =
      obs::counter("sim.faults.duplicates");
  static obs::Counter& straggler_counter =
      obs::counter("sim.faults.straggler_events");
  runs_counter.add(1);
  drops_counter.add(stats_.drops);
  retries_counter.add(stats_.retries);
  duplicates_counter.add(stats_.duplicates);
  straggler_counter.add(stats_.straggler_events);
  events_counter.add(trace_.total_events());
  calls_counter.add(processed_calls_);
  messages_counter.add(stats_.messages);
  matched_counter.add(matched_messages_);
  wildcard_counter.add(stats_.wildcard_recvs);
  wall_histogram.observe(wall_ms);
  unexpected_histogram.observe(static_cast<double>(max_unexpected_depth_));

  return RunResult{std::move(trace_), stats_};
}

void Engine::main_loop() {
  for (;;) {
    RankCtx* next = nullptr;
    bool all_done = true;
    for (auto& ctx : ranks_) {
      if (ctx->state != RankState::kDone) all_done = false;
      if (ctx->state == RankState::kReady &&
          (next == nullptr || ctx->clock < next->clock)) {
        next = ctx.get();
      }
    }
    if (all_done) {
      // Spurious duplicate copies trail the real message by an extra delay
      // and can still be in flight once every rank has finalized. Deliver
      // them so duplicate accounting is deterministic; any other leftover
      // message is an unreceived send and stays dropped.
      while (!transit_.empty()) {
        if (transit_.front().msg.duplicate) {
          process_delivery();
        } else {
          (void)pop_transit();
        }
      }
      return;
    }

    const bool have_msg = !transit_.empty();
    if (next == nullptr && !have_msg) throw_deadlock();

    if (have_msg &&
        (next == nullptr || transit_.front().msg.deliver_time <= next->clock)) {
      process_delivery();
      continue;
    }
    step_rank(*next);
  }
}

void Engine::step_rank(RankCtx& ctx) {
  resume_rank(ctx);
  if (ctx.finished) {
    if (ctx.error) std::rethrow_exception(ctx.error);
    record_finalize_event(ctx);
    ctx.state = RankState::kDone;
    return;
  }
  ANACIN_CHECK(ctx.has_pending_call,
               "rank " << ctx.rank << " yielded without a pending call");
  ctx.has_pending_call = false;
  ++processed_calls_;
  if (processed_calls_ > config_.max_calls) {
    throw Error("simulation exceeded max_calls (" +
                std::to_string(config_.max_calls) +
                "); the program may not terminate");
  }
  process_call(ctx, *ctx.call);
}

void Engine::process_call(RankCtx& ctx, Call& call) {
  switch (call.kind) {
    case CallKind::kCompute: {
      ANACIN_CHECK(call.compute_us >= 0.0, "compute time must be >= 0");
      double compute_us = call.compute_us;
      if (faults_.enabled() && compute_us > 0.0) {
        const double multiplier = faults_.compute_multiplier(ctx.rank);
        if (multiplier > 1.0) {
          compute_us *= multiplier;
          if (!ctx.straggler_event_recorded) {
            ctx.straggler_event_recorded = true;
            ++stats_.straggler_events;
            record_fault_event(ctx, -1, -1, 0, "FAULT_straggler");
          }
        }
      }
      ctx.clock += compute_us;
      ctx.call_done = true;
      return;
    }
    case CallKind::kSend: do_send(ctx, call); return;
    case CallKind::kRecv: do_recv(ctx, call); return;
    case CallKind::kIrecv: do_irecv(ctx, call); return;
    case CallKind::kWait: do_wait(ctx, call); return;
    case CallKind::kWaitAny: do_wait_any(ctx, call); return;
    case CallKind::kWaitAll: do_wait_all(ctx, call); return;
    case CallKind::kProbe: do_probe(ctx, call); return;
    case CallKind::kIprobe: do_iprobe(ctx, call); return;
  }
  throw Error("unhandled call kind");
}

void Engine::do_send(RankCtx& ctx, Call& call) {
  if (call.peer < 0 || call.peer >= config_.num_ranks) {
    throw SimUsageError("rank " + std::to_string(ctx.rank) +
                        " sends to out-of-range rank " +
                        std::to_string(call.peer));
  }
  if (call.tag < 0 || call.tag >= kCollectiveTagBase * 2) {
    throw SimUsageError("invalid tag " + std::to_string(call.tag));
  }
  const auto size = std::max<std::uint32_t>(
      static_cast<std::uint32_t>(call.payload.size()), call.size_hint);

  const char* mpi_name = "MPI_Send";
  switch (call.send_mode) {
    case SendMode::kBuffered: mpi_name = "MPI_Send"; break;
    case SendMode::kSync: mpi_name = "MPI_Ssend"; break;
    case SendMode::kNonblocking: mpi_name = "MPI_Isend"; break;
    case SendMode::kNonblockingSync: mpi_name = "MPI_Issend"; break;
  }
  trace::Event event;
  event.type = trace::EventType::kSend;
  event.rank = ctx.rank;
  event.peer = call.peer;
  event.tag = call.tag;
  event.size_bytes = size;
  event.callstack_id = callstack_id(ctx, mpi_name);

  const NetworkModel::Delay delay = network_.sample(ctx.rank, call.peer, size);
  event.jittered = delay.jittered;
  event.t_start = ctx.clock;
  ctx.clock += config_.network.send_overhead_us;
  event.t_end = ctx.clock;
  const std::int64_t seq = trace_.append(event);

  double delay_us = delay.delay_us;
  FaultModel::MessageFate fate;
  if (faults_.enabled()) {
    delay_us *= faults_.latency_multiplier(ctx.rank, call.peer);
    fate = faults_.sample_message(ctx.rank, call.peer);
    // One fault event per dropped attempt, right after the send event
    // (same clock): the transport retransmits asynchronously, the sender
    // does not stall, but the retry latency is visible in the delivery
    // time and the drops are visible in the event graph.
    for (int drop = 0; drop < fate.dropped_attempts; ++drop) {
      record_fault_event(ctx, call.peer, call.tag, size, "FAULT_retransmit");
    }
    stats_.drops += static_cast<std::uint64_t>(fate.dropped_attempts);
    stats_.retries += static_cast<std::uint64_t>(fate.dropped_attempts);
  }

  double deliver = ctx.clock +
                   static_cast<double>(fate.dropped_attempts) *
                       config_.faults.retry_timeout_us +
                   delay_us;
  const std::uint64_t channel =
      static_cast<std::uint64_t>(ctx.rank) *
          static_cast<std::uint64_t>(config_.num_ranks) +
      static_cast<std::uint64_t>(call.peer);
  double& last = channel_last_delivery_[channel];
  deliver = std::max(deliver, last + kChannelFifoEpsilon);
  last = deliver;

  ++stats_.messages;
  if (delay.jittered) ++stats_.jittered_messages;

  std::uint64_t sync_request = 0;
  if (call.send_mode == SendMode::kSync ||
      call.send_mode == SendMode::kNonblockingSync) {
    sync_request = ctx.next_request++;
    RequestState request;
    request.sync_send = true;
    request.post_time = ctx.clock;
    ctx.requests.emplace(sync_request, std::move(request));
  }

  TransitMsg transit;
  transit.dst = call.peer;
  transit.msg =
      ArrivedMsg{ctx.rank,         call.tag, std::move(call.payload),
                 seq,              size,     deliver,
                 delay.jittered,   ++order_counter_,
                 sync_request};
  push_transit(std::move(transit));

  if (fate.duplicated) {
    // A spurious copy trails the original. It bypasses the channel-FIFO
    // bookkeeping (it is a network artifact, never matched, so it cannot
    // overtake anything observable) and carries no payload.
    TransitMsg duplicate;
    duplicate.dst = call.peer;
    duplicate.msg = ArrivedMsg{
        ctx.rank,
        call.tag,
        Payload{},
        seq,
        size,
        deliver + std::max(kChannelFifoEpsilon, fate.duplicate_extra_delay_us),
        delay.jittered,
        ++order_counter_,
        /*sync_send_request=*/0,
        /*duplicate=*/true};
    push_transit(std::move(duplicate));
  }

  switch (call.send_mode) {
    case SendMode::kBuffered:
      ctx.call_done = true;
      return;
    case SendMode::kNonblocking: {
      const std::uint64_t id = ctx.next_request++;
      RequestState request;
      request.post_time = ctx.clock;
      request.complete = true;
      request.complete_time = ctx.clock;
      request.completion_order = ++completion_counter_;
      ctx.requests.emplace(id, std::move(request));
      call.out_request = id;
      ctx.call_done = true;
      return;
    }
    case SendMode::kSync:
      call.request_ids = {sync_request};
      ctx.block_kind = BlockKind::kSyncSend;
      ctx.state = RankState::kBlocked;
      return;
    case SendMode::kNonblockingSync:
      call.out_request = sync_request;
      ctx.call_done = true;
      return;
  }
}

const Engine::ArrivedMsg* Engine::find_unexpected(const RankCtx& ctx,
                                                  int src_filter,
                                                  int tag_filter) const {
  for (const ArrivedMsg& msg : ctx.unexpected) {
    if (filters_match(src_filter, tag_filter, msg)) return &msg;
  }
  return nullptr;
}

void Engine::do_probe(RankCtx& ctx, Call& call) {
  if (const ArrivedMsg* msg =
          find_unexpected(ctx, call.src_filter, call.tag_filter)) {
    call.out_probe = ProbeResult{msg->src, msg->tag, msg->size};
    ctx.call_done = true;
    return;
  }
  ctx.block_kind = BlockKind::kProbe;
  ctx.state = RankState::kBlocked;
}

void Engine::do_iprobe(RankCtx& ctx, Call& call) {
  const ArrivedMsg* msg =
      find_unexpected(ctx, call.src_filter, call.tag_filter);
  call.out_flag = msg != nullptr;
  if (msg != nullptr) {
    call.out_probe = ProbeResult{msg->src, msg->tag, msg->size};
  }
  // An iprobe poll costs a little virtual time, so poll loops make
  // progress relative to in-flight messages instead of spinning at a
  // frozen clock.
  ctx.clock += config_.network.recv_overhead_us;
  ctx.call_done = true;
}

std::uint64_t Engine::new_recv_request(RankCtx& ctx, int src_filter,
                                       int tag_filter,
                                       std::uint32_t callstack) {
  if (src_filter != kAnySource &&
      (src_filter < 0 || src_filter >= config_.num_ranks)) {
    throw SimUsageError("receive from out-of-range rank " +
                        std::to_string(src_filter));
  }
  const std::uint64_t id = ctx.next_request++;
  RequestState request;
  request.is_recv = true;
  request.src_filter = src_filter;
  request.tag_filter = tag_filter;
  request.post_time = ctx.clock;
  request.callstack_id = callstack;
  ctx.requests.emplace(id, std::move(request));
  return id;
}

bool Engine::filters_match(int src_filter, int tag_filter,
                           const ArrivedMsg& msg) const {
  if (src_filter != kAnySource && src_filter != msg.src) return false;
  if (tag_filter == kAnyTag) {
    // Collective traffic lives in its own context (as in MPI): wildcard-tag
    // user receives never match internal collective messages; those are
    // matched only by their explicit collective tag.
    return msg.tag < kCollectiveTagBase;
  }
  return tag_filter == msg.tag;
}

bool Engine::match_allowed(const RankCtx& ctx, int src_filter,
                           const ArrivedMsg& msg) const {
  if (src_filter != kAnySource) return true;
  if (replay_ == nullptr) return true;
  if (ctx.rank >= static_cast<int>(replay_->wildcard_matches.size())) {
    return true;
  }
  const auto& schedule =
      replay_->wildcard_matches[static_cast<std::size_t>(ctx.rank)];
  if (ctx.replay_cursor >= schedule.size()) return true;
  const ReplaySchedule::Match& forced = schedule[ctx.replay_cursor];
  if (!forced.pinned) return true;
  // With earlier entries freed, a racing completion (or an explicit-source
  // receive) can consume the forced message before this entry's turn;
  // insisting on it would deadlock. Fall back to free matching.
  if (ctx.consumed_matches.count({forced.source, forced.send_seq}) != 0) {
    return true;
  }
  return forced.source == msg.src && forced.send_seq == msg.src_seq;
}

bool Engine::try_match_unexpected(RankCtx& ctx, std::uint64_t request_id) {
  RequestState& request = request_state(ctx, request_id);
  for (auto it = ctx.unexpected.begin(); it != ctx.unexpected.end(); ++it) {
    if (filters_match(request.src_filter, request.tag_filter, *it) &&
        match_allowed(ctx, request.src_filter, *it)) {
      const double match_time = std::max(it->deliver_time, request.post_time);
      ArrivedMsg msg = std::move(*it);
      ctx.unexpected.erase(it);
      complete_recv_request(ctx, request_id, std::move(msg), match_time);
      return true;
    }
  }
  return false;
}

void Engine::complete_recv_request(RankCtx& ctx, std::uint64_t request_id,
                                   ArrivedMsg msg, double match_time) {
  RequestState& request = request_state(ctx, request_id);
  if (replay_ != nullptr && request.src_filter == kAnySource) {
    // A freed cursor entry races naturally: it neither honours nor advances
    // the floor, so an all-freed replay is byte-identical to an
    // unconstrained run with the same seed.
    bool freed = false;
    if (ctx.rank < static_cast<int>(replay_->wildcard_matches.size())) {
      const auto& schedule =
          replay_->wildcard_matches[static_cast<std::size_t>(ctx.rank)];
      freed = ctx.replay_cursor < schedule.size() &&
              !schedule[ctx.replay_cursor].pinned;
    }
    if (!freed) {
      match_time = std::max(match_time, ctx.replay_time_floor);
      ctx.replay_time_floor = match_time;
    }
  }
  if (replay_ != nullptr) {
    ctx.consumed_matches.insert({msg.src, msg.src_seq});
  }
  request.complete = true;
  request.complete_time = match_time;
  request.completion_order = ++completion_counter_;
  ++matched_messages_;
  request.matched_rank = msg.src;
  request.matched_seq = msg.src_seq;
  request.jittered = msg.jittered;
  request.size = msg.size;

  const std::uint64_t sync_request = msg.sync_send_request;
  const int sender = msg.src;
  request.result =
      RecvResult{msg.src, msg.tag, std::move(msg.payload), match_time};

  if (request.src_filter == kAnySource) {
    ++stats_.wildcard_recvs;
    if (replay_ != nullptr &&
        ctx.rank < static_cast<int>(replay_->wildcard_matches.size()) &&
        ctx.replay_cursor <
            replay_->wildcard_matches[static_cast<std::size_t>(ctx.rank)]
                .size()) {
      ++ctx.replay_cursor;
    }
  }
  if (sync_request != 0) {
    complete_sync_send(sync_request, sender, match_time);
  }
  // Any completion under replay can unblock a queued pairing: a cursor
  // advance makes the next forced message matchable, and consuming a forced
  // message flips its pinned entry into free-match fallback.
  if (replay_ != nullptr) drain_replay_matches(ctx);
}

void Engine::drain_replay_matches(RankCtx& ctx) {
  if (ctx.draining_replay) return;  // outermost drain handles everything
  ctx.draining_replay = true;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto pit = ctx.posted.begin(); !progress && pit != ctx.posted.end();
         ++pit) {
      for (auto uit = ctx.unexpected.begin(); uit != ctx.unexpected.end();
           ++uit) {
        if (!filters_match(pit->src_filter, pit->tag_filter, *uit) ||
            !match_allowed(ctx, pit->src_filter, *uit)) {
          continue;
        }
        const std::uint64_t request_id = pit->request_id;
        ctx.posted.erase(pit);
        const double match_time =
            std::max(uit->deliver_time,
                     request_state(ctx, request_id).post_time);
        ArrivedMsg msg = std::move(*uit);
        ctx.unexpected.erase(uit);
        complete_recv_request(ctx, request_id, std::move(msg), match_time);
        progress = true;
        break;
      }
    }
  }
  ctx.draining_replay = false;
}

void Engine::complete_sync_send(std::uint64_t request_id, int sender_rank,
                                double match_time) {
  RankCtx& sender = *ranks_[static_cast<std::size_t>(sender_rank)];
  RequestState& request = request_state(sender, request_id);
  request.complete = true;
  request.complete_time = match_time;
  request.completion_order = ++completion_counter_;
  maybe_unblock(sender);
}

void Engine::do_recv(RankCtx& ctx, Call& call) {
  const std::uint32_t cs = callstack_id(ctx, "MPI_Recv");
  const std::uint64_t id =
      new_recv_request(ctx, call.src_filter, call.tag_filter, cs);
  call.request_ids = {id};
  if (try_match_unexpected(ctx, id)) {
    finish_recv_like(ctx, call, id, /*record_event_flag=*/true);
    return;
  }
  ctx.posted.push_back(PostedRecv{id, call.src_filter, call.tag_filter});
  ctx.block_kind = BlockKind::kRecv;
  ctx.state = RankState::kBlocked;
}

void Engine::do_irecv(RankCtx& ctx, Call& call) {
  const std::uint32_t cs = callstack_id(ctx, "MPI_Irecv");
  const std::uint64_t id =
      new_recv_request(ctx, call.src_filter, call.tag_filter, cs);
  if (!try_match_unexpected(ctx, id)) {
    ctx.posted.push_back(PostedRecv{id, call.src_filter, call.tag_filter});
  }
  call.out_request = id;
  ctx.call_done = true;
}

Engine::RequestState& Engine::request_state(RankCtx& ctx,
                                            std::uint64_t request_id) {
  const auto it = ctx.requests.find(request_id);
  if (it == ctx.requests.end()) {
    throw SimUsageError("rank " + std::to_string(ctx.rank) +
                        " used an invalid or already-retired request");
  }
  return it->second;
}

void Engine::finish_recv_like(RankCtx& ctx, Call& call,
                              std::uint64_t request_id,
                              bool record_event_flag) {
  RequestState& request = request_state(ctx, request_id);
  ANACIN_CHECK(request.complete, "finishing an incomplete request");
  if (request.is_recv) {
    ctx.clock = std::max(ctx.clock, request.complete_time) +
                config_.network.recv_overhead_us;
    if (record_event_flag) record_recv_event(ctx, request);
    call.out_recv = std::move(request.result);
  } else {
    ctx.clock = std::max(ctx.clock, request.complete_time);
  }
  ctx.requests.erase(request_id);
  ctx.block_kind = BlockKind::kNone;
  ctx.state = RankState::kReady;
  ctx.call_done = true;
}

void Engine::do_wait(RankCtx& ctx, Call& call) {
  const std::uint64_t id = call.request_ids.at(0);
  RequestState& request = request_state(ctx, id);
  if (request.complete) {
    finish_recv_like(ctx, call, id, true);
    return;
  }
  ctx.block_kind = BlockKind::kWaitOne;
  ctx.state = RankState::kBlocked;
}

void Engine::do_wait_any(RankCtx& ctx, Call& call) {
  ANACIN_CHECK(!call.request_ids.empty(), "wait_any on empty request set");
  std::size_t best = call.request_ids.size();
  for (std::size_t i = 0; i < call.request_ids.size(); ++i) {
    const RequestState& request = request_state(ctx, call.request_ids[i]);
    if (!request.complete) continue;
    if (best == call.request_ids.size()) {
      best = i;
      continue;
    }
    const RequestState& current = request_state(ctx, call.request_ids[best]);
    if (request.complete_time < current.complete_time ||
        (request.complete_time == current.complete_time &&
         request.completion_order < current.completion_order)) {
      best = i;
    }
  }
  if (best == call.request_ids.size()) {
    ctx.block_kind = BlockKind::kWaitAny;
    ctx.state = RankState::kBlocked;
    return;
  }
  call.out_index = best;
  finish_recv_like(ctx, call, call.request_ids[best], true);
}

void Engine::do_wait_all(RankCtx& ctx, Call& call) {
  for (const std::uint64_t id : call.request_ids) {
    if (!request_state(ctx, id).complete) {
      ctx.block_kind = BlockKind::kWaitAll;
      ctx.state = RankState::kBlocked;
      return;
    }
  }
  // All complete: retire in completion order so recv events appear in the
  // order the messages actually arrived.
  std::vector<std::size_t> indices(call.request_ids.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  std::sort(indices.begin(), indices.end(),
            [&](std::size_t a, std::size_t b) {
              const RequestState& ra = request_state(ctx, call.request_ids[a]);
              const RequestState& rb = request_state(ctx, call.request_ids[b]);
              if (ra.complete_time != rb.complete_time) {
                return ra.complete_time < rb.complete_time;
              }
              return ra.completion_order < rb.completion_order;
            });
  call.out_recv_all.resize(call.request_ids.size());
  for (const std::size_t i : indices) {
    RequestState& request = request_state(ctx, call.request_ids[i]);
    if (request.is_recv) {
      ctx.clock = std::max(ctx.clock, request.complete_time) +
                  config_.network.recv_overhead_us;
      record_recv_event(ctx, request);
      call.out_recv_all[i] = std::move(request.result);
    } else {
      ctx.clock = std::max(ctx.clock, request.complete_time);
    }
    ctx.requests.erase(call.request_ids[i]);
  }
  ctx.block_kind = BlockKind::kNone;
  ctx.state = RankState::kReady;
  ctx.call_done = true;
}

void Engine::maybe_unblock(RankCtx& ctx) {
  if (ctx.state != RankState::kBlocked) return;
  Call& call = *ctx.call;
  switch (ctx.block_kind) {
    case BlockKind::kRecv:
    case BlockKind::kWaitOne: {
      const std::uint64_t id = call.request_ids.at(0);
      if (request_state(ctx, id).complete) {
        finish_recv_like(ctx, call, id, true);
      }
      return;
    }
    case BlockKind::kWaitAny: do_wait_any(ctx, call); return;
    case BlockKind::kWaitAll: do_wait_all(ctx, call); return;
    case BlockKind::kSyncSend: {
      const std::uint64_t id = call.request_ids.at(0);
      RequestState& request = request_state(ctx, id);
      if (request.complete) {
        ctx.clock = std::max(ctx.clock, request.complete_time);
        ctx.requests.erase(id);
        ctx.block_kind = BlockKind::kNone;
        ctx.state = RankState::kReady;
        ctx.call_done = true;
      }
      return;
    }
    case BlockKind::kProbe: {
      for (const ArrivedMsg& msg : ctx.unexpected) {
        if (!filters_match(call.src_filter, call.tag_filter, msg)) continue;
        call.out_probe = ProbeResult{msg.src, msg.tag, msg.size};
        ctx.clock = std::max(ctx.clock, msg.deliver_time) +
                    config_.network.recv_overhead_us;
        ctx.block_kind = BlockKind::kNone;
        ctx.state = RankState::kReady;
        ctx.call_done = true;
        return;
      }
      return;
    }
    case BlockKind::kNone: return;
  }
}

void Engine::process_delivery() {
  TransitMsg transit = pop_transit();
  RankCtx& ctx = *ranks_[static_cast<std::size_t>(transit.dst)];
  ArrivedMsg& msg = transit.msg;

  if (msg.duplicate) {
    // The receiver recognizes the repeated (source, sequence) pair,
    // records the fault, and drops the copy before matching: duplicates
    // never complete a receive or perturb the unexpected queue.
    ++stats_.duplicates;
    record_fault_event(ctx, msg.src, msg.tag, msg.size, "FAULT_duplicate");
    return;
  }

  for (auto it = ctx.posted.begin(); it != ctx.posted.end(); ++it) {
    if (filters_match(it->src_filter, it->tag_filter, msg) &&
        match_allowed(ctx, it->src_filter, msg)) {
      const std::uint64_t request_id = it->request_id;
      ctx.posted.erase(it);
      const double match_time =
          std::max(msg.deliver_time,
                   request_state(ctx, request_id).post_time);
      complete_recv_request(ctx, request_id, std::move(msg), match_time);
      maybe_unblock(ctx);
      return;
    }
  }
  ctx.unexpected.push_back(std::move(msg));
  max_unexpected_depth_ =
      std::max(max_unexpected_depth_,
               static_cast<std::uint64_t>(ctx.unexpected.size()));
  // A message parked in the unexpected queue can satisfy a blocked probe.
  maybe_unblock(ctx);
}

// --------------------------------------------------------------------------
// Events & diagnostics
// --------------------------------------------------------------------------

std::uint32_t Engine::callstack_id(RankCtx& ctx,
                                   std::string_view mpi_function) {
  std::string path = trace::join_frames(ctx.frames);
  if (!path.empty()) path += '>';
  path += mpi_function;
  return trace_.callstacks().intern(path);
}

void Engine::record_recv_event(RankCtx& ctx, const RequestState& request) {
  trace::Event event;
  event.type = trace::EventType::kRecv;
  event.rank = ctx.rank;
  event.peer = request.matched_rank;
  event.tag = request.result.tag;
  event.size_bytes = request.size;
  event.t_start = request.post_time;
  event.t_end = ctx.clock;
  event.matched_rank = request.matched_rank;
  event.matched_seq = request.matched_seq;
  event.posted_source = request.src_filter;
  event.posted_tag = request.tag_filter;
  event.match_order = static_cast<std::int64_t>(request.completion_order);
  event.callstack_id = request.callstack_id;
  event.jittered = request.jittered;
  trace_.append(event);
}

void Engine::record_fault_event(RankCtx& ctx, int peer, int tag,
                                std::uint32_t size_bytes,
                                std::string_view cause) {
  trace::Event event;
  event.type = trace::EventType::kFault;
  event.rank = ctx.rank;
  event.peer = peer;
  event.tag = tag;
  event.size_bytes = size_bytes;
  // Faults are runtime artifacts, not program steps: they take no virtual
  // time and are stamped at the rank's current clock, which keeps the
  // per-rank t_end ordering invariant intact.
  event.t_start = ctx.clock;
  event.t_end = ctx.clock;
  event.callstack_id = trace_.callstacks().intern(std::string(cause));
  trace_.append(event);
}

void Engine::record_init_events() {
  const std::uint32_t cs = trace_.callstacks().intern("MPI_Init");
  for (int r = 0; r < config_.num_ranks; ++r) {
    trace::Event event;
    event.type = trace::EventType::kInit;
    event.rank = r;
    event.callstack_id = cs;
    trace_.append(event);
  }
}

void Engine::record_finalize_event(RankCtx& ctx) {
  trace::Event event;
  event.type = trace::EventType::kFinalize;
  event.rank = ctx.rank;
  event.t_start = ctx.clock;
  event.t_end = ctx.clock;
  event.callstack_id = trace_.callstacks().intern("MPI_Finalize");
  trace_.append(event);
}

void Engine::throw_deadlock() {
  std::ostringstream os;
  os << "deadlock: no rank can make progress and no messages are in flight\n";
  for (const auto& ctx : ranks_) {
    if (ctx->state != RankState::kBlocked) continue;
    os << "  rank " << ctx->rank << ": blocked in ";
    switch (ctx->block_kind) {
      case BlockKind::kRecv: {
        const Call& call = *ctx->call;
        os << "recv(source="
           << (call.src_filter == kAnySource ? std::string("ANY")
                                             : std::to_string(call.src_filter))
           << ", tag="
           << (call.tag_filter == kAnyTag ? std::string("ANY")
                                          : std::to_string(call.tag_filter))
           << ")";
        break;
      }
      case BlockKind::kWaitOne: os << "wait"; break;
      case BlockKind::kWaitAny: os << "wait_any"; break;
      case BlockKind::kWaitAll: os << "wait_all"; break;
      case BlockKind::kSyncSend: os << "ssend (no matching receive)"; break;
      case BlockKind::kProbe: os << "probe (no matching message)"; break;
      case BlockKind::kNone: os << "?"; break;
    }
    os << "; " << ctx->unexpected.size() << " unexpected message(s) queued";
    if (replay_ != nullptr) {
      os << "; replay cursor " << ctx->replay_cursor;
    }
    os << '\n';
  }
  throw DeadlockError(os.str());
}

// --------------------------------------------------------------------------
// Transit heap
// --------------------------------------------------------------------------

void Engine::push_transit(TransitMsg msg) {
  transit_.push_back(std::move(msg));
  std::push_heap(transit_.begin(), transit_.end(),
                 [](const TransitMsg& a, const TransitMsg& b) {
                   if (a.msg.deliver_time != b.msg.deliver_time) {
                     return a.msg.deliver_time > b.msg.deliver_time;
                   }
                   return a.msg.order > b.msg.order;
                 });
}

Engine::TransitMsg Engine::pop_transit() {
  ANACIN_CHECK(!transit_.empty(), "pop from empty transit heap");
  std::pop_heap(transit_.begin(), transit_.end(),
                [](const TransitMsg& a, const TransitMsg& b) {
                  if (a.msg.deliver_time != b.msg.deliver_time) {
                    return a.msg.deliver_time > b.msg.deliver_time;
                  }
                  return a.msg.order > b.msg.order;
                });
  TransitMsg msg = std::move(transit_.back());
  transit_.pop_back();
  return msg;
}

}  // namespace anacin::sim
