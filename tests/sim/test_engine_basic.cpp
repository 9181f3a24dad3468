#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace anacin::sim {
namespace {

using trace::EventType;

SimConfig quiet_config(int ranks, std::uint64_t seed = 1) {
  SimConfig config;
  config.num_ranks = ranks;
  config.seed = seed;
  config.network.nd_fraction = 0.0;
  return config;
}

TEST(EngineBasic, SingleRankComputeOnly) {
  const RunResult result = run_simulation(quiet_config(1), [](Comm& comm) {
    comm.compute(10.0);
    comm.compute(5.0);
  });
  const auto& events = result.trace.rank_events(0);
  ASSERT_EQ(events.size(), 2u);  // init + finalize; compute is not traced
  EXPECT_EQ(events.front().type, EventType::kInit);
  EXPECT_EQ(events.back().type, EventType::kFinalize);
  EXPECT_DOUBLE_EQ(events.back().t_end, 15.0);
  EXPECT_DOUBLE_EQ(result.stats.makespan_us, 15.0);
  EXPECT_EQ(result.stats.messages, 0u);
}

TEST(EngineBasic, TwoRankSendRecvTransfersPayload) {
  std::vector<double> received(2, -1.0);
  const RunResult result =
      run_simulation(quiet_config(2), [&received](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 7, payload_from_double(3.25));
        } else {
          const RecvResult r = comm.recv();
          received[static_cast<std::size_t>(comm.rank())] =
              double_from_payload(r.payload);
          EXPECT_EQ(r.source, 0);
          EXPECT_EQ(r.tag, 7);
        }
      });
  EXPECT_DOUBLE_EQ(received[1], 3.25);
  EXPECT_EQ(result.stats.messages, 1u);
  EXPECT_EQ(result.stats.wildcard_recvs, 1u);
}

TEST(EngineBasic, EventFieldsDescribeTheMessage) {
  const RunResult result = run_simulation(quiet_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, payload_from_u64(9));
    } else {
      (void)comm.recv(0, 5);
    }
  });
  const auto& sender = result.trace.rank_events(0);
  ASSERT_EQ(sender.size(), 3u);
  const trace::Event& send = sender[1];
  EXPECT_EQ(send.type, EventType::kSend);
  EXPECT_EQ(send.peer, 1);
  EXPECT_EQ(send.tag, 5);
  EXPECT_EQ(send.size_bytes, sizeof(std::uint64_t));

  const auto& receiver = result.trace.rank_events(1);
  ASSERT_EQ(receiver.size(), 3u);
  const trace::Event& recv = receiver[1];
  EXPECT_EQ(recv.type, EventType::kRecv);
  EXPECT_EQ(recv.peer, 0);
  EXPECT_EQ(recv.matched_rank, 0);
  EXPECT_EQ(recv.matched_seq, 1);  // the send above is event 1 on rank 0
  EXPECT_EQ(recv.posted_source, 0);
  EXPECT_EQ(recv.posted_tag, 5);
  EXPECT_GT(recv.t_end, send.t_end);  // message takes time to travel
}

TEST(EngineBasic, SelfSendWorksWithIrecv) {
  double got = 0.0;
  run_simulation(quiet_config(1), [&got](Comm& comm) {
    const Request r = comm.irecv(0, 1);
    comm.send(0, 1, payload_from_double(1.5));
    got = double_from_payload(comm.wait(r).payload);
  });
  EXPECT_DOUBLE_EQ(got, 1.5);
}

TEST(EngineBasic, IsendWaitCompletesImmediately) {
  run_simulation(quiet_config(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      Request r = comm.isend(1, 0, payload_from_double(2.0));
      (void)comm.wait(r);
    } else {
      (void)comm.recv();
    }
  });
}

TEST(EngineBasic, VirtualTimesAreMonotonePerRank) {
  const RunResult result = run_simulation(quiet_config(4), [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) (void)comm.recv();
    } else {
      for (int i = 0; i < 20; ++i) {
        if (comm.rank() == 1 || i % 2 == 0) {
          if ((i + comm.rank()) % 3 == 0) comm.compute(1.0);
        }
        if (comm.rank() == 1) comm.send(0, 0);
        else if (i < 20 / 2 && comm.rank() == 2) comm.send(0, 0);
        else if (comm.rank() == 3 && i < 10) comm.send(0, 0);
      }
    }
  });
  for (int r = 0; r < 4; ++r) {
    const auto& events = result.trace.rank_events(r);
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].t_end, events[i].t_end);
      EXPECT_LE(events[i].t_start, events[i].t_end);
    }
  }
}

TEST(EngineBasic, CallstackFramesAppearInEvents) {
  const RunResult result = run_simulation(quiet_config(2), [](Comm& comm) {
    const auto app = comm.scoped_frame("app");
    if (comm.rank() == 0) {
      const auto phase = comm.scoped_frame("produce");
      comm.send(1, 0);
    } else {
      const auto phase = comm.scoped_frame("consume");
      (void)comm.recv();
    }
  });
  const auto& registry = result.trace.callstacks();
  const trace::Event& send = result.trace.rank_events(0)[1];
  EXPECT_EQ(registry.path(send.callstack_id), "app>produce>MPI_Send");
  const trace::Event& recv = result.trace.rank_events(1)[1];
  EXPECT_EQ(registry.path(recv.callstack_id), "app>consume>MPI_Recv");
}

TEST(EngineBasic, InvalidDestinationThrows) {
  EXPECT_THROW(run_simulation(quiet_config(2),
                              [](Comm& comm) {
                                if (comm.rank() == 0) comm.send(5, 0);
                                else (void)comm.recv();
                              }),
               SimUsageError);
}

TEST(EngineBasic, NegativeTagThrows) {
  EXPECT_THROW(run_simulation(quiet_config(2),
                              [](Comm& comm) {
                                if (comm.rank() == 0) comm.send(1, -3);
                                else (void)comm.recv();
                              }),
               SimUsageError);
}

TEST(EngineBasic, UserExceptionPropagates) {
  EXPECT_THROW(run_simulation(quiet_config(2),
                              [](Comm& comm) {
                                if (comm.rank() == 1) {
                                  throw std::runtime_error("app bug");
                                }
                                // rank 0 would block forever; the engine
                                // must still tear down cleanly.
                                (void)comm.recv();
                              }),
               std::runtime_error);
}

/// Bumps a counter when the rank's stack unwinds past it.
struct UnwindProbe {
  std::atomic<int>* unwound;
  ~UnwindProbe() { ++*unwound; }
};

TEST(EngineBasic, UnfinishedRanksUnwindWhenOneThrows) {
  // Ranks 0-2 block forever; rank 3's error must not leave their stacks
  // un-unwound behind it.
  std::atomic<int> unwound{0};
  EXPECT_THROW(run_simulation(quiet_config(4),
                              [&unwound](Comm& comm) {
                                if (comm.rank() == 3) {
                                  throw std::runtime_error("app bug");
                                }
                                const UnwindProbe probe{&unwound};
                                (void)comm.recv();
                              }),
               std::runtime_error);
  EXPECT_EQ(unwound.load(), 3);
}

/// Recurses through 4 KiB frames the optimizer cannot remove: each frame's
/// volatile array is written before and read after the recursive call.
int recurse_through_stack(int depth) {
  volatile char frame[4096];
  for (std::size_t i = sizeof frame; i-- > 0;) {
    frame[i] = static_cast<char>(depth);
  }
  const int below =
      depth < (1 << 30) ? recurse_through_stack(depth + 1) : 0;
  return below + frame[0] + frame[sizeof frame - 1];
}

TEST(EngineDeathTest, RankStackOverflowHitsGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        run_simulation(quiet_config(1), [](Comm& comm) {
          comm.compute(recurse_through_stack(0) > 0 ? 1.0 : 2.0);
        });
      },
      "");
}

TEST(EngineBasic, SizeHintInflatesMessageSize) {
  const RunResult result = run_simulation(quiet_config(2), [](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 0, {}, 4096);
    else (void)comm.recv();
  });
  EXPECT_EQ(result.trace.rank_events(0)[1].size_bytes, 4096u);
}

TEST(EngineBasic, RankAndSizeAccessors) {
  run_simulation(quiet_config(3), [](Comm& comm) {
    EXPECT_EQ(comm.size(), 3);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 3);
    EXPECT_EQ(comm.num_nodes(), 1);
    EXPECT_EQ(comm.node(), 0);
  });
}

TEST(EngineBasic, PerRankRngsDifferAcrossRanks) {
  std::vector<std::uint64_t> draws(3, 0);
  run_simulation(quiet_config(3), [&draws](Comm& comm) {
    draws[static_cast<std::size_t>(comm.rank())] = comm.rng().next_u64();
  });
  EXPECT_NE(draws[0], draws[1]);
  EXPECT_NE(draws[1], draws[2]);
}

TEST(EngineBasic, MaxCallsGuardFires) {
  SimConfig config = quiet_config(1);
  config.max_calls = 100;
  EXPECT_THROW(run_simulation(config,
                              [](Comm& comm) {
                                for (;;) comm.compute(1.0);
                              }),
               Error);
}

}  // namespace
}  // namespace anacin::sim
