#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace anacin::sim {
namespace {

SimConfig tiny(int ranks) {
  SimConfig config;
  config.num_ranks = ranks;
  config.network.nd_fraction = 0.0;
  return config;
}

TEST(Deadlock, MutualBlockingRecvIsDetected) {
  try {
    run_simulation(tiny(2), [](Comm& comm) { (void)comm.recv(); });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos);
    EXPECT_NE(what.find("rank 1"), std::string::npos);
    EXPECT_NE(what.find("recv"), std::string::npos);
    EXPECT_NE(what.find("ANY"), std::string::npos);
  }
}

TEST(Deadlock, SsendWithoutReceiverIsDetected) {
  try {
    run_simulation(tiny(2), [](Comm& comm) {
      if (comm.rank() == 0) comm.ssend(1, 0);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& error) {
    EXPECT_NE(std::string(error.what()).find("ssend"), std::string::npos);
  }
}

TEST(Deadlock, WaitOnNeverMatchedIrecv) {
  EXPECT_THROW(run_simulation(tiny(2),
                              [](Comm& comm) {
                                if (comm.rank() == 0) {
                                  Request r = comm.irecv(1, 5);
                                  (void)comm.wait(r);
                                }
                              }),
               DeadlockError);
}

TEST(Deadlock, TagMismatchDeadlocks) {
  // Sender uses tag 1, receiver insists on tag 2: the message sits in the
  // unexpected queue forever.
  EXPECT_THROW(run_simulation(tiny(2),
                              [](Comm& comm) {
                                if (comm.rank() == 0) comm.send(1, 1);
                                else (void)comm.recv(kAnySource, 2);
                              }),
               DeadlockError);
}

TEST(Deadlock, DiagnosticMentionsUnexpectedMessages) {
  try {
    run_simulation(tiny(2), [](Comm& comm) {
      if (comm.rank() == 0) comm.send(1, 1);
      else (void)comm.recv(kAnySource, 2);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& error) {
    EXPECT_NE(std::string(error.what()).find("1 unexpected"),
              std::string::npos);
  }
}

TEST(Deadlock, CleanRunsDoNotFalselyTrigger) {
  // A program with heavy waiting but a consistent schedule must complete.
  EXPECT_NO_THROW(run_simulation(tiny(4), [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int i = 0; i < 10; ++i) {
      Request r = comm.irecv(prev, 0);
      comm.send(next, 0);
      (void)comm.wait(r);
    }
  }));
}

/// Bumps a counter when the rank's stack unwinds past it.
struct UnwindProbe {
  std::atomic<int>* unwound;
  ~UnwindProbe() { ++*unwound; }
};

TEST(Deadlock, EngineReusableAfterDeadlockThrow) {
  // A deadlocked run must unwind every blocked rank's stack and must not
  // poison subsequent simulations (fibers are torn down cleanly).
  std::atomic<int> unwound{0};
  EXPECT_THROW(run_simulation(tiny(2),
                              [&unwound](Comm& comm) {
                                const UnwindProbe probe{&unwound};
                                (void)comm.recv();
                              }),
               DeadlockError);
  EXPECT_EQ(unwound.load(), 2);
  EXPECT_NO_THROW(run_simulation(tiny(2), [](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 0);
    else (void)comm.recv();
  }));
}

TEST(Deadlock, WaitOnForeignRequestIsUsageError) {
  EXPECT_THROW(run_simulation(tiny(1),
                              [](Comm& comm) {
                                Request r = comm.irecv(0, 0);
                                comm.send(0, 0);
                                (void)comm.wait(r);
                                (void)comm.wait(r);  // already retired
                              }),
               SimUsageError);
}

}  // namespace
}  // namespace anacin::sim
