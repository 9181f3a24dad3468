// Tests for the fault plan (support/fault_plan.hpp): the one grammar and
// its strict parser, the seeded per-domain streams (pinned against the
// decisions the unit/disk/net injectors it replaced drew for the same
// seed), the counter family under concurrent draws, and the disk domain's
// hooks. The unit and net domains' behaviour is exercised where their
// hooks live (core/test_supervisor.cpp, net/test_chaos.cpp).

#include "support/fault_plan.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace anacin::support {
namespace {

using DiskKind = faults::DiskFault::Kind;

std::uint64_t counter(const std::string& name) {
  const auto values = faults::counters();
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

// --- The grammar ---------------------------------------------------------

// One row per key of every domain: the spec, its canonical form, and what
// it must set. Then every malformed form, each of which must throw a
// ConfigError naming the offending key.
TEST(FaultPlan, GrammarTable) {
  struct Valid {
    const char* spec;
    const char* canonical;
    std::function<bool(const FaultPlan&)> holds;
  };
  const auto unit = [](const FaultPlan& plan, const char* id) {
    const auto it = plan.units.find(id);
    return it == plan.units.end() ? FaultPlan::Unit{} : it->second;
  };
  const std::vector<Valid> valid = {
      {"seed=42", "seed=42", [](const FaultPlan& p) { return p.seed == 42; }},
      {"unit.run:1=transient:3", "unit.run:1=transient:3",
       [&](const FaultPlan& p) { return unit(p, "run:1").transient == 3; }},
      {"unit.run:1=permanent", "unit.run:1=permanent",
       [&](const FaultPlan& p) { return unit(p, "run:1").permanent; }},
      {"unit.reference=sleep:250", "unit.reference=sleep:250",
       [&](const FaultPlan& p) {
         return unit(p, "reference").sleep_ms == 250.0;
       }},
      {"unit.*=stop", "unit.*=stop",
       [&](const FaultPlan& p) { return unit(p, "*").stop; }},
      {"unit.pair:0-1=crash:sigsegv", "unit.pair:0-1=crash:SEGV",
       [&](const FaultPlan& p) {
         return unit(p, "pair:0-1").crash_signal == SIGSEGV;
       }},
      {"disk.enospc=0.05", "disk.enospc=0.05",
       [](const FaultPlan& p) { return p.disk.enospc == 0.05; }},
      {"disk.eio=0.01", "disk.eio=0.01",
       [](const FaultPlan& p) { return p.disk.eio == 0.01; }},
      {"disk.open_fail=0.02", "disk.open_fail=0.02",
       [](const FaultPlan& p) { return p.disk.open_fail == 0.02; }},
      {"disk.rename_fail=1", "disk.rename_fail=1",
       [](const FaultPlan& p) { return p.disk.rename_fail == 1.0; }},
      {"disk.fsync_drop=0.1", "disk.fsync_drop=0.1",
       [](const FaultPlan& p) { return p.disk.fsync_drop == 0.1; }},
      {"disk.crash_after=12", "disk.crash_after=12",
       [](const FaultPlan& p) { return p.disk.crash_after == 12; }},
      {"disk.scope=store+journal", "disk.scope=journal+store",
       [](const FaultPlan& p) {
         return p.disk.in_scope(PathClass::kJournal) &&
                p.disk.in_scope(PathClass::kStore) &&
                !p.disk.in_scope(PathClass::kReport) &&
                !p.disk.in_scope(PathClass::kOther);
       }},
      {"net.drop=0.05", "net.drop=0.05",
       [](const FaultPlan& p) { return p.net.drop == 0.05; }},
      {"net.corrupt=0.02", "net.corrupt=0.02",
       [](const FaultPlan& p) { return p.net.corrupt == 0.02; }},
      {"net.reorder=0.1", "net.reorder=0.1",
       [](const FaultPlan& p) { return p.net.reorder == 0.1; }},
      {"net.reset=0.25", "net.reset=0.25",
       [](const FaultPlan& p) { return p.net.reset == 0.25; }},
      {"net.delay=0.3", "net.delay=0.3",
       [](const FaultPlan& p) { return p.net.delay == 0.3; }},
      {"net.delay_ms=5", "net.delay_ms=5",
       [](const FaultPlan& p) { return p.net.delay_ms == 5.0; }},
      {"net.partition=0.005", "net.partition=0.005",
       [](const FaultPlan& p) { return p.net.partition == 0.005; }},
      {"net.partition_ms=250", "net.partition_ms=250",
       [](const FaultPlan& p) { return p.net.partition_ms == 250.0; }},
  };
  std::string all;
  for (const Valid& row : valid) {
    SCOPED_TRACE(row.spec);
    const FaultPlan plan = FaultPlan::parse(row.spec);
    EXPECT_TRUE(row.holds(plan));
    EXPECT_EQ(plan.spec(), row.canonical);
    EXPECT_EQ(FaultPlan::parse(plan.spec()).spec(), plan.spec());
    if (!all.empty()) all += ',';
    all += row.canonical;
  }
  // Every key at once: still one canonical string, still a fixed point.
  const FaultPlan combined = FaultPlan::parse(all);
  for (const Valid& row : valid) EXPECT_TRUE(row.holds(combined)) << row.spec;
  EXPECT_EQ(FaultPlan::parse(combined.spec()).spec(), combined.spec());
  // Whitespace, empty entries and the all-scope default normalize away.
  EXPECT_EQ(FaultPlan::parse(" seed = 3 ,, unit.x = permanent ").spec(),
            "seed=3,unit.x=permanent");
  EXPECT_EQ(FaultPlan::parse("disk.scope=all").spec(), "");

  struct Malformed {
    const char* spec;
    const char* key;
  };
  const std::vector<Malformed> malformed = {
      {"cpu.burn=1", "cpu.burn"},                  // unknown domain
      {"seed.x=1", "seed.x"},                      // unknown domain
      {"unit.=permanent", "unit."},                // no unit id
      {"disk.turbo=1", "disk.turbo"},              // unknown key
      {"net.jitter=0.1", "net.jitter"},            // unknown key
      {"unit.run:1=explode", "unit.run:1"},        // unknown hook
      {"unit.run:1=transient", "unit.run:1"},      // hook missing its N
      {"unit.run:1=permanent:2", "unit.run:1"},    // hook takes no argument
      {"unit.run:1=crash:NOTASIGNAL", "unit.run:1"},
      {"disk.enospc=1.5", "disk.enospc"},          // probability > 1
      {"net.drop=-0.1", "net.drop"},               // probability < 0
      {"disk.enospc=0.5x", "disk.enospc"},         // trailing junk
      {"net.reset=lots", "net.reset"},             // not a number
      {"net.delay=nan", "net.delay"},              // not a number
      {"net.delay_ms=-5", "net.delay_ms"},         // negative ms
      {"unit.run:2=sleep:-5", "unit.run:2"},       // negative ms
      {"net.partition_ms=1e300", "net.partition_ms"},  // beyond a day
      {"unit.run:1=transient:3000000000", "unit.run:1"},  // beyond int
      {"disk.eio=", "disk.eio"},                   // empty value
      {"seed=", "seed"},                           // empty value
      {"unit.run:1=", "unit.run:1"},               // empty value
      {"disk.enospc", "disk.enospc"},              // missing '='
      {"seed=-1", "seed"},
      {"disk.crash_after=0", "disk.crash_after"},
      {"disk.crash_after=12abc", "disk.crash_after"},
      {"disk.scope=journal+disk", "disk.scope"},
  };
  for (const Malformed& row : malformed) {
    SCOPED_TRACE(row.spec);
    try {
      FaultPlan::parse(row.spec);
      ADD_FAILURE() << "accepted a malformed plan";
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("'" + std::string(row.key) +
                                               "'"),
                std::string::npos)
          << error.what();
    }
  }
}

// --- The seeded streams ----------------------------------------------------

// The first 64 decisions of each stream for seed 7 with every probability
// at 0.2, recorded from the disk and net injectors this plan replaced. Same
// seed derivation, same draw order: a fault seed from before the plan
// replays the same fault history.
TEST(FaultPlan, StreamsReplayRecordedDecisions) {
  // Disk: first firing stage (n=none, o=open_fail, s=enospc, e=eio,
  // r=rename_fail), then f when the fsync is dropped.
  const std::vector<std::string> disk_recorded = {
      "r",  "nf", "sf", "sf", "n",  "s",  "r",  "nf", "r",  "e",  "rf",
      "e",  "r",  "n",  "r",  "o",  "sf", "n",  "nf", "o",  "r",  "sf",
      "e",  "n",  "n",  "nf", "o",  "r",  "nf", "n",  "n",  "n",  "o",
      "s",  "rf", "r",  "e",  "nf", "ef", "nf", "o",  "r",  "sf", "e",
      "ef", "n",  "rf", "n",  "r",  "nf", "nf", "s",  "o",  "of", "n",
      "nf", "s",  "n",  "n",  "ef", "rf", "n",  "n",  "e"};
  // Net, connection serial 0, frame i of 109 + i bytes: R=reset,
  // P=partition, D=drop, else d (delayed), c<offset> (corrupted), h (held
  // for reorder), or s (sent clean).
  const std::vector<std::string> net_recorded = {
      "R", "h",    "s", "s", "D", "h", "D",   "s",    "R", "D", "P",
      "D", "c17",  "dh", "D", "P", "D", "P",  "R",    "P", "s", "R",
      "P", "P",    "P", "h", "D", "s", "R",   "s",    "dh", "P", "s",
      "s", "D",    "d", "R", "c126", "s", "D", "s",   "P", "c10", "s",
      "P", "P",    "s", "D", "s", "s", "s",   "D",    "R", "h", "R",
      "R", "s",    "R", "h", "R", "R", "s",   "R",    "R"};

  install_fault_plan(FaultPlan::parse(
      "seed=7,disk.enospc=0.2,disk.eio=0.2,disk.open_fail=0.2,"
      "disk.rename_fail=0.2,disk.fsync_drop=0.2"));
  std::vector<std::string> disk;
  for (int i = 0; i < 64; ++i) {
    const faults::DiskFault fault = faults::next_disk_fault(PathClass::kOther);
    const char* kinds = "noser";
    disk.push_back(std::string(1, kinds[static_cast<int>(fault.kind)]) +
                   (fault.drop_fsync ? "f" : ""));
  }
  install_fault_plan(std::nullopt);
  EXPECT_EQ(disk, disk_recorded);

  // partition_ms=0 keeps every window empty, so no send is swallowed by a
  // still-open partition and each decision is a pure function of the
  // stream.
  SendFaults stream(FaultPlan::parse("seed=7,net.drop=0.2,net.corrupt=0.2,"
                                     "net.reorder=0.2,net.reset=0.2,"
                                     "net.delay=0.2,net.partition=0.2,"
                                     "net.partition_ms=0"),
                    0);
  using Kind = SendFaults::Decision::Kind;
  std::vector<std::string> net;
  bool holding = false;
  for (std::size_t i = 0; i < 64; ++i) {
    const SendFaults::Decision d = stream.next_send(109 + i, !holding);
    switch (d.kind) {
      case Kind::kReset:
        net.emplace_back("R");
        holding = false;  // the reset eats the held frame
        continue;
      case Kind::kPartition: net.emplace_back("P"); continue;
      case Kind::kDrop: net.emplace_back("D"); continue;
      case Kind::kSend: break;
    }
    std::string token;
    if (d.delay_ms > 0.0) token += "d";
    if (d.corrupt_offset != 0) token += "c" + std::to_string(d.corrupt_offset);
    if (d.hold) token += "h";
    net.push_back(token.empty() ? "s" : token);
    holding = d.hold;  // a frame that went out flushed the held one
  }
  EXPECT_EQ(net, net_recorded);
}

// The disk stream is shared by every writer thread: 8 threads drawing at
// once must see exactly the decisions a single thread would, in some
// order, so the counters match a sequential replay to the unit.
TEST(FaultPlan, ConcurrentDiskDrawsKeepCountersExact) {
  const std::string spec =
      "seed=11,disk.enospc=0.2,disk.eio=0.2,disk.open_fail=0.2,"
      "disk.rename_fail=0.2,disk.fsync_drop=0.2";
  constexpr int kThreads = 8;
  constexpr int kDraws = 500;
  const char* const names[] = {"faults.disk.open_fail", "faults.disk.enospc",
                               "faults.disk.eio", "faults.disk.rename_fail",
                               "faults.disk.fsync_drop", "io.durable_ops"};
  std::map<std::string, std::uint64_t> before;
  for (const char* name : names) before[name] = counter(name);

  install_fault_plan(FaultPlan::parse(spec));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kDraws; ++i) {
        faults::next_disk_fault(PathClass::kOther);
        faults::note_durable_commit(PathClass::kOther);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::map<std::string, std::uint64_t> delta;
  for (const char* name : names) delta[name] = counter(name) - before[name];

  // Sequential replay of the same stream.
  install_fault_plan(FaultPlan::parse(spec));
  std::map<std::string, std::uint64_t> expected;
  for (int i = 0; i < kThreads * kDraws; ++i) {
    const faults::DiskFault fault = faults::next_disk_fault(PathClass::kOther);
    if (fault.kind != DiskKind::kNone) {
      ++expected[names[static_cast<int>(fault.kind) - 1]];
    }
    if (fault.drop_fsync) ++expected["faults.disk.fsync_drop"];
  }
  install_fault_plan(std::nullopt);
  expected["io.durable_ops"] = kThreads * kDraws;
  for (const char* name : names) EXPECT_EQ(delta[name], expected[name]) << name;
}

// --- Disk domain hooks -----------------------------------------------------

/// Every test starts and ends with no plan installed, no plan or
/// durability in the environment, and durability unresolved, so a plan
/// installed here can never leak into the other test_support suites
/// (test_fs in particular writes files).
class IoChaosTest : public ::testing::Test {
protected:
  void SetUp() override {
    ::unsetenv("ANACIN_FAULT_PLAN");
    ::unsetenv("ANACIN_DURABILITY");
    install_fault_plan(std::nullopt);
    reset_durability_for_tests();
  }
  void TearDown() override { SetUp(); }

  static std::vector<DiskKind> draw(PathClass path_class, int n) {
    std::vector<DiskKind> kinds;
    kinds.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      kinds.push_back(faults::next_disk_fault(path_class).kind);
    }
    return kinds;
  }
};

TEST_F(IoChaosTest, DefaultConfigIsDisabled) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.disk.enabled());
  EXPECT_FALSE(plan.net.enabled());
  EXPECT_TRUE(plan.units.empty());
  EXPECT_TRUE(plan.disk.in_scope(PathClass::kJournal));
  EXPECT_TRUE(plan.disk.in_scope(PathClass::kOther));
  EXPECT_EQ(plan.spec(), "");
}

TEST_F(IoChaosTest, ParseFullSpecRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=7, disk.enospc=0.05, disk.eio=0.01, disk.open_fail=0.02, "
      "disk.rename_fail=0.03, disk.fsync_drop=0.1, disk.crash_after=12, "
      "disk.scope=journal+store");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.disk.enospc, 0.05);
  EXPECT_DOUBLE_EQ(plan.disk.eio, 0.01);
  EXPECT_DOUBLE_EQ(plan.disk.open_fail, 0.02);
  EXPECT_DOUBLE_EQ(plan.disk.rename_fail, 0.03);
  EXPECT_DOUBLE_EQ(plan.disk.fsync_drop, 0.1);
  EXPECT_EQ(plan.disk.crash_after, 12);
  EXPECT_TRUE(plan.disk.enabled());

  // spec() is the canonical form; parsing it back must change nothing.
  const FaultPlan reparsed = FaultPlan::parse(plan.spec());
  EXPECT_EQ(reparsed.spec(), plan.spec());
  EXPECT_EQ(reparsed.disk.crash_after, plan.disk.crash_after);
  EXPECT_EQ(reparsed.disk.scope, plan.disk.scope);
}

TEST_F(IoChaosTest, ParseRejectsMalformedSpecs) {
  // A typo'd plan silently running a clean campaign would invalidate the
  // experiment, so every malformation is a hard error.
  for (const char* spec :
       {"disk.enospc", "disk.turbo=1", "disk.enospc=pony",
        "disk.enospc=0.5x", "disk.enospc=1.5", "disk.eio=-0.1",
        "disk.crash_after=12abc", "disk.crash_after=-2",
        "disk.scope=journal+disk", "seed="}) {
    EXPECT_THROW(FaultPlan::parse(spec), ConfigError) << spec;
  }
}

TEST_F(IoChaosTest, ScopeAllKeywordRestoresEveryClass) {
  const FaultPlan plan = FaultPlan::parse("disk.scope=store,disk.scope=all");
  EXPECT_EQ(plan.disk.scope, FaultPlan::Disk::kAllScopes);
}

TEST_F(IoChaosTest, InScopeFollowsScopeFlags) {
  const FaultPlan plan = FaultPlan::parse("disk.enospc=1,disk.scope=report");
  EXPECT_FALSE(plan.disk.in_scope(PathClass::kJournal));
  EXPECT_FALSE(plan.disk.in_scope(PathClass::kStore));
  EXPECT_TRUE(plan.disk.in_scope(PathClass::kReport));
  EXPECT_FALSE(plan.disk.in_scope(PathClass::kOther));
}

TEST_F(IoChaosTest, SummaryListsOnlyActiveKnobs) {
  const std::string spec =
      FaultPlan::parse("seed=3,disk.eio=0.25,disk.scope=journal").spec();
  EXPECT_EQ(spec, "seed=3,disk.eio=0.25,disk.scope=journal");
}

TEST_F(IoChaosTest, NoConfigMeansNoFaults) {
  const auto before = faults::counters();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(faults::next_disk_fault(PathClass::kOther).kind,
              DiskKind::kNone);
    EXPECT_FALSE(faults::rename_fails(PathClass::kStore));
  }
  EXPECT_EQ(faults::counters(), before);
}

TEST_F(IoChaosTest, FaultStreamIsDeterministicPerSeed) {
  const char* spec =
      "seed=42,disk.enospc=0.4,disk.eio=0.4,disk.rename_fail=0.2";
  install_fault_plan(FaultPlan::parse(spec));
  const std::vector<DiskKind> first = draw(PathClass::kOther, 64);

  // Reinstalling restarts the stream from the seed: same decisions, same
  // order — a fault campaign replays bit-for-bit.
  install_fault_plan(FaultPlan::parse(spec));
  EXPECT_EQ(draw(PathClass::kOther, 64), first);

  // A different seed gives a different fault history.
  FaultPlan reseeded = FaultPlan::parse(spec);
  reseeded.seed = 43;
  install_fault_plan(reseeded);
  EXPECT_NE(draw(PathClass::kOther, 64), first);
}

TEST_F(IoChaosTest, OutOfScopeOpsDoNotAdvanceTheStream) {
  const char* spec = "seed=11,disk.enospc=0.5,disk.scope=journal";
  install_fault_plan(FaultPlan::parse(spec));
  const std::vector<DiskKind> journal_only = draw(PathClass::kJournal, 32);

  install_fault_plan(FaultPlan::parse(spec));
  // Interleave out-of-scope store ops: they draw nothing and must not
  // perturb the journal's fault sequence.
  std::vector<DiskKind> interleaved;
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(faults::next_disk_fault(PathClass::kStore).kind,
              DiskKind::kNone);
    interleaved.push_back(faults::next_disk_fault(PathClass::kJournal).kind);
  }
  EXPECT_EQ(interleaved, journal_only);
}

TEST_F(IoChaosTest, CountsDurableOpsAndInjectedFaults) {
  install_fault_plan(FaultPlan::parse("disk.enospc=1"));
  const std::uint64_t ops = counter("io.durable_ops");
  const std::uint64_t enospc = counter("faults.disk.enospc");
  EXPECT_EQ(faults::next_disk_fault(PathClass::kOther).kind,
            DiskKind::kEnospc);
  EXPECT_EQ(counter("faults.disk.enospc"), enospc + 1);
  faults::note_durable_commit(PathClass::kOther);
  faults::note_durable_commit(PathClass::kStore);
  EXPECT_EQ(counter("io.durable_ops"), ops + 2);
}

TEST_F(IoChaosTest, CrashAfterKillsTheProcessOnTheExactOp) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        install_fault_plan(
            FaultPlan::parse("disk.crash_after=2,disk.scope=journal"));
        faults::note_durable_commit(PathClass::kStore);    // out of scope
        faults::note_durable_commit(PathClass::kJournal);  // 1: survives
        faults::note_durable_commit(PathClass::kStore);    // out of scope
        faults::note_durable_commit(PathClass::kJournal);  // 2: SIGKILL
        std::exit(0);  // must never be reached
      },
      ::testing::KilledBySignal(SIGKILL), "");
}

TEST_F(IoChaosTest, MalformedEnvironmentSpecThrows) {
  ::setenv("ANACIN_FAULT_PLAN", "disk.enospc=lots", 1);
  try {
    FaultPlan::from_env();
    FAIL() << "accepted a malformed ANACIN_FAULT_PLAN";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("ANACIN_FAULT_PLAN"),
              std::string::npos)
        << error.what();
  }
  ::setenv("ANACIN_FAULT_PLAN", "seed=5,disk.eio=1", 1);
  const std::optional<FaultPlan> plan = FaultPlan::from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 5u);
  EXPECT_DOUBLE_EQ(plan->disk.eio, 1.0);
}

TEST_F(IoChaosTest, ExplicitInstallOutranksTheEnvironment) {
  // Library code never reads the environment: only what is installed
  // counts, whatever ANACIN_FAULT_PLAN says.
  ::setenv("ANACIN_FAULT_PLAN", "disk.eio=1.0", 1);
  EXPECT_EQ(installed_fault_plan(), nullptr);
  EXPECT_EQ(faults::next_disk_fault(PathClass::kOther).kind, DiskKind::kNone);
  install_fault_plan(FaultPlan::parse("disk.enospc=1.0"));
  EXPECT_EQ(faults::next_disk_fault(PathClass::kOther).kind,
            DiskKind::kEnospc);
}

TEST_F(IoChaosTest, FailWriteAfterEnvIsStrictlyParsed) {
  // The one-shot write-failure budget is retired with the other pre-plan
  // fault variables: any value — well-formed or not — refuses to run and
  // points at the plan, instead of silently running a clean campaign.
  for (const char* value : {"12abc", "-5", "1"}) {
    ::setenv("ANACIN_FAIL_WRITE_AFTER", value, 1);
    try {
      FaultPlan::from_env();
      ADD_FAILURE() << "accepted ANACIN_FAIL_WRITE_AFTER=" << value;
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("ANACIN_FAULT_PLAN"),
                std::string::npos)
          << error.what();
    }
  }
  ::unsetenv("ANACIN_FAIL_WRITE_AFTER");
  EXPECT_FALSE(FaultPlan::from_env().has_value());
}

TEST_F(IoChaosTest, DurabilityParsesStrictly) {
  EXPECT_EQ(parse_durability("none"), Durability::kNone);
  EXPECT_EQ(parse_durability("commit"), Durability::kCommit);
  EXPECT_EQ(parse_durability("paranoid"), Durability::kParanoid);
  EXPECT_THROW(parse_durability("NONE"), ConfigError);
  EXPECT_THROW(parse_durability("max"), ConfigError);
  EXPECT_STREQ(durability_name(Durability::kCommit), "commit");
}

TEST_F(IoChaosTest, DurabilityResolvesFromEnvironmentOnce) {
  EXPECT_EQ(durability_level(), Durability::kNone);  // default

  ::setenv("ANACIN_DURABILITY", "commit", 1);
  reset_durability_for_tests();
  EXPECT_EQ(durability_level(), Durability::kCommit);

  // An explicit set (the --durability flag) overrides the environment.
  set_durability(Durability::kParanoid);
  EXPECT_EQ(durability_level(), Durability::kParanoid);

  ::setenv("ANACIN_DURABILITY", "extreme", 1);
  reset_durability_for_tests();
  EXPECT_THROW(durability_level(), ConfigError);
}

}  // namespace
}  // namespace anacin::support
