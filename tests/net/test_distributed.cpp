// End-to-end distributed campaigns: run the same sweep locally and via
// `anacin serve` + two loopback `anacin agent` processes, and require the
// report outputs to be byte-identical — cold, with one agent SIGKILLed
// mid-campaign (requeue to the survivor), with warm agent stores (zero
// simulation, also under network faults), and across a scheduler crash +
// --resume. Exercises the real CLI binary the way an operator's fleet
// would.

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <sstream>
#include <string>

#include "../integration/cli_e2e.hpp"

namespace anacin {
namespace {

namespace fs = std::filesystem;
using e2e::counter_value;
using e2e::run_command;
using e2e::slurp;

constexpr const char* kSweepFlags =
    "--pattern message_race --ranks 4 --runs 2 --step 50 --seed 7";

class DistributedE2e : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anacin_distributed_e2e_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    bin_ = fs::path(ANACIN_CLI_PATH).string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path path(const std::string& name) const { return dir_ / name; }

  /// The local baseline: same sweep flags, same seed, plain `sweep`.
  std::string local_command(const std::string& tag) const {
    std::ostringstream os;
    os << '"' << bin_ << "\" --store " << path("local-store").string()
       << " --metrics-out " << path(tag + "-metrics.json").string()
       << " sweep " << kSweepFlags << " --csv " << path(tag + ".csv").string()
       << " --json " << path(tag + ".json").string() << " > "
       << path(tag + ".out").string() << " 2>&1";
    return os.str();
  }

  /// One scheduler + two loopback agents, wired through an ephemeral port
  /// announced via --port-file (always an absolute path — agents poll for
  /// it with a bounded wait so a scheduler that dies early cannot strand
  /// them). Returns the serve exit code; each agent's exit code lands in
  /// <tag>-aN.rc.
  std::string fleet_command(const std::string& tag,
                            const std::string& scheduler_store,
                            const std::string& agent1_store,
                            const std::string& agent2_store,
                            const std::string& serve_env = "",
                            const std::string& agent1_env = "",
                            const std::string& extra_serve = "") const {
    const std::string port_file = path(tag + "-port.txt").string();
    const auto agent = [&](int i, const std::string& store,
                           const std::string& env) {
      std::ostringstream os;
      os << "( i=0; while [ ! -s \"" << port_file
         << "\" ] && [ $i -lt 200 ]; do sleep 0.05; i=$((i+1)); done; "
         << "[ -s \"" << port_file << "\" ] || exit 3; " << env
         << (env.empty() ? "" : " ") << "exec \"" << bin_ << "\" --store "
         << path(store).string() << " --metrics-out "
         << path(tag + "-a" + std::to_string(i) + "-metrics.json").string()
         << " agent --connect 127.0.0.1:$(cat \"" << port_file
         << "\") --name a" << i << " ) > "
         << path(tag + "-a" + std::to_string(i) + ".out").string()
         << " 2>&1 &\nA" << i << "=$!\n";
      return os.str();
    };

    std::ostringstream os;
    os << "rm -f \"" << port_file << "\"\n"
       << agent(1, agent1_store, agent1_env) << agent(2, agent2_store, "")
       << serve_env << (serve_env.empty() ? "" : " ") << '"' << bin_
       << "\" --store " << path(scheduler_store).string() << " --metrics-out "
       << path(tag + "-metrics.json").string() << " serve " << kSweepFlags
       << " --agents 2 --port-file \"" << port_file << "\" --csv "
       << path(tag + ".csv").string() << " --json "
       << path(tag + ".json").string() << ' ' << extra_serve << " > "
       << path(tag + ".out").string() << " 2>&1\nRC=$?\n"
       << "wait $A1; echo $? > " << path(tag + "-a1.rc").string() << "\n"
       << "wait $A2; echo $? > " << path(tag + "-a2.rc").string() << "\n"
       << "exit $RC";
    return os.str();
  }

  int agent_exit(const std::string& tag, int i) const {
    const std::string text = slurp(path(tag + "-a" + std::to_string(i) +
                                        ".rc"));
    return text.empty() ? -1 : std::stoi(text);
  }

  json::Value metrics(const std::string& tag) const {
    return json::parse(slurp(path(tag + "-metrics.json")));
  }

  /// Warm both agent stores with a completed local sweep; the scheduler
  /// store stays cold, so it must pull everything over the wire, and the
  /// agents must serve it all from cache. A non-empty `serve_env` must
  /// inject network faults, and at least one of them must fire.
  void expect_warm_agents_publish_without_simulating(
      const std::string& serve_env, const std::string& extra_serve) {
    ASSERT_EQ(run_command(local_command("local")), 0)
        << slurp(path("local.out"));
    ASSERT_EQ(run_command("cp -r " + path("local-store").string() + " " +
                          path("warm1-store").string()),
              0);
    ASSERT_EQ(run_command("cp -r " + path("local-store").string() + " " +
                          path("warm2-store").string()),
              0);

    ASSERT_EQ(run_command(fleet_command("warm", "warm-sched-store",
                                        "warm1-store", "warm2-store",
                                        serve_env, "", extra_serve)),
              0)
        << debug_dump("warm");
    EXPECT_EQ(agent_exit("warm", 1), 0);
    EXPECT_EQ(agent_exit("warm", 2), 0);

    EXPECT_EQ(slurp(path("warm.json")), slurp(path("local.json")));

    // The acceptance bar: warm agents run zero simulations end to end.
    EXPECT_EQ(counter_value(metrics("warm-a1"), "sim.engine.runs"), 0.0);
    EXPECT_EQ(counter_value(metrics("warm-a2"), "sim.engine.runs"), 0.0);
    EXPECT_GT(counter_value(metrics("warm-a1"), "net.objects_published") +
                  counter_value(metrics("warm-a2"), "net.objects_published"),
              0.0);
    if (!serve_env.empty()) {
      const json::Value serve_metrics = metrics("warm");
      double faults_fired = 0.0;
      for (const char* kind :
           {"drop", "corrupt", "reorder", "delay", "reset", "partition"}) {
        faults_fired += counter_value(serve_metrics,
                                      std::string("faults.net.") + kind);
      }
      EXPECT_GT(faults_fired, 0.0) << debug_dump("warm");
    }
  }

  std::string debug_dump(const std::string& tag) const {
    return "serve:\n" + slurp(path(tag + ".out")) + "\nagent1:\n" +
           slurp(path(tag + "-a1.out")) + "\nagent2:\n" +
           slurp(path(tag + "-a2.out"));
  }

  fs::path dir_;
  std::string bin_;
};

TEST_F(DistributedE2e, ColdFleetMatchesLocalByteForByte) {
  ASSERT_EQ(run_command(local_command("local")), 0)
      << slurp(path("local.out"));
  const std::string local_json = slurp(path("local.json"));
  const std::string local_csv = slurp(path("local.csv"));
  ASSERT_FALSE(local_json.empty());

  ASSERT_EQ(run_command(fleet_command("cold", "sched-store", "agent1-store",
                                      "agent2-store")),
            0)
      << debug_dump("cold");
  EXPECT_EQ(agent_exit("cold", 1), 0) << slurp(path("cold-a1.out"));
  EXPECT_EQ(agent_exit("cold", 2), 0) << slurp(path("cold-a2.out"));

  EXPECT_EQ(slurp(path("cold.json")), local_json);
  EXPECT_EQ(slurp(path("cold.csv")), local_csv);

  // Every unit really travelled the wire: the scheduler store was cold, so
  // nothing short-circuited, and both agents joined.
  const json::Value serve_metrics = metrics("cold");
  EXPECT_EQ(counter_value(serve_metrics, "net.agents_connected"), 2.0);
  EXPECT_GT(counter_value(serve_metrics, "net.units_dispatched"), 0.0);
  EXPECT_GT(counter_value(serve_metrics, "net.objects_absorbed"), 0.0);
  EXPECT_EQ(counter_value(serve_metrics, "net.unit_failures"), 0.0);
}

TEST_F(DistributedE2e, AgentKilledMidCampaignRequeuesToSurvivor) {
  ASSERT_EQ(run_command(local_command("local")), 0)
      << slurp(path("local.out"));

  // Agent 1 SIGKILLs itself inside the first unit it picks up (the "*"
  // wildcard — unit placement across agents is racy, so a specific unit
  // id might land on the uninjected agent). A killed process can never
  // resume its session, so the scheduler must wait out the unit's lease
  // (shortened here so the test stays fast), map the expiry to a
  // transient crash, re-queue the unit, and finish on the survivor.
  ASSERT_EQ(run_command(fleet_command("kill", "sched-store", "agent1-store",
                                      "agent2-store", "",
                                      "ANACIN_FAULT_PLAN='unit.*=crash:KILL'",
                                      "--unit-lease-ms 2000")),
            0)
      << debug_dump("kill");
  EXPECT_EQ(agent_exit("kill", 1), 128 + SIGKILL)
      << slurp(path("kill-a1.out"));
  EXPECT_EQ(agent_exit("kill", 2), 0) << slurp(path("kill-a2.out"));

  // The kill is invisible in the report: byte-identical to local.
  EXPECT_EQ(slurp(path("kill.json")), slurp(path("local.json")));
  EXPECT_EQ(slurp(path("kill.csv")), slurp(path("local.csv")));

  const json::Value serve_metrics = metrics("kill");
  EXPECT_GE(counter_value(serve_metrics, "net.agent_disconnects"), 1.0);
  EXPECT_GE(counter_value(serve_metrics, "net.leases_expired"), 1.0);
  EXPECT_GE(counter_value(serve_metrics, "resilience.retries"), 1.0);
  EXPECT_TRUE(e2e::no_process_left(dir_.string()));
}

TEST_F(DistributedE2e, ChaosFleetMatchesLocalByteForByte) {
  ASSERT_EQ(run_command(local_command("local")), 0)
      << slurp(path("local.out"));

  // Seeded chaos on BOTH sides of the wire: the scheduler mangles its
  // sends (requests, shipped objects) and agent 1 mangles its own
  // (heartbeats, publishes, results). Corruption is caught by the frame
  // CRC, drops by the stall detector (shortened so a swallowed result
  // costs ~1.5 s, not 10), reorders by the bounded window, and every
  // recovery path funnels through session resume + warm re-execution —
  // none of which may leave a fingerprint in the report.
  const std::string serve_chaos =
      "ANACIN_FAULT_PLAN='seed=7,net.corrupt=0.03,net.reorder=0.05,"
      "net.delay=0.3,net.delay_ms=5'";
  const std::string agent_chaos =
      "ANACIN_FAULT_PLAN='seed=1007,net.drop=0.02,net.corrupt=0.03,"
      "net.reorder=0.05,net.delay=0.3,net.delay_ms=5'";
  ASSERT_EQ(run_command(fleet_command(
                "chaos", "sched-store", "agent1-store", "agent2-store",
                serve_chaos, agent_chaos,
                "--unit-lease-ms 5000 --agent-heartbeat-timeout-ms 1500")),
            0)
      << debug_dump("chaos");
  EXPECT_EQ(agent_exit("chaos", 1), 0) << slurp(path("chaos-a1.out"));
  EXPECT_EQ(agent_exit("chaos", 2), 0) << slurp(path("chaos-a2.out"));

  // The invariant of the whole fabric: heavy chaos, identical bytes.
  EXPECT_EQ(slurp(path("chaos.json")), slurp(path("local.json")));
  EXPECT_EQ(slurp(path("chaos.csv")), slurp(path("local.csv")));

  // Prove the run was not accidentally clean: faults actually fired on at
  // least one side, and the scheduler store ended up intact.
  const json::Value serve_metrics = metrics("chaos");
  const json::Value agent1_metrics = metrics("chaos-a1");
  const double faults_fired =
      counter_value(serve_metrics, "faults.net.corrupt") +
      counter_value(serve_metrics, "faults.net.reorder") +
      counter_value(serve_metrics, "faults.net.delay") +
      counter_value(agent1_metrics, "faults.net.drop") +
      counter_value(agent1_metrics, "faults.net.corrupt") +
      counter_value(agent1_metrics, "faults.net.reorder") +
      counter_value(agent1_metrics, "faults.net.delay");
  EXPECT_GT(faults_fired, 0.0) << debug_dump("chaos");
}

TEST_F(DistributedE2e, ConnectionResetsResumeSessionsInvisibly) {
  ASSERT_EQ(run_command(local_command("local")), 0)
      << slurp(path("local.out"));

  // Every scheduler-side send has a 25% chance of tearing the connection
  // down mid-conversation. The agents survive on their session tokens:
  // each reset costs a reconnect + re-dispatch (answered from the warm
  // agent store), never a requeue to another agent and never a wrong
  // byte. The shortened lease bounds how long a torn unit can dangle.
  ASSERT_EQ(run_command(fleet_command(
                "reset", "sched-store", "agent1-store", "agent2-store",
                "ANACIN_FAULT_PLAN='seed=11,net.reset=0.25'", "",
                "--unit-lease-ms 5000 --agent-heartbeat-timeout-ms 1500")),
            0)
      << debug_dump("reset");
  EXPECT_EQ(agent_exit("reset", 1), 0) << slurp(path("reset-a1.out"));
  EXPECT_EQ(agent_exit("reset", 2), 0) << slurp(path("reset-a2.out"));

  EXPECT_EQ(slurp(path("reset.json")), slurp(path("local.json")));
  EXPECT_EQ(slurp(path("reset.csv")), slurp(path("local.csv")));

  const json::Value serve_metrics = metrics("reset");
  EXPECT_GE(counter_value(serve_metrics, "faults.net.reset"), 1.0);
  EXPECT_GE(counter_value(serve_metrics, "net.sessions_resumed"), 1.0);
  // Resume — not expiry — is the recovery path for a live agent.
  EXPECT_GE(counter_value(serve_metrics, "net.redispatches"), 1.0);
  EXPECT_TRUE(e2e::no_process_left(dir_.string()));
}

TEST_F(DistributedE2e, WarmAgentsPublishWithoutSimulating) {
  expect_warm_agents_publish_without_simulating("", "");
}

TEST_F(DistributedE2e, WarmAgentsUnderNetworkFaultsPublishWithoutSimulating) {
  // Resets and corrupt frames on the scheduler's sends: every recovery
  // (reconnect, re-dispatch) must be answered from the agents' stores.
  expect_warm_agents_publish_without_simulating(
      "ANACIN_FAULT_PLAN='seed=21,net.reset=0.1,net.corrupt=0.05'",
      "--unit-lease-ms 5000 --agent-heartbeat-timeout-ms 1500");
}

TEST_F(DistributedE2e, SchedulerCrashResumesAcrossFreshFleet) {
  ASSERT_EQ(run_command(local_command("local")), 0)
      << slurp(path("local.out"));

  // The scheduler SIGKILLs itself after journaling the first sweep point
  // (the journal commits once per fresh point, and is the only
  // journal-class writer); the orphaned agents see EOF and exit 0 — no
  // strays.
  const std::string journal = " --journal " + path("serve.jsonl").string();
  EXPECT_EQ(run_command(fleet_command(
                "crash", "sched-store", "agent1-store", "agent2-store",
                "ANACIN_FAULT_PLAN=disk.crash_after=1,disk.scope=journal", "",
                journal)),
            128 + SIGKILL)
      << debug_dump("crash");
  EXPECT_EQ(agent_exit("crash", 1), 0) << slurp(path("crash-a1.out"));
  EXPECT_EQ(agent_exit("crash", 2), 0) << slurp(path("crash-a2.out"));
  EXPECT_TRUE(e2e::no_process_left(dir_.string()));
  ASSERT_TRUE(fs::exists(path("serve.jsonl")));

  // Resume with a fresh fleet: the journal replays the finished point and
  // the remaining units run distributed; the final report is
  // byte-identical to the uninterrupted local sweep.
  ASSERT_EQ(run_command(fleet_command("resumed", "sched-store",
                                      "agent1-store", "agent2-store", "", "",
                                      journal + " --resume")),
            0)
      << debug_dump("resumed");
  EXPECT_NE(slurp(path("resumed.out")).find("resume: 1 of 3"),
            std::string::npos)
      << slurp(path("resumed.out"));
  EXPECT_EQ(slurp(path("resumed.json")), slurp(path("local.json")));
  EXPECT_EQ(slurp(path("resumed.csv")), slurp(path("local.csv")));
}

}  // namespace
}  // namespace anacin
