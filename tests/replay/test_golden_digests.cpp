// Golden digests of the simulator's output.
//
// For every pattern at 8 ranks and a fixed seed, this pins the store hash
// (store::digest_bytes) of the encoded trace and of its encoded event graph
// for three runs: the plain run, a pinned replay of the plain run's
// recorded schedule, and a replay with every schedule entry freed. Cases
// cover ND {0, 100} x faults {off; drop 0.2 + duplicate 0.1 + one
// straggler rank}: 6 patterns x 2 x 2 x 3 runs = 72 cases, of which
// kRejected leaves out the 8 the engine rejects.
//
// Any engine change that moves one byte of a trace (scheduling order, RNG
// streams, fault sampling, replay matching) fails here with the case name
// and the digests it computed. The table was generated with the
// thread-per-rank engine; a mismatch is a behaviour change, not a stale
// table.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/event_graph.hpp"
#include "patterns/pattern.hpp"
#include "replay/replay.hpp"
#include "store/codec.hpp"
#include "store/hash.hpp"

namespace anacin::replay {
namespace {

constexpr int kRanks = 8;
constexpr std::uint64_t kSeed = 2022;
constexpr std::uint64_t kReplaySeed = 2023;

struct Golden {
  std::string_view name;
  std::string_view trace;
  std::string_view graph;
};

constexpr Golden kGolden[] = {
    {"message_race/nd0/clean/plain",
     "1c3e7dbeeb10cfe5ddaf06aaba5229c8", "759f6e8b2547faf6b89873f521679fdb"},
    {"message_race/nd0/clean/pinned",
     "1c3e7dbeeb10cfe5ddaf06aaba5229c8", "759f6e8b2547faf6b89873f521679fdb"},
    {"message_race/nd0/clean/freed",
     "1c3e7dbeeb10cfe5ddaf06aaba5229c8", "759f6e8b2547faf6b89873f521679fdb"},
    {"message_race/nd0/faults/plain",
     "88220d8358d69b86fea2fc40323d6175", "141d88269a5023b2a3c071741fd2ae21"},
    {"message_race/nd0/faults/freed",
     "5161e58dda0078a68d41d0aadae8fc3f", "09ba948d80adf9cd8f6de1b892c75918"},
    {"message_race/nd100/clean/plain",
     "b63557ed30e1a7e32a952ebab855e9f2", "3cc3cb19c4910acbeff7497c65ddfbba"},
    {"message_race/nd100/clean/pinned",
     "5f1c65820289dd32457be5a594c6773b", "967663c99af340ac03dd9f2eba1ae935"},
    {"message_race/nd100/clean/freed",
     "25dba78637fa3005579b122eca4dfea4", "14c54f562ef238f730e8ec124311e85a"},
    {"message_race/nd100/faults/plain",
     "76ebecdd1f29adbae0fcaaa608c70595", "d06ab28c360cdfd020c5b3dde4600c0f"},
    {"message_race/nd100/faults/freed",
     "73f2564e2de6c4fef7ffd23cf3ae3227", "25a674e5804ecb9967b3be22a26620b4"},
    {"amg2013/nd0/clean/plain",
     "7bb53107fbd7cdc6d99950323cff55bf", "2f8b4f5a57885614664ef0ba6ea5adb1"},
    {"amg2013/nd0/clean/pinned",
     "7bb53107fbd7cdc6d99950323cff55bf", "2f8b4f5a57885614664ef0ba6ea5adb1"},
    {"amg2013/nd0/clean/freed",
     "7bb53107fbd7cdc6d99950323cff55bf", "2f8b4f5a57885614664ef0ba6ea5adb1"},
    {"amg2013/nd0/faults/plain",
     "0f4114a7d693bc83cc23fc6c4ba25b32", "21a67e12a551552d9947cdba3a4240c8"},
    {"amg2013/nd0/faults/freed",
     "f80249fe289bee02985566d6903a0057", "950309cbca322bd13f917c41d5e39ea0"},
    {"amg2013/nd100/clean/plain",
     "0b25a2cbb788e2afb304ac3515aaa1aa", "3b4c1c65c36493dd3946613ce30a6e0c"},
    {"amg2013/nd100/clean/pinned",
     "66b2c7d445f4fd6659f60123705b6387", "35ff52f7e383efe04898a6c9832f85c5"},
    {"amg2013/nd100/clean/freed",
     "41b6d4792187902cfd2629e2794cdb55", "f3734eeb616f78d918011a18cd2ed814"},
    {"amg2013/nd100/faults/plain",
     "3c572712f3ea84535f538363da651f42", "5e186fa026c8683d9b961414ff054144"},
    {"amg2013/nd100/faults/freed",
     "4b15b5849ccdd8051791e444b338e7fc", "f3eaaa56ed26136ec9a31daf8198f80b"},
    {"unstructured_mesh/nd0/clean/plain",
     "7501e940a9105d4818ac0af9734fb27b", "fb99485e57251e0325a51f8708d4d38c"},
    {"unstructured_mesh/nd0/clean/pinned",
     "7501e940a9105d4818ac0af9734fb27b", "fb99485e57251e0325a51f8708d4d38c"},
    {"unstructured_mesh/nd0/clean/freed",
     "7501e940a9105d4818ac0af9734fb27b", "fb99485e57251e0325a51f8708d4d38c"},
    {"unstructured_mesh/nd0/faults/plain",
     "e8edd090a5f9aa5de0d7d1eb25cd7852", "a944f0244bd9cdd7da27f7629b24aa24"},
    {"unstructured_mesh/nd0/faults/freed",
     "976f5922fabcfbe3624f65e271aa8cc8", "29f5ed252f5c760a694e81aed556ffa5"},
    {"unstructured_mesh/nd100/clean/plain",
     "c04ec2aef8ddf6b84e7e65e8ae6c6ebf", "78118e343456b7e8144b604949f36a3f"},
    {"unstructured_mesh/nd100/clean/pinned",
     "f29011fa8c3da769ba0c0207e1c9044a", "90049ff3f5a7af9d96c9f7b4afce04b6"},
    {"unstructured_mesh/nd100/clean/freed",
     "b86135c09230529bc9def9f29a784550", "6a1dbc3e99841596afeaa116ce1eb319"},
    {"unstructured_mesh/nd100/faults/plain",
     "b98d46c5409b0b3968666a6740a4c96a", "3851d48f3e8ff781ad012b2858b825fe"},
    {"unstructured_mesh/nd100/faults/freed",
     "71024ca9ad736a7dd70ff35d89ccd816", "2313d9bd27b333a7ae97fcbf362fce10"},
    {"ping_pong/nd0/clean/plain",
     "cb9951d556a083f36200883b20628946", "bf8db6f41e8aa3389e44ea6f071ed9cd"},
    {"ping_pong/nd0/clean/pinned",
     "cb9951d556a083f36200883b20628946", "bf8db6f41e8aa3389e44ea6f071ed9cd"},
    {"ping_pong/nd0/clean/freed",
     "cb9951d556a083f36200883b20628946", "bf8db6f41e8aa3389e44ea6f071ed9cd"},
    {"ping_pong/nd0/faults/plain",
     "08a560c0782c7142d3987a1266492cbb", "130a6211813c89042d92816b754d8729"},
    {"ping_pong/nd0/faults/pinned",
     "53f22ee8bb3e2946cff25ce761a5136b", "081290265e8c1cb13d885118055e9650"},
    {"ping_pong/nd0/faults/freed",
     "53f22ee8bb3e2946cff25ce761a5136b", "081290265e8c1cb13d885118055e9650"},
    {"ping_pong/nd100/clean/plain",
     "3161f3df0d1e932bf45e3f890493bd36", "77bcf077362a9fa0d845fa6ab186b3c5"},
    {"ping_pong/nd100/clean/pinned",
     "896e85c8cf84057bdd6f20d96116d6ae", "b6cf14faf7b2cc4cb8aaa724a4c38f65"},
    {"ping_pong/nd100/clean/freed",
     "896e85c8cf84057bdd6f20d96116d6ae", "b6cf14faf7b2cc4cb8aaa724a4c38f65"},
    {"ping_pong/nd100/faults/plain",
     "e70ae2f1f9c9a80f5da055257023db86", "b17088fc89b06ab81b8c1d5a6becc191"},
    {"ping_pong/nd100/faults/pinned",
     "12437b52df0d65493353e1e67fa6d468", "1331eece78cc8a1fbf890cd860f9ef8e"},
    {"ping_pong/nd100/faults/freed",
     "12437b52df0d65493353e1e67fa6d468", "1331eece78cc8a1fbf890cd860f9ef8e"},
    {"reduce_tree/nd0/clean/plain",
     "e75e78fac33aad6cd7b2570387248f07", "a3c4e7c5a715a4e2ac614569a0466f35"},
    {"reduce_tree/nd0/clean/pinned",
     "e75e78fac33aad6cd7b2570387248f07", "a3c4e7c5a715a4e2ac614569a0466f35"},
    {"reduce_tree/nd0/clean/freed",
     "e75e78fac33aad6cd7b2570387248f07", "a3c4e7c5a715a4e2ac614569a0466f35"},
    {"reduce_tree/nd0/faults/plain",
     "ba35a7dc7543a2c89028ea54f3955157", "b6206bd34095ca4549c3edc16cd8f156"},
    {"reduce_tree/nd0/faults/freed",
     "067450320a4b37cd532cf83155bff7fe", "fe1f3a55b6f42c2b2e85faeb9b6369dc"},
    {"reduce_tree/nd100/clean/plain",
     "5f7f2bfade51d8fe177774722c0b8e9d", "4294d7e30b16e14774d14f094587bcbc"},
    {"reduce_tree/nd100/clean/pinned",
     "5863af27c1e3b5b1d16c65ceac0aea96", "fb79eea2b31955e54a8471e37026e3f2"},
    {"reduce_tree/nd100/clean/freed",
     "a7cb6a60d93c77437ad12d6ac31fadcc", "7c63805e320d35686681eec61bfcf27f"},
    {"reduce_tree/nd100/faults/plain",
     "e4345356fe80bc5e0e6f6fc486a4708d", "b722da7bc724ef964a466e4a5dc5d101"},
    {"reduce_tree/nd100/faults/freed",
     "3c9c72d23350fc43bda30647f5d10f30", "6014ba230a9dbcb9f506d7898b153aa6"},
    {"probe_race/nd0/clean/plain",
     "cbf00f28dfda763d7c9310003ed2bed0", "1b2b5741a918313cf780cbddb015f82d"},
    {"probe_race/nd0/clean/pinned",
     "cbf00f28dfda763d7c9310003ed2bed0", "1b2b5741a918313cf780cbddb015f82d"},
    {"probe_race/nd0/clean/freed",
     "cbf00f28dfda763d7c9310003ed2bed0", "1b2b5741a918313cf780cbddb015f82d"},
    {"probe_race/nd0/faults/plain",
     "3c26dcc4e03c0713940b2b79ac5cebfc", "8ffd59e2e4a07a600753036f0c08fd3b"},
    {"probe_race/nd0/faults/pinned",
     "1258f395eb6baf0333e9dcc58f815526", "401bda704f8a205eda678a4a6073375f"},
    {"probe_race/nd0/faults/freed",
     "1258f395eb6baf0333e9dcc58f815526", "401bda704f8a205eda678a4a6073375f"},
    {"probe_race/nd100/clean/plain",
     "3ef83809ed4a78c799c4c7bc25cf5f82", "361a28de6027fe8cc72826808c2f1a81"},
    {"probe_race/nd100/clean/pinned",
     "8327dd37a40e8ac5806cf6977b526a5c", "aa6d217a1633a87a6e9e53d52e6743db"},
    {"probe_race/nd100/clean/freed",
     "8327dd37a40e8ac5806cf6977b526a5c", "aa6d217a1633a87a6e9e53d52e6743db"},
    {"probe_race/nd100/faults/plain",
     "9f003f26abce892777db59ae4e210378", "d39684facca40351054f37e2356cdb86"},
    {"probe_race/nd100/faults/pinned",
     "d9e719e145d0de3eed3c72c30519cb67", "1c2475922d81e51faa18d0a4851664ce"},
    {"probe_race/nd100/faults/freed",
     "d9e719e145d0de3eed3c72c30519cb67", "1c2475922d81e51faa18d0a4851664ce"},
};

// A pinned replay under faults at another seed deadlocks whenever the
// schedule has entries: the fault events a send records shift the
// sender's event sequence numbers, which the schedule names. These cases
// are left out; the other 64 are checked.
constexpr std::string_view kRejected[] = {
    "message_race/nd0/faults/pinned",
    "message_race/nd100/faults/pinned",
    "amg2013/nd0/faults/pinned",
    "amg2013/nd100/faults/pinned",
    "unstructured_mesh/nd0/faults/pinned",
    "unstructured_mesh/nd100/faults/pinned",
    "reduce_tree/nd0/faults/pinned",
    "reduce_tree/nd100/faults/pinned",
};

struct Case {
  std::string pattern;
  int nd_percent = 0;
  bool faults = false;
};

std::string case_name(const Case& c) {
  return c.pattern + "/nd" + std::to_string(c.nd_percent) +
         (c.faults ? "/faults" : "/clean");
}

void PrintTo(const Case& c, std::ostream* os) { *os << case_name(c); }

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const std::string& pattern : patterns::pattern_names()) {
    for (const int nd_percent : {0, 100}) {
      for (const bool faults : {false, true}) {
        cases.push_back({pattern, nd_percent, faults});
      }
    }
  }
  return cases;
}

sim::SimConfig sim_config(const Case& c, std::uint64_t seed) {
  sim::SimConfig config;
  config.num_ranks = kRanks;
  config.seed = seed;
  config.network.nd_fraction = c.nd_percent / 100.0;
  if (c.faults) {
    config.faults.drop_probability = 0.2;
    config.faults.duplicate_probability = 0.1;
    config.faults.straggler_ranks = {kRanks - 1};
  }
  return config;
}

std::string hex_digest(const std::vector<std::uint8_t>& bytes) {
  return store::digest_bytes(bytes.data(), bytes.size()).to_hex();
}

bool rejected(const std::string& name) {
  for (const std::string_view row : kRejected) {
    if (row == name) return true;
  }
  return false;
}

void expect_golden(const std::string& name, const trace::Trace& trace) {
  const std::string trace_hex = hex_digest(store::encode_trace(trace));
  const std::string graph_hex = hex_digest(
      store::encode_event_graph(graph::EventGraph::from_trace(trace)));
  const Golden* golden = nullptr;
  for (const Golden& row : kGolden) {
    if (row.name == name) golden = &row;
  }
  EXPECT_TRUE(golden != nullptr && golden->trace == trace_hex &&
              golden->graph == graph_hex)
      << "golden digest mismatch for " << name << "; computed:\n    {\""
      << name << "\", \"" << trace_hex << "\", \"" << graph_hex << "\"},";
}

class GoldenDigests : public ::testing::TestWithParam<Case> {};

TEST_P(GoldenDigests, PlainPinnedAndFreedRunsMatchTable) {
  const Case& c = GetParam();
  const std::string name = case_name(c);
  patterns::PatternConfig shape;
  shape.num_ranks = kRanks;
  shape.iterations = 2;
  const sim::RankProgram program =
      patterns::make_pattern(c.pattern)->program(shape);

  const sim::RunResult plain =
      sim::run_simulation(sim_config(c, kSeed), program);
  expect_golden(name + "/plain", plain.trace);

  sim::ReplaySchedule schedule = record_schedule(plain.trace);
  sim::SimConfig replay_config = sim_config(c, kReplaySeed);
  replay_config.replay = &schedule;
  if (!rejected(name + "/pinned")) {
    expect_golden(name + "/pinned",
                  sim::run_simulation(replay_config, program).trace);
  }

  for (std::size_t i = 0; i < schedule.total_matches(); ++i) {
    schedule.free_entry(i);
  }
  expect_golden(name + "/freed",
                sim::run_simulation(replay_config, program).trace);
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, GoldenDigests, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string id = case_name(info.param);
      for (char& ch : id) {
        if (ch == '/') ch = '_';
      }
      return id;
    });

}  // namespace
}  // namespace anacin::replay
