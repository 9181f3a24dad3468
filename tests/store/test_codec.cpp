#include "store/codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "graph/event_graph.hpp"
#include "patterns/pattern.hpp"
#include "sim/simulator.hpp"
#include "store/hash.hpp"
#include "support/error.hpp"

namespace anacin::store {
namespace {

sim::RunResult sample_run(std::uint64_t seed = 42) {
  patterns::PatternConfig shape;
  shape.num_ranks = 4;
  shape.iterations = 2;
  sim::SimConfig config;
  config.num_ranks = 4;
  config.seed = seed;
  const auto pattern = patterns::make_pattern("amg2013");
  return sim::run_simulation(config, pattern->program(shape));
}

TEST(CodecTrace, RoundTripMatchesJsonForm) {
  const trace::Trace original = sample_run().trace;
  const std::vector<std::uint8_t> blob = encode_trace(original);
  const trace::Trace decoded = decode_trace(blob);
  // The JSON form is the existing canonical serialization of a trace;
  // byte-identical dumps mean the binary codec loses nothing.
  EXPECT_EQ(decoded.to_json().dump(), original.to_json().dump());
}

TEST(CodecEventGraph, RoundTripIsExact) {
  const graph::EventGraph original =
      graph::EventGraph::from_trace(sample_run().trace);
  const std::vector<std::uint8_t> blob = encode_event_graph(original);
  const graph::EventGraph decoded = decode_event_graph(blob);

  EXPECT_EQ(decoded.num_ranks(), original.num_ranks());
  EXPECT_EQ(decoded.num_nodes(), original.num_nodes());
  EXPECT_EQ(decoded.message_edges(), original.message_edges());
  EXPECT_EQ(decoded.max_lamport(), original.max_lamport());
  // Re-encoding captures every node field, offsets, edges, and callstacks:
  // byte equality is full structural equality.
  EXPECT_EQ(encode_event_graph(decoded), blob);
}

TEST(CodecDistances, DoublesRoundTripBitwise) {
  const std::vector<double> values = {
      0.0, -0.0, 1.0 / 3.0, 0.1, 1e-308, 1e308,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity()};
  const std::vector<double> decoded = decode_distances(
      encode_distances(values));
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "value " << i;
  }
}

TEST(CodecRun, RoundTripKeepsStats) {
  const sim::RunResult run = sample_run();
  EncodedRun original;
  original.graph = graph::EventGraph::from_trace(run.trace);
  original.messages = run.stats.messages;
  original.wildcard_recvs = run.stats.wildcard_recvs;
  original.drops = 17;
  original.retries = 17;
  original.duplicates = 5;
  original.straggler_events = 2;
  const EncodedRun decoded = decode_run(encode_run(original));
  EXPECT_EQ(decoded.messages, original.messages);
  EXPECT_EQ(decoded.wildcard_recvs, original.wildcard_recvs);
  EXPECT_EQ(decoded.drops, original.drops);
  EXPECT_EQ(decoded.retries, original.retries);
  EXPECT_EQ(decoded.duplicates, original.duplicates);
  EXPECT_EQ(decoded.straggler_events, original.straggler_events);
  EXPECT_EQ(encode_event_graph(decoded.graph),
            encode_event_graph(original.graph));
}

TEST(CodecRun, FaultEventsInGraphRoundTrip) {
  patterns::PatternConfig shape;
  shape.num_ranks = 4;
  sim::SimConfig config;
  config.num_ranks = 4;
  config.seed = 3;
  config.faults.drop_probability = 1.0;
  config.faults.max_retries = 1;
  const auto pattern = patterns::make_pattern("message_race");
  const sim::RunResult run =
      sim::run_simulation(config, pattern->program(shape));
  ASSERT_GT(run.stats.drops, 0u);

  EncodedRun original;
  original.graph = graph::EventGraph::from_trace(run.trace);
  original.drops = run.stats.drops;
  const EncodedRun decoded = decode_run(encode_run(original));
  EXPECT_EQ(encode_event_graph(decoded.graph),
            encode_event_graph(original.graph));
}

TEST(CodecCorruption, TruncationIsRejected) {
  const std::vector<std::uint8_t> blob = encode_distances({1.0, 2.0, 3.0});
  // Cut inside the envelope.
  const std::vector<std::uint8_t> headerless(blob.begin(), blob.begin() + 8);
  EXPECT_THROW(validate_envelope(headerless), ParseError);
  // Cut inside the payload.
  std::vector<std::uint8_t> short_payload(blob.begin(), blob.end() - 5);
  try {
    decode_distances(short_payload);
    FAIL() << "truncated artifact was accepted";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("truncated"),
              std::string::npos);
  }
}

TEST(CodecCorruption, FlippedPayloadByteFailsChecksum) {
  std::vector<std::uint8_t> blob = encode_distances({1.0, 2.0, 3.0});
  blob[kEnvelopeSize + 3] ^= 0x40;
  try {
    decode_distances(blob);
    FAIL() << "corrupt artifact was accepted";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos);
  }
}

TEST(CodecCorruption, BadMagicIsRejected) {
  std::vector<std::uint8_t> blob = encode_distances({1.0});
  blob[0] = 'X';
  try {
    validate_envelope(blob);
    FAIL() << "bad magic was accepted";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("magic"), std::string::npos);
  }
}

TEST(CodecCorruption, FutureFormatVersionIsRefusedWithClearError) {
  std::vector<std::uint8_t> blob = encode_distances({1.0});
  blob[4] = static_cast<std::uint8_t>(kFormatVersion + 1);
  try {
    validate_envelope(blob);
    FAIL() << "future-version artifact was accepted";
  } catch (const ParseError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("newer"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(kFormatVersion)),
              std::string::npos)
        << message;
  }
}

TEST(CodecCorruption, KindMismatchIsRejected) {
  const std::vector<std::uint8_t> blob = encode_distances({1.0});
  try {
    decode_trace(blob);
    FAIL() << "kind mismatch was accepted";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("kind"), std::string::npos);
  }
}

TEST(CodecFeatures, RoundTripIsBitExact) {
  kernels::SparseHistogram features;
  features.push(3, 1.0);
  features.push(0x9E3779B97F4A7C15ull, 42.0);
  features.push(0xFFFFFFFFFFFFFFFEull, 7.0);
  const kernels::SparseHistogram decoded =
      decode_features(encode_features(features));
  EXPECT_EQ(decoded, features);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.self_dot),
            std::bit_cast<std::uint64_t>(features.self_dot));

  const kernels::SparseHistogram empty_decoded =
      decode_features(encode_features(kernels::SparseHistogram{}));
  EXPECT_TRUE(empty_decoded.empty());
}

TEST(CodecFeatures, RejectsUnsortedOrInconsistentPayloads) {
  // The encoder writes whatever it is handed; the decoder is the gate.
  kernels::SparseHistogram unsorted;
  unsorted.ids = {20, 10};
  unsorted.counts = {3.0, 2.0};
  unsorted.self_dot = 13.0;
  EXPECT_THROW(decode_features(encode_features(unsorted)), ParseError);

  kernels::SparseHistogram bad_norm;
  bad_norm.ids = {10, 20};
  bad_norm.counts = {3.0, 2.0};
  bad_norm.self_dot = 999.0;  // does not match 3^2 + 2^2
  EXPECT_THROW(decode_features(encode_features(bad_norm)), ParseError);
}

/// Re-seal a hand-edited blob: the envelope's payload size (offset 8) and
/// checksum (offset 16) fields, little-endian.
std::vector<std::uint8_t> reseal(std::vector<std::uint8_t> blob) {
  const std::uint64_t size = blob.size() - kEnvelopeSize;
  Fnv1a checksum;
  checksum.update(blob.data() + kEnvelopeSize, size);
  for (std::size_t i = 0; i < 8; ++i) {
    blob[8 + i] = static_cast<std::uint8_t>(size >> (8 * i));
    blob[16 + i] = static_cast<std::uint8_t>(checksum.value() >> (8 * i));
  }
  return blob;
}

/// decode_bisection(blob) throws a ParseError whose message has `needle`.
void expect_bisection_rejected(const std::vector<std::uint8_t>& blob,
                               const std::string& needle) {
  try {
    decode_bisection(blob);
    ADD_FAILURE() << "bisection payload accepted; expected: " << needle;
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(CodecBisection, RoundTripIsBitExact) {
  EncodedBisection outcome;
  outcome.full_gap = 0.1 + 0.2;
  outcome.achieved = std::numeric_limits<double>::denorm_min();
  outcome.rounds = 7;
  outcome.candidates = std::numeric_limits<std::uint64_t>::max();
  outcome.minimal = {0, 3, 0x9E3779B97F4A7C15ull};
  outcome.contributions = {-0.0, std::numeric_limits<double>::infinity(),
                           1.0 / 3.0};
  const std::vector<std::uint8_t> blob = encode_bisection(outcome);
  EXPECT_EQ(validate_envelope(blob).kind, Kind::kBisection);
  EXPECT_EQ(kind_name(Kind::kBisection), "bisection");

  const EncodedBisection decoded = decode_bisection(blob);
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  EXPECT_EQ(bits(decoded.full_gap), bits(outcome.full_gap));
  EXPECT_EQ(bits(decoded.achieved), bits(outcome.achieved));
  EXPECT_EQ(decoded.rounds, outcome.rounds);
  EXPECT_EQ(decoded.candidates, outcome.candidates);
  EXPECT_EQ(decoded.minimal, outcome.minimal);
  ASSERT_EQ(decoded.contributions.size(), outcome.contributions.size());
  for (std::size_t i = 0; i < outcome.contributions.size(); ++i) {
    EXPECT_EQ(bits(decoded.contributions[i]), bits(outcome.contributions[i]));
  }
  EXPECT_EQ(encode_bisection(decoded), blob);

  const EncodedBisection empty = decode_bisection(encode_bisection({}));
  EXPECT_TRUE(empty.minimal.empty());
  EXPECT_TRUE(empty.contributions.empty());
  EXPECT_EQ(empty.candidates, 0u);
}

TEST(CodecBisection, RejectsUnsortedMismatchedOrTrailingPayloads) {
  // The encoder writes whatever it is handed; the decoder is the gate.
  EncodedBisection repeated;
  repeated.minimal = {2, 2};
  repeated.contributions = {1.0, 1.0};
  expect_bisection_rejected(encode_bisection(repeated), "strictly ascending");
  EncodedBisection descending;
  descending.minimal = {3, 1};
  descending.contributions = {1.0, 1.0};
  expect_bisection_rejected(encode_bisection(descending), "strictly ascending");

  EncodedBisection mismatched;
  mismatched.minimal = {1, 2};
  mismatched.contributions = {1.0};
  expect_bisection_rejected(encode_bisection(mismatched), "contribution count");

  EncodedBisection good;
  good.minimal = {1, 2};
  good.contributions = {1.0, 0.5};
  std::vector<std::uint8_t> trailing = encode_bisection(good);
  trailing.push_back(0);
  expect_bisection_rejected(reseal(trailing), "trailing bytes");
  std::vector<std::uint8_t> truncated = encode_bisection(good);
  truncated.pop_back();
  expect_bisection_rejected(reseal(truncated), "truncated");

  expect_bisection_rejected(encode_distances({1.0}), "kind");
}

TEST(CodecDeterminism, EncodingIsStable) {
  const trace::Trace trace = sample_run(7).trace;
  EXPECT_EQ(encode_trace(trace), encode_trace(trace));
  const graph::EventGraph graph = graph::EventGraph::from_trace(trace);
  EXPECT_EQ(encode_event_graph(graph), encode_event_graph(graph));
}

}  // namespace
}  // namespace anacin::store
