#include "store/codec.hpp"

#include <bit>
#include <cstring>

#include "store/hash.hpp"
#include "support/error.hpp"

namespace anacin::store {

namespace {

constexpr char kMagic[4] = {'A', 'N', 'C', 'S'};

/// Append-only little-endian writer for artifact payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t value) { bytes_.push_back(value); }
  void u16(std::uint16_t value) { integer(value, 2); }
  void u32(std::uint32_t value) { integer(value, 4); }
  void u64(std::uint64_t value) { integer(value, 8); }
  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void string(std::string_view text) {
    u64(text.size());
    bytes_.insert(bytes_.end(), text.begin(), text.end());
  }

  std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  void integer(std::uint64_t value, int width) {
    for (int i = 0; i < width; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader; every overrun throws ParseError
/// mentioning truncation so corrupt / cut-short files fail loudly.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(integer(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(integer(4)); }
  std::uint64_t u64() { return integer(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string string() {
    const std::uint64_t size = u64();
    const auto data = take(size);
    return std::string(reinterpret_cast<const char*>(data.data()),
                       data.size());
  }
  /// Container count, sanity-bounded (every element is at least one byte)
  /// so a corrupt length cannot trigger a giant allocation before the
  /// out-of-bounds read would be noticed.
  std::uint64_t count() {
    const std::uint64_t n = u64();
    if (n > remaining()) {
      throw ParseError("truncated artifact: container count exceeds payload");
    }
    return n;
  }

  std::uint64_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> take(std::uint64_t size) {
    if (size > bytes_.size() - pos_) {
      throw ParseError("truncated artifact: payload ends mid-field");
    }
    const auto view = bytes_.subspan(pos_, size);
    pos_ += size;
    return view;
  }

  std::uint64_t integer(int width) {
    const auto data = take(static_cast<std::uint64_t>(width));
    std::uint64_t value = 0;
    for (int i = width - 1; i >= 0; --i) {
      value = (value << 8) | data[static_cast<std::size_t>(i)];
    }
    return value;
  }

  std::span<const std::uint8_t> bytes_;
  std::uint64_t pos_ = 0;
};

std::vector<std::uint8_t> seal(Kind kind, std::vector<std::uint8_t> payload) {
  Fnv1a checksum;
  checksum.update(payload.data(), payload.size());

  ByteWriter header;
  for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u16(kFormatVersion);
  header.u16(static_cast<std::uint16_t>(kind));
  header.u64(payload.size());
  header.u64(checksum.value());

  std::vector<std::uint8_t> blob = std::move(header).take();
  blob.insert(blob.end(), payload.begin(), payload.end());
  return blob;
}

/// Validate the envelope and return the payload span, additionally
/// requiring the artifact kind to match what the caller decodes.
std::span<const std::uint8_t> open(std::span<const std::uint8_t> bytes,
                                   Kind expected) {
  const Envelope envelope = validate_envelope(bytes);
  if (envelope.kind != expected) {
    throw ParseError(std::string("artifact kind mismatch: expected ") +
                     std::string(kind_name(expected)) + ", found " +
                     std::string(kind_name(envelope.kind)));
  }
  return bytes.subspan(kEnvelopeSize);
}

void write_event_node(ByteWriter& writer, const graph::EventNode& node) {
  writer.u8(static_cast<std::uint8_t>(node.type));
  writer.i32(node.rank);
  writer.i64(node.seq);
  writer.i32(node.peer);
  writer.i32(node.tag);
  writer.u32(node.size_bytes);
  writer.f64(node.t_start);
  writer.f64(node.t_end);
  writer.u32(node.callstack_id);
  writer.i32(node.posted_source);
  writer.u8(node.jittered ? 1 : 0);
  writer.u64(node.lamport);
}

graph::EventNode read_event_node(ByteReader& reader) {
  graph::EventNode node;
  const std::uint8_t raw_type = reader.u8();
  if (raw_type > static_cast<std::uint8_t>(trace::EventType::kFault)) {
    throw ParseError("event graph artifact: unknown event type " +
                     std::to_string(raw_type));
  }
  node.type = static_cast<trace::EventType>(raw_type);
  node.rank = reader.i32();
  node.seq = reader.i64();
  node.peer = reader.i32();
  node.tag = reader.i32();
  node.size_bytes = reader.u32();
  node.t_start = reader.f64();
  node.t_end = reader.f64();
  node.callstack_id = reader.u32();
  node.posted_source = reader.i32();
  node.jittered = reader.u8() != 0;
  node.lamport = reader.u64();
  return node;
}

void write_event_graph_payload(ByteWriter& writer,
                               const graph::EventGraph& graph) {
  writer.i32(graph.num_ranks());
  for (int r = 0; r < graph.num_ranks(); ++r) {
    writer.u64(graph.rank_size(r));
  }
  writer.u64(graph.num_nodes());
  for (const graph::EventNode& node : graph.nodes()) {
    write_event_node(writer, node);
  }
  writer.u64(graph.message_edges().size());
  for (const auto& [send_node, recv_node] : graph.message_edges()) {
    writer.u32(send_node);
    writer.u32(recv_node);
  }
  writer.u64(graph.callstacks().paths().size());
  for (const std::string& path : graph.callstacks().paths()) {
    writer.string(path);
  }
}

graph::EventGraph read_event_graph_payload(ByteReader& reader) {
  const std::int32_t num_ranks = reader.i32();
  if (num_ranks < 1) throw ParseError("event graph artifact: no ranks");
  std::vector<std::size_t> rank_offsets(
      static_cast<std::size_t>(num_ranks) + 1, 0);
  for (std::int32_t r = 0; r < num_ranks; ++r) {
    rank_offsets[static_cast<std::size_t>(r) + 1] =
        rank_offsets[static_cast<std::size_t>(r)] + reader.u64();
  }
  const std::uint64_t num_nodes = reader.count();
  std::vector<graph::EventNode> nodes;
  nodes.reserve(num_nodes);
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    nodes.push_back(read_event_node(reader));
  }
  const std::uint64_t num_edges = reader.count();
  std::vector<std::pair<graph::NodeId, graph::NodeId>> message_edges;
  message_edges.reserve(num_edges);
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    const graph::NodeId send_node = reader.u32();
    const graph::NodeId recv_node = reader.u32();
    message_edges.emplace_back(send_node, recv_node);
  }
  const std::uint64_t num_callstacks = reader.count();
  trace::CallstackRegistry callstacks;
  for (std::uint64_t i = 0; i < num_callstacks; ++i) {
    const std::uint32_t id = callstacks.intern(reader.string());
    if (id != i) {
      throw ParseError("event graph artifact: duplicate callstack path");
    }
  }
  return graph::EventGraph::from_parts(std::move(nodes),
                                       std::move(rank_offsets),
                                       std::move(message_edges),
                                       std::move(callstacks));
}

/// The six counters that open a run payload.
EncodedRun read_run_counters(ByteReader& reader) {
  EncodedRun run;
  run.messages = reader.u64();
  run.wildcard_recvs = reader.u64();
  run.drops = reader.u64();
  run.retries = reader.u64();
  run.duplicates = reader.u64();
  run.straggler_events = reader.u64();
  return run;
}

}  // namespace

std::string_view kind_name(Kind kind) {
  switch (kind) {
    case Kind::kTrace: return "trace";
    case Kind::kEventGraph: return "event_graph";
    case Kind::kDistances: return "distances";
    case Kind::kDistanceMatrix: return "distance_matrix";
    case Kind::kRun: return "run";
    case Kind::kFeatures: return "features";
    case Kind::kSchedule: return "schedule";
    case Kind::kBisection: return "bisection";
  }
  return "unknown";
}

Envelope validate_envelope(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kEnvelopeSize) {
    throw ParseError("truncated artifact: shorter than the envelope");
  }
  for (std::size_t i = 0; i < 4; ++i) {
    if (bytes[i] != static_cast<std::uint8_t>(kMagic[i])) {
      throw ParseError("not an anacin artifact (bad magic)");
    }
  }
  Envelope envelope;
  envelope.version =
      static_cast<std::uint16_t>(bytes[4] | (bytes[5] << 8));
  if (envelope.version > kFormatVersion) {
    throw ParseError("artifact uses format version " +
                     std::to_string(envelope.version) +
                     " but this build supports up to " +
                     std::to_string(kFormatVersion) +
                     " — produced by a newer anacin");
  }
  const std::uint16_t raw_kind =
      static_cast<std::uint16_t>(bytes[6] | (bytes[7] << 8));
  if (raw_kind < 1 ||
      raw_kind > static_cast<std::uint16_t>(Kind::kBisection)) {
    throw ParseError("artifact has unknown kind " + std::to_string(raw_kind));
  }
  envelope.kind = static_cast<Kind>(raw_kind);
  std::uint64_t payload_size = 0;
  std::uint64_t stored_checksum = 0;
  for (int i = 7; i >= 0; --i) {
    payload_size = (payload_size << 8) | bytes[8 + static_cast<std::size_t>(i)];
    stored_checksum =
        (stored_checksum << 8) | bytes[16 + static_cast<std::size_t>(i)];
  }
  envelope.payload_size = payload_size;
  if (bytes.size() - kEnvelopeSize != payload_size) {
    throw ParseError("truncated artifact: envelope promises " +
                     std::to_string(payload_size) + " payload bytes, found " +
                     std::to_string(bytes.size() - kEnvelopeSize));
  }
  Fnv1a checksum;
  checksum.update(bytes.data() + kEnvelopeSize, payload_size);
  if (checksum.value() != stored_checksum) {
    throw ParseError("artifact payload checksum mismatch (corrupt object)");
  }
  return envelope;
}

std::vector<std::uint8_t> encode_trace(const trace::Trace& trace) {
  ByteWriter writer;
  writer.i32(trace.num_ranks());
  writer.i32(trace.num_nodes());
  writer.u64(trace.callstacks().paths().size());
  for (const std::string& path : trace.callstacks().paths()) {
    writer.string(path);
  }
  for (int r = 0; r < trace.num_ranks(); ++r) {
    const auto& events = trace.rank_events(r);
    writer.u64(events.size());
    for (const trace::Event& e : events) {
      writer.u8(static_cast<std::uint8_t>(e.type));
      writer.i32(e.rank);
      writer.i32(e.peer);
      writer.i32(e.tag);
      writer.u32(e.size_bytes);
      writer.f64(e.t_start);
      writer.f64(e.t_end);
      writer.i32(e.matched_rank);
      writer.i64(e.matched_seq);
      writer.i32(e.posted_source);
      writer.i32(e.posted_tag);
      writer.u32(e.callstack_id);
      writer.u8(e.jittered ? 1 : 0);
      writer.i64(e.match_order);
    }
  }
  return seal(Kind::kTrace, std::move(writer).take());
}

trace::Trace decode_trace(std::span<const std::uint8_t> bytes) {
  ByteReader reader(open(bytes, Kind::kTrace));
  const std::int32_t num_ranks = reader.i32();
  const std::int32_t num_nodes = reader.i32();
  trace::Trace trace(num_ranks, num_nodes);
  const std::uint64_t num_callstacks = reader.count();
  for (std::uint64_t i = 0; i < num_callstacks; ++i) {
    const std::uint32_t id = trace.callstacks().intern(reader.string());
    if (id != i) throw ParseError("trace artifact: duplicate callstack path");
  }
  for (std::int32_t r = 0; r < num_ranks; ++r) {
    const std::uint64_t num_events = reader.count();
    for (std::uint64_t i = 0; i < num_events; ++i) {
      trace::Event e;
      e.type = static_cast<trace::EventType>(reader.u8());
      e.rank = reader.i32();
      e.peer = reader.i32();
      e.tag = reader.i32();
      e.size_bytes = reader.u32();
      e.t_start = reader.f64();
      e.t_end = reader.f64();
      e.matched_rank = reader.i32();
      e.matched_seq = reader.i64();
      e.posted_source = reader.i32();
      e.posted_tag = reader.i32();
      e.callstack_id = reader.u32();
      e.jittered = reader.u8() != 0;
      e.match_order = reader.i64();
      if (e.rank != r) {
        throw ParseError("trace artifact: event rank out of place");
      }
      trace.append(e);
    }
  }
  if (!reader.at_end()) {
    throw ParseError("trace artifact: trailing bytes after payload");
  }
  return trace;
}

std::vector<std::uint8_t> encode_event_graph(const graph::EventGraph& graph) {
  ByteWriter writer;
  write_event_graph_payload(writer, graph);
  return seal(Kind::kEventGraph, std::move(writer).take());
}

graph::EventGraph decode_event_graph(std::span<const std::uint8_t> bytes) {
  ByteReader reader(open(bytes, Kind::kEventGraph));
  graph::EventGraph graph = read_event_graph_payload(reader);
  if (!reader.at_end()) {
    throw ParseError("event graph artifact: trailing bytes after payload");
  }
  return graph;
}

std::vector<std::uint8_t> encode_distances(const std::vector<double>& values) {
  ByteWriter writer;
  writer.u64(values.size());
  for (const double value : values) writer.f64(value);
  return seal(Kind::kDistances, std::move(writer).take());
}

std::vector<double> decode_distances(std::span<const std::uint8_t> bytes) {
  ByteReader reader(open(bytes, Kind::kDistances));
  const std::uint64_t size = reader.count();
  std::vector<double> values;
  values.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) values.push_back(reader.f64());
  if (!reader.at_end()) {
    throw ParseError("distances artifact: trailing bytes after payload");
  }
  return values;
}

std::vector<std::uint8_t> encode_run(const EncodedRun& run) {
  ByteWriter writer;
  writer.u64(run.messages);
  writer.u64(run.wildcard_recvs);
  writer.u64(run.drops);
  writer.u64(run.retries);
  writer.u64(run.duplicates);
  writer.u64(run.straggler_events);
  write_event_graph_payload(writer, run.graph);
  return seal(Kind::kRun, std::move(writer).take());
}

EncodedRun decode_run(std::span<const std::uint8_t> bytes) {
  ByteReader reader(open(bytes, Kind::kRun));
  EncodedRun run = read_run_counters(reader);
  run.graph = read_event_graph_payload(reader);
  if (!reader.at_end()) {
    throw ParseError("run artifact: trailing bytes after payload");
  }
  return run;
}

EncodedRun decode_run_counters(std::span<const std::uint8_t> bytes) {
  ByteReader reader(open(bytes, Kind::kRun));
  return read_run_counters(reader);
}

std::vector<std::uint8_t> encode_features(
    const kernels::SparseHistogram& features) {
  ByteWriter writer;
  writer.u64(features.ids.size());
  for (const std::uint64_t id : features.ids) writer.u64(id);
  for (const double count : features.counts) writer.f64(count);
  writer.f64(features.self_dot);
  return seal(Kind::kFeatures, std::move(writer).take());
}

kernels::SparseHistogram decode_features(
    std::span<const std::uint8_t> bytes) {
  ByteReader reader(open(bytes, Kind::kFeatures));
  const std::uint64_t size = reader.count();
  kernels::SparseHistogram features;
  features.ids.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::uint64_t id = reader.u64();
    if (!features.ids.empty() && id <= features.ids.back()) {
      throw ParseError("features artifact: ids not strictly ascending");
    }
    features.ids.push_back(id);
  }
  features.counts.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    features.counts.push_back(reader.f64());
  }
  const double stored_self_dot = reader.f64();
  if (!reader.at_end()) {
    throw ParseError("features artifact: trailing bytes after payload");
  }
  // Recompute the norm in the same accumulation order SparseHistogram::push
  // uses; a mismatch means the payload is inconsistent, not merely stale.
  double self_dot = 0.0;
  for (const double count : features.counts) self_dot += count * count;
  if (std::bit_cast<std::uint64_t>(self_dot) !=
      std::bit_cast<std::uint64_t>(stored_self_dot)) {
    throw ParseError("features artifact: self_dot does not match counts");
  }
  features.self_dot = self_dot;
  return features;
}

std::vector<std::uint8_t> encode_schedule(const sim::ReplaySchedule& schedule) {
  ByteWriter writer;
  writer.u64(schedule.wildcard_matches.size());
  for (const auto& per_rank : schedule.wildcard_matches) {
    writer.u64(per_rank.size());
    for (const sim::ReplaySchedule::Match& match : per_rank) {
      writer.i32(match.source);
      writer.i64(match.send_seq);
      writer.u8(match.pinned ? 1 : 0);
    }
  }
  return seal(Kind::kSchedule, std::move(writer).take());
}

sim::ReplaySchedule decode_schedule(std::span<const std::uint8_t> bytes) {
  ByteReader reader(open(bytes, Kind::kSchedule));
  sim::ReplaySchedule schedule;
  const std::uint64_t num_ranks = reader.count();
  schedule.wildcard_matches.reserve(num_ranks);
  for (std::uint64_t r = 0; r < num_ranks; ++r) {
    const std::uint64_t num_matches = reader.count();
    std::vector<sim::ReplaySchedule::Match> per_rank;
    per_rank.reserve(num_matches);
    for (std::uint64_t i = 0; i < num_matches; ++i) {
      sim::ReplaySchedule::Match match;
      match.source = reader.i32();
      match.send_seq = reader.i64();
      const std::uint8_t pinned = reader.u8();
      if (pinned > 1) {
        throw ParseError("schedule artifact: pin flag is not a boolean");
      }
      match.pinned = pinned != 0;
      per_rank.push_back(match);
    }
    schedule.wildcard_matches.push_back(std::move(per_rank));
  }
  if (!reader.at_end()) {
    throw ParseError("schedule artifact: trailing bytes after payload");
  }
  return schedule;
}

std::vector<std::uint8_t> encode_bisection(const EncodedBisection& outcome) {
  ByteWriter writer;
  writer.f64(outcome.full_gap);
  writer.f64(outcome.achieved);
  writer.u64(outcome.rounds);
  writer.u64(outcome.candidates);
  writer.u64(outcome.minimal.size());
  for (const std::size_t index : outcome.minimal) writer.u64(index);
  writer.u64(outcome.contributions.size());
  for (const double contribution : outcome.contributions) {
    writer.f64(contribution);
  }
  return seal(Kind::kBisection, std::move(writer).take());
}

EncodedBisection decode_bisection(std::span<const std::uint8_t> bytes) {
  ByteReader reader(open(bytes, Kind::kBisection));
  EncodedBisection outcome;
  outcome.full_gap = reader.f64();
  outcome.achieved = reader.f64();
  outcome.rounds = reader.u64();
  outcome.candidates = reader.u64();
  const std::uint64_t size = reader.count();
  outcome.minimal.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::uint64_t index = reader.u64();
    if (!outcome.minimal.empty() && index <= outcome.minimal.back()) {
      throw ParseError(
          "bisection artifact: minimal indices not strictly ascending");
    }
    outcome.minimal.push_back(static_cast<std::size_t>(index));
  }
  if (reader.count() != size) {
    throw ParseError(
        "bisection artifact: contribution count differs from the minimal "
        "set's size");
  }
  outcome.contributions.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    outcome.contributions.push_back(reader.f64());
  }
  if (!reader.at_end()) {
    throw ParseError("bisection artifact: trailing bytes after payload");
  }
  return outcome;
}

}  // namespace anacin::store
