#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/event_graph.hpp"
#include "kernels/sparse_histogram.hpp"
#include "sim/replay_schedule.hpp"
#include "trace/trace.hpp"

namespace anacin::store {

/// Versioned binary envelope for every stored artifact:
///
///   offset  size  field
///   0       4     magic "ANCS"
///   4       2     format version (little-endian; kFormatVersion)
///   6       2     artifact kind (Kind below)
///   8       8     payload size in bytes
///   16      8     FNV-1a 64 checksum of the payload
///   24      —     payload (little-endian, length-prefixed containers)
///
/// Decoding rejects, with distinct error messages: wrong magic, a format
/// version newer than this build supports, truncated files, checksum
/// mismatches (bit rot / partial writes), and kind mismatches. Doubles are
/// bit-cast, so round trips are exact — a decoded artifact reproduces the
/// original JSON forms byte for byte.
///
/// Version history:
///   1 — initial layout.
///   2 — kRun payload carries fault counters (drops/retries/duplicates/
///       straggler_events); event nodes may use EventType::kFault.
///       kFeatures added later under the same version: a new kind does not
///       change any existing payload, and older builds reject it cleanly
///       as an unknown kind.
///   3 — kTrace events carry the receive completion order (match_order
///       i64, after the jittered flag); kSchedule added for recorded
///       replay schedules. kBisection added later under the same
///       version, as kFeatures was under 2.
inline constexpr std::uint16_t kFormatVersion = 3;
inline constexpr std::size_t kEnvelopeSize = 24;

enum class Kind : std::uint16_t {
  kTrace = 1,
  kEventGraph = 2,
  kDistances = 3,
  /// Retired (nothing encodes it); the number and its name stay reserved.
  kDistanceMatrix = 4,
  /// One campaign run: aggregate simulator stats + the event graph.
  kRun = 5,
  /// One run's kernel feature histogram (sorted sparse ids + counts).
  kFeatures = 6,
  /// A recorded replay schedule (per-rank wildcard matches with pin flags).
  kSchedule = 7,
  /// The outcome of one bisection: its gap, rounds, candidates, minimal
  /// racy set and standalone contributions.
  kBisection = 8,
};

std::string_view kind_name(Kind kind);

/// Header metadata of an encoded artifact (available without decoding).
struct Envelope {
  std::uint16_t version = 0;
  Kind kind = Kind::kTrace;
  std::uint64_t payload_size = 0;
};

/// Validate magic/version/size/checksum and return the header.
/// Throws ParseError describing the first violation.
Envelope validate_envelope(std::span<const std::uint8_t> bytes);

/// One campaign run as stored: the event graph plus the per-run simulator
/// counters the campaign aggregates (so a cache hit skips the simulator
/// entirely, not just graph construction).
struct EncodedRun {
  graph::EventGraph graph;
  std::uint64_t messages = 0;
  std::uint64_t wildcard_recvs = 0;
  /// Fault-injection counters (see sim/faults.hpp); all zero when the run
  /// was simulated without faults.
  std::uint64_t drops = 0;
  std::uint64_t retries = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t straggler_events = 0;
};

std::vector<std::uint8_t> encode_trace(const trace::Trace& trace);
trace::Trace decode_trace(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_event_graph(const graph::EventGraph& graph);
graph::EventGraph decode_event_graph(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_distances(const std::vector<double>& values);
std::vector<double> decode_distances(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_run(const EncodedRun& run);
EncodedRun decode_run(std::span<const std::uint8_t> bytes);
/// The counters of a run artifact, its graph left empty. The envelope is
/// validated exactly as decode_run does (the checksum covers the whole
/// payload, graph included), but the graph section is not parsed.
EncodedRun decode_run_counters(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_features(
    const kernels::SparseHistogram& features);
kernels::SparseHistogram decode_features(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_schedule(const sim::ReplaySchedule& schedule);
sim::ReplaySchedule decode_schedule(std::span<const std::uint8_t> bytes);

/// The numbers of one bisection outcome, everything its ranked report is
/// built from besides the reference run and its schedule.
struct EncodedBisection {
  double full_gap = 0.0;
  double achieved = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t candidates = 0;
  /// Flat rank-major schedule indices of the minimal racy set, strictly
  /// ascending.
  std::vector<std::size_t> minimal;
  /// contributions[i]: the distance with only minimal[i] freed.
  std::vector<double> contributions;
};

/// The decoder rejects trailing bytes, a contribution count that differs
/// from the minimal set's size, and indices that are not strictly
/// ascending; whether an index fits the schedule is the caller's check.
std::vector<std::uint8_t> encode_bisection(const EncodedBisection& outcome);
EncodedBisection decode_bisection(std::span<const std::uint8_t> bytes);

}  // namespace anacin::store
