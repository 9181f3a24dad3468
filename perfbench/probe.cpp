// perfbench_probe — times the layers of an `anacin` op that carry no span:
// store open / get / put, event-graph construction and journal appends.
// run.py calls it on each traced op's own store, journal and shape, after
// the op has exited, and prints one JSON object per call.
//
//   perfbench_probe store-read DIR          open DIR 5x, load every object
//   perfbench_probe store-write DIR LIST    re-publish LIST's object files,
//                                           in order, into a fresh store DIR
//   perfbench_probe graph PATTERN RANKS SEED
//                                           EventGraph::from_trace on run 0
//                                           of a campaign of that shape
//   perfbench_probe journal SRC DST         re-record SRC's units into DST
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "graph/event_graph.hpp"
#include "patterns/pattern.hpp"
#include "sim/simulator.hpp"
#include "store/codec.hpp"
#include "store/store.hpp"
#include "support/fs.hpp"
#include "support/json.hpp"

namespace {

namespace fs = std::filesystem;
using namespace anacin;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot read " + path.string());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// An object file of a store: objects/<2 hex>/<30 hex>.
struct StoredObject {
  store::Digest key;
  store::Kind kind = store::Kind::kTrace;
  std::vector<std::uint8_t> bytes;
};

StoredObject read_object(const fs::path& path) {
  const std::string hex = path.parent_path().filename().string() +
                          path.filename().string();
  const auto key = store::Digest::from_hex(hex);
  if (!key) throw ParseError("not an object file: " + path.string());
  StoredObject object{*key, store::Kind::kTrace, read_bytes(path)};
  object.kind = store::validate_envelope(object.bytes).kind;
  return object;
}

std::vector<fs::path> object_files(const fs::path& root) {
  std::vector<fs::path> files;
  for (const auto& shard : fs::directory_iterator(root / "objects")) {
    for (const auto& file : fs::directory_iterator(shard.path())) {
      if (file.path().filename().string().find(".tmp.") == std::string::npos) {
        files.push_back(file.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// One typed load, as the campaign does it: read, verify, decode.
bool load_typed(store::ArtifactStore& artifacts, const StoredObject& object) {
  switch (object.kind) {
    case store::Kind::kRun:
      return artifacts.load_run(object.key).has_value();
    case store::Kind::kDistances:
      return artifacts.load_distance(object.key).has_value();
    case store::Kind::kFeatures:
      return artifacts.load_features(object.key).has_value();
    case store::Kind::kSchedule:
      return artifacts.load_schedule(object.key).has_value();
    default:
      return artifacts.objects().get(object.key) != nullptr;
  }
}

int store_read(const fs::path& root) {
  std::vector<double> open_ms;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    auto artifacts = std::make_unique<store::ArtifactStore>(
        store::ObjectStore::Config{root});
    open_ms.push_back(ms_since(start));
  }
  std::vector<StoredObject> objects;
  for (const fs::path& path : object_files(root)) {
    objects.push_back(read_object(path));
  }
  store::ArtifactStore artifacts(store::ObjectStore::Config{root});
  std::int64_t loaded = 0;
  const auto start = Clock::now();
  for (const StoredObject& object : objects) {
    loaded += load_typed(artifacts, object) ? 1 : 0;
  }
  const double load_ms = ms_since(start);
  if (loaded != static_cast<std::int64_t>(objects.size())) {
    throw Error("store-read: " + std::to_string(objects.size() - loaded) +
                " object(s) failed to load from " + root.string());
  }
  json::Value doc = json::Value::object();
  doc.set("open_ms", median(open_ms));
  doc.set("objects", loaded);
  doc.set("load_ms_per_object", loaded > 0 ? load_ms / loaded : 0.0);
  std::cout << doc.dump() << '\n';
  return 0;
}

int store_write(const fs::path& root, const fs::path& list) {
  ANACIN_CHECK(!fs::exists(root), "store-write needs a fresh directory");
  std::vector<StoredObject> objects;
  std::ifstream in(list);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) objects.push_back(read_object(line));
  }
  store::ObjectStore target(store::ObjectStore::Config{root});
  const std::uint64_t writes_before = support::atomic_write_count();
  const auto start = Clock::now();
  for (const StoredObject& object : objects) {
    target.put(object.key, object.kind, object.bytes);
  }
  const double put_ms = ms_since(start);
  const std::uint64_t index_writes =
      support::atomic_write_count() - writes_before;
  const fs::path index = root / "index.json";
  json::Value doc = json::Value::object();
  doc.set("objects", static_cast<std::int64_t>(objects.size()));
  doc.set("put_ms", put_ms);
  doc.set("index_writes", static_cast<std::int64_t>(index_writes));
  doc.set("index_kb",
          fs::exists(index) ? static_cast<double>(fs::file_size(index)) / 1024
                            : 0.0);
  std::cout << doc.dump() << '\n';
  return 0;
}

int graph_build(const std::string& pattern, int ranks, std::uint64_t seed) {
  core::CampaignConfig config;
  config.pattern = pattern;
  config.shape.num_ranks = ranks;
  config.base_seed = seed;
  const sim::RankProgram program =
      patterns::make_pattern(pattern)->program(config.shape);
  const sim::RunResult run =
      sim::run_simulation(config.sim_config_for_run(0), program);
  std::vector<double> build_ms;
  std::size_t nodes = 0;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    const graph::EventGraph graph = graph::EventGraph::from_trace(run.trace);
    build_ms.push_back(ms_since(start));
    nodes = graph.num_nodes();
  }
  json::Value doc = json::Value::object();
  doc.set("build_ms", median(build_ms));
  doc.set("nodes", static_cast<std::int64_t>(nodes));
  std::cout << doc.dump() << '\n';
  return 0;
}

int journal_replay(const fs::path& source, const fs::path& target) {
  std::vector<std::pair<std::string, json::Value>> units;
  std::string campaign_key;
  std::ifstream in(source);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    json::Value record = json::parse(line);
    const std::string key = record.at("k").as_string();
    if (key == "@header") {
      campaign_key = record.at("p").at("campaign").as_string();
    } else {
      units.emplace_back(key, record.at("p"));
    }
  }
  ANACIN_CHECK(!campaign_key.empty(), "journal has no header");
  core::CampaignJournal journal(target.string(), campaign_key);
  const auto start = Clock::now();
  for (auto& [key, payload] : units) journal.record(key, std::move(payload));
  json::Value doc = json::Value::object();
  doc.set("journal_ms", ms_since(start));
  doc.set("records", static_cast<std::int64_t>(units.size()));
  std::cout << doc.dump() << '\n';
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_probe store-read DIR | store-write DIR LIST |"
               " graph PATTERN RANKS SEED | journal SRC DST\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "store-read") return store_read(args[1]);
    if (args.size() == 3 && args[0] == "store-write") {
      return store_write(args[1], args[2]);
    }
    if (args.size() == 4 && args[0] == "graph") {
      return graph_build(args[1], std::stoi(args[2]), std::stoull(args[3]));
    }
    if (args.size() == 3 && args[0] == "journal") {
      return journal_replay(args[1], args[2]);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench_probe: " << error.what() << '\n';
    return 1;
  }
  return usage();
}
