// Microbenchmarks of the fsync discipline behind --durability: the raw
// atomic_write_file commit at each tier, and the journal-append path
// (the hot durable write of a sweep) at none vs commit. The committed
// BENCH_durability.json baseline gates the commit-tier journal overhead
// in CI — see the "Durability model" section of docs/RESILIENCE.md.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "core/journal.hpp"
#include "obs_cli.hpp"
#include "support/fs.hpp"
#include "support/json.hpp"

using namespace anacin;
namespace fs = std::filesystem;

namespace {

fs::path bench_root(const std::string& name) {
  const fs::path root =
      fs::temp_directory_path() / ("anacin-perf-durability-" + name);
  fs::remove_all(root);
  fs::create_directories(root);
  return root;
}

// One atomic_write_file commit (4 KiB payload) per iteration at the tier
// named by the arg. The delta between tiers is the pure fsync cost: tier 0
// pays only the rename, tiers 1+ add a data-file fsync before the rename
// and a directory fsync after it.
void BM_AtomicWrite(benchmark::State& state) {
  const auto level = static_cast<support::Durability>(state.range(0));
  const fs::path root =
      bench_root(std::string("write-") + support::durability_name(level));
  support::set_durability(level);
  const std::string payload(4096, 'x');
  const std::string target = (root / "report.json").string();
  for (auto _ : state) {
    support::atomic_write_file(target, payload,
                               support::PathClass::kReport);
  }
  support::set_durability(support::Durability::kNone);
  state.SetLabel(support::durability_name(level));
  fs::remove_all(root);
}

// Journal appends — the write that dominates a sweep's durable I/O. Each
// record() rewrites the whole journal through atomic_write_file, so a
// batch of appends measures the realistic growing-file cost, not a
// single fixed-size commit. 32 records per iteration keeps the file-size
// distribution identical across iterations and tiers.
void BM_JournalAppend(benchmark::State& state) {
  const auto level = static_cast<support::Durability>(state.range(0));
  const fs::path root =
      bench_root(std::string("journal-") + support::durability_name(level));
  support::set_durability(level);
  constexpr int kRecords = 32;
  std::uint64_t generation = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string path =
        (root / ("sweep-" + std::to_string(generation++) + ".jsonl"))
            .string();
    core::CampaignJournal journal(path, "bench-campaign");
    state.ResumeTiming();
    for (int i = 0; i < kRecords; ++i) {
      json::Value payload = json::Value::object();
      payload.set("median", 0.25 * i);
      payload.set("iqr", 0.01 * i);
      journal.record("point-" + std::to_string(i), std::move(payload));
    }
  }
  support::set_durability(support::Durability::kNone);
  state.SetLabel(support::durability_name(level));
  state.SetItemsProcessed(state.iterations() * kRecords);
  fs::remove_all(root);
}

}  // namespace

BENCHMARK(BM_AtomicWrite)
    ->Arg(static_cast<int>(support::Durability::kNone))
    ->Arg(static_cast<int>(support::Durability::kCommit))
    ->Arg(static_cast<int>(support::Durability::kParanoid))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_JournalAppend)
    ->Arg(static_cast<int>(support::Durability::kNone))
    ->Arg(static_cast<int>(support::Durability::kCommit))
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return anacin::bench::run_benchmark_main(argc, argv);
}
