#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace anacin::obs {

/// Number of per-thread shards each metric keeps. Writers pick a shard by
/// thread and update it with relaxed atomics, so concurrent increments
/// from pool workers never contend on one cache line; readers aggregate
/// all shards on snapshot.
inline constexpr std::size_t kNumShards = 16;

/// Stable shard index of the calling thread (assigned round-robin on
/// first use, then cached in a thread_local).
std::size_t shard_index() noexcept;

/// Monotonically increasing event count. add() is wait-free (one relaxed
/// fetch_add on the calling thread's shard).
class Counter {
 public:
  explicit Counter(std::string name);

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }

  void add(std::uint64_t delta = 1) noexcept {
    shards_[shard_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Sum over all shards.
  std::uint64_t value() const noexcept;

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };

  std::string name_;
  std::array<Shard, kNumShards> shards_;
};

/// Last-write-wins instantaneous value (e.g. a queue depth or pool size).
class Gauge {
 public:
  explicit Gauge(std::string name);

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  const std::string& name() const { return name_; }

  void set(double value) noexcept;
  void add(double delta) noexcept;
  double value() const noexcept;

  void reset() noexcept;

 private:
  std::string name_;
  std::atomic<std::uint64_t> bits_;
};

/// Distribution of observed values over fixed bucket bounds, sharded the
/// same way as Counter. Quantiles are estimated by linear interpolation
/// inside the bucket that crosses the requested rank (Prometheus-style).
class Histogram {
 public:
  /// `bounds` are the inclusive upper edges of the finite buckets; one
  /// overflow bucket catches everything above the last bound. An empty
  /// vector selects default_bounds().
  explicit Histogram(std::string name, std::vector<double> bounds = {});

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

  void observe(double value) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> bounds;
    /// bounds.size() + 1 entries; the last is the overflow bucket.
    std::vector<std::uint64_t> buckets;

    double mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Estimated q-quantile, q in [0, 1]. 0 when empty.
    double quantile(double q) const;
  };

  Snapshot snapshot() const;

  void reset() noexcept;

  /// 1-2-5 decades from 0.001 to 10000 — wide enough for microsecond
  /// timings in milliseconds and for queue depths alike.
  static std::vector<double> default_bounds();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};
    std::atomic<std::uint64_t> min_bits;
    std::atomic<std::uint64_t> max_bits;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
  };

  void reset_shard(Shard& shard) noexcept;

  std::string name_;
  std::vector<double> bounds_;
  std::array<Shard, kNumShards> shards_;
};

/// Name -> metric map. Metrics are created on first use and never removed
/// (reset() zeroes values but keeps objects), so references returned here
/// stay valid for the registry's lifetime — cache them in hot paths.
class Registry {
 public:
  Registry() = default;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::vector<double> bounds = {});

  /// Flat JSON snapshot:
  ///   {"counters": {name: value},
  ///    "gauges": {name: value},
  ///    "histograms": {name: {count, sum, mean, min, max, p50, p90, p99}}}
  json::Value snapshot_json() const;

  /// Zero every metric (objects and references survive).
  void reset();

  /// Process-wide default registry used by the ANACIN_* macros.
  static Registry& global();

 private:
  template <typename T>
  using Map = std::vector<std::pair<std::string, std::unique_ptr<T>>>;

  mutable std::mutex mutex_;
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<Histogram> histograms_;
};

/// Shorthands against the global registry.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

}  // namespace anacin::obs
