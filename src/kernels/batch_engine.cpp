#include "kernels/batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/obs.hpp"
#include "support/rng.hpp"

namespace anacin::kernels {

namespace {

constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

/// Open-addressing map from feature id to dense vocabulary slot. Slots
/// are assigned in first-encounter order — the sweep only needs a
/// *stable address* per id, not a sorted vocabulary, because each pair's
/// accumulation order follows the gathering histogram's own (sorted) id
/// array. Skipping the global sort is worth ~1.5ms at 64 runs.
class VocabTable {
 public:
  /// `max_entries` bounds the number of distinct ids ever interned.
  explicit VocabTable(std::size_t max_entries) {
    std::size_t capacity = 16;
    while (capacity < max_entries * 2) capacity <<= 1;
    mask_ = capacity - 1;
    keys_.resize(capacity);
    slots_.assign(capacity, kEmptySlot);
  }

  std::uint32_t intern(std::uint64_t id) {
    // mix64, not the raw id: vertex-histogram ids are raw labels, which
    // may be small sequential integers that would cluster linear probes.
    std::size_t p = mix64(id) & mask_;
    for (;;) {
      if (slots_[p] == kEmptySlot) {
        keys_[p] = id;
        slots_[p] = size_;
        return size_++;
      }
      if (keys_[p] == id) return slots_[p];
      p = (p + 1) & mask_;
    }
  }

  std::uint32_t find(std::uint64_t id) const {
    std::size_t p = mix64(id) & mask_;
    for (;;) {
      if (slots_[p] == kEmptySlot) return kEmptySlot;
      if (keys_[p] == id) return slots_[p];
      p = (p + 1) & mask_;
    }
  }

  std::uint32_t size() const { return size_; }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  std::uint32_t size_ = 0;
};

/// Per-thread dense scatter buffer for the tile sweep (vocab_size *
/// kTileRows doubles). Grown on demand and returned to all-zeros at the
/// end of every tile, so reuse across calls needs no re-clearing.
std::vector<double>& dense_workspace() {
  static thread_local std::vector<double> dense;
  return dense;
}

}  // namespace

std::vector<FeatureVector> batch_features(
    const GraphKernel& kernel, const std::vector<LabeledGraph>& graphs,
    ThreadPool& pool, CancelToken* cancel) {
  ANACIN_SPAN("kernels.feature_extraction");
  static obs::Counter& feature_tasks = obs::counter("kernels.feature_tasks");
  std::vector<FeatureVector> features(graphs.size());
  pool.parallel_for(
      0, graphs.size(),
      [&](std::size_t i) {
        ANACIN_SPAN("kernels.feature_task");
        features[i] = kernel.features(graphs[i]);
        feature_tasks.add(1);
      },
      cancel);
  return features;
}

DistanceMatrix batch_pairwise_distances(
    const std::vector<FeatureVector>& features, ThreadPool& pool) {
  ANACIN_SPAN("kernels.distance_matrix");
  const std::size_t n = features.size();
  static obs::Counter& rows_counter = obs::counter("kernels.distance_rows");
  static obs::Counter& distances = obs::counter("kernels.distances_computed");
  static obs::Counter& tiles_counter = obs::counter("kernels.distance_tiles");

  DistanceMatrix matrix;
  matrix.size = n;
  matrix.values.assign(n * n, 0.0);
  if (n < 2) return matrix;

  // Reindex every histogram's sorted ids to dense vocabulary slots, laid
  // out as one flat CSR array so tiles read contiguous memory.
  std::size_t total_nnz = 0;
  for (const FeatureVector& f : features) total_nnz += f.size();
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<std::uint32_t> slot_of(total_nnz);
  VocabTable vocab(std::max<std::size_t>(1, total_nnz));
  {
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::uint64_t id : features[i].ids) {
        slot_of[k++] = vocab.intern(id);
      }
      offsets[i + 1] = k;
    }
  }
  const std::size_t vocab_size = vocab.size();

  const std::size_t num_tiles = (n + kTileRows - 1) / kTileRows;
  pool.parallel_for(0, num_tiles, [&](std::size_t tile) {
    const std::size_t r0 = tile * kTileRows;
    const std::size_t r1 = std::min(n, r0 + kTileRows);
    const std::size_t rows = r1 - r0;

    std::vector<double>& dense = dense_workspace();
    const std::size_t need = vocab_size * kTileRows;
    if (dense.size() < need) dense.assign(need, 0.0);

    // Scatter the tile's rows, interleaved: slot s of row r lives at
    // dense[s * kTileRows + r], so one gather of a slot's cache line
    // feeds all eight accumulators.
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t i = r0 + r;
      const double* counts = features[i].counts.data();
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        dense[static_cast<std::size_t>(slot_of[k]) * kTileRows + r] =
            counts[k - offsets[i]];
      }
    }

    for (std::size_t j = r0 + 1; j < n; ++j) {
      double acc[kTileRows] = {};
      const double* counts = features[j].counts.data();
      const std::uint32_t* slots = slot_of.data() + offsets[j];
      const std::size_t nnz = offsets[j + 1] - offsets[j];
      for (std::size_t k = 0; k < nnz; ++k) {
        const double* cell =
            &dense[static_cast<std::size_t>(slots[k]) * kTileRows];
        const double c = counts[k];
        for (std::size_t r = 0; r < kTileRows; ++r) acc[r] += cell[r] * c;
      }
      const std::size_t row_limit = std::min(r1, j);
      for (std::size_t i = r0; i < row_limit; ++i) {
        const double squared = features[i].self_dot + features[j].self_dot -
                               2.0 * acc[i - r0];
        const double d = std::sqrt(std::max(0.0, squared));
        matrix.values[i * n + j] = d;
        matrix.values[j * n + i] = d;
      }
    }

    // Restore the scatter buffer to all-zeros by clearing only the
    // entries this tile touched.
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t i = r0 + r;
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        dense[static_cast<std::size_t>(slot_of[k]) * kTileRows + r] = 0.0;
      }
    }

    std::size_t pairs = 0;
    for (std::size_t i = r0; i < r1; ++i) pairs += n - i - 1;
    rows_counter.add(rows);
    distances.add(pairs);
    tiles_counter.add(1);
  });
  return matrix;
}

std::vector<double> batch_distances_to_reference(
    const FeatureVector& reference,
    const std::vector<FeatureVector>& features, ThreadPool& pool) {
  static obs::Counter& distances = obs::counter("kernels.distances_computed");
  // The reference's ids are distinct and interned in order, so the slot
  // returned by find() doubles as the index into reference.counts.
  VocabTable table(std::max<std::size_t>(1, reference.size()));
  for (const std::uint64_t id : reference.ids) table.intern(id);

  std::vector<double> result(features.size());
  pool.parallel_for(0, features.size(), [&](std::size_t j) {
    const FeatureVector& f = features[j];
    double acc = 0.0;
    for (std::size_t k = 0; k < f.size(); ++k) {
      const std::uint32_t slot = table.find(f.ids[k]);
      if (slot != kEmptySlot) acc += reference.counts[slot] * f.counts[k];
    }
    const double squared =
        reference.self_dot + f.self_dot - 2.0 * acc;
    result[j] = std::sqrt(std::max(0.0, squared));
    distances.add(1);
  });
  return result;
}

}  // namespace anacin::kernels
