// Metrics registry: counters, gauges and histograms keyed by name+labels.
//
// The registry is the quantitative half of the observability layer (the
// trace events of obs/trace_event.h are the qualitative half). Design
// constraints, in order:
//
//   1. Hot-path cheapness. Instrumented code resolves a handle (Counter*,
//      Gauge*, Histogram*) ONCE at construction; recording through the
//      handle is O(1) with no map lookup and no allocation once warm. A
//      disabled registry reduces every record to one predictable branch.
//   2. Determinism. Metrics only observe; nothing in the library reads a
//      metric back to make a decision, so instrumentation can never
//      perturb an experiment's RNG streams or event order.
//   3. Self-description. The registry can snapshot itself into plain
//      structs that the report writer (obs/report.h) serializes without
//      knowing anything about individual metrics.
//
// One implementation per concept:
//
//   * Counter   — monotonic count in a per-thread slab cell;
//   * Gauge     — last-writer-wins instantaneous value (one atomic);
//   * Histogram — per-thread HdrHistogram shard (obs/hdr_histogram.h):
//     exact log-linear bucket counts, quantiles within 2^-6 relative
//     error at the default layout.
//
// Thread safety. The simulation kernel is single-threaded, but offline
// work (the parallel tuner searcher, the fleet simulator, replicate
// workers) records from worker threads. Counters and histograms write a
// private per-thread shard — plain stores, no atomics, no locks, no
// false sharing — and merge at read (value(), merged(), snapshot()).
// Integer addition and HdrHistogram::merge are commutative and
// associative, so merged results are bit-identical for every thread
// count and scheduling. Reads are exact once the writers have joined
// (core::ThreadPool::parallel_for joins before returning); shard writes
// are not synchronized with a concurrent merge. Gauge::set is a relaxed
// atomic store. The registry mutex guards find-or-create and snapshot();
// recording through a resolved handle never takes it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/hdr_histogram.h"

namespace mntp::obs {

/// Metric labels: key/value pairs, e.g. {{"dir","up"}}. Stored sorted by
/// key so label order at the call site does not create distinct series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// The per-thread shards behind every Counter and Histogram of one
/// registry. Each thread that records gets ONE slab — a dense array of
/// counter cells plus one lazily built HdrHistogram per histogram —
/// shared by all that registry's metrics; a handle is just {slab set,
/// index}. The hot path resolves this thread's slab through a
/// thread-local cache keyed by instance id (one compare in the common
/// one-registry case), bounds-checks the index and writes the shard.
/// Slab creation, growth (a handle registered after this thread's slab
/// was built) and histogram shard creation take the mutex; merged reads
/// take it too.
class MetricShardSlabs {
 public:
  MetricShardSlabs();
  MetricShardSlabs(const MetricShardSlabs&) = delete;
  MetricShardSlabs& operator=(const MetricShardSlabs&) = delete;

  void counter_add(std::size_t index, std::uint64_t n) {
    Slab& s = slab_for_this_thread();
    if (index >= s.counters.size()) grow(s);
    s.counters[index] += n;
  }
  void histogram_record(std::size_t index,
                        const HdrHistogram::Options& options, double v) {
    histogram_shard(index, options).record(v);
  }
  void histogram_merge(std::size_t index,
                       const HdrHistogram::Options& options,
                       const HdrHistogram& other) {
    histogram_shard(index, options).merge(other);
  }

  [[nodiscard]] std::uint64_t merged_counter(std::size_t index) const;
  [[nodiscard]] HdrHistogram merged_histogram(
      std::size_t index, const HdrHistogram::Options& options) const;

  /// Reserve the next index (registration path, rare).
  [[nodiscard]] std::size_t allocate_counter();
  [[nodiscard]] std::size_t allocate_histogram();

 private:
  struct Slab {
    std::vector<std::uint64_t> counters;
    std::vector<std::unique_ptr<HdrHistogram>> histograms;  // null = unused
  };

  Slab& slab_for_this_thread();
  /// This thread's shard of histogram `index`, built on first use.
  HdrHistogram& histogram_shard(std::size_t index,
                                const HdrHistogram::Options& options) {
    Slab& s = slab_for_this_thread();
    if (index >= s.histograms.size() || !s.histograms[index]) {
      add_histogram_shard(s, index, options);
    }
    return *s.histograms[index];
  }
  /// Resize the calling thread's slab to the registered counts. Only the
  /// owning thread touches its cells, so the realloc cannot race the hot
  /// path; merged reads serialize on mutex_.
  void grow(Slab& slab);
  void add_histogram_shard(Slab& slab, std::size_t index,
                           const HdrHistogram::Options& options);

  /// Distinguishes this instance from a destroyed one reusing the same
  /// address, so stale thread-local cache entries never resolve.
  std::uint64_t instance_id_;
  mutable std::mutex mutex_;
  std::size_t counter_count_ = 0;    // guarded by mutex_
  std::size_t histogram_count_ = 0;  // guarded by mutex_
  std::vector<std::unique_ptr<Slab>> slabs_;
};

/// Monotonic event count: inc() adds to this thread's cell, value() sums
/// the cells (exact once writers have joined).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (enabled_->load(std::memory_order_relaxed)) {
      slabs_->counter_add(index_, n);
    }
  }
  [[nodiscard]] std::uint64_t value() const {
    return slabs_->merged_counter(index_);
  }

 private:
  friend class MetricsRegistry;
  Counter(const std::atomic<bool>* enabled, MetricShardSlabs* slabs,
          std::size_t index)
      : enabled_(enabled), slabs_(slabs), index_(index) {}
  const std::atomic<bool>* enabled_;
  MetricShardSlabs* slabs_;
  std::size_t index_;
};

/// Last-written instantaneous value. Lock-free; concurrent set() calls
/// keep one of the written values.
class Gauge {
 public:
  void set(double v) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// Distribution of recorded values: record() and merge() write this
/// thread's HdrHistogram shard, merged() combines the shards. The merged
/// result is identical for every thread count and interleaving.
class Histogram {
 public:
  void record(double v) {
    if (enabled_->load(std::memory_order_relaxed)) {
      slabs_->histogram_record(index_, options_, v);
    }
  }
  /// Add a whole distribution recorded elsewhere — same merged result as
  /// record()ing its samples. Throws std::invalid_argument when
  /// `other`'s layout differs from this histogram's (HdrHistogram::merge);
  /// a no-op while the registry is disabled.
  void merge(const HdrHistogram& other) {
    if (enabled_->load(std::memory_order_relaxed)) {
      slabs_->histogram_merge(index_, options_, other);
    }
  }
  /// Every shard merged into one histogram; call after parallel sections
  /// have joined.
  [[nodiscard]] HdrHistogram merged() const {
    return slabs_->merged_histogram(index_, options_);
  }
  [[nodiscard]] const HdrHistogram::Options& options() const {
    return options_;
  }

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, MetricShardSlabs* slabs,
            std::size_t index, HdrHistogram::Options options)
      : enabled_(enabled), slabs_(slabs), index_(index), options_(options) {}
  const std::atomic<bool>* enabled_;
  MetricShardSlabs* slabs_;
  std::size_t index_;
  HdrHistogram::Options options_;
};

/// Point-in-time copy of one metric, for export (see obs/report.h).
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  Kind kind = Kind::kCounter;
  std::string name;
  Labels labels;

  double value = 0.0;  ///< counter (cast) or gauge value

  // Histogram-only payload.
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// (upper bound, count) per non-empty bucket, ascending; the final
  /// bound is +inf.
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Returned pointers stay valid for the registry's
  /// lifetime; call once at setup and record through the handle. A
  /// histogram keeps the layout it was first registered with.
  Counter* counter(std::string_view name, Labels labels = {});
  Gauge* gauge(std::string_view name, Labels labels = {});
  Histogram* histogram(std::string_view name,
                       HdrHistogram::Options options = {}, Labels labels = {});

  /// Disable/enable all recording (handles stay valid; records become a
  /// single branch). Used to measure instrumentation overhead.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const;

  /// Snapshot every metric, ordered by (name, labels). Counters and
  /// histograms merge their shards here.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };

  static Key make_key(std::string_view name, Labels labels);

  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;  // guards the maps, not the metric values
  MetricShardSlabs slabs_;    // shards behind every counter and histogram
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mntp::obs
