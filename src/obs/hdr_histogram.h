// Mergeable log-linear histogram ("HDR-style"): the value type behind
// every registry Histogram (obs/metrics.h), the fleet OWD tables and the
// replicate aggregates.
//
// Distributions here must be aggregated across independent recorders —
// sim::ReplicationRunner replicates, thread-pool shards, fleet shards
// (the server's-eye OWD distributions of TimeWeaver and the paper's §3.1
// measurement study are exactly such aggregates) — so the histogram has
// to merge exactly, which a streaming estimator such as P² cannot.
//
// HdrHistogram buckets values on a log-linear grid: the magnitude
// axis is split into octaves (powers of two above `min_magnitude`), each
// octave into 2^sub_bucket_bits equal-width linear sub-buckets. Bucket
// counts are exact integers, so
//
//   * relative error of any reconstructed quantile is bounded by half a
//     sub-bucket width: <= 1 / 2^(sub_bucket_bits + 1) (~1.6% at the
//     default 5 bits);
//   * merge() is elementwise integer addition plus min/max — fully
//     commutative AND associative, bit for bit. Merging any permutation
//     of any partition of a sample stream yields an identical histogram
//     (asserted by tests). To keep that property there is deliberately
//     NO floating-point sum accumulator: mean() is derived from bucket
//     midpoints (deterministic, bounded error), not from an
//     order-sensitive IEEE summation.
//
// Negative values land in a mirrored bucket array; values with magnitude
// below `min_magnitude` land in a dedicated zero bucket; magnitudes at or
// above `max_magnitude` clamp into the top bucket (count exact, value
// error unbounded there — min()/max() stay exact regardless). NaN is
// counted separately and never pollutes min/max.
//
// HdrHistogram is a plain value type with no locking — copyable,
// movable, comparable. The registry keeps one per thread per histogram
// and merges them on read; because merge order is irrelevant, the merged
// result is identical for every thread count and scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mntp::obs {

class HdrHistogram {
 public:
  /// Bucket layout. Histograms merge only when their layouts are equal.
  struct Options {
    /// Magnitudes below this are "zero" (dedicated bucket). Must be > 0.
    double min_magnitude = 1e-3;
    /// Magnitudes at or above this clamp into the top bucket. Must exceed
    /// min_magnitude.
    double max_magnitude = 1e9;
    /// Sub-buckets per octave = 2^sub_bucket_bits; relative quantile
    /// error is bounded by 2^-(sub_bucket_bits+1). Range [1, 12].
    unsigned sub_bucket_bits = 5;

    [[nodiscard]] bool operator==(const Options&) const = default;
  };

  HdrHistogram() : HdrHistogram(Options{}) {}
  explicit HdrHistogram(Options options);

  void record(double v, std::uint64_t n = 1);

  /// Elementwise-add `other` into this. Throws std::invalid_argument when
  /// the layouts (options) differ. Commutative and associative bit for
  /// bit — see file comment.
  void merge(const HdrHistogram& other);

  /// Recorded finite samples (NaN excluded; see nan_count()).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t nan_count() const { return nan_count_; }
  /// Exact extrema of the recorded finite samples; 0 when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Sum/mean reconstructed from bucket midpoints: deterministic under
  /// merge reordering, relative error bounded like the quantiles.
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// Quantile reconstructed from bucket midpoints, clamped to the exact
  /// [min, max]. q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] bool same_layout(const HdrHistogram& other) const {
    return options_ == other.options_;
  }

  /// Non-empty buckets in ascending value order (negatives, then the
  /// zero bucket, then positives), as (inclusive upper bound, count).
  /// The bound of the zero bucket is +min_magnitude.
  [[nodiscard]] std::vector<std::pair<double, std::uint64_t>> buckets() const;

  /// Exact state equality (layout, every bucket count, extrema). Two
  /// histograms built from the same multiset of samples — in any order,
  /// merged along any tree — compare equal.
  [[nodiscard]] bool operator==(const HdrHistogram& other) const;

 private:
  [[nodiscard]] std::size_t bucket_index(double magnitude) const;
  /// Midpoint value represented by positive-side bucket i.
  [[nodiscard]] double bucket_mid(std::size_t i) const;
  /// Inclusive upper bound of positive-side bucket i.
  [[nodiscard]] double bucket_upper(std::size_t i) const;

  Options options_;
  std::size_t sub_buckets_ = 0;  // 2^sub_bucket_bits
  std::size_t octaves_ = 0;
  std::vector<std::uint64_t> positive_;
  std::vector<std::uint64_t> negative_;
  std::uint64_t zero_ = 0;  // |v| < min_magnitude
  std::uint64_t count_ = 0;
  std::uint64_t nan_count_ = 0;
  double min_ = 0.0;  // valid iff count_ > 0
  double max_ = 0.0;
};

}  // namespace mntp::obs
