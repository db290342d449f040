#include "obs/metrics.h"

#include <algorithm>
#include <limits>

namespace mntp::obs {

// --- MetricShardSlabs -----------------------------------------------------

MetricShardSlabs::MetricShardSlabs() {
  static std::atomic<std::uint64_t> next_id{1};
  instance_id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

MetricShardSlabs::Slab& MetricShardSlabs::slab_for_this_thread() {
  struct CacheEntry {
    const MetricShardSlabs* owner;
    std::uint64_t instance_id;
    Slab* slab;
  };
  // Per-thread map from slab set to this thread's slab. A linear scan:
  // one registry (one Telemetry) is live per run, so the common case is
  // a single entry hit on the first compare.
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache) {
    if (e.owner == this && e.instance_id == instance_id_) return *e.slab;
  }
  // Miss — drop any entry for a destroyed instance that shared this
  // address, then create this thread's slab under the lock.
  std::erase_if(cache, [this](const CacheEntry& e) { return e.owner == this; });
  std::lock_guard<std::mutex> lock(mutex_);
  auto slab = std::make_unique<Slab>();
  slab->counters.assign(counter_count_, 0);
  slab->histograms.resize(histogram_count_);
  slabs_.push_back(std::move(slab));
  Slab* raw = slabs_.back().get();
  cache.push_back({this, instance_id_, raw});
  return *raw;
}

void MetricShardSlabs::grow(Slab& slab) {
  std::lock_guard<std::mutex> lock(mutex_);
  slab.counters.resize(counter_count_, 0);
  slab.histograms.resize(histogram_count_);
}

void MetricShardSlabs::add_histogram_shard(
    Slab& slab, std::size_t index, const HdrHistogram::Options& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  slab.histograms.resize(histogram_count_);
  slab.histograms[index] = std::make_unique<HdrHistogram>(options);
}

std::uint64_t MetricShardSlabs::merged_counter(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& slab : slabs_) {
    if (index < slab->counters.size()) total += slab->counters[index];
  }
  return total;
}

HdrHistogram MetricShardSlabs::merged_histogram(
    std::size_t index, const HdrHistogram::Options& options) const {
  std::lock_guard<std::mutex> lock(mutex_);
  HdrHistogram out(options);
  for (const auto& slab : slabs_) {
    if (index < slab->histograms.size() && slab->histograms[index]) {
      out.merge(*slab->histograms[index]);
    }
  }
  return out;
}

std::size_t MetricShardSlabs::allocate_counter() {
  std::lock_guard<std::mutex> lock(mutex_);
  return counter_count_++;
}

std::size_t MetricShardSlabs::allocate_histogram() {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_count_++;
}

// --- MetricsRegistry ------------------------------------------------------

namespace {

template <typename Map, typename Make>
auto* find_or_create(Map& map, typename Map::key_type key, Make make) {
  auto it = map.find(key);
  if (it == map.end()) it = map.emplace(std::move(key), make()).first;
  return it->second.get();
}

}  // namespace

MetricsRegistry::Key MetricsRegistry::make_key(std::string_view name,
                                               Labels labels) {
  std::sort(labels.begin(), labels.end());
  return Key{std::string(name), std::move(labels)};
}

Counter* MetricsRegistry::counter(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(counters_, make_key(name, std::move(labels)), [&] {
    return std::unique_ptr<Counter>(
        new Counter(&enabled_, &slabs_, slabs_.allocate_counter()));
  });
}

Gauge* MetricsRegistry::gauge(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(gauges_, make_key(name, std::move(labels)), [&] {
    return std::unique_ptr<Gauge>(new Gauge(&enabled_));
  });
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      HdrHistogram::Options options,
                                      Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_create(histograms_, make_key(name, std::move(labels)), [&] {
    // Validate eagerly so a bad layout fails at registration, not first
    // record.
    (void)HdrHistogram(options);
    return std::unique_ptr<Histogram>(new Histogram(
        &enabled_, &slabs_, slabs_.allocate_histogram(), options));
  });
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  const auto add = [&out](MetricSnapshot::Kind kind, const Key& key) -> auto& {
    MetricSnapshot& s = out.emplace_back();
    s.kind = kind;
    s.name = key.name;
    s.labels = key.labels;
    return s;
  };
  for (const auto& [key, c] : counters_) {
    add(MetricSnapshot::Kind::kCounter, key).value =
        static_cast<double>(c->value());
  }
  for (const auto& [key, g] : gauges_) {
    add(MetricSnapshot::Kind::kGauge, key).value = g->value();
  }
  for (const auto& [key, h] : histograms_) {
    const HdrHistogram merged = h->merged();
    MetricSnapshot& s = add(MetricSnapshot::Kind::kHistogram, key);
    s.count = merged.count();
    s.sum = merged.sum();
    s.min = merged.min();
    s.max = merged.max();
    s.p50 = merged.quantile(0.50);
    s.p90 = merged.quantile(0.90);
    s.p99 = merged.quantile(0.99);
    // Report schema: non-empty buckets ascending, then the +inf bucket.
    s.buckets = merged.buckets();
    s.buckets.emplace_back(std::numeric_limits<double>::infinity(), 0);
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

}  // namespace mntp::obs
