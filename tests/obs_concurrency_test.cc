// Thread-safety of the obs layer under concurrent writers: exact counter
// totals, no lost histogram samples, serialized event emission. These are
// the tests the TSan preset (README: -DMNTP_TSAN=ON) is aimed at.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_event.h"

namespace mntp::obs {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kPerThread = 20000;

TEST(ObsConcurrency, CounterHammerExactTotal) {
  MetricsRegistry reg;
  Counter* c = reg.counter("hammer.counter");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (std::size_t i = 0; i < kPerThread; ++i) c->inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(ObsConcurrency, HistogramHammerExactCountAndSum) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("hammer.hist");
  HdrHistogram serial(h->options());
  for (std::size_t t = 0; t < kThreads; ++t) {
    serial.record(static_cast<double>(t % 4) + 1.0, kPerThread);
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        h->record(static_cast<double>(t % 4) + 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const HdrHistogram merged = h->merged();
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
  // No lost or misplaced sample: the merged shards equal the same
  // multiset recorded serially, bucket for bucket, so the midpoint sum
  // matches too.
  EXPECT_EQ(merged, serial);
  EXPECT_EQ(merged.sum(), serial.sum());
  std::uint64_t bucketed = 0;
  for (const auto& [le, n] : merged.buckets()) bucketed += n;
  EXPECT_EQ(bucketed, merged.count());
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 4.0);
}

TEST(ObsConcurrency, RegistryFindOrCreateFromManyThreads) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Everyone resolves the same series; the registry must hand all of
      // them one Counter and lose no increments during creation races.
      for (int i = 0; i < 500; ++i) reg.counter("shared.series")->inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared.series")->value(), kThreads * 500u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsConcurrency, EmitFromManyThreadsLosesNoEvents) {
  Telemetry tel;
  tel.capture_events(1 << 20);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&tel] {
      for (std::size_t i = 0; i < 2000; ++i) {
        tel.event(core::TimePoint::epoch(), "test", "evt",
                  {{"i", static_cast<std::int64_t>(i)}});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tel.events_total(), 4u * 2000u);
  EXPECT_EQ(tel.events().size(), 4u * 2000u);
  EXPECT_EQ(tel.events_evicted(), 0u);
}

TEST(ObsConcurrency, ParallelForWorkersShareOneCounter) {
  // The exact shape the parallel tuner search uses: pool workers bump one
  // counter while writing disjoint result slots.
  Telemetry tel;
  ScopedTelemetry scope(tel);
  Counter* scored = Telemetry::global().metrics().counter("t.scored");
  core::ThreadPool pool(4);
  std::vector<double> results(512);
  pool.parallel_for(0, results.size(), [&](std::size_t i) {
    results[i] = static_cast<double>(i);
    scored->inc();
  });
  EXPECT_EQ(scored->value(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], static_cast<double>(i));
  }
}

TEST(ObsConcurrency, DisabledRegistryIgnoresConcurrentWrites) {
  MetricsRegistry reg;
  Counter* c = reg.counter("off.counter");
  reg.set_enabled(false);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 1000; ++i) c->inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), 0u);
}

}  // namespace
}  // namespace mntp::obs
