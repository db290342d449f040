// Fleet determinism matrix: the simulator must produce bit-identical
// results — counters AND merged OWD histograms — for any worker count
// and any shard count. This is the contract that lets the bench gate
// compare fleet_qps numbers across machines with different core counts.
// A golden case pins one small fleet's full result to fixed values.
//
// Also the tsan_fleet target: under ThreadSanitizer this exercises the
// two-phase shard/server fan-out for races.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/client_fleet.h"
#include "fleet/params.h"
#include "fleet/simulator.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace mntp {
namespace {

fleet::FleetParams base_params() {
  fleet::FleetParams p;
  p.clients = 20'000;
  p.duration_s = 30.0;
  p.shards = 16;
  p.seed = 7;
  return p;
}

fleet::FleetResult run_once(const fleet::FleetParams& p, std::size_t threads) {
  // Fresh telemetry per run so registry state never couples runs.
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  return sim.run(threads);
}

TEST(FleetDeterminism, BitIdenticalAcrossThreadCounts) {
  const fleet::FleetParams p = base_params();
  const fleet::FleetResult serial = run_once(p, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const fleet::FleetResult threaded = run_once(p, threads);
    EXPECT_TRUE(serial.deterministic_equal(threaded))
        << "threads=" << threads;
    EXPECT_EQ(serial.owd.by_class[0][0], threaded.owd.by_class[0][0]);
    EXPECT_EQ(serial.owd.by_class[1][1], threaded.owd.by_class[1][1]);
    EXPECT_EQ(serial.owd.by_category[3], threaded.owd.by_category[3]);
  }
}

TEST(FleetDeterminism, BitIdenticalAcrossShardCounts) {
  // Client->shard assignment is id % shards, but per-query randomness is
  // keyed on (client root, id, poll time) — independent of which shard
  // processed it — and servers rank arrivals by a canonical rule, not by
  // gather order. So any shard count must yield the same result.
  fleet::FleetParams p = base_params();
  p.shards = 3;
  const fleet::FleetResult reference = run_once(p, 2);
  for (const std::size_t shards : {std::size_t{16}, std::size_t{64}}) {
    p.shards = shards;
    const fleet::FleetResult other = run_once(p, 2);
    EXPECT_TRUE(reference.deterministic_equal(other))
        << "shards=" << shards;
  }
}

// Golden values: a small fleet whose low KoD limit exercises the KoD,
// cache and batching paths, pinned to the values it produced while
// Phase B still sorted each server's arrivals before its pipeline. The
// rank-based pipeline must reproduce them exactly, not merely agree
// with itself across thread and shard counts. The values hold for
// libstdc++ and glibc's libm, whose normal draws and pow/log feed them.
TEST(FleetDeterminism, MatchesSortedPipelineGolden) {
  fleet::FleetParams p;
  p.clients = 50'000;
  p.duration_s = 120.0;
  p.shards = 16;
  p.seed = 5;
  p.kod_limit_per_slice = 40;
  const fleet::FleetResult r = run_once(p, 2);

  EXPECT_EQ(r.queries, 79'168U);
  EXPECT_EQ(r.arrived, 78'407U);
  EXPECT_EQ(r.dropped, 761U);
  EXPECT_EQ(r.kod, 52'767U);
  EXPECT_EQ(r.batches, 45'882U);
  EXPECT_EQ(r.cache_hits, 21'047U);
  EXPECT_EQ(r.cache_misses, 4'593U);
  EXPECT_EQ(r.server_requests,
            (std::vector<std::uint64_t>{3998, 1, 2, 3, 0, 1, 3, 41, 206, 16,
                                        46340, 6448, 12963, 6102, 127, 166,
                                        139, 1048, 803}));
  EXPECT_EQ(r.owd.valid, 23'837U);
  EXPECT_EQ(r.owd.invalid, 1'803U);

  // Per category (cloud, isp, broadband, mobile): count, the exact
  // extrema (they carry the per-bucket server error) and quantiles.
  struct Golden {
    std::uint64_t count;
    double min, max, p50, p90, p99;
  };
  const Golden golden[] = {
      {4477, 0x1.805ae8c950d5p-3, 0x1.a1580bda2b9dcp+8, 0x1.9eb851eb851ecp+5,
       0x1.a8f5c28f5c29p+6, 0x1.8p+7},
      {8348, 0x1.627983806edcp-6, 0x1.267b2439e48ccp+9, 0x1.028f5c28f5c29p+6,
       0x1.0cccccccccccdp+7, 0x1.07ae147ae147bp+8},
      {8295, 0x1.1949b3fd1d036p+0, 0x1.767164536308dp+11,
       0x1.028f5c28f5c29p+8, 0x1.2147ae147ae15p+9, 0x1.2666666666667p+10},
      {2717, 0x1.71245eb34d64cp+7, 0x1.76e3c3ffc7cafp+11,
       0x1.570a3d70a3d71p+9, 0x1.570a3d70a3d71p+10, 0x1.75c28f5c28f5cp+11},
  };
  for (std::size_t c = 0; c < 4; ++c) {
    const obs::HdrHistogram& h = r.owd.by_category[c];
    SCOPED_TRACE("category " + std::to_string(c));
    EXPECT_EQ(h.count(), golden[c].count);
    EXPECT_EQ(h.min(), golden[c].min);
    EXPECT_EQ(h.max(), golden[c].max);
    EXPECT_EQ(h.quantile(0.5), golden[c].p50);
    EXPECT_EQ(h.quantile(0.9), golden[c].p90);
    EXPECT_EQ(h.quantile(0.99), golden[c].p99);
  }
}

TEST(FleetDeterminism, RegistryHistogramsMatchAcrossThreads) {
  // The obs-layer series (what telemetry sinks export) must merge to the
  // same histogram regardless of which worker recorded each sample.
  const fleet::FleetParams p = base_params();
  std::vector<obs::MetricSnapshot> merged;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    obs::Telemetry tel;
    obs::ScopedTelemetry scope(tel);
    fleet::Simulator sim(std::make_shared<const fleet::ClientFleet>(
                             fleet::ClientFleet::build(p)),
                         p);
    (void)sim.run(threads);
    // snapshot() iterates an ordered map, so series order is stable.
    for (obs::MetricSnapshot& m : tel.metrics().snapshot()) {
      if (m.name == "fleet.owd_ms") merged.push_back(std::move(m));
    }
  }
  ASSERT_EQ(merged.size(), 8U);  // 4 speaker x population series per run
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(merged[i].labels, merged[i + 4].labels) << "series " << i;
    EXPECT_EQ(merged[i].count, merged[i + 4].count) << "series " << i;
    EXPECT_EQ(merged[i].sum, merged[i + 4].sum) << "series " << i;
    EXPECT_EQ(merged[i].buckets, merged[i + 4].buckets) << "series " << i;
  }
}

}  // namespace
}  // namespace mntp
