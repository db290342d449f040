// Fleet layer unit tests: SmallRng stream contract, population build
// calibration, and the simulator's conservation / mechanism invariants.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fleet/client_fleet.h"
#include "fleet/params.h"
#include "fleet/report.h"
#include "fleet/simulator.h"
#include "fleet/server_fleet.h"
#include "logs/spec.h"
#include "ntp/server.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace mntp {
namespace {

TEST(SmallRng, DrawKIsDeriveStreamSeedOfK) {
  core::SmallRng rng(0xDEADBEEFULL);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(rng.next_u64(), core::derive_stream_seed(0xDEADBEEFULL, k));
  }
}

TEST(SmallRng, CanonicalIsInUnitInterval) {
  core::SmallRng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.canonical();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SmallRng, NormalMomentsMatch) {
  core::SmallRng rng(11);
  constexpr int kN = 200'000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(SmallRng, ParetoRespectsScaleAndTailClamp) {
  core::SmallRng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.pareto(1.0, 4.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, std::pow(2.0, 53.0 / 4.0));
  }
}

fleet::FleetParams small_params() {
  fleet::FleetParams p;
  p.clients = 20'000;
  p.duration_s = 30.0;
  p.shards = 8;
  p.seed = 42;
  return p;
}

TEST(ClientFleet, BuildMatchesPopulationTargets) {
  const fleet::FleetParams p = small_params();
  const fleet::ClientFleet fleet = fleet::ClientFleet::build(p);
  ASSERT_EQ(fleet.size(), p.clients);
  EXPECT_EQ(fleet.sntp_clients() + fleet.ntp_clients(), p.clients);
  EXPECT_EQ(fleet.wireless_clients() + fleet.wired_clients(), p.clients);
  // Most of the paper population speaks SNTP; both classes are present.
  EXPECT_GT(fleet.sntp_clients(), p.clients / 2);
  EXPECT_GT(fleet.ntp_clients(), 0U);
  EXPECT_GT(fleet.wireless_clients(), 0U);
  // Mobile-provider clients are always wireless.
  for (std::uint64_t i = 0; i < fleet.size(); ++i) {
    if (fleet.category(i) == logs::ProviderCategory::kMobile) {
      EXPECT_EQ(fleet.population(i), fleet::Population::kWireless);
    }
    EXPECT_GE(fleet.base_owd_ms()[i], 1.0F);
    EXPECT_LE(fleet.base_owd_ms()[i], 997.0F);
    EXPECT_LT(fleet.init_next_poll_ns()[i], fleet.init_interval_ns()[i]);
  }
}

TEST(ClientFleet, BuildIsDeterministic) {
  const fleet::FleetParams p = small_params();
  const fleet::ClientFleet a = fleet::ClientFleet::build(p);
  const fleet::ClientFleet b = fleet::ClientFleet::build(p);
  EXPECT_EQ(a.traits(), b.traits());
  EXPECT_EQ(a.server(), b.server());
  EXPECT_EQ(a.base_owd_ms(), b.base_owd_ms());
  EXPECT_EQ(a.init_next_poll_ns(), b.init_next_poll_ns());
}

// The server pipeline as a sequential pass over the canonically sorted
// slice — the definition process_slice must reproduce from any order.
struct ReferenceServer {
  static constexpr std::uint64_t kNone = ~0ULL;
  std::uint64_t cached_bucket = kNone;
  double cached_err_ms = 0.0;
  std::uint64_t prev_batch = kNone;
  fleet::ServerTotals totals;
  // Slices whose first window / first served bucket continued the
  // previous slice's last (coverage of the cross-slice cursors).
  int batch_continued = 0;
  int bucket_continued = 0;
};

void reference_slice(ReferenceServer& st, const fleet::FleetParams& p,
                     std::size_t server,
                     std::vector<fleet::ArrivalRecord> arrivals,
                     const fleet::ClientFleet& fleet,
                     std::vector<std::uint64_t>& interval_ns,
                     fleet::OwdCollector& owd) {
  std::sort(arrivals.begin(), arrivals.end(),
            [](const fleet::ArrivalRecord& a, const fleet::ArrivalRecord& b) {
              return a.arrive_ns != b.arrive_ns ? a.arrive_ns < b.arrive_ns
                                                : a.client < b.client;
            });
  const std::uint64_t server_seed = core::derive_stream_seed(
      core::derive_stream_seed(p.seed, /*server stream*/ 1), server);
  const auto batch_window_ns =
      static_cast<std::uint64_t>(p.batch_window_ms * 1e6);
  const auto cache_bucket_ns =
      static_cast<std::uint64_t>(p.cache_bucket_ms * 1e6);
  const auto cap_ns = static_cast<std::uint64_t>(fleet::kKodBackoffCapS * 1e9);
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  for (const fleet::ArrivalRecord& a : arrivals) {
    ++requests;
    ++st.totals.requests;
    const std::uint64_t batch = a.arrive_ns / batch_window_ns;
    if (batch != st.prev_batch) {
      st.prev_batch = batch;
      ++st.totals.batches;
    } else if (requests == 1) {
      ++st.batch_continued;
    }
    if (requests > p.kod_limit_per_slice) {
      ++st.totals.kod;
      interval_ns[a.client] = ntp::kod_backoff_interval_ns(
          interval_ns[a.client], fleet::kKodBackoffFactor, cap_ns);
      continue;
    }
    ++served;
    const std::uint64_t bucket = a.arrive_ns / cache_bucket_ns;
    if (bucket != st.cached_bucket) {
      st.cached_bucket = bucket;
      core::SmallRng rng(core::derive_stream_seed(server_seed, bucket));
      st.cached_err_ms = rng.normal(0.0, fleet::kServerErrSigmaMs);
      ++st.totals.cache_misses;
    } else {
      ++st.totals.cache_hits;
      if (served == 1) ++st.bucket_continued;
    }
    owd.record(server, fleet.speaker(a.client), fleet.population(a.client),
               fleet.category(a.client), a.partial_ms + st.cached_err_ms);
  }
}

void expect_totals_eq(const fleet::ServerTotals& got,
                      const fleet::ServerTotals& want) {
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.kod, want.kod);
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cache_misses, want.cache_misses);
}

// process_slice takes a slice in any order; whatever the order, its
// totals, KoD interval writes and OWD records must equal the sequential
// pass over the sorted slice, slice after slice (the batch and cache
// cursors carry across slices).
struct SliceCase {
  std::uint64_t kod_limit;
  double batch_window_ms;
  double cache_bucket_ms;
};

TEST(ServerFleet, ProcessSliceMatchesSortedReference) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams base = small_params();
  const fleet::ClientFleet fleet = fleet::ClientFleet::build(base);
  constexpr std::size_t kServers = 4;
  constexpr std::size_t kServer = 3;
  constexpr std::size_t kPermutations = 4;
  constexpr std::uint64_t kSpreadNs = 1'100'000'000;
  // Slice sizes around the limit of 50: empty, under, at, one over,
  // well over.
  const std::vector<std::size_t> sizes = {0,  20, 50, 51, 120, 10, 50,
                                          0,  300, 10, 49, 200, 30, 80};
  // Default windows (a 2-word batch bitmap); windows longer than the
  // spread of a slice and 5 ms buckets (a 4-word bucket bitmap, more
  // buckets per slice than the error memo has slots); a zero limit,
  // where nothing is served and the cache state must stay untouched,
  // with buckets long enough that consecutive slices share one.
  const std::vector<SliceCase> cases = {
      {50, 10.0, 250.0}, {50, 700.0, 5.0}, {0, 10.0, 10'000.0}};

  for (const SliceCase& c : cases) {
    SCOPED_TRACE("kod_limit=" + std::to_string(c.kod_limit) +
                 " batch_window_ms=" + std::to_string(c.batch_window_ms) +
                 " cache_bucket_ms=" + std::to_string(c.cache_bucket_ms));
    fleet::FleetParams p = base;
    p.kod_limit_per_slice = c.kod_limit;
    p.batch_window_ms = c.batch_window_ms;
    p.cache_bucket_ms = c.cache_bucket_ms;

    std::vector<std::uint64_t> ref_interval(fleet.init_interval_ns());
    fleet::OwdCollector ref_owd(kServers, p.owd_valid_min_ms,
                                p.owd_valid_max_ms);
    ReferenceServer ref;
    std::vector<fleet::ServerFleet> fleets;
    std::vector<std::vector<std::uint64_t>> intervals;
    std::vector<fleet::OwdCollector> owds;
    for (std::size_t k = 0; k < kPermutations; ++k) {
      fleets.emplace_back(p, kServers);
      intervals.push_back(fleet.init_interval_ns());
      owds.emplace_back(kServers, p.owd_valid_min_ms, p.owd_valid_max_ms);
    }

    std::mt19937_64 gen(2024);
    std::uniform_int_distribution<std::uint64_t> offset(0, kSpreadNs);
    std::uniform_real_distribution<double> partial(-20.0, 400.0);
    std::vector<std::uint32_t> ids(fleet.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t start = 10'000'000'000;
    std::uint64_t prev_last = start;
    for (std::size_t t = 0; t < sizes.size(); ++t) {
      SCOPED_TRACE("slice " + std::to_string(t));
      // Odd slices start exactly at the previous slice's last arrival,
      // so its window and bucket straddle the boundary; even ones start
      // 0.8 s after the previous start, inside the previous slice's
      // span, and the last one 2 s before it. Half the times sit on a
      // 1 ms grid so equal times are ranked by client id. A client
      // arrives at most once per slice.
      start = t + 1 == sizes.size() ? start - 2'000'000'000
              : t % 2 == 1          ? prev_last
                                    : start + 800'000'000;
      std::shuffle(ids.begin(), ids.end(), gen);
      std::vector<fleet::ArrivalRecord> slice;
      for (std::size_t k = 0; k < sizes[t]; ++k) {
        std::uint64_t at = k == 0 ? start : start + offset(gen);
        if (k % 2 == 1) at -= at % 1'000'000;
        slice.push_back({.arrive_ns = at, .client = ids[k],
                         .partial_ms = partial(gen)});
        prev_last = k == 0 ? at : std::max(prev_last, at);
      }
      reference_slice(ref, p, kServer, slice, fleet, ref_interval, ref_owd);
      for (std::size_t k = 0; k < kPermutations; ++k) {
        std::vector<fleet::ArrivalRecord> shuffled = slice;
        std::mt19937_64 perm(1000 * t + k);
        std::shuffle(shuffled.begin(), shuffled.end(), perm);
        fleets[k].process_slice(kServer, shuffled, fleet, intervals[k],
                                owds[k]);
        expect_totals_eq(fleets[k].totals(kServer), ref.totals);
      }
    }
    // The cases above did reach the paths under test.
    EXPECT_GT(ref.batch_continued, 0);
    if (c.kod_limit > 0) {
      EXPECT_GT(ref.totals.kod, 0U);
      EXPECT_GT(ref.bucket_continued, 0);
    } else {
      EXPECT_EQ(ref.totals.kod, ref.totals.requests);
    }
    for (std::size_t k = 0; k < kPermutations; ++k) {
      SCOPED_TRACE("permutation " + std::to_string(k));
      expect_totals_eq(fleets[k].totals(kServer), ref.totals);
      EXPECT_EQ(intervals[k], ref_interval);
      EXPECT_EQ(owds[k].merged(), ref_owd.merged());
    }
  }
}

TEST(Simulator, ConservationInvariantsHold) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams p = small_params();
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(2);
  EXPECT_GT(r.queries, 0U);
  EXPECT_EQ(r.queries, r.arrived + r.dropped);
  std::uint64_t server_sum = 0;
  for (const std::uint64_t s : r.server_requests) server_sum += s;
  EXPECT_EQ(server_sum, r.arrived);
  EXPECT_EQ(r.cache_hits + r.cache_misses, r.arrived - r.kod);
  EXPECT_EQ(r.owd.valid + r.owd.invalid, r.arrived - r.kod);
  // Unsynchronized clients (6% of the population) produce out-of-window
  // measurements.
  EXPECT_GT(r.owd.invalid, 0U);
  // The histograms tally exactly the valid measurements.
  std::uint64_t class_count = 0;
  for (const auto& row : r.owd.by_class) {
    for (const auto& h : row) class_count += h.count();
  }
  std::uint64_t cat_count = 0;
  for (const auto& h : r.owd.by_category) cat_count += h.count();
  EXPECT_EQ(class_count, r.owd.valid);
  EXPECT_EQ(cat_count, r.owd.valid);
}

TEST(Simulator, RepeatedRunsAreIdentical) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams p = small_params();
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult a = sim.run(1);
  const fleet::FleetResult b = sim.run(1);
  EXPECT_TRUE(a.deterministic_equal(b));
}

TEST(Simulator, KodRateLimitTriggersAndBacksClientsOff) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  fleet::FleetParams p = small_params();
  p.kod_limit_per_slice = 10;  // tiny: nearly every server saturates
  // KoD backoff takes effect one poll late (the next poll is scheduled
  // at send time, before the KoD response lands), so give it room to
  // show up in the totals.
  p.duration_s = 150.0;
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(1);
  EXPECT_GT(r.kod, 0U);
  EXPECT_EQ(r.cache_hits + r.cache_misses, r.arrived - r.kod);

  // Backoff reduces the query rate versus an unlimited run.
  fleet::FleetParams open = small_params();
  open.duration_s = 150.0;
  open.kod_limit_per_slice = 1'000'000;
  fleet::Simulator open_sim(std::make_shared<const fleet::ClientFleet>(
                                fleet::ClientFleet::build(open)),
                            open);
  const fleet::FleetResult r_open = open_sim.run(1);
  EXPECT_EQ(r_open.kod, 0U);
  EXPECT_LT(r.queries, r_open.queries);
}

TEST(Simulator, ResponseCacheHitRateTracksBucketSize) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  fleet::FleetParams coarse = small_params();
  coarse.cache_bucket_ms = 10'000.0;  // slices-long buckets: mostly hits
  fleet::Simulator coarse_sim(std::make_shared<const fleet::ClientFleet>(
                                  fleet::ClientFleet::build(coarse)),
                              coarse);
  const fleet::FleetResult r_coarse = coarse_sim.run(1);
  EXPECT_GT(r_coarse.cache_hits, r_coarse.cache_misses);

  fleet::FleetParams fine = small_params();
  fine.cache_bucket_ms = 0.001;  // microsecond buckets: mostly misses
  fleet::Simulator fine_sim(std::make_shared<const fleet::ClientFleet>(
                                fleet::ClientFleet::build(fine)),
                            fine);
  const fleet::FleetResult r_fine = fine_sim.run(1);
  EXPECT_GT(r_fine.cache_misses, r_fine.cache_hits);
}

TEST(Simulator, RejectsSliceLongerThanMinPoll) {
  fleet::FleetParams p = small_params();
  p.slice_s = 20.0;  // >= logs::kSntpPollMinS
  const auto fleet =
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p));
  EXPECT_THROW(fleet::Simulator(fleet, p), std::invalid_argument);
}

TEST(FleetReport, RendersAndRoundTripsKeyFields) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams p = small_params();
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(1);
  const std::string doc = fleet::render_fleet_report(p, r);
  EXPECT_NE(doc.find("\"kind\": \"mntp_fleet_report\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"qps_per_core\""), std::string::npos);
  EXPECT_NE(doc.find("\"category\": \"mobile\""), std::string::npos);
  EXPECT_NE(doc.find("\"speaker\": \"sntp\""), std::string::npos);
  EXPECT_NE(doc.find("\"id\": \"MW2\""), std::string::npos);
}

TEST(FleetMetrics, RegistryCountersMatchResultTotals) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  const fleet::FleetParams p = small_params();
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(2);
  std::uint64_t queries = 0;
  std::uint64_t requests = 0;
  std::uint64_t invalid = 0;
  for (const obs::MetricSnapshot& m : tel.metrics().snapshot()) {
    if (m.kind != obs::MetricSnapshot::Kind::kCounter) continue;
    const auto v = static_cast<std::uint64_t>(m.value);
    if (m.name == "fleet.client.queries") queries += v;
    if (m.name == "fleet.server.requests") requests += v;
    if (m.name == "fleet.owd.invalid") invalid += v;
  }
  EXPECT_EQ(queries, r.queries);
  EXPECT_EQ(requests, r.arrived);
  EXPECT_EQ(invalid, r.owd.invalid);
}

// Registry == result: every fleet.* series the run publishes equals the
// FleetResult tally it mirrors, exactly, whatever the thread and shard
// counts. Counters are flushed once per slice and the OWD histograms
// are merged in once per run, so a lost or doubled flush shows here.
struct RegistryCase {
  std::size_t threads;
  std::size_t shards;
};

void PrintTo(const RegistryCase& c, std::ostream* os) {
  *os << "threads=" << c.threads << " shards=" << c.shards;
}

class FleetRegistry : public ::testing::TestWithParam<RegistryCase> {};

TEST_P(FleetRegistry, SeriesEqualResultExactly) {
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  fleet::FleetParams p = small_params();
  p.shards = GetParam().shards;
  p.kod_limit_per_slice = 50;  // so the KoD series is exercised too
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(GetParam().threads);
  ASSERT_GT(r.kod, 0U);
  ASSERT_GT(r.owd.invalid, 0U);

  obs::MetricsRegistry& m = tel.metrics();
  const auto counter = [&m](std::string_view name, obs::Labels labels = {}) {
    return m.counter(name, std::move(labels))->value();
  };
  EXPECT_EQ(counter("fleet.client.queries"), r.queries);
  EXPECT_EQ(counter("fleet.client.dropped"), r.dropped);
  for (std::size_t s = 0; s < r.server_requests.size(); ++s) {
    EXPECT_EQ(counter("fleet.server.requests",
                      {{"server", std::string(logs::kPaperServers[s].id)}}),
              r.server_requests[s])
        << logs::kPaperServers[s].id;
  }
  EXPECT_EQ(counter("fleet.server.kod"), r.kod);
  EXPECT_EQ(counter("fleet.server.batches"), r.batches);
  EXPECT_EQ(counter("fleet.server.cache_hits"), r.cache_hits);
  EXPECT_EQ(counter("fleet.server.cache_misses"), r.cache_misses);
  EXPECT_EQ(counter("fleet.owd.invalid"), r.owd.invalid);

  // histogram() is find-or-create: these return the series the run
  // registered, with the layout it registered them with.
  for (const fleet::Speaker sp : {fleet::Speaker::kNtp, fleet::Speaker::kSntp}) {
    for (const fleet::Population pop :
         {fleet::Population::kWired, fleet::Population::kWireless}) {
      const obs::HdrHistogram reg =
          m.histogram("fleet.owd_ms", {},
                      {{"speaker", std::string(fleet::speaker_name(sp))},
                       {"population", std::string(fleet::population_name(pop))}})
              ->merged();
      EXPECT_EQ(reg, r.owd.by_class[static_cast<std::size_t>(sp)]
                                   [static_cast<std::size_t>(pop)])
          << fleet::speaker_name(sp) << "/" << fleet::population_name(pop);
    }
  }
  for (std::size_t c = 0; c < r.owd.by_category.size(); ++c) {
    const auto cat = static_cast<logs::ProviderCategory>(c);
    const obs::HdrHistogram reg =
        m.histogram("fleet.category_owd_ms", {},
                    {{"category", std::string(logs::category_name(cat))}})
            ->merged();
    EXPECT_EQ(reg, r.owd.by_category[c]) << logs::category_name(cat);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByShards, FleetRegistry,
    ::testing::Values(RegistryCase{1, 1}, RegistryCase{1, 64},
                      RegistryCase{4, 1}, RegistryCase{4, 64}),
    [](const ::testing::TestParamInfo<RegistryCase>& case_info) {
      return "threads" + std::to_string(case_info.param.threads) +
             "_shards" + std::to_string(case_info.param.shards);
    });

}  // namespace
}  // namespace mntp
