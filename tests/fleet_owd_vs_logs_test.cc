// Cross-check: the fleet simulator and logs::LogGenerator call the same
// §3.1 population kernel (logs/population.h: Table 1 servers, provider
// mix, base-OWD shapes, per-query inflation), so their
// per-provider-category OWD distributions must agree in shape — same
// category ordering and medians within a generous band. Guards against
// either pipeline reshaping what it feeds the kernel (the fleet adds
// MAC backoff and clock error; the logs sample per request).
#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fleet/client_fleet.h"
#include "fleet/params.h"
#include "fleet/simulator.h"
#include "logs/generate.h"
#include "logs/spec.h"
#include "obs/telemetry.h"

namespace mntp {
namespace {

double median_of(std::vector<float>& v) {
  EXPECT_FALSE(v.empty());
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return static_cast<double>(v[mid]);
}

TEST(FleetOwdVsLogs, CategoryMediansAgreeInShape) {
  // Per-category valid OWD samples from the synthetic-log pipeline.
  logs::GeneratorParams log_params;
  log_params.scale = 1.0 / 400.0;  // enough samples per category
  logs::LogGenerator generator(log_params, core::Rng(99));
  std::array<std::vector<float>, 4> log_samples;
  for (const logs::ServerLog& log : generator.generate_all()) {
    for (const logs::ClientRecord& client : log.clients) {
      const auto cat = static_cast<std::size_t>(
          logs::kPaperProviders[client.provider_index].category);
      for (const float owd : client.owd_samples_ms) {
        if (owd >= 0.0F) log_samples[cat].push_back(owd);
      }
    }
  }

  // Per-category OWD histograms from the fleet simulator.
  obs::Telemetry tel;
  obs::ScopedTelemetry scope(tel);
  fleet::FleetParams p;
  p.clients = 30'000;
  p.duration_s = 30.0;
  p.shards = 16;
  p.seed = 5;
  fleet::Simulator sim(
      std::make_shared<const fleet::ClientFleet>(fleet::ClientFleet::build(p)),
      p);
  const fleet::FleetResult r = sim.run(2);

  std::array<double, 4> log_median{};
  std::array<double, 4> fleet_median{};
  for (std::size_t c = 0; c < 4; ++c) {
    log_median[c] = median_of(log_samples[c]);
    ASSERT_GT(r.owd.by_category[c].count(), 1'000U) << "category " << c;
    fleet_median[c] = r.owd.by_category[c].quantile(0.5);
  }

  // Same Figure-1 ordering on both sides: cloud < isp < broadband < mobile.
  EXPECT_LT(log_median[0], log_median[1]);
  EXPECT_LT(log_median[1], log_median[2]);
  EXPECT_LT(log_median[2], log_median[3]);
  EXPECT_LT(fleet_median[0], fleet_median[1]);
  EXPECT_LT(fleet_median[1], fleet_median[2]);
  EXPECT_LT(fleet_median[2], fleet_median[3]);

  // Medians within a generous band: the pipelines share the kernel's
  // base-OWD and inflation draws but the fleet adds MAC backoff and
  // clock error, so require agreement within 2x, not equality.
  for (std::size_t c = 0; c < 4; ++c) {
    const double ratio = fleet_median[c] / log_median[c];
    EXPECT_GT(ratio, 0.5) << "category " << c << " fleet=" << fleet_median[c]
                          << " logs=" << log_median[c];
    EXPECT_LT(ratio, 2.0) << "category " << c << " fleet=" << fleet_median[c]
                          << " logs=" << log_median[c];
  }
}

}  // namespace
}  // namespace mntp
