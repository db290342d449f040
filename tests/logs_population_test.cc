// The §3.1 population kernel (logs/population.h) that the log generator
// and the fleet build both call: each function's draw count for both
// generator types (a twin generator makes the documented draws, then
// both must agree on the next word), the cumulative pick against a
// linear scan at every table boundary, and the value bounds.
#include "logs/population.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

#include "core/rng.h"
#include "logs/spec.h"

namespace mntp::logs {
namespace {

const ServerSpec& public_server() { return kPaperServers[0]; }   // AG1
const ServerSpec& internal_server() { return kPaperServers[1]; }  // CI1
const ProviderSpec& mobile_provider() { return kPaperProviders[22]; }
const ProviderSpec& fixed_provider() { return kPaperProviders[12]; }
constexpr double kInf = std::numeric_limits<double>::infinity();

template <class R>
class PopulationKernel : public ::testing::Test {};
using PopulationRngs = ::testing::Types<core::Rng, core::SmallRng>;
TYPED_TEST_SUITE(PopulationKernel, PopulationRngs);

TYPED_TEST(PopulationKernel, PicksDrawOneUniform) {
  TypeParam rng(3);
  TypeParam twin(3);
  for (int i = 0; i < 100; ++i) {
    const std::size_t s = kServerPick(rng);
    EXPECT_EQ(s, kServerPick.index_at(twin.uniform(0.0, 1.0) *
                                      kServerPick.total()));
    const std::size_t p = pick_provider(rng, public_server());
    EXPECT_EQ(p, kPublicProviderPick.index_at(twin.uniform(0.0, 1.0) *
                                              kPublicProviderPick.total()));
    const std::size_t q = pick_provider(rng, internal_server());
    EXPECT_EQ(q, kIspInternalProviderPick.index_at(
                     twin.uniform(0.0, 1.0) *
                     kIspInternalProviderPick.total()));
  }
  EXPECT_EQ(rng.next_u64(), twin.next_u64());
}

TYPED_TEST(PopulationKernel, MobileBaseOwdDrawsOneUniform) {
  TypeParam rng(5);
  TypeParam twin(5);
  const ProviderSpec& m = mobile_provider();
  const double base = base_owd_ms(rng, m);
  EXPECT_EQ(base, twin.uniform(kMobileBaseLo * m.min_owd_median_ms,
                               kMobileBaseHi * m.min_owd_median_ms));
  EXPECT_EQ(rng.next_u64(), twin.next_u64());
}

TYPED_TEST(PopulationKernel, FixedBaseOwdDrawsOneLognormal) {
  TypeParam rng(7);
  TypeParam twin(7);
  const ProviderSpec& f = fixed_provider();
  const double base = base_owd_ms(rng, f);
  EXPECT_EQ(base, std::clamp(twin.lognormal(std::log(f.min_owd_median_ms),
                                            f.min_owd_sigma),
                             kBaseOwdMinMs, kBaseOwdMaxMs));
  EXPECT_EQ(rng.next_u64(), twin.next_u64());
}

TYPED_TEST(PopulationKernel, InflateDrawsOnePareto) {
  TypeParam rng(9);
  TypeParam twin(9);
  EXPECT_EQ(inflate_owd_ms(rng, 100.0, true, 4.0),
            std::min(100.0 * twin.pareto(1.0, kParetoShapeMobile) + 4.0,
                     kOwdCapMs));
  EXPECT_EQ(inflate_owd_ms(rng, 100.0, false, 0.0),
            std::min(100.0 * twin.pareto(1.0, kParetoShapeFixed), kOwdCapMs));
  EXPECT_EQ(rng.next_u64(), twin.next_u64());
}

TYPED_TEST(PopulationKernel, ValuesStayInBounds) {
  TypeParam rng(11);
  for (const ProviderSpec& p : kPaperProviders) {
    const bool mobile = p.category == ProviderCategory::kMobile;
    for (int i = 0; i < 2'000; ++i) {
      const double base = base_owd_ms(rng, p);
      ASSERT_GE(base, kBaseOwdMinMs) << p.name;
      ASSERT_LE(base, kBaseOwdMaxMs) << p.name;
      if (mobile) {
        ASSERT_GE(base, kMobileBaseLo * p.min_owd_median_ms) << p.name;
        ASSERT_LE(base, kMobileBaseHi * p.min_owd_median_ms) << p.name;
      }
      const double owd = inflate_owd_ms(rng, base, mobile, 30.0);
      ASSERT_GE(owd, base) << p.name;
      ASSERT_LE(owd, kOwdCapMs) << p.name;
    }
  }
  // The cap binds however large the inflation.
  EXPECT_EQ(inflate_owd_ms(rng, kBaseOwdMaxMs, true, 1e6), kOwdCapMs);
}

TEST(PopulationTables, SntpProbabilityBiasesIspInternalServers) {
  const ProviderSpec& m = mobile_provider();
  EXPECT_EQ(sntp_probability(public_server(), m), m.sntp_fraction);
  EXPECT_EQ(sntp_probability(internal_server(), m),
            m.sntp_fraction * kIspInternalSntpFactor);
}

/// Linear-scan reference: the first index whose running weight sum
/// exceeds the draw. (The subtracting scan the log generator once used,
/// `x -= w[i]` until x < w[i], can differ from it at the last ulp of a
/// boundary, a draw of probability ~2^-53; Generator.GoldenDigest pins
/// that no such draw occurs in the pinned log stream.)
std::size_t linear_pick(std::span<const double> weights, double x) {
  double sum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    sum += weights[i];
    if (x < sum) return i;
  }
  return weights.size() - 1;
}

template <std::size_t N>
void expect_matches_linear_scan(const WeightedPick<N>& pick,
                                const std::array<double, N>& weights) {
  EXPECT_EQ(pick.index_at(0.0), linear_pick(weights, 0.0));
  double boundary = 0.0;
  for (std::size_t i = 0; i < N; ++i) {
    boundary += weights[i];
    for (const double x : {std::nextafter(boundary, 0.0), boundary,
                           std::nextafter(boundary, kInf)}) {
      if (x >= pick.total()) continue;  // outside [0, total)
      EXPECT_EQ(pick.index_at(x), linear_pick(weights, x))
          << "boundary " << i << " x=" << x;
    }
  }
  EXPECT_EQ(pick.index_at(std::nextafter(pick.total(), 0.0)), N - 1);
}

TEST(PopulationTables, CumulativePickMatchesLinearScanAtEveryBoundary) {
  std::array<double, kPaperServers.size()> servers{};
  for (std::size_t i = 0; i < servers.size(); ++i) {
    servers[i] = static_cast<double>(kPaperServers[i].unique_clients);
  }
  expect_matches_linear_scan(kServerPick, servers);

  std::array<double, kPaperProviders.size()> pub{};
  std::array<double, kPaperProviders.size()> internal{};
  for (std::size_t i = 0; i < pub.size(); ++i) {
    const ProviderSpec& p = kPaperProviders[i];
    pub[i] = p.client_weight;
    internal[i] = p.category == ProviderCategory::kIsp
                      ? p.client_weight
                      : p.client_weight * kIspInternalForeignWeight;
  }
  expect_matches_linear_scan(kPublicProviderPick, pub);
  expect_matches_linear_scan(kIspInternalProviderPick, internal);
}

}  // namespace
}  // namespace mntp::logs
