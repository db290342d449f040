// The paper's §3.1 client population as one sampling kernel, shared by
// the synthetic server logs (logs::LogGenerator) and the fleet
// simulator (fleet::ClientFleet::build and its Phase A OWD draw).
//
// Both callers model the same population — Table-1 servers, the
// 25-provider taxonomy of Figures 1-2, per-provider base (minimum) OWD
// and SNTP share — and differ in what they keep: the logs one record
// per (server, client) with a sampled request history, the fleet one
// struct-of-arrays row per client queried through time slices. The
// kernel fixes what each draw means; each caller keeps its own draw
// order, so its stream is its own. Every function states its draw
// count. `R` is core::Rng or core::SmallRng, as in net/mac.h.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "logs/spec.h"

namespace mntp::logs {

// --- Server class bias ------------------------------------------------
/// ISP-internal servers (CI*, EN*) mostly serve the operator's own
/// infrastructure: in their provider mix every non-ISP provider's
/// client weight is scaled by this factor.
inline constexpr double kIspInternalForeignWeight = 0.05;
/// ... and their clients (routers running ntpd) speak SNTP at this
/// fraction of the provider's consumer SNTP share.
inline constexpr double kIspInternalSntpFactor = 0.25;

// --- Base (minimum) OWD, Figure 1 -------------------------------------
/// Mobile providers: uniform in [lo, hi] x the provider median (the
/// paper's "linear trend" CDF). Other providers: lognormal around the
/// median with the provider's sigma.
inline constexpr double kMobileBaseLo = 0.35;
inline constexpr double kMobileBaseHi = 1.75;
/// Clamp on the base OWD: the observed OWD range (§1), so no provider
/// escapes its category band.
inline constexpr double kBaseOwdMinMs = 1.0;
inline constexpr double kBaseOwdMaxMs = 997.0;

// --- Per-query OWD inflation ------------------------------------------
/// base x Pareto(1, shape): bursty cellular queueing for mobile-provider
/// clients, light wireline inflation otherwise; capped.
inline constexpr double kParetoShapeMobile = 2.2;
inline constexpr double kParetoShapeFixed = 4.0;
inline constexpr double kOwdCapMs = 3'000.0;

// --- Clients ------------------------------------------------------------
/// Share of unsynchronized clocks, whose OWD measurements the
/// Durairajan heuristic filters: per request in the logs, per client in
/// the fleet.
inline constexpr double kUnsynchronizedFraction = 0.06;
/// Synchronized clocks: offset ~ N(0, sigma) ms, skew ~ N(0, sigma) ppm.
inline constexpr double kClockOffsetSigmaMs = 20.0;
inline constexpr double kSkewSigmaPpm = 20.0;
/// Unsynchronized clocks: |offset| uniform in [min, max] s.
inline constexpr double kUnsyncOffsetMinS = 30.0;
inline constexpr double kUnsyncOffsetMaxS = 300.0;
/// Non-mobile clients sit behind a wireless last hop with this
/// probability; mobile-provider clients always do.
inline constexpr double kWirelessFraction = 0.22;

// --- Polling ------------------------------------------------------------
/// NTP speakers poll at 2^k s, k uniform in [min, max] (RFC 5905 poll
/// exponent range); the logs record k in the request's poll field.
inline constexpr int kNtpPollMinLog2 = 6;
inline constexpr int kNtpPollMaxLog2 = 10;
/// SNTP speakers poll on an app-defined timer, uniform in [min, max] s.
inline constexpr double kSntpPollMinS = 16.0;
inline constexpr double kSntpPollMaxS = 112.0;

/// A categorical pick over a fixed weight table by cumulative sums,
/// built once (at compile time for the tables below).
template <std::size_t N>
class WeightedPick {
 public:
  explicit constexpr WeightedPick(const std::array<double, N>& weights) {
    double total = 0.0;
    for (std::size_t i = 0; i < N; ++i) {
      total += weights[i];
      cum_[i] = total;
    }
  }

  [[nodiscard]] constexpr double total() const { return cum_.back(); }

  /// The index whose cumulative interval holds `x` in [0, total()): the
  /// first i with x < cum[i], or the last index when none is.
  [[nodiscard]] constexpr std::size_t index_at(double x) const {
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), x);
    return std::min(static_cast<std::size_t>(it - cum_.begin()), N - 1);
  }

  /// Draws: one uniform.
  template <class R>
  [[nodiscard]] std::size_t operator()(R& rng) const {
    return index_at(rng.uniform(0.0, 1.0) * total());
  }

 private:
  std::array<double, N> cum_{};
};

namespace detail {

constexpr std::array<double, kPaperServers.size()> server_weights() {
  std::array<double, kPaperServers.size()> w{};
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<double>(kPaperServers[i].unique_clients);
  }
  return w;
}

constexpr std::array<double, kPaperProviders.size()> provider_weights(
    bool isp_internal) {
  std::array<double, kPaperProviders.size()> w{};
  for (std::size_t i = 0; i < w.size(); ++i) {
    const ProviderSpec& p = kPaperProviders[i];
    w[i] = isp_internal && p.category != ProviderCategory::kIsp
               ? p.client_weight * kIspInternalForeignWeight
               : p.client_weight;
  }
  return w;
}

}  // namespace detail

/// Home server, weighted by Table-1 unique-client counts.
inline constexpr WeightedPick<kPaperServers.size()> kServerPick{
    detail::server_weights()};
/// Provider mix of a public and of an ISP-internal server.
inline constexpr WeightedPick<kPaperProviders.size()> kPublicProviderPick{
    detail::provider_weights(false)};
inline constexpr WeightedPick<kPaperProviders.size()> kIspInternalProviderPick{
    detail::provider_weights(true)};

/// Provider index (into kPaperProviders) of a client of `server`.
/// Draws: one uniform.
template <class R>
[[nodiscard]] std::size_t pick_provider(R& rng, const ServerSpec& server) {
  return server.isp_internal ? kIspInternalProviderPick(rng)
                             : kPublicProviderPick(rng);
}

/// Probability that a client of `provider` at `server` speaks SNTP.
/// Draws: none.
[[nodiscard]] constexpr double sntp_probability(const ServerSpec& server,
                                                const ProviderSpec& provider) {
  return server.isp_internal ? provider.sntp_fraction * kIspInternalSntpFactor
                             : provider.sntp_fraction;
}

/// A client's base (minimum) OWD in ms, within [kBaseOwdMinMs,
/// kBaseOwdMaxMs]. Draws: one uniform for a mobile provider, one
/// lognormal otherwise.
template <class R>
[[nodiscard]] double base_owd_ms(R& rng, const ProviderSpec& provider) {
  const double base =
      provider.category == ProviderCategory::kMobile
          ? rng.uniform(kMobileBaseLo * provider.min_owd_median_ms,
                        kMobileBaseHi * provider.min_owd_median_ms)
          : rng.lognormal(std::log(provider.min_owd_median_ms),
                          provider.min_owd_sigma);
  return std::clamp(base, kBaseOwdMinMs, kBaseOwdMaxMs);
}

/// One query's OWD in ms: min(base x Pareto(1, shape) + extra, cap),
/// with the mobile or fixed shape; `extra_ms` is delay added after the
/// inflation (the fleet's MAC backoff). Draws: one pareto.
template <class R>
[[nodiscard]] double inflate_owd_ms(R& rng, double base_ms, bool mobile,
                                    double extra_ms) {
  const double shape = mobile ? kParetoShapeMobile : kParetoShapeFixed;
  return std::min(base_ms * rng.pareto(1.0, shape) + extra_ms, kOwdCapMs);
}

}  // namespace mntp::logs
