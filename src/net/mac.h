// The wireless MAC kernel shared by the single-device channel
// (net::WirelessChannel) and the fleet's per-client channel sampling
// (fleet::Simulator Phase A).
//
// Both callers model the same last hop: an attempt fails with a logistic
// probability in the SNR margin, a failed attempt costs a backoff that
// grows linearly with the attempt number, and the packet is dropped once
// `max_retries` retries have also failed. They differ only in the RNG
// (core::Rng on the device, a per-query core::SmallRng in the fleet), in
// the collision term the device adds to the failure probability, and in
// how the slow shadowing state is advanced between packets: the device
// integrates it in 100 ms Euler ticks, the fleet takes one exact OU
// transition across each client's 16-1024 s idle gap (ou_exact_step).
#pragma once

#include <cmath>

namespace mntp::net {

// The last-hop defaults both callers share: WirelessChannelParams takes
// its defaults from these, the fleet uses them as they are.
/// SNR margin (dB) at which one attempt fails half the time.
inline constexpr double kSnr50Db = 8.0;
/// Logistic slope of the attempt-failure curve (dB per e-fold).
inline constexpr double kSnrSlopeDb = 2.2;
/// Stationary stddev and relaxation time of the slow OU shadowing.
inline constexpr double kShadowingSigmaDb = 2.5;
inline constexpr double kShadowingTauS = 25.0;
/// Retries after the first attempt before the packet is dropped.
inline constexpr int kMaxRetries = 6;
/// Mean backoff of the first retry, ms (retry k waits k times as long).
inline constexpr double kRetryBackoffMs = 5.0;

/// Probability that one MAC attempt fails from SNR alone: a logistic in
/// the SNR margin, 1 / (1 + e^{(snr - snr50) / slope}) — ~0 a few slopes
/// above `snr50_db`, ~1 well below it.
[[nodiscard]] inline double snr_failure_probability(double snr_db,
                                                    double snr50_db,
                                                    double slope_db) {
  return 1.0 / (1.0 + std::exp((snr_db - snr50_db) / slope_db));
}

struct MacOutcome {
  bool delivered = false;
  /// Failed attempts before the delivering one (0 when undelivered).
  int retries = 0;
  /// Summed backoff, in the unit of `backoff_mean`.
  double backoff = 0.0;
};

/// The MAC retry loop: each attempt independently fails with `p_fail`;
/// failed attempt k (0-based) costs an exponential backoff of mean
/// (k + 1) * `backoff_mean` before the next try. The final attempt's
/// failure drops the packet outright — no backoff is drawn for a retry
/// that never happens (a dead draw would shift the stream of every later
/// draw). Draws per call: one bernoulli per attempt, one exponential per
/// retry. `R` is core::Rng or core::SmallRng.
template <class R>
[[nodiscard]] inline MacOutcome mac_attempts(R& rng, double p_fail,
                                             int max_retries,
                                             double backoff_mean) {
  MacOutcome out;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (!rng.bernoulli(p_fail)) {
      out.delivered = true;
      out.retries = attempt;
      return out;
    }
    if (attempt == max_retries) break;
    out.backoff +=
        rng.exponential(backoff_mean) * static_cast<double>(attempt + 1);
  }
  return out;
}

/// Exact Ornstein–Uhlenbeck transition across a gap: X(t+g) has mean
/// e^{-g/tau} X(t) and variance sigma^2 (1 - e^{-2g/tau}); `z` is one
/// standard normal draw. Exact at any horizon, one draw per call.
[[nodiscard]] inline double ou_exact_step(double x, double gap_s, double tau_s,
                                          double sigma, double z) {
  const double d = std::exp(-gap_s / tau_s);
  return d * x + sigma * std::sqrt(1.0 - d * d) * z;
}

}  // namespace mntp::net
