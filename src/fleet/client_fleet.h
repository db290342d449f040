// Struct-of-arrays client population.
//
// One client is ~30 bytes spread across parallel arrays instead of an
// object graph: the simulator's inner loops touch exactly the columns
// they need (poll scheduling reads two u64 arrays; OWD sampling reads
// two floats and a trait byte), which is what keeps the fleet path
// memory-bound-friendly at 10^6 clients. All columns here are IMMUTABLE
// after build() — per-run mutable state (next poll, backed-off interval,
// shadowing) lives in Simulator, so one fleet can be shared read-only
// across runs, threads and bench reps.
//
// The build calls the §3.1 population kernel (src/logs/population.h)
// that logs::LogGenerator also calls, calibrated against the paper's
// Table 1 / Figures 1-2 (src/logs/spec.h): clients pick a home server
// weighted by Table-1 unique-client counts, a provider weighted by the
// Figure-1 structure (ISP-internal servers biased toward infrastructure
// NTP speakers), an SNTP/NTP speaker per the provider's SNTP share, and
// a base OWD from the provider's min-OWD distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "fleet/params.h"
#include "logs/spec.h"

namespace mntp::fleet {

/// Bit flags packed into ClientFleet::traits().
struct ClientTraits {
  static constexpr std::uint8_t kSntp = 1U << 0;
  static constexpr std::uint8_t kWireless = 1U << 1;
  static constexpr std::uint8_t kUnsynchronized = 1U << 2;
};

class ClientFleet {
 public:
  /// Deterministic single-pass build from `params.seed`. Gaussian
  /// columns (clock error, skew, SNR margin) are batch-filled through
  /// Rng::fill_normal; the categorical picks run in one serial loop.
  [[nodiscard]] static ClientFleet build(const FleetParams& params);

  [[nodiscard]] std::uint64_t size() const { return size_; }

  // Immutable columns (index = client id).
  [[nodiscard]] const std::vector<std::uint8_t>& traits() const {
    return traits_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& provider() const {
    return provider_;
  }
  [[nodiscard]] const std::vector<std::uint16_t>& server() const {
    return server_;
  }
  [[nodiscard]] const std::vector<float>& base_owd_ms() const {
    return base_owd_ms_;
  }
  [[nodiscard]] const std::vector<float>& clock_err_ms() const {
    return clock_err_ms_;
  }
  [[nodiscard]] const std::vector<float>& skew_ppm() const {
    return skew_ppm_;
  }
  [[nodiscard]] const std::vector<float>& snr_mean_db() const {
    return snr_mean_db_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& init_interval_ns() const {
    return init_interval_ns_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& init_next_poll_ns() const {
    return init_next_poll_ns_;
  }

  [[nodiscard]] Speaker speaker(std::uint64_t i) const {
    return (traits_[i] & ClientTraits::kSntp) != 0 ? Speaker::kSntp
                                                   : Speaker::kNtp;
  }
  [[nodiscard]] Population population(std::uint64_t i) const {
    return (traits_[i] & ClientTraits::kWireless) != 0 ? Population::kWireless
                                                       : Population::kWired;
  }
  [[nodiscard]] logs::ProviderCategory category(std::uint64_t i) const {
    return logs::kPaperProviders[provider_[i]].category;
  }

  /// Population tallies (computed once at build).
  [[nodiscard]] std::uint64_t sntp_clients() const { return sntp_clients_; }
  [[nodiscard]] std::uint64_t ntp_clients() const {
    return size_ - sntp_clients_;
  }
  [[nodiscard]] std::uint64_t wireless_clients() const {
    return wireless_clients_;
  }
  [[nodiscard]] std::uint64_t wired_clients() const {
    return size_ - wireless_clients_;
  }

 private:
  std::uint64_t size_ = 0;
  std::uint64_t sntp_clients_ = 0;
  std::uint64_t wireless_clients_ = 0;
  std::vector<std::uint8_t> traits_;
  std::vector<std::uint8_t> provider_;
  std::vector<std::uint16_t> server_;
  std::vector<float> base_owd_ms_;
  std::vector<float> clock_err_ms_;  // error at t=0 (huge when unsync)
  std::vector<float> skew_ppm_;
  std::vector<float> snr_mean_db_;   // meaningful for wireless clients
  std::vector<std::uint64_t> init_interval_ns_;
  std::vector<std::uint64_t> init_next_poll_ns_;  // first poll, in [0, interval)
};

}  // namespace mntp::fleet
