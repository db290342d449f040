#include "fleet/client_fleet.h"

#include <cmath>
#include <stdexcept>

#include "logs/population.h"

namespace mntp::fleet {

namespace {

// Seed namespace: streams 0/1/2 of the fleet seed belong to clients,
// servers and the population build respectively (see simulator.cc for
// the client/server halves). Keeping the three roots disjoint means a
// client id can never collide with a server index in seed space.
constexpr std::uint64_t kBuildStream = 2;

constexpr std::uint64_t kNsPerSec = 1'000'000'000ULL;

}  // namespace

ClientFleet ClientFleet::build(const FleetParams& params) {
  if (params.clients == 0) {
    throw std::invalid_argument("ClientFleet: clients must be > 0");
  }
  const std::size_t n = static_cast<std::size_t>(params.clients);
  ClientFleet fleet;
  fleet.size_ = params.clients;
  fleet.traits_.resize(n);
  fleet.provider_.resize(n);
  fleet.server_.resize(n);
  fleet.base_owd_ms_.resize(n);
  fleet.clock_err_ms_.resize(n);
  fleet.skew_ppm_.resize(n);
  fleet.snr_mean_db_.resize(n);
  fleet.init_interval_ns_.resize(n);
  fleet.init_next_poll_ns_.resize(n);

  core::Rng rng(core::derive_stream_seed(params.seed, kBuildStream));

  // Gaussian columns first, batch-filled (Rng::fill_normal amortizes the
  // polar method's pair structure); the serial pass below overwrites the
  // entries that are not plain Gaussians (unsynchronized clock errors).
  std::vector<double> scratch(n);
  rng.fill_normal(scratch, 0.0, logs::kClockOffsetSigmaMs);
  for (std::size_t i = 0; i < n; ++i) {
    fleet.clock_err_ms_[i] = static_cast<float>(scratch[i]);
  }
  rng.fill_normal(scratch, 0.0, logs::kSkewSigmaPpm);
  for (std::size_t i = 0; i < n; ++i) {
    fleet.skew_ppm_[i] = static_cast<float>(scratch[i]);
  }
  rng.fill_normal(scratch, kSnrMeanDb, kSnrSigmaDb);
  for (std::size_t i = 0; i < n; ++i) {
    fleet.snr_mean_db_[i] = static_cast<float>(scratch[i]);
  }

  for (std::size_t i = 0; i < n; ++i) {
    // Home server weighted by Table-1 unique-client counts.
    const std::size_t s = logs::kServerPick(rng);
    const logs::ServerSpec& server = logs::kPaperServers[s];
    fleet.server_[i] = static_cast<std::uint16_t>(s);

    // Provider, then the provider-derived traits.
    const std::size_t p = logs::pick_provider(rng, server);
    const logs::ProviderSpec& provider = logs::kPaperProviders[p];
    fleet.provider_[i] = static_cast<std::uint8_t>(p);

    std::uint8_t traits = 0;
    if (rng.bernoulli(logs::sntp_probability(server, provider))) {
      traits |= ClientTraits::kSntp;
    }
    const bool mobile =
        provider.category == logs::ProviderCategory::kMobile;
    if (mobile || rng.bernoulli(logs::kWirelessFraction)) {
      traits |= ClientTraits::kWireless;
    }

    // Base (minimum) OWD from the provider's min-OWD distribution.
    fleet.base_owd_ms_[i] =
        static_cast<float>(logs::base_owd_ms(rng, provider));

    if (rng.bernoulli(logs::kUnsynchronizedFraction)) {
      traits |= ClientTraits::kUnsynchronized;
      const double mag_ms = 1'000.0 * rng.uniform(logs::kUnsyncOffsetMinS,
                                                  logs::kUnsyncOffsetMaxS);
      fleet.clock_err_ms_[i] =
          static_cast<float>(rng.bernoulli(0.5) ? mag_ms : -mag_ms);
    }

    // Poll schedule: SNTP on an app-defined timer, NTP on a power-of-two
    // exponent. First poll lands uniformly inside one interval so the
    // fleet is phase-desynchronized from slice 0.
    double interval_s;
    if ((traits & ClientTraits::kSntp) != 0) {
      interval_s = rng.uniform(logs::kSntpPollMinS, logs::kSntpPollMaxS);
    } else {
      const auto k =
          rng.uniform_int(logs::kNtpPollMinLog2, logs::kNtpPollMaxLog2);
      interval_s = std::ldexp(1.0, static_cast<int>(k));
    }
    const auto interval_ns =
        static_cast<std::uint64_t>(interval_s * static_cast<double>(kNsPerSec));
    fleet.init_interval_ns_[i] = interval_ns;
    fleet.init_next_poll_ns_[i] = static_cast<std::uint64_t>(
        rng.uniform(0.0, 1.0) * static_cast<double>(interval_ns));

    fleet.traits_[i] = traits;
    if ((traits & ClientTraits::kSntp) != 0) ++fleet.sntp_clients_;
    if ((traits & ClientTraits::kWireless) != 0) ++fleet.wireless_clients_;
  }
  return fleet;
}

}  // namespace mntp::fleet
