// NTP per-peer clock filter (RFC 5905 §10).
//
// Keeps the last eight (offset, delay, dispersion) tuples from one server
// and nominates the sample with the lowest delay — the core insight being
// that offset error correlates with delay inflation, so the min-delay
// sample is the most trustworthy. Dispersion ages at 15 ppm between
// samples; peer jitter is the RMS of the surviving offsets against the
// nominated one. A popcorn spike suppressor discards a sample whose
// offset jumps by more than `popcorn_gate` times the current jitter; a
// second consecutive out-of-gate sample is admitted so a genuine level
// shift converges after one suppressed sample instead of starving the
// filter forever.
//
// This is the machinery SNTP *omits* (the paper: SNTP "does not employ
// the sophisticated clock correction and filtering algorithms of NTP"),
// and the reason the full-NTP baseline stays tight on a lossy channel.
#pragma once

#include <cstddef>
#include <optional>

#include "core/ring_buffer.h"
#include "core/time.h"
#include "obs/telemetry.h"

namespace mntp::ntp {

/// One filtered peer estimate, as consumed by selection/combining.
struct PeerEstimate {
  core::Duration offset;
  core::Duration delay;
  core::Duration dispersion;
  double jitter_s = 0.0;
  /// True when this estimate nominates a sample not yet consumed by the
  /// discipline. RFC 5905 uses each filter output once: re-disciplining
  /// on a stale nomination while the clock moves creates a feedback loop.
  bool fresh = true;

  /// Root distance contribution: delay/2 + dispersion (RFC 5905 §11.1).
  [[nodiscard]] core::Duration root_distance() const {
    return delay / 2 + dispersion;
  }
};

struct ClockFilterParams {
  std::size_t stages = 8;
  /// Dispersion growth rate between samples (RFC 5905 PHI = 15e-6).
  double phi = 15e-6;
  /// Initial per-sample dispersion (measurement precision bound).
  core::Duration base_dispersion = core::Duration::microseconds(500);
  /// Popcorn spike gate: reject a sample whose offset deviates from the
  /// last nominated offset by more than this many jitters. 0 disables
  /// (the default: the min-delay nomination already sidelines spikes, and
  /// a hard gate can starve the filter when jitter is estimated low).
  /// The gate only ever swallows a lone spike: the second consecutive
  /// out-of-gate sample is admitted (level-shift escape hatch).
  double popcorn_gate = 0.0;
  /// Floor on the jitter used by the popcorn gate, so a lucky streak of
  /// identical samples cannot collapse the gate to zero.
  double popcorn_jitter_floor_s = 5e-3;
};

class ClockFilter {
 public:
  explicit ClockFilter(ClockFilterParams params = {});

  /// Insert a new sample observed at true time `now`. Returns the updated
  /// estimate, or nullopt if the sample was swallowed by the popcorn
  /// suppressor (filter state still ages).
  std::optional<PeerEstimate> update(core::Duration offset, core::Duration delay,
                                     core::TimePoint now);

  /// Most recent nominated estimate, if any sample survived yet.
  [[nodiscard]] std::optional<PeerEstimate> current() const { return current_; }

  [[nodiscard]] std::size_t samples_seen() const { return seen_; }
  [[nodiscard]] std::size_t samples_suppressed() const { return suppressed_; }

  void reset();

 private:
  struct Stage {
    core::Duration offset;
    core::Duration delay;
    core::Duration dispersion;
    core::TimePoint when;
  };

  ClockFilterParams params_;
  core::RingBuffer<Stage> stages_;
  core::TimePoint last_used_;
  std::optional<PeerEstimate> current_;
  std::size_t seen_ = 0;
  std::size_t suppressed_ = 0;
  /// Set while the previous sample was popcorn-suppressed: the next
  /// out-of-gate sample is admitted (level-shift escape hatch).
  bool popcorn_armed_ = false;
  obs::Counter* samples_counter_ = nullptr;
  obs::Counter* suppressed_counter_ = nullptr;
};

}  // namespace mntp::ntp
