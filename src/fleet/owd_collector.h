// Per-(speaker, population) and per-provider-category OWD aggregation.
//
// Two consumers, one store:
//
//   * per-slot local HdrHistograms — one slot per server, written only
//     by that server's Phase-B task (disjoint, no synchronization), and
//     merged in fixed slot order into a Summary after the run joins;
//   * the obs registry — fleet.owd_ms{speaker,population} and
//     fleet.category_owd_ms{category} obs::Histograms plus the
//     fleet.owd.invalid counter, so the fleet's distributions land in
//     run reports next to every other layer's metrics. publish() feeds
//     them from the merged Summary once per run: the registry and the
//     local slots share one layout, so the registry ends with exactly
//     the counts per-sample recording would give, without a second
//     histogram write per query.
//
// The Summary is what FleetResult carries: it reflects exactly one run
// (the registry accumulates across a process's runs) and supports exact
// equality, which is what the determinism tests compare across thread
// and shard counts. HdrHistogram::merge is commutative and associative
// bit for bit, so the fixed-order merge equals any other order — the
// order is fixed anyway to make that property irrelevant rather than
// load-bearing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/params.h"
#include "logs/spec.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"

namespace mntp::fleet {

class OwdCollector {
 public:
  /// Binds registry handles from the current global obs context and
  /// sizes one local slot per writer (= per server). The validity
  /// window is the §3.1 filter: measured OWDs outside it count as
  /// invalid and enter no histogram.
  OwdCollector(std::size_t slots, double valid_min_ms, double valid_max_ms);

  /// Record one measured OWD from writer `slot`. Thread-safe across
  /// DISTINCT slots only (by design: one Phase-B task per server).
  void record(std::size_t slot, Speaker speaker, Population population,
              logs::ProviderCategory category, double owd_ms);

  struct Summary {
    /// [speaker][population], indexed by the enum values.
    std::array<std::array<obs::HdrHistogram, 2>, 2> by_class;
    /// Indexed by logs::ProviderCategory.
    std::array<obs::HdrHistogram, 4> by_category;
    std::uint64_t valid = 0;
    std::uint64_t invalid = 0;

    [[nodiscard]] bool operator==(const Summary&) const = default;
  };

  /// Merge every slot (fixed slot order) into one Summary.
  [[nodiscard]] Summary merged() const;

  /// Add `summary` (normally merged()) to the registry series bound at
  /// construction: histograms by merge, `invalid` to fleet.owd.invalid.
  void publish(const Summary& summary) const;

 private:
  struct Slot {
    std::array<std::array<obs::HdrHistogram, 2>, 2> by_class;
    std::array<obs::HdrHistogram, 4> by_category;
    std::uint64_t valid = 0;
    std::uint64_t invalid = 0;
    Slot();
  };

  double valid_min_ms_;
  double valid_max_ms_;
  std::vector<Slot> slots_;
  // Registry handles, written only by publish().
  std::array<std::array<obs::Histogram*, 2>, 2> reg_class_{};
  std::array<obs::Histogram*, 4> reg_category_{};
  obs::Counter* reg_invalid_ = nullptr;
};

}  // namespace mntp::fleet
