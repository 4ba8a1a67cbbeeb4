#ifndef MOST_OBS_GOVERNOR_H_
#define MOST_OBS_GOVERNOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace most {

/// Process-wide owner of the resource-governance knobs and degraded-mode
/// health state (docs/robustness.md).
///
/// Components do not reach into each other under pressure; they meet here:
///
/// * the query manager consults limits().refresh_budget /
///   refresh_queue_limit / degrade_cooldown_ticks for any knob its own
///   Options left at zero, and reports every shed refresh via
///   NoteDegrade();
/// * reliable endpoints take their buffer caps from the channel_* limits,
///   and register a backpressure probe so `most_shell health` (or any
///   operator tooling) can enumerate per-peer pressure without holding a
///   pointer to every endpoint;
/// * the storage layer raises the sticky storage-degraded flag when a WAL
///   append or checkpoint hits ENOSPC/EIO, and clears it when a checkpoint
///   succeeds again.
///
/// Every knob defaults to 0 = unlimited, so a process that never touches
/// the governor behaves exactly as before (the differential guarantee).
/// State is exported through most_governor_* series on the global metrics
/// registry.
class ResourceGovernor {
 public:
  /// The knobs. Zero always means "unlimited / disabled".
  struct Limits {
    /// Fallback per-refresh evaluation budget for query managers whose
    /// Options::refresh_budget fields are unset.
    Budget refresh_budget;
    /// Fallback cap on refreshes admitted per TickAll batch.
    size_t refresh_queue_limit = 0;
    /// Fallback per-query cooldown (ticks) after an exhausted refresh.
    Tick degrade_cooldown_ticks = 0;
    /// Fallback caps on a reliable endpoint's per-peer unacked buffer.
    size_t channel_max_unacked_messages = 0;
    size_t channel_max_unacked_bytes = 0;
    /// Fallback horizon after which a silent peer's send buffer is evicted.
    Tick channel_peer_dead_horizon = 0;
    /// Fallback dirty-fraction threshold above which a delta refresh falls
    /// back to a full re-evaluation, for query managers whose
    /// Options::delta_max_dirty_fraction is unset. The telemetry
    /// watchdog's arm/relax cycle drives this knob (docs/observability.md).
    double delta_max_dirty_fraction = 0.0;
  };

  static ResourceGovernor& Global();

  ResourceGovernor();
  ~ResourceGovernor();

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  Limits limits() const;
  void set_limits(const Limits& limits);

  // ---- Degrade events ----------------------------------------------------

  struct DegradeEvent {
    DegradeReason reason = DegradeReason::kNone;
    uint64_t query_id = 0;  ///< 0 when the event is not query-scoped.
    Tick at = 0;
    std::string detail;
  };

  /// Records a shed/degrade event: bumps most_governor_degrades_total
  /// (labelled by reason) and keeps the event in a small ring for
  /// operator tooling.
  void NoteDegrade(DegradeReason reason, uint64_t query_id, Tick at,
                   std::string detail = "");
  /// Most recent events, newest last (at most `max_n`).
  std::vector<DegradeEvent> RecentDegrades(size_t max_n = 10) const;
  uint64_t degrades_total() const;

  // ---- Storage health ----------------------------------------------------

  /// Sticky storage-degraded flag: raised by the WAL/checkpoint paths on
  /// write failure, cleared by the next successful checkpoint. While
  /// raised, the database stays readable and refuses only writes.
  void ReportStorageDegraded(const std::string& detail);
  void ClearStorageDegraded();
  bool storage_degraded() const;
  std::string storage_degraded_detail() const;

  // ---- Backpressure probes -----------------------------------------------

  struct PeerPressure {
    uint64_t endpoint_node = 0;
    uint64_t peer = 0;
    Backpressure state = Backpressure::kOpen;
    size_t pending_messages = 0;
    size_t pending_bytes = 0;
  };
  using BackpressureProbe = std::function<std::vector<PeerPressure>()>;

  /// Registers a callback enumerating one endpoint's per-peer pressure;
  /// returns an id for Unregister. Probes are invoked synchronously by
  /// BackpressureSnapshot() — they must not call back into the governor.
  uint64_t RegisterBackpressureProbe(BackpressureProbe probe);
  void UnregisterBackpressureProbe(uint64_t id);
  std::vector<PeerPressure> BackpressureSnapshot() const;

  /// Testing hook: drop events, storage state and counters (not limits).
  void ResetStateForTest();

 private:
  mutable std::mutex mu_;
  Limits limits_;
  std::deque<DegradeEvent> recent_;
  uint64_t degrades_total_ = 0;
  bool storage_degraded_ = false;
  std::string storage_detail_;
  std::map<uint64_t, BackpressureProbe> probes_;
  uint64_t next_probe_id_ = 1;

  /// Attached to the global registry for the governor's lifetime.
  obs::Gauge storage_degraded_gauge_;
  obs::Gauge degrades_gauge_;
  std::vector<uint64_t> attach_ids_;

  static constexpr size_t kRecentCapacity = 32;
};

}  // namespace most

#endif  // MOST_OBS_GOVERNOR_H_
