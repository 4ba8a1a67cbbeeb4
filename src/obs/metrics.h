#ifndef MOST_OBS_METRICS_H_
#define MOST_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace most::obs {

/// Monotone counter. Increments are relaxed atomics, safe from any thread;
/// Reset() exists for tests and per-instance Stats::ResetStats semantics
/// (the registry folds detached values into a retired accumulator, so
/// engine-wide exports stay monotone across instance lifetimes, not across
/// explicit resets).
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Settable instantaneous value (sizes, depths, live-entity counts).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket histogram: `bounds` are sorted upper bounds; one implicit
/// +Inf bucket on top. Observe() is two relaxed atomic adds plus a branchy
/// bucket search (bounds lists are short). Snapshots carry p50/p95/p99
/// estimated by linear interpolation inside the hit bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  struct Snapshot {
    std::vector<double> bounds;
    std::vector<uint64_t> counts;  ///< bounds.size() + 1 entries (+Inf last).
    uint64_t count = 0;
    double sum = 0.0;
    /// Quantile estimate; q in [0, 1]. Values landing in the +Inf bucket
    /// report the largest finite bound (the histogram tracks no max).
    double Quantile(double q) const;
  };
  Snapshot snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket helper: {start, start*factor, ...} (count bounds).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

using Labels = std::map<std::string, std::string>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// One exported series: a label set plus its aggregated value.
struct SeriesSnapshot {
  Labels labels;
  double value = 0.0;                        ///< Counter / gauge.
  std::optional<Histogram::Snapshot> hist;   ///< Histogram.
};

/// One metric family: every series sharing a name/type/help.
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<SeriesSnapshot> series;  ///< Sorted by labels.
};

/// Thread-safe metric registry: the single source of truth the exporters
/// (Prometheus text, JSON snapshot) walk.
///
/// Two ownership modes:
/// * Owned: GetCounter/GetGauge/GetHistogram get-or-create a registry-owned
///   metric keyed by (name, labels); the same key always returns the same
///   object, so call sites across the engine share one series. Pointers
///   stay valid for the registry's lifetime.
/// * Attached: long-lived per-instance objects (SimNetwork,
///   ReliableEndpoint, QueryManager) own their counters —
///   their ad-hoc Stats structs are thin views over these — and attach
///   them so exports see them. Same-key series are summed at collection
///   time; DetachMetric folds the final counter/histogram value into a
///   retired accumulator so engine totals stay monotone after an instance
///   dies (gauges simply disappear).
///
/// Collectors are callbacks run at Collect() time for computed series
/// (e.g. the failpoint registry's fired-per-site counts).
///
/// set_enabled(false) is the benchmark kill switch: boundary flush sites
/// check enabled() and skip their registry work, so the `MOST_METRICS=off`
/// vs default delta is exactly the instrumentation overhead CI bounds.
class MetricsRegistry {
 public:
  /// Process-wide registry. Honors MOST_METRICS=off at first use.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  Counter* GetCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds, Labels labels = {});

  /// Attach an externally-owned metric. The metric must outlive the
  /// attachment (detach in the owner's destructor). Returns an id.
  uint64_t AttachCounter(const std::string& name, const std::string& help,
                         Labels labels, const Counter* metric);
  uint64_t AttachGauge(const std::string& name, const std::string& help,
                       Labels labels, const Gauge* metric);
  uint64_t AttachHistogram(const std::string& name, const std::string& help,
                           Labels labels, const Histogram* metric);
  void DetachMetric(uint64_t id);

  /// Extra series computed at collection time. The callback appends
  /// families (merged with registered ones by name).
  using Collector = std::function<void(std::vector<FamilySnapshot>*)>;
  uint64_t AddCollector(Collector fn);
  void RemoveCollector(uint64_t id);

  /// Aggregated snapshot: same-(name, labels) series from owned, attached
  /// and retired sources are summed; families sorted by name, series by
  /// labels. The whole walk happens under the registry lock, so one
  /// Collect is internally consistent with respect to attach/detach.
  std::vector<FamilySnapshot> Collect() const;

  /// Zeroes every owned metric and drops retired accumulators (attached
  /// metrics belong to their instances and are left alone). Tests and the
  /// benchmark overhead harness use this between phases.
  void ResetValues();

 private:
  struct MetricKey {
    std::string name;
    Labels labels;
    bool operator<(const MetricKey& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  struct Owned {
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Attached {
    MetricKey key;
    MetricType type;
    const void* metric;
  };
  struct Retired {
    double value = 0.0;
    std::optional<Histogram::Snapshot> hist;
  };

  /// Records (or checks) the family-level type/help for `name`.
  void NoteFamily(const std::string& name, MetricType type,
                  const std::string& help);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  std::map<std::string, std::pair<MetricType, std::string>> families_;
  std::map<MetricKey, Owned> owned_;
  std::map<uint64_t, Attached> attached_;
  std::map<MetricKey, Retired> retired_;
  std::map<uint64_t, Collector> collectors_;
  uint64_t next_id_ = 1;
};

}  // namespace most::obs

#endif  // MOST_OBS_METRICS_H_
