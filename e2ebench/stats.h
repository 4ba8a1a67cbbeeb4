#ifndef MOST_E2EBENCH_STATS_H_
#define MOST_E2EBENCH_STATS_H_

// Measurement helpers of the end-to-end benchmark: percentiles with their
// sample-count rule, span self time, and registry counter deltas. They are
// pure functions over samples, trace events and metric snapshots, so the
// helper tests can pin them down without running a workload.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace most::e2e {

/// A percentile is reported as resolved only when at least this many
/// samples lie beyond it, so p90 needs 100 samples and p50 needs 20.
constexpr size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0.0;
  size_t samples = 0;  ///< Sample count the percentile was taken over.
  size_t beyond = 0;   ///< Samples ranked strictly above it.
  bool resolved = false;
};

/// Nearest-rank percentile (p in (0, 1]): the ceil(p * n)-th smallest
/// sample. An empty input gives value 0 with resolved == false.
Percentile ComputePercentile(std::vector<double> samples, double p);

/// Smallest sample count for which the p-th percentile is resolved.
size_t MinSamplesFor(double p);

/// Half-open wall interval [start_ns, end_ns) of a span.
struct SpanInterval {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Self time of `parent`: its duration minus the part of it covered by the
/// union of `children` (clipped to the parent). Children that run in
/// parallel on several threads overlap each other; covered time is
/// counted once.
uint64_t SelfTimeNs(const SpanInterval& parent,
                    std::vector<SpanInterval> children);

/// One drained batch of trace events with its parent → children links.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<obs::TraceEvent> events);

  const std::vector<obs::TraceEvent>& events() const { return events_; }
  /// Events with exactly this name, in recording order.
  std::vector<const obs::TraceEvent*> Named(std::string_view name) const;
  /// Self time of `event` against its direct children in this batch.
  uint64_t SelfNs(const obs::TraceEvent& event) const;

 private:
  std::vector<obs::TraceEvent> events_;
  std::map<uint64_t, std::vector<size_t>> children_;  ///< By parent span id.
};

/// Registry values summed over each family's series: counters and gauges
/// under their name, histograms as "<name>.count" and "<name>.sum".
using MetricSnapshot = std::map<std::string, double>;

MetricSnapshot SnapshotMetrics(const obs::MetricsRegistry& registry);
/// after - before for every key of either side (a missing key reads 0).
MetricSnapshot Delta(const MetricSnapshot& before,
                     const MetricSnapshot& after);
/// The value under `key`, or 0 when absent.
double ValueOr0(const MetricSnapshot& snapshot, const std::string& key);

}  // namespace most::e2e

#endif  // MOST_E2EBENCH_STATS_H_
