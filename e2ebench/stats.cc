#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace most::e2e {

namespace {

size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

Percentile ComputePercentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.resolved = out.beyond >= kMinSamplesBeyond;
  return out;
}

size_t MinSamplesFor(double p) {
  size_t n = 1;
  while (n - NearestRank(n, p) < kMinSamplesBeyond) ++n;
  return n;
}

uint64_t SelfTimeNs(const SpanInterval& parent,
                    std::vector<SpanInterval> children) {
  if (parent.end_ns <= parent.start_ns) return 0;
  for (SpanInterval& c : children) {
    c.start_ns = std::max(c.start_ns, parent.start_ns);
    c.end_ns = std::min(c.end_ns, parent.end_ns);
  }
  std::erase_if(children,
                [](const SpanInterval& c) { return c.end_ns <= c.start_ns; });
  std::sort(children.begin(), children.end(),
            [](const SpanInterval& a, const SpanInterval& b) {
              return a.start_ns < b.start_ns;
            });
  uint64_t covered = 0;
  uint64_t run_start = 0;
  uint64_t run_end = 0;
  bool open = false;
  for (const SpanInterval& c : children) {
    if (open && c.start_ns <= run_end) {
      run_end = std::max(run_end, c.end_ns);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start_ns;
    run_end = c.end_ns;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (parent.end_ns - parent.start_ns) - covered;
}

SpanIndex::SpanIndex(std::vector<obs::TraceEvent> events)
    : events_(std::move(events)) {
  for (size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].parent_span_id != 0) {
      children_[events_[i].parent_span_id].push_back(i);
    }
  }
}

std::vector<const obs::TraceEvent*> SpanIndex::Named(
    std::string_view name) const {
  std::vector<const obs::TraceEvent*> out;
  for (const obs::TraceEvent& e : events_) {
    if (name == e.name) out.push_back(&e);
  }
  return out;
}

uint64_t SpanIndex::SelfNs(const obs::TraceEvent& event) const {
  const SpanInterval parent{event.start_ns,
                            event.start_ns + event.duration_ns};
  std::vector<SpanInterval> children;
  auto it = children_.find(event.span_id);
  if (it != children_.end()) {
    for (size_t i : it->second) {
      const obs::TraceEvent& c = events_[i];
      children.push_back({c.start_ns, c.start_ns + c.duration_ns});
    }
  }
  return SelfTimeNs(parent, std::move(children));
}

MetricSnapshot SnapshotMetrics(const obs::MetricsRegistry& registry) {
  MetricSnapshot out;
  for (const obs::FamilySnapshot& family : registry.Collect()) {
    for (const obs::SeriesSnapshot& series : family.series) {
      if (family.type == obs::MetricType::kHistogram) {
        if (!series.hist.has_value()) continue;
        out[family.name + ".count"] +=
            static_cast<double>(series.hist->count);
        out[family.name + ".sum"] += series.hist->sum;
      } else {
        out[family.name] += series.value;
      }
    }
  }
  return out;
}

MetricSnapshot Delta(const MetricSnapshot& before,
                     const MetricSnapshot& after) {
  MetricSnapshot out;
  for (const auto& [key, value] : after) out[key] = value;
  for (const auto& [key, value] : before) out[key] -= value;
  return out;
}

double ValueOr0(const MetricSnapshot& snapshot, const std::string& key) {
  auto it = snapshot.find(key);
  return it == snapshot.end() ? 0.0 : it->second;
}

}  // namespace most::e2e
