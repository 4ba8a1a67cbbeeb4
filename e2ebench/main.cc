// End-to-end MOST benchmark (NOTES.md).
//
// One process drives the public ShardedEngine API with the library
// defaults through a seeded workload and prints, as its last stdout line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//  * --trace 0: the end-to-end metrics, measured with tracing off.
//  * --trace 1: the per-layer metrics. Operations alternate in chunks
//    between tracing off and on (ABAB); the traced chunks are read back
//    from the global TraceSink after every operation, and the spread
//    between the two arms is the tracing overhead.
//
// Every answer is checked, untimed, against an unsharded QueryManager:
// on a twin database fed the same updates for the tick workloads, and on
// the same (read-only) database for ad-hoc queries.
//
//   most_e2ebench --workload city_tick --seed 1 --seconds 10 --trace 0
//                 [--shards N] [--work-dir DIR]

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/sharded_engine.h"
#include "ftl/parser.h"
#include "ftl/query_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "workload/fleet.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace most::e2e {
namespace {

constexpr double kArea = 1000.0;
constexpr size_t kDepots = 16;
/// Set-up runs this many times per run; setup_s is the median.
constexpr size_t kSetupReps = 7;
/// The engine's windows re-anchor when the 1024-tick default horizon
/// expires; the lazily refreshed oracle would re-anchor at a later tick,
/// so a run stays well inside the first window.
constexpr Tick kMaxTicks = 900;
/// Hard cap on measured time, so a slow build still exits in time.
constexpr double kMaxMeasuredSeconds = 100.0;
/// Oracle comparison every this many ticks (tick workloads) or rounds
/// (ad-hoc), plus once at the end of the run. A comparison slows the next
/// few operations; 30 is not a multiple of the traced run's 20-operation
/// ABAB period, so comparisons precede traced and untraced chunks alike
/// (a multiple would put every one before an untraced chunk and bias
/// obs.trace_overhead_pct).
constexpr size_t kOracleEvery = 30;
/// ABAB chunk length of the traced run, in operations.
constexpr size_t kTraceChunk = 10;
/// Before timing, the tick workloads push this many fleets' worth of
/// updates through the engine. Per-tick cost rises as delta refreshes churn
/// the answers' row storage (city_tick on a 4-CPU Xeon VM: 44 ms to 110 ms
/// over its first 100 ticks, at constant answer sizes) and levels off once
/// every car has been updated a few times; timing starts at that steady
/// state.
constexpr size_t kWarmupFleets = 3;
/// Warm-up batches are at most this share of the fleet, below the delta
/// refresh cutoff (25% dirty), so warm-up churns the same path.
constexpr size_t kWarmupBatchDivisor = 5;

// Paper queries (Section 3.4) and the Section 3.2 pair query.
constexpr char kQueryI[] =
    "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 INSIDE(o, P)";
constexpr char kQueryII[] =
    "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 "
    "(INSIDE(o, P) AND ALWAYS FOR 20 INSIDE(o, P))";
constexpr char kQueryIII[] =
    "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 30 (INSIDE(o, P) AND "
    "ALWAYS FOR 20 INSIDE(o, P) AND EVENTUALLY AFTER 50 INSIDE(o, Q))";
constexpr char kQueryDepot[] =
    "RETRIEVE o, d FROM CARS o, DEPOTS d WHERE DIST(o, d) <= 15";
constexpr char kQueryPair[] =
    "RETRIEVE o, n FROM TAXIS o, TAXIS n "
    "WHERE DIST(o, n) <= 20 UNTIL (INSIDE(o, P) AND INSIDE(n, P))";

struct AdhocQuery {
  const char* metric;  ///< Per-layer p50 metric name.
  const char* span;    ///< Bench span name (string literal, as spans need).
  const char* text;
};

constexpr AdhocQuery kAdhocQueries[] = {
    {"ftl.q_inside_p50_ms", "bench/q_inside", kQueryI},
    {"ftl.q_always_p50_ms", "bench/q_always", kQueryII},
    {"ftl.q_after_p50_ms", "bench/q_after", kQueryIII},
    {"ftl.q_dist_depot_p50_ms", "bench/q_dist_depot", kQueryDepot},
    {"ftl.q_until_pair_p50_ms", "bench/q_until_pair", kQueryPair},
};

struct Spec {
  std::string name;
  size_t cars = 0;
  size_t taxis = 0;
  size_t updates_per_tick = 0;
  bool wal = false;
  std::vector<const char*> continuous;
  bool adhoc = false;
};

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"city_tick", 50000, 0, 1000, true, {kQueryI, kQueryDepot, kQueryII},
       false},
      {"update_storm", 20000, 0, 10000, true,
       {kQueryI, kQueryDepot, kQueryII}, false},
      {"adhoc_read", 100000, 1000, 0, false, {}, true},
  };
  return specs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t shards = 0;  ///< 0 = the engine default (hardware concurrency).
  std::string work_dir = ".bench_build/e2e-work";
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    if (!s.empty()) return s;
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ---- World and inputs ----------------------------------------------------

/// Builds the workload's world. CARS come from the fleet generator (ids
/// 0..cars-1); DEPOTS sit still on a jittered 4x4 grid so the depot join
/// does the same work whatever the seed; TAXIS are a second fleet. P covers
/// 9% of the area off-centre, Q as much in the opposite quarter.
Status Populate(const Spec& spec, uint64_t seed, MostDatabase* db) {
  FleetGenerator cars({.num_vehicles = spec.cars, .area = kArea,
                       .change_probability = 0.0, .seed = seed});
  MOST_RETURN_IF_ERROR(cars.Populate(db, "CARS"));
  Rng rng(seed ^ 0x5eedULL);
  MOST_RETURN_IF_ERROR(db->CreateClass("DEPOTS", {}, true).status());
  for (size_t i = 0; i < kDepots; ++i) {
    const double cell = kArea / 4;
    Point2 at{cell * (static_cast<double>(i % 4) + 0.5) +
                  rng.UniformDouble(-cell / 10, cell / 10),
              cell * (static_cast<double>(i / 4) + 0.5) +
                  rng.UniformDouble(-cell / 10, cell / 10)};
    MOST_ASSIGN_OR_RETURN(MostObject * depot, db->CreateObject("DEPOTS"));
    MOST_RETURN_IF_ERROR(db->SetMotion("DEPOTS", depot->id(), at, {0, 0}));
  }
  if (spec.taxis > 0) {
    FleetGenerator taxis({.num_vehicles = spec.taxis, .area = kArea,
                          .change_probability = 0.0, .seed = seed + 1});
    MOST_RETURN_IF_ERROR(db->CreateClass("TAXIS", {}, true).status());
    for (const ObjectState& s : taxis.initial_states()) {
      MOST_ASSIGN_OR_RETURN(MostObject * taxi, db->CreateObject("TAXIS"));
      MOST_RETURN_IF_ERROR(
          db->SetMotion("TAXIS", taxi->id(), s.position, s.velocity));
    }
  }
  MOST_RETURN_IF_ERROR(
      db->DefineRegion("P", Polygon::Rectangle({100, 550}, {400, 850})));
  return db->DefineRegion("Q", Polygon::Rectangle({650, 50}, {950, 350}));
}

struct Update {
  ObjectId id = kInvalidObjectId;
  Point2 position;
  Vec2 velocity;
};

/// Seeded motion-vector updates. Each update picks a car uniformly (with
/// replacement) and gives it a trajectory re-drawn from the fleet
/// generator's own distribution of tick-0 states, reported at the update
/// tick. Every continuous query is evaluated over the window fixed at
/// registration, so an updated car's trajectory over that window is
/// distributed exactly like an initial one: answer sizes, and with them the
/// tick time, stay the same however long a run lasts. (Rules that keep
/// positions continuous, or re-draw the position at the update tick, drift
/// the answers over a run.)
class UpdateStream {
 public:
  UpdateStream(size_t cars, uint64_t seed)
      : cars_(cars), rng_(seed ^ 0xfeedULL) {}

  void NextBatch(size_t n, Tick at, std::vector<Update>* out) {
    out->clear();
    FleetGenerator draws({.num_vehicles = n, .area = kArea,
                          .change_probability = 0.0, .seed = rng_.Next()});
    for (const ObjectState& s : draws.initial_states()) {
      const auto id = static_cast<ObjectId>(
          rng_.UniformInt(0, static_cast<int64_t>(cars_) - 1));
      out->push_back({id, s.position + s.velocity * static_cast<double>(at),
                      s.velocity});
    }
  }

 private:
  size_t cars_;
  Rng rng_;
};

// ---- Run bookkeeping -----------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t oracle_checks = 0;

  /// Counts one operation; logs and counts it failed when `s` is not OK.
  bool Check(const Status& s, const char* what) {
    ++attempted;
    if (s.ok()) return true;
    ++failed;
    std::cout << "error: " << what << ": " << s.ToString() << "\n";
    return false;
  }
  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cout << "error: " << what << "\n";
    }
  }
};

/// A bench span: a TraceSpan (so engine spans nest under it in the trace)
/// whose duration is also read from the benchmark's own clock, which
/// survives a ring overflow.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name)
      : span_(name, "bench"), start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  obs::TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

/// Per-layer accumulators of the traced arm.
struct LayerTotals {
  size_t traced_ops = 0;
  size_t traced_ticks = 0;     ///< Traced operations that advanced a tick.
  size_t overflowed_ticks = 0;  ///< Ticks whose spans overflowed the ring.
  size_t drain_ticks = 0;      ///< Ticks with every shard/drain span present.
  double enqueue_ns = 0;
  uint64_t enqueued = 0;
  std::vector<double> advance_ms;
  std::vector<double> gather_ms;
  uint64_t gather_rows = 0;
  double drain_self_ms = 0;
  double barrier_ms = 0;
  double skew = 0;
  size_t skew_ticks = 0;
  double scatter_gather_self_ms = 0;
  uint64_t gathers = 0;
  double refresh_delta_self_ms = 0;
  double refresh_full_self_ms = 0;
  double eval_self_ms = 0;
  /// Advance (= max drain + barrier + max refresh) plus the engine's
  /// shard/gather spans, against the benchmark's own tick clock.
  double accounted_ms = 0;
  double accounted_tick_ms = 0;
  uint64_t spans_dropped = 0;
  std::vector<std::vector<double>> query_ms{std::size(kAdhocQueries)};
  MetricSnapshot counters;     ///< Summed per-op registry deltas.
};

double MsOf(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Reads the shard/* engine spans of one traced Advance.
void ReadTickSpans(const SpanIndex& index, double advance_ms,
                   const MetricSnapshot& op_delta, bool overflowed,
                   size_t shards, LayerTotals* t) {
  ++t->traced_ticks;
  if (overflowed) ++t->overflowed_ticks;
  auto drains = index.Named("shard/drain");
  auto refreshes = index.Named("shard/refresh");
  double drain_max_dur = 0;
  if (drains.size() == shards) {
    // With an overflowed ring the wal/append children are partly lost, so
    // self time falls back to duration minus the registry's append time
    // (spread evenly over the shards).
    const double wal_ms_per_shard =
        ValueOr0(op_delta, "most_wal_append_latency_seconds.sum") * 1e3 /
        static_cast<double>(shards);
    double self_max = 0;
    for (const obs::TraceEvent* d : drains) {
      drain_max_dur = std::max(drain_max_dur, MsOf(d->duration_ns));
      const double self = overflowed
                              ? MsOf(d->duration_ns) - wal_ms_per_shard
                              : MsOf(index.SelfNs(*d));
      self_max = std::max(self_max, self);
    }
    t->drain_self_ms += self_max;
    ++t->drain_ticks;
  }
  double refresh_max = 0;
  double refresh_sum = 0;
  for (const obs::TraceEvent* r : refreshes) {
    refresh_max = std::max(refresh_max, MsOf(r->duration_ns));
    refresh_sum += MsOf(r->duration_ns);
  }
  if (refreshes.size() == shards && refresh_sum > 0) {
    t->skew += refresh_max / (refresh_sum / static_cast<double>(shards));
    ++t->skew_ticks;
  }
  if (drains.size() == shards) {
    t->barrier_ms += advance_ms - drain_max_dur - refresh_max;
  }
}

/// Reads the layer spans every traced operation can carry.
void ReadOpSpans(const SpanIndex& index, LayerTotals* t) {
  for (const obs::TraceEvent* g : index.Named("shard/gather")) {
    t->scatter_gather_self_ms += MsOf(index.SelfNs(*g));
    ++t->gathers;
  }
  for (const obs::TraceEvent* e : index.Named("qm/refresh_delta")) {
    t->refresh_delta_self_ms += MsOf(index.SelfNs(*e));
  }
  for (const obs::TraceEvent* e : index.Named("qm/refresh_full")) {
    t->refresh_full_self_ms += MsOf(index.SelfNs(*e));
  }
  for (const obs::TraceEvent* e : index.Named("ftl/evaluate_query")) {
    t->eval_self_ms += MsOf(index.SelfNs(*e));
  }
}

double SumDurationsMs(const SpanIndex& index, const char* name) {
  double ms = 0;
  for (const obs::TraceEvent* e : index.Named(name)) ms += MsOf(e->duration_ns);
  return ms;
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// ---- The run -------------------------------------------------------------

struct Output {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

class Runner {
 public:
  Runner(const Spec& spec, const Args& args) : spec_(spec), args_(args) {}

  int Run();

 private:
  Status Setup();
  void BuildOracle();
  void WarmUp();
  void FeedTwin();
  void TickOp(bool traced);
  void QueryOp(bool traced);
  void CheckTickOracle();
  void CheckQueryOracle(size_t type, const TemporalRelation& got);

  const Spec& spec_;
  const Args& args_;
  std::string wal_dir_;
  Tally tally_;
  std::unique_ptr<MostDatabase> db_;
  std::unique_ptr<ShardedEngine> engine_;
  std::vector<ShardedEngine::QueryId> cq_ids_;
  std::vector<FtlQuery> cq_queries_;
  std::vector<FtlQuery> adhoc_queries_;

  // Oracle side.
  std::unique_ptr<MostDatabase> twin_;
  std::unique_ptr<QueryManager> oracle_;
  std::vector<QueryManager::QueryId> oracle_ids_;
  std::unique_ptr<UpdateStream> stream_;

  // Loop state.
  std::vector<Update> batch_;
  std::vector<std::vector<AnswerTuple>> last_answers_;
  bool last_answers_checked_ = true;
  size_t ops_ = 0;
  size_t ticks_ = 0;
  uint64_t updates_ = 0;
  double measured_s_ = 0;  ///< Summed operation wall time.
  std::vector<double> op_ms_[2];  ///< Latency by arm: [0] untraced, [1] traced.
  /// Ad-hoc answers not yet compared: the round in progress and the last
  /// completed one (unchecked entries have no columns).
  std::vector<TemporalRelation> current_round_;
  std::vector<TemporalRelation> last_round_;
  LayerTotals layers_;
  std::vector<double> setup_s_, populate_s_, register_s_;
};

Status Runner::Setup() {
  for (const char* text : spec_.continuous) {
    MOST_ASSIGN_OR_RETURN(FtlQuery q, ParseQuery(text));
    cq_queries_.push_back(std::move(q));
  }
  if (spec_.adhoc) {
    for (const AdhocQuery& aq : kAdhocQueries) {
      MOST_ASSIGN_OR_RETURN(FtlQuery q, ParseQuery(aq.text));
      adhoc_queries_.push_back(std::move(q));
    }
  }
  ShardedEngine::Options options;
  options.shard_count = args_.shards;
  options.wal_dir = spec_.wal ? wal_dir_ : "";
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    engine_.reset();
    db_.reset();
    cq_ids_.clear();
    std::filesystem::remove_all(wal_dir_);
    const double t0 = NowSeconds();
    {
      BenchSpan span("bench/populate");
      db_ = std::make_unique<MostDatabase>();
      if (!tally_.Check(Populate(spec_, args_.seed, db_.get()), "populate")) {
        return Status::Internal("populate failed");
      }
      populate_s_.push_back(span.ElapsedMs() * 1e-3);
    }
    engine_ = std::make_unique<ShardedEngine>(db_.get(), options);
    {
      BenchSpan span("bench/register");
      for (const FtlQuery& q : cq_queries_) {
        Result<ShardedEngine::QueryId> id = engine_->RegisterContinuous(q);
        if (!tally_.Check(id.status(), "register")) return id.status();
        cq_ids_.push_back(*id);
        Result<ShardedEngine::ShardedAnswer> a =
            engine_->ContinuousAnswer(*id);
        if (!tally_.Check(a.status(), "first answer")) return a.status();
      }
      if (spec_.adhoc) {
        Result<TemporalRelation> r = engine_->Evaluate(adhoc_queries_[0]);
        if (!tally_.Check(r.status(), "first query")) return r.status();
      }
      register_s_.push_back(span.ElapsedMs() * 1e-3);
    }
    setup_s_.push_back(NowSeconds() - t0);
  }
  return Status::OK();
}

void Runner::BuildOracle() {
  if (spec_.adhoc) {
    // Ad-hoc queries never mutate: the oracle reads the engine's database.
    oracle_ = std::make_unique<QueryManager>(db_.get());
    return;
  }
  twin_ = std::make_unique<MostDatabase>();
  tally_.Check(Populate(spec_, args_.seed, twin_.get()), "populate twin");
  // Fed one NoteUpdates batch per tick instead of a listener call per
  // update; the batch form is the listener's documented equivalent.
  QueryManager::Options oracle_options;
  oracle_options.listen = false;
  oracle_ = std::make_unique<QueryManager>(twin_.get(), oracle_options);
  for (const FtlQuery& q : cq_queries_) {
    Result<QueryManager::QueryId> id = oracle_->RegisterContinuous(q);
    tally_.Check(id.status(), "register oracle");
    oracle_ids_.push_back(id.ok() ? *id : 0);
  }
  stream_ = std::make_unique<UpdateStream>(spec_.cars, args_.seed);
}

void Runner::CheckTickOracle() {
  ++tally_.oracle_checks;
  for (size_t q = 0; q < oracle_ids_.size(); ++q) {
    Result<std::vector<AnswerTuple>> want =
        oracle_->ContinuousAnswer(oracle_ids_[q]);
    if (!tally_.Check(want.status(), "oracle answer")) continue;
    tally_.Expect(*want == last_answers_[q],
                  "continuous answer " + std::to_string(q) + " at tick " +
                      std::to_string(db_->Now()) + " differs from the oracle");
  }
  last_answers_checked_ = true;
}

void Runner::TickOp(bool traced) {
  const size_t shards = engine_->shard_count();
  stream_->NextBatch(spec_.updates_per_tick, db_->Now() + 1, &batch_);
  const MetricSnapshot before =
      args_.trace ? SnapshotMetrics(obs::MetricsRegistry::Global())
                  : MetricSnapshot();
  obs::TraceSink& sink = obs::TraceSink::Global();
  const uint64_t dropped_before = sink.dropped();
  sink.Clear();
  sink.set_enabled(traced);

  last_answers_.assign(cq_ids_.size(), {});
  size_t rows = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double enqueue_ms = 0;
  {
    BenchSpan span("bench/enqueue");
    for (const Update& u : batch_) {
      engine_->EnqueueMotion("CARS", u.id, u.position, u.velocity);
    }
    enqueue_ms = span.ElapsedMs();
  }
  const auto t1 = std::chrono::steady_clock::now();
  double advance_ms = 0;
  Status adv;
  {
    BenchSpan span("bench/advance");
    adv = engine_->Advance(1);
    advance_ms = span.ElapsedMs();
  }
  double gather_ms = 0;
  for (size_t q = 0; q < cq_ids_.size(); ++q) {
    BenchSpan span("bench/gather");
    Result<ShardedEngine::ShardedAnswer> a =
        engine_->ContinuousAnswer(cq_ids_[q]);
    gather_ms += span.ElapsedMs();
    if (!tally_.Check(a.status(), "gather")) continue;
    tally_.Expect(a->complete(), "gather with missing shards");
    rows += a->tuples.size();
    last_answers_[q] = std::move(a->tuples);
  }
  const auto t2 = std::chrono::steady_clock::now();
  sink.set_enabled(false);

  tally_.attempted += batch_.size();
  tally_.Check(adv, "advance");
  const double tick_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  measured_s_ += std::chrono::duration<double>(t2 - t0).count();
  op_ms_[traced ? 1 : 0].push_back(tick_ms);
  updates_ += batch_.size();
  ++ticks_;
  last_answers_checked_ = false;

  if (args_.trace) {
    const MetricSnapshot delta =
        Delta(before, SnapshotMetrics(obs::MetricsRegistry::Global()));
    for (const auto& [k, v] : delta) layers_.counters[k] += v;
    layers_.advance_ms.push_back(advance_ms);
    layers_.gather_ms.push_back(gather_ms);
    layers_.enqueue_ns += enqueue_ms * 1e6;
    layers_.enqueued += batch_.size();
    layers_.gather_rows += rows;
    if (traced) {
      const uint64_t dropped = sink.dropped() - dropped_before;
      SpanIndex index(sink.Events());
      ++layers_.traced_ops;
      layers_.spans_dropped += dropped;
      ReadTickSpans(index, advance_ms, delta, dropped > 0, shards, &layers_);
      ReadOpSpans(index, &layers_);
      layers_.accounted_ms +=
          advance_ms + SumDurationsMs(index, "shard/gather");
      layers_.accounted_tick_ms += tick_ms;
    }
  }

  // Untimed: feed the twin the same updates, compare at sampled ticks.
  FeedTwin();
  if (ticks_ % kOracleEvery == 0) CheckTickOracle();
}

void Runner::FeedTwin() {
  twin_->clock().Advance(1);
  std::vector<ObjectId> ids;
  ids.reserve(batch_.size());
  for (const Update& u : batch_) {
    Status s = twin_->SetMotion("CARS", u.id, u.position, u.velocity);
    if (!s.ok()) tally_.Check(s, "twin update");
    ids.push_back(u.id);
  }
  oracle_->NoteUpdates("CARS", ids);
}

void Runner::WarmUp() {
  const size_t per_tick = std::max(spec_.updates_per_tick,
                                   spec_.cars / kWarmupBatchDivisor);
  for (size_t done = 0; done < kWarmupFleets * spec_.cars; done += per_tick) {
    stream_->NextBatch(per_tick, db_->Now() + 1, &batch_);
    for (const Update& u : batch_) {
      engine_->EnqueueMotion("CARS", u.id, u.position, u.velocity);
    }
    tally_.attempted += batch_.size();
    tally_.Check(engine_->Advance(1), "warm-up advance");
    for (size_t q = 0; q < cq_ids_.size(); ++q) {
      Result<ShardedEngine::ShardedAnswer> a =
          engine_->ContinuousAnswer(cq_ids_[q]);
      if (!tally_.Check(a.status(), "warm-up gather")) continue;
      tally_.Expect(a->complete(), "warm-up gather with missing shards");
      last_answers_[q] = std::move(a->tuples);
    }
    FeedTwin();
  }
  CheckTickOracle();
}

void Runner::CheckQueryOracle(size_t type, const TemporalRelation& got) {
  ++tally_.oracle_checks;
  Result<TemporalRelation> want = oracle_->Evaluate(adhoc_queries_[type]);
  if (!tally_.Check(want.status(), "oracle query")) return;
  tally_.Expect(want->vars == got.vars && want->rows == got.rows,
                std::string(kAdhocQueries[type].span) + " at tick " +
                    std::to_string(db_->Now()) + " differs from the oracle");
}

void Runner::QueryOp(bool traced) {
  const size_t type = ops_ % adhoc_queries_.size();
  const size_t round = ops_ / adhoc_queries_.size();
  // Every round after the first starts with one tick, so windows move on;
  // the tick is not part of any query's latency.
  const bool round_start = type == 0 && round > 0;
  const MetricSnapshot before =
      args_.trace ? SnapshotMetrics(obs::MetricsRegistry::Global())
                  : MetricSnapshot();
  obs::TraceSink& sink = obs::TraceSink::Global();
  const uint64_t dropped_before = sink.dropped();
  sink.Clear();
  sink.set_enabled(traced);

  double advance_ms = 0;
  Status adv;
  if (round_start) {
    BenchSpan span("bench/advance");
    adv = engine_->Advance(1);
    advance_ms = span.ElapsedMs();
  }
  double query_ms = 0;
  Result<TemporalRelation> r = Status::Internal("not run");
  {
    BenchSpan span(kAdhocQueries[type].span);
    r = engine_->Evaluate(adhoc_queries_[type]);
    query_ms = span.ElapsedMs();
  }
  sink.set_enabled(false);

  measured_s_ += query_ms * 1e-3;
  op_ms_[traced ? 1 : 0].push_back(query_ms);
  if (round_start) {
    ++ticks_;
    tally_.Check(adv, "advance");
  }

  if (args_.trace) {
    const MetricSnapshot delta =
        Delta(before, SnapshotMetrics(obs::MetricsRegistry::Global()));
    for (const auto& [k, v] : delta) layers_.counters[k] += v;
    if (round_start) layers_.advance_ms.push_back(advance_ms);
    if (traced) {
      const uint64_t dropped = sink.dropped() - dropped_before;
      SpanIndex index(sink.Events());
      ++layers_.traced_ops;
      layers_.spans_dropped += dropped;
      layers_.query_ms[type].push_back(query_ms);
      if (round_start) {
        ReadTickSpans(index, advance_ms, delta, dropped > 0,
                      engine_->shard_count(), &layers_);
      }
      ReadOpSpans(index, &layers_);
    }
  }

  // Untimed: compare sampled rounds now, keep the rest of the round so the
  // final round can be compared after the loop (the clock has not moved).
  if (tally_.Check(r.status(), "query")) {
    if (round % kOracleEvery == 0) {
      CheckQueryOracle(type, *r);
    } else {
      current_round_[type] = std::move(*r);
    }
  }
  if (type + 1 == adhoc_queries_.size()) {
    last_round_ = std::move(current_round_);
    current_round_.assign(adhoc_queries_.size(), {});
  }
}

int Runner::Run() {
  wal_dir_ = args_.work_dir + "/wal-" + spec_.name;
  std::filesystem::create_directories(args_.work_dir);
  obs::TraceSink::Global().set_enabled(false);
  Output out;
  {
    obs::TraceSink::Global().set_enabled(args_.trace);
    Status s = Setup();
    obs::TraceSink::Global().set_enabled(false);
    if (!s.ok()) {
      std::cerr << "setup failed: " << s.ToString() << "\n";
      return 1;
    }
  }
  BuildOracle();
  if (!spec_.adhoc) {
    last_answers_.assign(cq_ids_.size(), {});
    WarmUp();
  }
  std::cout << "setup done: " << spec_.name << " seed " << args_.seed
            << " shards " << engine_->shard_count() << " setup_s "
            << ComputePercentile(setup_s_, 0.5).value << "\n";

  const uint64_t wal_before = spec_.wal ? WalBytes(wal_dir_) : 0;
  const uint64_t dropped_updates_before = [&] {
    uint64_t d = 0;
    for (const auto& st : engine_->Stats()) d += st.updates_dropped;
    return d;
  }();
  const QueryManager::RefreshCounters refresh_before =
      engine_->TotalRefreshCounters();
  const size_t min_ops = MinSamplesFor(0.9) * (args_.trace ? 2 : 1);
  const size_t round = spec_.adhoc ? adhoc_queries_.size() : 1;
  current_round_.assign(adhoc_queries_.size(), {});
  while (true) {
    const bool enough = measured_s_ >= args_.seconds && ops_ >= min_ops;
    const bool capped = measured_s_ >= kMaxMeasuredSeconds ||
                        (!spec_.adhoc && db_->Now() >= kMaxTicks);
    // Stop only on a round boundary, so every query type and both trace
    // arms get their share.
    const bool boundary = ops_ % (args_.trace ? kTraceChunk * 2 : round) == 0;
    if ((enough || capped) && boundary) break;
    const bool traced = args_.trace && (ops_ / kTraceChunk) % 2 == 1;
    if (spec_.adhoc) {
      QueryOp(traced);
    } else {
      TickOp(traced);
    }
    ++ops_;
  }
  // The last operation's answers are always compared.
  if (!spec_.adhoc && !last_answers_checked_) CheckTickOracle();
  if (spec_.adhoc) {
    for (size_t type = 0; type < last_round_.size(); ++type) {
      if (!last_round_[type].vars.empty()) {
        CheckQueryOracle(type, last_round_[type]);
      }
    }
  }

  uint64_t dropped_updates = 0;
  for (const auto& st : engine_->Stats()) dropped_updates += st.updates_dropped;
  dropped_updates -= dropped_updates_before;
  tally_.failed += dropped_updates;
  const QueryManager::RefreshCounters refresh_after =
      engine_->TotalRefreshCounters();
  const uint64_t wal_after = spec_.wal ? WalBytes(wal_dir_) : 0;

  std::vector<double> all_ms = op_ms_[0];
  all_ms.insert(all_ms.end(), op_ms_[1].begin(), op_ms_[1].end());
  const Percentile p50 = ComputePercentile(all_ms, 0.5);
  const Percentile p90 = ComputePercentile(all_ms, 0.9);
  const double throughput =
      static_cast<double>(spec_.adhoc ? ops_ : updates_) / measured_s_;
  const double error_rate = static_cast<double>(tally_.failed) /
                            static_cast<double>(tally_.attempted);
  const char* op = spec_.adhoc ? "query" : "tick";

  std::ostringstream ctx;
  ctx << std::setprecision(10);
  ctx << "{\"workload\": \"" << spec_.name << "\", \"seed\": " << args_.seed
      << ", \"trace\": " << (args_.trace ? 1 : 0)
      << ", \"cpus\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << JsonEscape(CpuModel()) << "\""
      << ", \"build_type\": \"" << E2E_BUILD_TYPE << "\""
      << ", \"shards\": " << engine_->shard_count()
      << ", \"wal\": \""
      << (spec_.wal ? "per-shard log, flushed every tick, no fdatasync"
                    : "off")
      << "\", \"cars\": " << spec_.cars << ", \"taxis\": " << spec_.taxis
      << ", \"updates_per_tick\": " << spec_.updates_per_tick
      << ", \"continuous_queries\": " << cq_ids_.size()
      << ", \"last_answer_rows\": [";
  for (size_t q = 0; q < last_answers_.size(); ++q) {
    ctx << (q ? ", " : "") << last_answers_[q].size();
  }
  ctx << "]"
      << ", \"setup_s_reps\": [";
  for (size_t i = 0; i < setup_s_.size(); ++i) {
    ctx << (i ? ", " : "") << setup_s_[i];
  }
  ctx << "]"
      << ", \"measured_s\": " << measured_s_ << ", \"ops\": " << ops_
      << ", \"ticks\": " << ticks_ << ", \"updates\": " << updates_
      << ", \"" << op << "_p50_ms\": {\"value\": " << p50.value
      << ", \"samples\": " << p50.samples
      << ", \"resolved\": " << (p50.resolved ? "true" : "false") << "}"
      << ", \"" << op << "_p90_ms\": {\"value\": " << p90.value
      << ", \"samples\": " << p90.samples
      << ", \"resolved\": " << (p90.resolved ? "true" : "false") << "}"
      << ", \"" << (spec_.adhoc ? "queries_per_s" : "updates_per_s")
      << "\": " << throughput << ", \"error_rate\": " << error_rate
      << ", \"updates_dropped\": " << dropped_updates
      << ", \"oracle_checks\": " << tally_.oracle_checks
      << ", \"delta_refreshes\": "
      << refresh_after.delta_evaluations - refresh_before.delta_evaluations
      << ", \"full_refreshes\": "
      << refresh_after.full_evaluations - refresh_before.full_evaluations;

  if (!args_.trace) {
    out.Metric("setup_s", ComputePercentile(setup_s_, 0.5).value, "s");
    out.Metric("latency_p50_ms", p50.value, "ms");
    out.Metric("throughput_per_s", throughput, "1/s");
    out.Metric("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const LayerTotals& t = layers_;
    const double ops = static_cast<double>(std::max<size_t>(ops_, 1));
    const double traced_ops =
        static_cast<double>(std::max<size_t>(t.traced_ops, 1));
    const double traced_ticks =
        static_cast<double>(std::max<size_t>(t.traced_ticks, 1));
    auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
    const Percentile untraced50 = ComputePercentile(op_ms_[0], 0.5);
    const Percentile traced50 = ComputePercentile(op_ms_[1], 0.5);
    out.Metric("workload.populate_s", ComputePercentile(populate_s_, 0.5).value,
               "s");
    out.Metric("ftl.register_s", ComputePercentile(register_s_, 0.5).value,
               "s");
    out.Metric("core.enqueue_ns_per_update",
               per(t.enqueue_ns, static_cast<double>(t.enqueued)), "ns");
    out.Metric("core.advance_p50_ms", ComputePercentile(t.advance_ms, 0.5).value,
               "ms");
    out.Metric("core.gather_p50_ms", ComputePercentile(t.gather_ms, 0.5).value,
               "ms");
    out.Metric("core.gather_rows_per_tick",
               per(static_cast<double>(t.gather_rows),
                   static_cast<double>(ticks_)),
               "count");
    out.Metric("core.drain_ms_per_tick",
               per(t.drain_self_ms, static_cast<double>(t.drain_ticks)), "ms");
    out.Metric("core.barrier_ms_per_tick",
               per(t.barrier_ms, static_cast<double>(t.drain_ticks)), "ms");
    out.Metric("core.refresh_skew",
               per(t.skew, static_cast<double>(t.skew_ticks)), "ratio");
    out.Metric("core.scatter_gather_self_ms",
               per(t.scatter_gather_self_ms, static_cast<double>(t.gathers)),
               "ms");
    out.Metric("core.updates_dropped", static_cast<double>(dropped_updates),
               "count");
    out.Metric("core.tick_accounted_pct",
               per(100.0 * t.accounted_ms, t.accounted_tick_ms), "%");
    out.Metric("ftl.delta_refreshes_per_tick",
               per(static_cast<double>(refresh_after.delta_evaluations -
                                       refresh_before.delta_evaluations),
                   static_cast<double>(ticks_)),
               "count");
    out.Metric("ftl.full_refreshes_per_tick",
               per(static_cast<double>(refresh_after.full_evaluations -
                                       refresh_before.full_evaluations),
                   static_cast<double>(ticks_)),
               "count");
    out.Metric("ftl.refresh_delta_ms_per_tick",
               per(t.refresh_delta_self_ms, traced_ticks), "ms");
    out.Metric("ftl.refresh_full_ms_per_tick",
               per(t.refresh_full_self_ms, traced_ticks), "ms");
    out.Metric("ftl.dirty_set_mean",
               per(ValueOr0(t.counters, "most_qm_dirty_set_size.sum"),
                   ValueOr0(t.counters, "most_qm_dirty_set_size.count")),
               "count");
    out.Metric("ftl.eval_ms_per_query", per(t.eval_self_ms, traced_ops),
               "ms");
    out.Metric("ftl.atomic_evals_per_op",
               ValueOr0(t.counters, "most_ftl_atomic_evaluations_total") / ops,
               "count");
    out.Metric("ftl.join_pairs_per_op",
               ValueOr0(t.counters, "most_ftl_join_pairs_total") / ops,
               "count");
    out.Metric("ftl.arena_bytes_per_op",
               ValueOr0(t.counters, "most_ftl_arena_bytes_total") / ops, "B");
    for (size_t q = 0; q < std::size(kAdhocQueries); ++q) {
      out.Metric(kAdhocQueries[q].metric,
                 ComputePercentile(t.query_ms[q], 0.5).value, "ms");
    }
    out.Metric("storage.wal_bytes_per_update",
               per(static_cast<double>(wal_after - wal_before),
                   static_cast<double>(updates_)),
               "B");
    out.Metric("storage.wal_append_ms_per_tick",
               per(ValueOr0(t.counters,
                            "most_wal_append_latency_seconds.sum") * 1e3,
                   static_cast<double>(ticks_)),
               "ms");
    out.Metric("obs.trace_overhead_pct",
               untraced50.value > 0
                   ? 100.0 * (traced50.value / untraced50.value - 1.0)
                   : 0.0,
               "%");
    out.Metric("obs.spans_dropped", static_cast<double>(t.spans_dropped),
               "count");
    ctx << ", \"layer_percentile_samples\": {\"core.advance_p50_ms\": "
        << t.advance_ms.size()
        << ", \"core.gather_p50_ms\": " << t.gather_ms.size();
    for (size_t q = 0; q < std::size(kAdhocQueries); ++q) {
      ctx << ", \"" << kAdhocQueries[q].metric
          << "\": " << t.query_ms[q].size();
    }
    ctx << "}, \"traced_ops\": " << t.traced_ops
        << ", \"traced_ticks\": " << t.traced_ticks
        << ", \"untraced_arm_p50_ms\": {\"value\": " << untraced50.value
        << ", \"samples\": " << untraced50.samples << "}"
        << ", \"traced_arm_p50_ms\": {\"value\": " << traced50.value
        << ", \"samples\": " << traced50.samples << "}"
        << ", \"ring_overflow_ticks\": " << t.overflowed_ticks;
    if (t.overflowed_ticks > 0) {
      ctx << ", \"ring_overflow_note\": \"on " << t.overflowed_ticks
          << " ticks the trace ring overflowed; core.drain_ms_per_tick there "
             "is shard/drain duration minus the registry's "
             "most_wal_append_latency_seconds sum per shard\"";
    }
  }
  ctx << "}";
  std::cout << "{\"context\": " << ctx.str() << "}\n";

  std::error_code ec;
  std::filesystem::remove_all(wal_dir_, ec);
  const bool correct = tally_.failed == 0 && tally_.oracle_checks > 0;
  std::ostringstream result;
  result << std::setprecision(12);
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << tally_.attempted
         << ", \"failed\": " << tally_.failed << ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    double v = vu.first;
    if (!std::isfinite(v)) v = 0;
    result << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << v
           << ", \"unit\": \"" << vu.second << "\"}";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--shards") {
      args->shards = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace most::e2e

int main(int argc, char** argv) {
  using namespace most::e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: most_e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--shards N] [--work-dir DIR]\n";
    return 2;
  }
  for (const Spec& spec : Specs()) {
    if (spec.name == args.workload) return Runner(spec, args).Run();
  }
  std::cerr << "unknown workload '" << args.workload << "'\n";
  return 2;
}
