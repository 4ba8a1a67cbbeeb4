// Observability tour: exercises every instrumented subsystem — FTL
// evaluation (query manager, delta refresh), durable storage (WAL
// appends, checkpoint), the distributed layer (lossy network + reliable
// channel), resource governance (a shed refresh and a coordinator
// deadline expiry), and a failpoint firing — then
// prints the per-query evaluation profile (EXPLAIN ANALYZE) and the full
// Prometheus text exposition of the global metrics registry.
//
// CI's observability stage runs this binary and greps the output against
// a required-metric allowlist, so the exporters demonstrably cover at
// least four subsystems (docs/observability.md has the full catalogue).

#include <cstdio>
#include <iostream>

#include "common/failpoint.h"
#include "distributed/coordinator.h"
#include "distributed/mobile_node.h"
#include "distributed/reliable_channel.h"
#include "ftl/parser.h"
#include "core/sharded_engine.h"
#include "ftl/query_manager.h"
#include "obs/exporters.h"
#include "obs/governor.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "storage/durable_database.h"

using namespace most;

namespace {

// FTL: a continuous query refreshed twice — the second refresh dirties
// one car out of six, so the delta path serves it.
void DriveFtl() {
  MostDatabase db;
  (void)db.CreateClass("CARS", {}, /*spatial=*/true);
  (void)db.DefineRegion("P", Polygon::Rectangle({0, 0}, {10, 10}));
  QueryManager::Options ftl_opts;
  ftl_opts.horizon = 200;
  QueryManager qm(&db, ftl_opts);
  ObjectId mover = 0;
  for (int i = 0; i < 6; ++i) {
    auto obj = db.CreateObject("CARS");
    if (i == 0) mover = (*obj)->id();
    (void)db.SetMotion("CARS", (*obj)->id(),
                       i == 0 ? Point2{-20, 5} : Point2{100.0 + i, 100},
                       i == 0 ? Vec2{1, 0} : Vec2{0, 0});
  }
  auto q = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto cq = qm.RegisterContinuous(*q);
  (void)qm.ContinuousAnswer(*cq);
  (void)db.SetMotion("CARS", mover, {-10, 5}, {1, 0});
  (void)qm.ContinuousAnswer(*cq);
  auto profile = qm.Explain(*cq);
  if (profile.ok()) {
    std::cout << "--- EXPLAIN (continuous query " << *cq << ") ---\n"
              << *profile << "\n";
  }
}

// Storage: logged mutations, a checkpoint (armed with a noop failpoint so
// the firing shows up in most_failpoint_fired_total), and a recovery.
void DriveStorage() {
  const char* path = "observability_demo.wal";
  (void)FailpointRegistry::Instance().Arm("durable/checkpoint/begin", "noop");
  {
    DurableDatabase db;
    (void)db.Open(path);
    (void)db.CreateTable("T", Schema({{"v", ValueType::kInt}}));
    for (int i = 0; i < 32; ++i) (void)db.Insert("T", {Value(i)});
    (void)db.Checkpoint();
  }
  FailpointRegistry::Instance().Disarm("durable/checkpoint/begin");
  DurableDatabase reopened;
  (void)reopened.Open(path);
  std::remove(path);
}

// Distributed: 40 reliable frames across a 20%-lossy link — drops,
// retransmissions, duplicate suppression and ack traffic all land in the
// most_net_* / most_rc_* families.
void DriveDistributed() {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1, .loss_probability = 0.2, .seed = 7});
  ReliableEndpoint sender(&net, &clock);
  ReliableEndpoint receiver(&net, &clock);
  receiver.SetHandler([](const Message&) {});
  for (uint64_t i = 0; i < 40; ++i) {
    sender.SendReliable(receiver.node_id(), CancelQuery{i});
  }
  for (int t = 0; t < 400 && sender.unacked() > 0; ++t) {
    clock.Advance();
    net.DeliverDue();
  }
}

// Governance: a warm continuous query whose next refresh blows a 1-row
// governor budget — the shed lands in most_governor_sheds_total and
// most_qm_shed_refreshes_total while the query keeps serving its previous
// answer as kStale (docs/robustness.md).
void DriveGovernance() {
  MostDatabase db;
  (void)db.CreateClass("CARS", {}, /*spatial=*/true);
  (void)db.DefineRegion("P", Polygon::Rectangle({0, 0}, {100, 100}));
  QueryManager::Options opts;
  opts.horizon = 200;
  QueryManager qm(&db, opts);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 8; ++i) {
    auto obj = db.CreateObject("CARS");
    if (!obj.ok()) continue;
    ids.push_back((*obj)->id());
    (void)db.SetMotion("CARS", ids.back(), {10.0 + i, 10}, {1, 0});
  }
  auto q = ParseQuery("RETRIEVE o, n FROM CARS o, CARS n WHERE DIST(o, n) <= 200");
  auto cq = qm.RegisterContinuous(*q);
  (void)qm.ContinuousAnswer(*cq);  // Warm, ungoverned.
  ResourceGovernor::Limits limits;
  limits.refresh_budget.max_rows = 1;  // Any real join blows this.
  ResourceGovernor::Global().set_limits(limits);
  for (ObjectId id : ids) (void)db.SetMotion("CARS", id, {20, 10}, {1, 0});
  db.clock().Advance();
  (void)qm.TickAll();
  (void)qm.ContinuousAnswer(*cq);
  ResourceGovernor::Global().set_limits({});
}

// Coordinator: one reachable node, one permanently dark one, and a query
// polled past its deadline — the expiry is counted into
// most_coord_deadline_expired_total and the stale partial answer is still
// served (the same contract `most_shell health` reports on).
void DriveCoordinator() {
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  std::map<std::string, Polygon> regions{
      {"P", Polygon::Rectangle({0, 0}, {100, 100})}};
  Coordinator::Options copts;
  copts.query_deadline = 8;
  Coordinator coordinator(&net, &clock, regions, copts);
  MobileNode::Options nopts;
  nopts.beacon_interval = 0;
  ObjectState in_region;
  in_region.id = 0;
  in_region.position = {50, 50};
  MobileNode reachable(&net, &clock, in_region, regions, nopts);
  ObjectState dark_state = in_region;
  dark_state.id = 1;
  MobileNode dark(&net, &clock, dark_state, regions, nopts);
  net.SetConnected(dark.node_id(), false);
  auto q = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  uint64_t qid = coordinator.IssueObjectQuery(
      *q, DistStrategy::kBroadcastFilter, /*continuous=*/false, 256);
  while (clock.Now() < 12) {
    clock.Advance();
    net.DeliverDue();
  }
  (void)coordinator.DeadlinePassed(qid);
  (void)coordinator.ReportedMatches(qid);
}

// Recovery: a WAL-backed node is killed mid-query, stays dark past the
// lease horizon (most_coord_lease_expirations_total), restarts from its
// log (most_node_recoveries_total), rejoins under a bumped incarnation
// (most_coord_rejoins_total), and its answer mirror is caught up with a
// delta (most_coord_catchup_bytes_total).
void DriveRecovery() {
  std::string wal = "/tmp/most_obs_demo_recovery.wal";
  std::remove(wal.c_str());
  Clock clock;
  SimNetwork net(&clock, {.latency = 1});
  std::map<std::string, Polygon> regions{
      {"P", Polygon::Rectangle({0, 0}, {100, 100})}};
  Coordinator::Options copts;
  copts.liveness_timeout = 12;
  Coordinator coordinator(&net, &clock, regions, copts);
  MobileNode::Options nopts;
  nopts.beacon_interval = 4;
  nopts.home = coordinator.node_id();
  nopts.wal_path = wal;
  ObjectState in_region;
  in_region.id = 0;
  in_region.position = {50, 50};
  auto node =
      std::make_unique<MobileNode>(&net, &clock, in_region, regions, nopts);
  MobileNode::Options mover_opts = nopts;
  mover_opts.wal_path.clear();
  ObjectState approaching;
  approaching.id = 1;
  approaching.position = {-200, 50};
  MobileNode mover(&net, &clock, approaching, regions, mover_opts);
  auto run_to = [&](Tick until) {
    while (clock.Now() < until) {
      clock.Advance();
      net.DeliverDue();
    }
  };
  run_to(6);
  auto q = ParseQuery(
      "RETRIEVE o FROM CARS o WHERE EVENTUALLY WITHIN 50 INSIDE(o, P)");
  uint64_t qid = coordinator.IssueObjectQuery(
      *q, DistStrategy::kBroadcastFilter, /*continuous=*/true, 512);
  run_to(10);
  (void)coordinator.SubscribeAnswerMirror(qid, node->node_id());
  run_to(14);
  node.reset();  // Crash; the lease expires while the node is down.
  mover.UpdateMotion({50, 50}, {0, 0});  // The answer changes meanwhile.
  run_to(40);
  node =
      std::make_unique<MobileNode>(&net, &clock, in_region, regions, nopts);
  run_to(60);
  (void)coordinator.ReportedMatches(qid);
  std::remove(wal.c_str());
}

// Sharding: a two-shard engine routes a few updates through the MPSC
// handoff queues and gathers a continuous answer, so the per-shard
// routed/applied/queue-depth/latency series and the engine's gather
// counters all report (docs/sharding.md).
void DriveSharding() {
  MostDatabase db;
  (void)db.CreateClass("CARS", {}, /*spatial=*/true);
  (void)db.DefineRegion("P", Polygon::Rectangle({0, 0}, {10, 10}));
  for (int i = 0; i < 6; ++i) {
    auto obj = db.CreateObject("CARS");
    (void)db.SetMotion("CARS", (*obj)->id(), {static_cast<double>(-4 * i), 5},
                       {1, 0});
  }
  ShardedEngine::Options opts;
  opts.shard_count = 2;
  opts.query_options.horizon = 64;
  ShardedEngine engine(&db, opts);
  auto q = ParseQuery("RETRIEVE o FROM CARS o WHERE EVENTUALLY INSIDE(o, P)");
  auto cq = engine.RegisterContinuous(*q);
  for (ObjectId id = 0; id < 6; ++id) {
    engine.EnqueueMotion("CARS", id, {static_cast<double>(id), 5}, {1, 0});
  }
  (void)engine.Advance(1);
  if (cq.ok()) (void)engine.ContinuousAnswer(*cq);
}

// Telemetry: the per-tick recorder samples refresh throughput + latency
// while a continuous query churns, the latency watchdog arms (tightening
// the governor's queue limit and delta fallback), and a quiet stretch
// relaxes it — so most_telemetry_samples_total and both
// most_telemetry_watchdog_adjustments_total actions report nonzero
// (docs/observability.md, "Telemetry timeline").
void DriveTelemetry() {
  obs::TelemetryRecorder& rec = obs::TelemetryRecorder::Global();
  rec.set_enabled(true);
  rec.Track("most_qm_refreshes_total");
  rec.Track("most_qm_refresh_latency_seconds");
  obs::TelemetryRecorder::WatchdogOptions wd;
  wd.window = 4;
  wd.arm_mean_seconds = 1e-12;  // Any real refresh latency arms.
  wd.armed_queue_limit = 4;
  wd.armed_delta_fraction = 0.9;
  wd.min_hold_ticks = 2;
  rec.ConfigureWatchdog(wd);

  MostDatabase db;
  (void)db.CreateClass("CARS", {}, /*spatial=*/true);
  (void)db.DefineRegion("P", Polygon::Rectangle({0, 0}, {10, 10}));
  QueryManager::Options opts;
  opts.horizon = 64;
  QueryManager qm(&db, opts);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 4; ++i) {
    auto obj = db.CreateObject("CARS");
    if (!obj.ok()) continue;
    ids.push_back((*obj)->id());
    (void)db.SetMotion("CARS", ids.back(), {static_cast<double>(-4 * i), 5},
                       {1, 0});
  }
  auto q = ParseQuery("RETRIEVE o FROM CARS o WHERE INSIDE(o, P)");
  auto cq = qm.RegisterContinuous(*q);
  (void)qm.ContinuousAnswer(*cq);
  // Busy stretch: motion every tick keeps the query stale, so every
  // TickAll refreshes and the windowed latency mean arms the watchdog.
  for (int t = 0; t < 6; ++t) {
    for (ObjectId id : ids) {
      (void)db.SetMotion("CARS", id, {static_cast<double>(t), 5}, {1, 0});
    }
    db.clock().Advance();
    (void)qm.TickAll();
  }
  // Quiet stretch: no refreshes, the latency window drains, and after the
  // hold the watchdog restores the saved governor limits.
  for (int t = 0; t < 8; ++t) {
    db.clock().Advance();
    (void)qm.TickAll();
  }
  rec.DisarmWatchdog();
}

}  // namespace

int main() {
  // Record spans from every drive below: the trace ring feeds the
  // most_trace_* collector rows and `most_shell trace`'s Perfetto dump.
  obs::TraceSink::Global().set_enabled(true);
  DriveFtl();
  DriveStorage();
  DriveDistributed();
  DriveGovernance();
  DriveCoordinator();
  DriveRecovery();
  DriveSharding();
  DriveTelemetry();
  std::cout << "--- Prometheus exposition ---\n" << obs::PrometheusText();
  return 0;
}
