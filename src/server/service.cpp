#include "streamrel/server/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "streamrel/graph/io.hpp"
#include "streamrel/util/stopwatch.hpp"
#include "streamrel/util/table.hpp"
#include "streamrel/version.hpp"

namespace streamrel {

namespace {

/// Resolves a wire query against the session's registered default
/// demand: unset members inherit.
FlowDemand resolve_demand(const FlowDemand& fallback, const WireQuery& query) {
  FlowDemand demand = fallback;
  if (query.source) demand.source = *query.source;
  if (query.sink) demand.sink = *query.sink;
  if (query.rate) demand.rate = *query.rate;
  return demand;
}

std::string lane_json(const LaneSnapshot& snap, std::uint64_t shed) {
  std::string out = "{}";
  append_json_member(out, "submitted", std::to_string(snap.submitted));
  append_json_member(out, "completed", std::to_string(snap.completed));
  append_json_member(out, "rejected", std::to_string(snap.rejected));
  append_json_member(out, "shed", std::to_string(shed));
  append_json_member(out, "queued", std::to_string(snap.queued));
  append_json_member(out, "running", std::to_string(snap.running));
  append_json_member(out, "ewma_service_ms",
                     format_double(snap.ewma_service_ms, 4));
  append_json_member(out, "queue_estimate_ms",
                     format_double(snap.queue_estimate_ms, 4));
  append_json_member(out, "queue_p50_ms", format_double(snap.queue_p50_ms, 4));
  append_json_member(out, "queue_p95_ms", format_double(snap.queue_p95_ms, 4));
  append_json_member(out, "queue_p99_ms", format_double(snap.queue_p99_ms, 4));
  append_json_member(out, "service_p50_ms",
                     format_double(snap.service_p50_ms, 4));
  append_json_member(out, "service_p95_ms",
                     format_double(snap.service_p95_ms, 4));
  append_json_member(out, "service_p99_ms",
                     format_double(snap.service_p99_ms, 4));
  return out;
}

/// Splits the registry's "tenant/network_id" snapshot key back into its
/// halves (tenant names may not contain '/'; network ids may).
std::pair<std::string, std::string> split_session_key(
    const std::string& name) {
  const std::size_t slash = name.find('/');
  if (slash == std::string::npos) return {name, std::string()};
  return {name.substr(0, slash), name.substr(slash + 1)};
}

std::uint64_t unix_millis_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ReliabilityService::ReliabilityService(const ServiceOptions& options)
    : options_(options),
      registry_(options.default_cache, options.global_mask_tables,
                RegistryPersistOptions{options.state_dir,
                                       options.wal_compact_threshold,
                                       options.state_fsync}),
      flight_(options.flight_capacity),
      logger_(options.request_log) {
  // Pre-register the families a quiet daemon must still expose
  // (metrics_check --require runs before any overload or persist verb).
  for (const WireLane lane : {WireLane::kInteractive, WireLane::kBulk}) {
    metrics_
        .counter("streamrel_backpressure_rejects_total",
                 "Request lines refused by the connection in-flight cap",
                 MetricLabels{{"lane", std::string(to_string(lane))}})
        .inc(0);
  }
  if (registry_.persistent()) {
    metrics_.histogram("streamrel_checkpoint_duration_ms",
                       "Durable checkpoint wall time (snapshot + WAL reset)",
                       default_latency_buckets_ms());
    auto& restore_hist =
        metrics_.histogram("streamrel_restore_duration_ms",
                           "Durable restore wall time (snapshot + WAL replay)",
                           default_latency_buckets_ms());
    const Stopwatch timer;
    boot_restore_ = registry_.restore_all();
    if (boot_restore_.restored > 0) restore_hist.observe(timer.elapsed_ms());
  }
  if (options_.start_workers) {
    scheduler_ = std::make_unique<RequestScheduler>(options_.scheduler);
  }
}

ReliabilityService::~ReliabilityService() {
  if (scheduler_) scheduler_->stop();
  // Workers are quiesced: a final checkpoint catches journal tails that
  // never hit the compaction threshold. Failures only cost warm-restore
  // depth (the WAL already holds every delta).
  if (registry_.persistent()) registry_.checkpoint_all();
}

double ReliabilityService::lane_budget_ms(WireLane lane) const noexcept {
  return lane == WireLane::kInteractive ? options_.interactive_budget_ms
                                        : options_.bulk_budget_ms;
}

void ReliabilityService::drain() {
  if (scheduler_) scheduler_->drain();
}

std::shared_ptr<TenantSession> ReliabilityService::find_session(
    const WireRequest& request, WireResponse* error) const {
  std::shared_ptr<TenantSession> session =
      registry_.find(request.tenant, request.network_id);
  if (!session) {
    *error = make_wire_error(
        request.id_json, to_string(request.verb), "unknown_network",
        "unknown tenant/network '" + request.tenant + "/" +
            request.network_id + "' (register_network first)");
  }
  return session;
}

WireResponse ReliabilityService::do_register(const WireRequest& request) {
  const NetworkFile file = read_network_from_string(request.network_text);
  FlowDemand demand = file.demand.value_or(FlowDemand{0, 0, 1});
  demand = resolve_demand(demand, request.query);

  const RegisterOutcome outcome = registry_.register_network(
      request.tenant, request.network_id, file.net, demand,
      request.max_mask_tables);

  WireResponse resp;
  resp.id_json = request.id_json;
  resp.verb.assign(to_string(request.verb));
  std::string result = "{}";
  append_json_member(result, "tenant", json_quote(request.tenant));
  append_json_member(result, "network_id", json_quote(request.network_id));
  append_json_member(result, "nodes", std::to_string(outcome.nodes));
  append_json_member(result, "edges", std::to_string(outcome.edges));
  append_json_member(result, "cache_budget",
                     std::to_string(outcome.cache_budget));
  append_json_member(result, "replaced", outcome.replaced ? "true" : "false");
  if (registry_.persistent()) {
    append_json_member(result, "persisted",
                       outcome.persisted ? "true" : "false");
    if (!outcome.persist_error.empty()) {
      append_json_member(result, "persist_error",
                         json_quote(outcome.persist_error));
    }
  }
  resp.result_json = std::move(result);
  return resp;
}

WireResponse ReliabilityService::do_solve(const WireRequest& request,
                                          const RequestHooks& hooks,
                                          bool force_expired,
                                          RequestRecord* record) {
  WireResponse resp;
  const std::shared_ptr<TenantSession> session = find_session(request, &resp);
  if (!session) return resp;
  resp.id_json = request.id_json;
  resp.verb.assign(to_string(request.verb));

  const FlowDemand demand =
      resolve_demand(session->default_demand(), request.query);

  ExecContext ctx;
  ctx.max_threads = request.max_threads;
  ctx.progress = hooks.progress;
  if (force_expired) {
    ctx.set_deadline_ms(0.0);
  } else {
    ctx.apply_deadline_budgets(request.deadline_ms,
                               lane_budget_ms(request.lane));
  }

  SolveOptions options;
  options.method = request.query.method;
  options.context = &ctx;

  const Stopwatch timer;
  const SolveReport report =
      session->solve(demand, options, request.query.overrides);
  if (record != nullptr) {
    record->engine.assign(report.engine);
    record->status.assign(to_string(report.result.status));
  }
  bridge_solve_telemetry(report.engine, report.result.telemetry);
  resp.result_json = render_solve_result(
      report, timer.elapsed_ms(), request.want_telemetry,
      force_expired ? std::string_view(", \"shed\": true")
                    : std::string_view());
  return resp;
}

WireResponse ReliabilityService::do_batch(const WireRequest& request,
                                          const RequestHooks& hooks,
                                          bool force_expired) {
  WireResponse resp;
  const std::shared_ptr<TenantSession> session = find_session(request, &resp);
  if (!session) return resp;
  resp.id_json = request.id_json;
  resp.verb.assign(to_string(request.verb));

  const FlowDemand base_demand = session->default_demand();
  std::vector<WhatIfQuery> queries;
  std::vector<FlowDemand> demands;
  queries.reserve(request.queries.size());
  demands.reserve(request.queries.size());
  for (const WireQuery& wq : request.queries) {
    WhatIfQuery q;
    q.demand = resolve_demand(base_demand, wq);
    q.prob_overrides = wq.overrides;
    q.method = wq.method;
    q.deadline_ms = wq.deadline_ms;
    demands.push_back(q.demand);
    queries.push_back(std::move(q));
  }

  BatchOptions options;
  options.max_threads = request.max_threads;
  options.progress = hooks.progress;
  if (force_expired) {
    options.deadline_ms = 1e-9;  // already shed: bounds-only pass
  } else {
    double effective = request.deadline_ms;
    const double budget = lane_budget_ms(request.lane);
    if (budget > 0.0 && (effective <= 0.0 || budget < effective)) {
      effective = budget;
    }
    options.deadline_ms = effective;
  }

  const Stopwatch timer;
  const BatchReport batch = session->batch(queries, options);
  const double elapsed_ms = timer.elapsed_ms();

  const TenantSession::Stats stats = session->stats();
  resp.legacy_lines.reserve(batch.reports.size());
  std::string results = "[";
  for (std::size_t i = 0; i < batch.reports.size(); ++i) {
    std::string line =
        render_batch_query_line(i, demands[i], batch.reports[i]);
    if (i) results += ", ";
    results += line;
    resp.legacy_lines.push_back(std::move(line));
  }
  results += "]";
  resp.legacy_summary =
      render_batch_summary(batch, stats.cache_hits, stats.cache_misses,
                           stats.cache_evictions, elapsed_ms);

  std::string result = "{}";
  append_json_member(result, "queries",
                     std::to_string(batch.reports.size()));
  append_json_member(result, "exact", std::to_string(batch.exact_count));
  append_json_member(result, "elapsed_ms", format_double(elapsed_ms, 4));
  append_json_member(result, "results", results);
  if (request.want_telemetry) {
    append_json_member(result, "telemetry", batch.telemetry.to_json());
  }
  if (force_expired) append_json_member(result, "shed", "true");
  resp.result_json = std::move(result);
  return resp;
}

WireResponse ReliabilityService::do_apply_delta(const WireRequest& request) {
  WireResponse resp;
  const std::shared_ptr<TenantSession> session = find_session(request, &resp);
  if (!session) return resp;
  resp.id_json = request.id_json;
  resp.verb.assign(to_string(request.verb));

  const DeltaOutcome outcome = session->apply_delta(request.delta);
  std::string result = "{}";
  append_json_member(result, "class",
                     json_quote(to_string(outcome.applied)));
  append_json_member(result, "entries_full",
                     std::to_string(outcome.entries_full));
  append_json_member(result, "entries_partial",
                     std::to_string(outcome.entries_partial));
  append_json_member(result, "entries_survived",
                     std::to_string(outcome.entries_survived));
  append_json_member(result, "partitions_survived",
                     std::to_string(outcome.partitions_survived));
  append_json_member(result, "assignments_survived",
                     std::to_string(outcome.assignments_survived));
  resp.result_json = std::move(result);
  return resp;
}

WireResponse ReliabilityService::do_replay(const WireRequest& request,
                                           const RequestHooks& hooks,
                                           bool force_expired) {
  (void)hooks;
  WireResponse resp;
  const std::shared_ptr<TenantSession> session = find_session(request, &resp);
  if (!session) return resp;
  resp.id_json = request.id_json;
  resp.verb.assign(to_string(request.verb));

  const FlowNetwork net = session->network_copy();
  const FlowDemand demand = session->default_demand();
  EventStream events = request.events;
  sort_event_stream(events);

  ReplayOptions options;
  options.cache = options_.default_cache;
  options.use_session = !request.cold;
  if (force_expired) {
    options.solve.deadline_ms = 1e-9;
  } else {
    double effective = request.deadline_ms;
    const double budget = lane_budget_ms(request.lane);
    if (budget > 0.0 && (effective <= 0.0 || budget < effective)) {
      effective = budget;
    }
    options.solve.deadline_ms = effective;
  }
  options.solve.max_threads = request.max_threads;

  const Stopwatch timer;
  const ReplayReport report = replay_churn(net, demand, events, options);
  const double elapsed_ms = timer.elapsed_ms();

  resp.legacy_lines.reserve(report.series.size() + 1);
  resp.legacy_lines.push_back(
      render_replay_initial_line(report.initial_reliability));
  for (const ReplayEventOutcome& outcome : report.series) {
    resp.legacy_lines.push_back(render_replay_event_line(outcome));
  }
  resp.legacy_summary =
      render_replay_summary(report, !request.cold, elapsed_ms);

  std::string result = "{}";
  append_json_member(result, "events", std::to_string(report.series.size()));
  append_json_member(result, "initial_reliability",
                     format_double(report.initial_reliability, 10));
  append_json_member(result, "final_reliability",
                     format_double(report.final_reliability, 10));
  append_json_member(result, "artifact_survival_rate",
                     format_double(report.artifact_survival_rate, 6));
  append_json_member(result, "mode",
                     request.cold ? "\"cold\"" : "\"warm\"");
  if (request.want_telemetry) {
    append_json_member(result, "telemetry", report.telemetry.to_json());
  }
  if (force_expired) append_json_member(result, "shed", "true");
  resp.result_json = std::move(result);
  return resp;
}

std::string ReliabilityService::stats_json() const {
  std::string out = "{}";
  append_json_member(out, "wire_schema", std::to_string(kWireSchemaVersion));
  append_json_member(out, "api_version",
                     std::to_string(STREAMREL_API_VERSION));
  append_json_member(out, "sessions", std::to_string(registry_.size()));
  append_json_member(
      out, "requests",
      std::to_string(requests_total_.load(std::memory_order_relaxed)));
  append_json_member(
      out, "errors",
      std::to_string(errors_total_.load(std::memory_order_relaxed)));
  append_json_member(
      out, "shed",
      std::to_string(shed_total_.load(std::memory_order_relaxed)));
  if (scheduler_) {
    std::string lanes = "{}";
    append_json_member(
        lanes, "interactive",
        lane_json(scheduler_->lane_snapshot(WireLane::kInteractive),
                  shed_lane_[static_cast<int>(WireLane::kInteractive)].load(
                      std::memory_order_relaxed)));
    append_json_member(
        lanes, "bulk",
        lane_json(scheduler_->lane_snapshot(WireLane::kBulk),
                  shed_lane_[static_cast<int>(WireLane::kBulk)].load(
                      std::memory_order_relaxed)));
    append_json_member(out, "lanes", lanes);
  }
  const PersistTotals persist = registry_.persist_totals();
  std::string pjson = "{}";
  append_json_member(pjson, "enabled", persist.enabled ? "true" : "false");
  append_json_member(pjson, "checkpoints", std::to_string(persist.checkpoints));
  append_json_member(pjson, "wal_appends", std::to_string(persist.wal_appends));
  append_json_member(pjson, "wal_records", std::to_string(persist.wal_records));
  append_json_member(pjson, "bytes_written",
                     std::to_string(persist.bytes_written));
  append_json_member(pjson, "journal_errors",
                     std::to_string(persist.journal_errors));
  append_json_member(pjson, "restores", std::to_string(persist.restores));
  append_json_member(pjson, "corrupt", std::to_string(persist.corrupt));
  append_json_member(pjson, "replayed_deltas",
                     std::to_string(persist.replayed_deltas));
  append_json_member(out, "persist", pjson);
  std::string tenants = "{}";
  for (const auto& [name, session] : registry_.snapshot()) {
    const TenantSession::Stats s = session->stats();
    std::string t = "{}";
    append_json_member(t, "queries", std::to_string(s.queries));
    append_json_member(t, "cache_hits", std::to_string(s.cache_hits));
    append_json_member(t, "cache_misses", std::to_string(s.cache_misses));
    append_json_member(t, "cache_evictions",
                       std::to_string(s.cache_evictions));
    append_json_member(t, "invalidations_full",
                       std::to_string(s.invalidations_full));
    append_json_member(t, "invalidations_partial",
                       std::to_string(s.invalidations_partial));
    append_json_member(t, "invalidations_survived",
                       std::to_string(s.invalidations_survived));
    append_json_member(t, "mask_tables", std::to_string(s.mask_tables));
    append_json_member(t, "mask_bytes", std::to_string(s.mask_bytes));
    append_json_member(t, "budget", std::to_string(s.budget));
    append_json_member(t, "durable", s.durable ? "true" : "false");
    if (s.durable) {
      append_json_member(t, "restored", s.restored ? "true" : "false");
      append_json_member(t, "wal_records", std::to_string(s.wal_records));
      append_json_member(t, "checkpoints", std::to_string(s.checkpoints));
      append_json_member(t, "journal_errors",
                         std::to_string(s.journal_errors));
    }
    append_json_member(tenants, name, t);
  }
  append_json_member(out, "tenants", tenants);
  return out;
}

void ReliabilityService::bridge_solve_telemetry(std::string_view engine,
                                                const Telemetry& telemetry) {
  // Top-level counters only: the engine's own root counters are the
  // bounded, stable vocabulary (maxflow_calls, configurations, ...);
  // child subtrees would multiply series cardinality per tenant.
  MetricLabels labels{{"engine", std::string(engine)}, {"counter", ""}};
  for (const auto& [name, value] : telemetry.counters()) {
    labels.set("counter", name);
    metrics_
        .counter("streamrel_engine_work_total",
                 "Engine telemetry counters, bridged per solve", labels)
        .inc(value);
  }
}

void ReliabilityService::note_request(const RequestRecord& record,
                                      double queue_us) {
  MetricLabels by_code{{"verb", record.verb},
                       {"lane", record.lane},
                       {"code", record.error_code.empty()
                                    ? (record.shed ? "shed" : "ok")
                                    : record.error_code}};
  metrics_
      .counter("streamrel_requests_total",
               "Finished wire requests by verb, lane and outcome code",
               by_code)
      .inc();
  if (!record.error_code.empty()) {
    metrics_
        .counter("streamrel_errors_total", "Error responses by wire code",
                 MetricLabels{{"code", record.error_code}})
        .inc();
  }
  MetricLabels by_verb{{"verb", record.verb}, {"lane", record.lane}};
  metrics_
      .histogram("streamrel_request_latency_ms",
                 "Request execution latency (pickup to response rendered)",
                 default_latency_buckets_ms(), by_verb)
      .observe(record.solve_us / 1000.0);
  if (queue_us >= 0.0) {
    metrics_
        .histogram("streamrel_queue_time_ms",
                   "Actual time in the scheduler queue",
                   default_latency_buckets_ms(),
                   MetricLabels{{"lane", record.lane}})
        .observe(queue_us / 1000.0);
  }
}

void ReliabilityService::refresh_scrape_gauges() {
  if (scheduler_) {
    for (const WireLane lane : {WireLane::kInteractive, WireLane::kBulk}) {
      const LaneSnapshot snap = scheduler_->lane_snapshot(lane);
      MetricLabels labels{{"lane", std::string(to_string(lane))}};
      metrics_
          .gauge("streamrel_queue_depth", "Jobs waiting in the lane queue",
                 labels)
          .set(static_cast<double>(snap.queued));
      metrics_
          .gauge("streamrel_lane_running", "Jobs executing on the lane",
                 labels)
          .set(static_cast<double>(snap.running));
      metrics_
          .gauge("streamrel_queue_estimate_ms",
                 "EWMA-based expected queue wait for new work", labels)
          .set(snap.queue_estimate_ms);
      metrics_
          .gauge("streamrel_lane_ewma_service_ms",
                 "EWMA of per-job service time", labels)
          .set(snap.ewma_service_ms);
      metrics_
          .counter("streamrel_lane_submitted_total",
                   "Jobs admitted to the lane", labels)
          .set_at_least(snap.submitted);
      metrics_
          .counter("streamrel_lane_completed_total",
                   "Jobs finished on the lane", labels)
          .set_at_least(snap.completed);
      metrics_
          .counter("streamrel_lane_rejected_total",
                   "Jobs refused at admission (queue full)", labels)
          .set_at_least(snap.rejected);
      metrics_
          .counter("streamrel_sheds_total",
                   "Requests shed (deadline blown in queue or pre-admission)",
                   labels)
          .set_at_least(
              shed_lane_[static_cast<int>(lane)].load(std::memory_order_relaxed));
    }
  }
  metrics_
      .gauge("streamrel_sessions", "Registered tenant/network sessions")
      .set(static_cast<double>(registry_.size()));
  for (const auto& [name, session] : registry_.snapshot()) {
    const TenantSession::Stats s = session->stats();
    const auto [tenant, network] = split_session_key(name);
    MetricLabels labels{{"tenant", tenant}, {"network", network}};
    metrics_
        .counter("streamrel_session_queries_total",
                 "Queries answered by the session", labels)
        .set_at_least(s.queries);
    metrics_
        .counter("streamrel_cache_hits_total",
                 "Session cache hits (all layers)", labels)
        .set_at_least(s.cache_hits);
    metrics_
        .counter("streamrel_cache_misses_total",
                 "Session cache misses (all layers)", labels)
        .set_at_least(s.cache_misses);
    metrics_
        .counter("streamrel_cache_evictions_total",
                 "Mask-table LRU evictions", labels)
        .set_at_least(s.cache_evictions);
    MetricLabels outcome = labels;
    outcome.set("outcome", "full");
    metrics_
        .counter("streamrel_cache_invalidations_total",
                 "Per-entry invalidation outcomes of delta application",
                 outcome)
        .set_at_least(s.invalidations_full);
    outcome.set("outcome", "partial");
    metrics_
        .counter("streamrel_cache_invalidations_total", "", outcome)
        .set_at_least(s.invalidations_partial);
    outcome.set("outcome", "survived");
    metrics_
        .counter("streamrel_cache_invalidations_total", "", outcome)
        .set_at_least(s.invalidations_survived);
    metrics_
        .gauge("streamrel_cache_mask_tables", "Cached mask-table entries",
               labels)
        .set(static_cast<double>(s.mask_tables));
    metrics_
        .gauge("streamrel_cache_mask_table_budget",
               "Mask-table entry budget granted to the session", labels)
        .set(static_cast<double>(s.budget));
    metrics_
        .gauge("streamrel_cache_mask_bytes",
               "Resident bytes of cached slab mask tables", labels)
        .set(static_cast<double>(s.mask_bytes));
  }
  const PersistTotals persist = registry_.persist_totals();
  if (persist.enabled) {
    metrics_
        .counter("streamrel_checkpoints_total",
                 "Durable checkpoints written (snapshot + journal reset)")
        .set_at_least(persist.checkpoints);
    metrics_
        .counter("streamrel_wal_appends_total",
                 "Delta records appended to write-ahead journals")
        .set_at_least(persist.wal_appends);
    metrics_
        .counter("streamrel_state_bytes_written_total",
                 "Bytes committed to durable state (snapshots + WAL records)")
        .set_at_least(persist.bytes_written);
    metrics_
        .counter("streamrel_restores_total",
                 "Sessions restored from durable state (boot + restore verb)")
        .set_at_least(persist.restores);
    metrics_
        .counter("streamrel_state_corrupt_total",
                 "Durable stores refused as corrupt (cold-started instead)")
        .set_at_least(persist.corrupt);
    metrics_
        .counter("streamrel_replayed_deltas_total",
                 "WAL delta records replayed during restores")
        .set_at_least(persist.replayed_deltas);
    metrics_
        .counter("streamrel_journal_errors_total",
                 "Journal append/compaction failures (durability degraded)")
        .set_at_least(persist.journal_errors);
    metrics_
        .gauge("streamrel_wal_records",
               "Current write-ahead journal depth summed over sessions")
        .set(static_cast<double>(persist.wal_records));
  }
  metrics_
      .counter("streamrel_flight_records_total",
               "Requests recorded by the flight recorder")
      .set_at_least(flight_.total_recorded());
}

std::string ReliabilityService::metrics_text() {
  const Stopwatch timer;
  refresh_scrape_gauges();
  std::string text = metrics_.render_prometheus();
  // The scrape that reports this value is already rendered; the gauge
  // lands in the NEXT scrape, the usual client-library behavior.
  metrics_
      .gauge("streamrel_scrape_duration_ms",
             "Wall time of the previous metrics scrape")
      .set(timer.elapsed_ms());
  return text;
}

WireResponse ReliabilityService::do_metrics(const WireRequest& request) {
  WireResponse resp;
  resp.id_json = request.id_json;
  resp.verb.assign(to_string(request.verb));
  const std::string text = metrics_text();
  std::string result = "{}";
  append_json_member(result, "series",
                     std::to_string(metrics_.series_count()));
  append_json_member(result, "content_type",
                     json_quote(kPrometheusContentType));
  append_json_member(result, "text", json_quote(text));
  resp.result_json = std::move(result);
  return resp;
}

WireResponse ReliabilityService::do_dump(const WireRequest& request) {
  WireResponse resp;
  resp.id_json = request.id_json;
  resp.verb.assign(to_string(request.verb));
  const std::vector<FlightEntry> entries = flight_.snapshot();
  std::string records = "[";
  std::size_t spans = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) records += ", ";
    records += entries[i].record.to_json();
    spans += entries[i].spans.size();
  }
  records += "]";
  std::string result = "{}";
  append_json_member(result, "records", records);
  append_json_member(result, "retained", std::to_string(entries.size()));
  append_json_member(result, "total_recorded",
                     std::to_string(flight_.total_recorded()));
  append_json_member(result, "spans", std::to_string(spans));
  if (!request.dump_path.empty()) {
    if (!flight_.dump_to_files(request.dump_path)) {
      return make_wire_error(request.id_json, to_string(request.verb),
                             "internal",
                             "cannot write flight bundle to prefix '" +
                                 request.dump_path + "'");
    }
    std::string files = "[";
    files += json_quote(request.dump_path + ".jsonl");
    files += ", ";
    files += json_quote(request.dump_path + ".trace.json");
    files += "]";
    append_json_member(result, "files", files);
  }
  resp.result_json = std::move(result);
  return resp;
}

WireResponse ReliabilityService::do_persist(const WireRequest& request) {
  if (!registry_.persistent()) {
    return make_wire_error(request.id_json, to_string(request.verb),
                           "bad_request",
                           "persistence is off (start the daemon with "
                           "--state-dir)");
  }
  WireResponse resp;
  const std::shared_ptr<TenantSession> session = find_session(request, &resp);
  if (!session) return resp;
  resp.id_json = request.id_json;
  resp.verb.assign(to_string(request.verb));

  const Stopwatch timer;
  std::string error;
  const StoreStatus status =
      registry_.persist_session(request.tenant, request.network_id, &error);
  const double elapsed_ms = timer.elapsed_ms();
  if (status != StoreStatus::kOk) {
    return make_wire_error(
        request.id_json, to_string(request.verb), "state_corrupt",
        error.empty() ? std::string(to_string(status)) : error);
  }
  metrics_
      .histogram("streamrel_checkpoint_duration_ms",
                 "Durable checkpoint wall time (snapshot + WAL reset)",
                 default_latency_buckets_ms())
      .observe(elapsed_ms);

  const TenantSession::Stats stats = session->stats();
  std::string result = "{}";
  append_json_member(result, "tenant", json_quote(request.tenant));
  append_json_member(result, "network_id", json_quote(request.network_id));
  append_json_member(result, "checkpoints", std::to_string(stats.checkpoints));
  append_json_member(result, "state_bytes_written",
                     std::to_string(stats.state_bytes_written));
  append_json_member(result, "elapsed_ms", format_double(elapsed_ms, 4));
  resp.result_json = std::move(result);
  return resp;
}

WireResponse ReliabilityService::do_restore(const WireRequest& request) {
  if (!registry_.persistent()) {
    return make_wire_error(request.id_json, to_string(request.verb),
                           "bad_request",
                           "persistence is off (start the daemon with "
                           "--state-dir)");
  }
  const Stopwatch timer;
  const RestoreOutcome outcome =
      registry_.restore_session(request.tenant, request.network_id);
  const double elapsed_ms = timer.elapsed_ms();
  if (outcome.status == StoreStatus::kNotFound) {
    return make_wire_error(request.id_json, to_string(request.verb),
                           "unknown_network",
                           "no durable state for '" + request.tenant + "/" +
                               request.network_id + "'");
  }
  if (outcome.status != StoreStatus::kOk) {
    return make_wire_error(
        request.id_json, to_string(request.verb), "state_corrupt",
        outcome.error.empty() ? std::string(to_string(outcome.status))
                              : outcome.error);
  }
  metrics_
      .histogram("streamrel_restore_duration_ms",
                 "Durable restore wall time (snapshot + WAL replay)",
                 default_latency_buckets_ms())
      .observe(elapsed_ms);

  WireResponse resp;
  resp.id_json = request.id_json;
  resp.verb.assign(to_string(request.verb));
  std::string result = "{}";
  append_json_member(result, "tenant", json_quote(request.tenant));
  append_json_member(result, "network_id", json_quote(request.network_id));
  append_json_member(result, "nodes", std::to_string(outcome.nodes));
  append_json_member(result, "edges", std::to_string(outcome.edges));
  append_json_member(result, "replayed_deltas",
                     std::to_string(outcome.replayed_deltas));
  append_json_member(result, "cache_budget",
                     std::to_string(outcome.cache_budget));
  append_json_member(result, "elapsed_ms", format_double(elapsed_ms, 4));
  resp.result_json = std::move(result);
  return resp;
}

WireResponse ReliabilityService::reject_overloaded(std::string_view line) {
  errors_total_.fetch_add(1, std::memory_order_relaxed);
  RequestRecord record;
  record.seq = request_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.ok = false;
  record.unix_ms = unix_millis_now();

  std::string id_json = "null";
  std::string verb;
  WireLane lane = WireLane::kInteractive;
  try {
    const WireRequest request = parse_wire_request(line);
    id_json = request.id_json;
    verb.assign(to_string(request.verb));
    lane = request.lane;
    record.id_json = request.id_json;
    record.tenant = request.tenant;
    record.network_id = request.network_id;
  } catch (const WireParseError& e) {
    // A line that does not even parse is refused for what it is — the
    // in-flight cap only shapes well-formed traffic.
    record.id_json = e.id_json() == "null" ? std::string() : e.id_json();
    record.verb = e.verb().empty() ? "?" : e.verb();
    record.lane.assign(to_string(WireLane::kInteractive));
    record.error_code = e.code();
    RequestRecord metric_view = record;
    metric_view.verb = "?";
    note_request(metric_view, -1.0);
    logger_.log(record);
    flight_.record(record);
    return make_wire_error(e.id_json(), e.verb(), e.code(), e.what());
  }

  metrics_
      .counter("streamrel_backpressure_rejects_total",
               "Request lines refused by the connection in-flight cap",
               MetricLabels{{"lane", std::string(to_string(lane))}})
      .inc();
  record.verb = verb;
  record.lane.assign(to_string(lane));
  record.error_code = "overloaded";
  note_request(record, -1.0);
  logger_.log(record);
  flight_.record(record);
  return make_wire_error(id_json, verb, "overloaded",
                         "connection has too many in-flight requests; retry "
                         "after a response drains");
}

WireResponse ReliabilityService::reject_payload_too_large() {
  errors_total_.fetch_add(1, std::memory_order_relaxed);
  RequestRecord record;
  record.seq = request_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.ok = false;
  record.unix_ms = unix_millis_now();
  record.verb = "?";
  record.lane.assign(to_string(WireLane::kInteractive));
  record.error_code = "payload_too_large";
  note_request(record, -1.0);
  logger_.log(record);
  flight_.record(record);
  return make_wire_error("null", "", "payload_too_large",
                         "request line exceeds " +
                             std::to_string(kMaxWireLineBytes) +
                             " bytes; the line was discarded");
}

WireResponse ReliabilityService::execute_impl(const WireRequest& request,
                                              const RequestHooks& hooks,
                                              bool force_expired,
                                              double queue_us) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  if (force_expired) {
    shed_total_.fetch_add(1, std::memory_order_relaxed);
    lane_shed(request.lane).fetch_add(1, std::memory_order_relaxed);
  }
  RequestRecord record;
  record.seq = request_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.id_json = request.id_json;
  record.tenant = request.tenant;
  record.network_id = request.network_id;
  record.verb.assign(to_string(request.verb));
  record.lane.assign(to_string(request.lane));
  record.shed = force_expired;
  record.queue_us = queue_us > 0.0 ? queue_us : 0.0;

  WireResponse resp;
  const Stopwatch exec_timer;
  std::optional<TraceCapture> capture;
  try {
    if (request.want_trace) capture.emplace();
    switch (request.verb) {
      case WireVerb::kRegisterNetwork:
        resp = do_register(request);
        break;
      case WireVerb::kSolve:
        resp = do_solve(request, hooks, force_expired, &record);
        break;
      case WireVerb::kBatch:
        resp = do_batch(request, hooks, force_expired);
        break;
      case WireVerb::kApplyDelta:
        resp = do_apply_delta(request);
        break;
      case WireVerb::kReplay:
        resp = do_replay(request, hooks, force_expired);
        break;
      case WireVerb::kStats:
        resp.id_json = request.id_json;
        resp.verb.assign(to_string(request.verb));
        resp.result_json = stats_json();
        break;
      case WireVerb::kMetrics:
        resp = do_metrics(request);
        break;
      case WireVerb::kDump:
        resp = do_dump(request);
        break;
      case WireVerb::kPersist:
        resp = do_persist(request);
        break;
      case WireVerb::kRestore:
        resp = do_restore(request);
        break;
      case WireVerb::kShutdown: {
        std::string result = "{\"stopping\": true}";
        if (registry_.persistent()) {
          // Checkpoint BEFORE acknowledging the stop: the client's next
          // boot restores exactly what it saw acknowledged.
          const Stopwatch timer;
          const std::size_t failures = registry_.checkpoint_all();
          metrics_
              .histogram("streamrel_checkpoint_duration_ms",
                         "Durable checkpoint wall time (snapshot + WAL reset)",
                         default_latency_buckets_ms())
              .observe(timer.elapsed_ms());
          append_json_member(
              result, "checkpointed",
              std::to_string(registry_.size() -
                             std::min(failures, registry_.size())));
          append_json_member(result, "checkpoint_failures",
                             std::to_string(failures));
        }
        shutdown_.store(true, std::memory_order_relaxed);
        resp.id_json = request.id_json;
        resp.verb.assign(to_string(request.verb));
        resp.result_json = std::move(result);
        break;
      }
    }
    if (capture && resp.ok) {
      append_json_member(resp.result_json, "trace", capture->summary_json());
    }
  } catch (const WireParseError& e) {
    resp = make_wire_error(request.id_json, to_string(request.verb), e.code(),
                           e.what());
  } catch (const std::invalid_argument& e) {
    resp = make_wire_error(request.id_json, to_string(request.verb),
                           "bad_request", e.what());
  } catch (const std::exception& e) {
    resp = make_wire_error(request.id_json, to_string(request.verb),
                           "internal", e.what());
  }
  if (!resp.ok) errors_total_.fetch_add(1, std::memory_order_relaxed);

  record.ok = resp.ok;
  record.error_code = resp.error_code;
  record.solve_us = exec_timer.elapsed_ms() * 1000.0;
  record.unix_ms = unix_millis_now();
  note_request(record, queue_us);
  std::vector<TraceEvent> spans;
  std::uint64_t dropped_spans = 0;
  if (capture) {
    spans = capture->events();
    dropped_spans = capture->dropped();
  }
  logger_.log(record);
  flight_.record(std::move(record), std::move(spans), dropped_spans);
  return resp;
}

void ReliabilityService::handle_line(std::string_view line,
                                     std::function<void(WireResponse)> done,
                                     const RequestHooks& hooks) {
  WireRequest request;
  try {
    request = parse_wire_request(line);
  } catch (const WireParseError& e) {
    errors_total_.fetch_add(1, std::memory_order_relaxed);
    // Protocol rejects never reach execute_impl, but they are still
    // requests the operator wants on dashboards and in the flight
    // recorder (a client suddenly speaking garbage is an incident).
    RequestRecord record;
    record.seq = request_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    record.id_json = e.id_json() == "null" ? std::string() : e.id_json();
    record.verb = e.verb().empty() ? "?" : e.verb();
    record.lane.assign(to_string(WireLane::kInteractive));
    record.ok = false;
    record.error_code = e.code();
    record.unix_ms = unix_millis_now();
    // The verb label must stay bounded: a client-supplied verb string
    // would mint a fresh series per typo. The log/flight record keeps
    // the raw verb for debugging; the metric gets the catch-all.
    RequestRecord metric_view = record;
    metric_view.verb = "?";
    note_request(metric_view, -1.0);
    logger_.log(record);
    flight_.record(record);
    done(make_wire_error(e.id_json(), e.verb(), e.code(), e.what()));
    return;
  }

  const bool compute = request.verb == WireVerb::kSolve ||
                       request.verb == WireVerb::kBatch ||
                       request.verb == WireVerb::kReplay;
  if (!compute || !scheduler_) {
    done(execute(request, hooks));
    return;
  }

  // Effective admission deadline: the request budget tightened by the
  // lane budget. The scheduler sorts by it; we shed up front when the
  // estimated queue wait alone would blow it, and again at pick-up time
  // when the wait actually did.
  double effective_ms = request.deadline_ms;
  const double budget = lane_budget_ms(request.lane);
  if (budget > 0.0 && (effective_ms <= 0.0 || budget < effective_ms)) {
    effective_ms = budget;
  }
  const double estimate_ms = scheduler_->estimate_queue_ms(request.lane);
  const bool shed_hint = effective_ms > 0.0 && estimate_ms > effective_ms;
  metrics_
      .gauge("streamrel_queue_estimate_ms",
             "EWMA-based expected queue wait for new work",
             MetricLabels{{"lane", std::string(to_string(request.lane))}})
      .set(estimate_ms);

  using Clock = std::chrono::steady_clock;
  const bool has_deadline = effective_ms > 0.0;
  const Clock::time_point admitted = Clock::now();
  const Clock::duration budget_dur =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(
              has_deadline ? effective_ms : 0.0));

  // std::function requires copyable callables: share the request and
  // completion across the copies.
  auto shared_request = std::make_shared<WireRequest>(std::move(request));
  auto shared_done =
      std::make_shared<std::function<void(WireResponse)>>(std::move(done));
  auto shared_hooks = std::make_shared<RequestHooks>(hooks);
  const bool admitted_ok = scheduler_->submit(
      shared_request->lane, effective_ms,
      [this, shared_request, shared_done, shared_hooks, shed_hint,
       has_deadline, admitted, budget_dur, estimate_ms, effective_ms] {
        const Clock::time_point picked_up = Clock::now();
        const bool expired_in_queue =
            has_deadline && picked_up >= admitted + budget_dur;
        const double queue_ms =
            std::chrono::duration<double, std::milli>(picked_up - admitted)
                .count();
        const MetricLabels lane_labels{
            {"lane", std::string(to_string(shared_request->lane))}};
        // Queue-time EWMA vs. actual: the estimator's absolute error,
        // the signal that tells an operator whether shedding decisions
        // are being made on good predictions.
        metrics_
            .histogram("streamrel_queue_estimate_error_ms",
                       "Absolute error of the queue-wait estimate at admission",
                       default_latency_buckets_ms(), lane_labels)
            .observe(std::abs(queue_ms - estimate_ms));
        if (has_deadline) {
          metrics_
              .histogram(
                  "streamrel_deadline_margin_ms",
                  "Effective deadline remaining when a worker picked the job "
                  "up (zero = shed in queue)",
                  default_latency_buckets_ms(), lane_labels)
              .observe(std::max(0.0, effective_ms - queue_ms));
        }
        (*shared_done)(execute_impl(*shared_request, *shared_hooks,
                                    shed_hint || expired_in_queue,
                                    queue_ms * 1000.0));
      });
  if (!admitted_ok) {
    errors_total_.fetch_add(1, std::memory_order_relaxed);
    shed_total_.fetch_add(1, std::memory_order_relaxed);
    lane_shed(shared_request->lane)
        .fetch_add(1, std::memory_order_relaxed);
    // Refused before admission: execute_impl never runs, so record the
    // outcome here — overload is exactly the signal the metrics exist
    // to make visible.
    RequestRecord record;
    record.seq = request_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    record.id_json = shared_request->id_json;
    record.tenant = shared_request->tenant;
    record.network_id = shared_request->network_id;
    record.verb.assign(to_string(shared_request->verb));
    record.lane.assign(to_string(shared_request->lane));
    record.ok = false;
    record.shed = true;
    record.error_code = "overloaded";
    record.unix_ms = unix_millis_now();
    note_request(record, -1.0);
    logger_.log(record);
    flight_.record(record);
    (*shared_done)(make_wire_error(
        shared_request->id_json, to_string(shared_request->verb), "overloaded",
        "lane '" + std::string(to_string(shared_request->lane)) +
            "' queue is full"));
  }
}

}  // namespace streamrel
