#pragma once
// ReliabilityService — the verb layer of the daemon: parses wire
// requests, routes them to TenantSessions through the two-lane
// scheduler, and renders wire responses. Transport-agnostic: the TCP
// server, the --stdio mode and the in-process tests all drive the same
// handle_line()/execute() pair.
//
// Shedding semantics (the no-throw SolveStatus contract on the wire):
// when a compute verb's effective deadline (request "deadline_ms"
// tightened by the lane budget) is already blown by the estimated queue
// wait — or has expired by the time a worker picks the job up — the
// solve runs with a zero deadline, so the machinery returns a
// kDeadlineExpired result with reliability bounds attached. The client
// sees "ok": true with "status": "deadline_expired", "bounds" and
// "shed": true — never a disconnect, never a throw. "ok": false is
// reserved for protocol/usage errors (parse_error, bad_request,
// unsupported_version, unknown_verb, unknown_network, overloaded,
// internal); "overloaded" appears only when a lane queue is FULL and
// the job cannot even be admitted.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "streamrel/api/wire.hpp"
#include "streamrel/obs/flight_recorder.hpp"
#include "streamrel/obs/metrics.hpp"
#include "streamrel/obs/request_log.hpp"
#include "streamrel/server/scheduler.hpp"
#include "streamrel/server/session_registry.hpp"

namespace streamrel {

struct ServiceOptions {
  QueryCacheOptions default_cache;
  /// Global memory cap: total mask-table entries across all sessions.
  std::size_t global_mask_tables = 256;
  /// Lane deadline budgets (0 = none): every request on the lane runs
  /// under min(request deadline, lane budget).
  double interactive_budget_ms = 0.0;
  double bulk_budget_ms = 0.0;
  SchedulerOptions scheduler;
  /// Start the worker pool. Off for in-process clients (the CLI executes
  /// verbs inline); the daemon turns it on.
  bool start_workers = false;
  /// Flight-recorder ring size (last N finished requests, always on;
  /// clamped to >= 1).
  std::size_t flight_capacity = FlightRecorder::kDefaultCapacity;
  /// Structured JSON request log: one line per finished request
  /// (--log-json in the daemon). Null disables with a single branch.
  std::ostream* request_log = nullptr;
  /// Durable session state root (--state-dir). Empty = in-memory only.
  /// When set, the constructor restores every loadable store (corrupt
  /// ones cold-start with a warning in boot_restore()), registrations
  /// and the shutdown verb checkpoint, and apply_delta journals.
  std::string state_dir;
  /// WAL records per session before an inline compaction checkpoint.
  std::size_t wal_compact_threshold = 64;
  /// fsync snapshots and fdatasync journal appends. Off trades crash
  /// durability for latency (tests/benches).
  bool state_fsync = true;
};

/// Per-request sinks, so concurrent tenants never interleave output:
/// progress goes to the request's own reporter (or nowhere), and trace
/// spans are captured per request when it asks for them.
struct RequestHooks {
  std::shared_ptr<ProgressReporter> progress;
};

class ReliabilityService {
 public:
  explicit ReliabilityService(const ServiceOptions& options = {});
  ~ReliabilityService();
  ReliabilityService(const ReliabilityService&) = delete;
  ReliabilityService& operator=(const ReliabilityService&) = delete;

  /// Executes one parsed request synchronously on the calling thread.
  WireResponse execute(const WireRequest& request,
                       const RequestHooks& hooks = {}) {
    return execute_impl(request, hooks, /*force_expired=*/false);
  }

  /// Parses and routes one request line. Control verbs run inline;
  /// compute verbs (solve/batch/replay) go through the scheduler when
  /// workers are running. `done` is called exactly once — possibly on a
  /// worker thread, possibly before this returns.
  void handle_line(std::string_view line,
                   std::function<void(WireResponse)> done,
                   const RequestHooks& hooks = {});

  /// Waits for all scheduled work to finish.
  void drain();

  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// The stats verb's payload (also the daemon's periodic metrics line).
  std::string stats_json() const;

  /// Prometheus text-format exposition of every registered series; the
  /// `metrics` verb's text, the TCP transport's `GET /metrics` body and
  /// the daemon's --metrics-out payload. Refreshes the scrape-time
  /// gauges (scheduler lanes, session caches) first; never blocks
  /// request recording (snapshot-on-scrape under a shared lock).
  std::string metrics_text();

  /// The live registry, for instrumentation by embedders and tests.
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const FlightRecorder& flight_recorder() const noexcept { return flight_; }

  std::uint64_t shed_count() const noexcept {
    return shed_total_.load(std::memory_order_relaxed);
  }

  /// What the constructor's restore-on-boot pass found under state_dir
  /// (empty report when persistence is off). The daemon logs the
  /// warnings; corrupt stores cold-start, they never crash the boot.
  const BootRestoreReport& boot_restore() const noexcept {
    return boot_restore_;
  }

  /// Builds the structured `overloaded` rejection for a request line
  /// refused by connection-level backpressure (transport in-flight cap),
  /// counting it per lane (streamrel_backpressure_rejects_total). The
  /// line is parsed only to echo its id/verb/lane; a line that does not
  /// even parse gets its parse error instead.
  WireResponse reject_overloaded(std::string_view line);

  /// Builds the structured `payload_too_large` rejection for a request
  /// line longer than kMaxWireLineBytes, counting it like any other
  /// error response. The line itself is never parsed (nor kept), so the
  /// response echoes no id.
  WireResponse reject_payload_too_large();

 private:
  WireResponse execute_impl(const WireRequest& request,
                            const RequestHooks& hooks, bool force_expired,
                            double queue_us = -1.0);
  WireResponse do_register(const WireRequest& request);
  WireResponse do_solve(const WireRequest& request, const RequestHooks& hooks,
                        bool force_expired, RequestRecord* record);
  WireResponse do_batch(const WireRequest& request, const RequestHooks& hooks,
                        bool force_expired);
  WireResponse do_replay(const WireRequest& request, const RequestHooks& hooks,
                         bool force_expired);
  WireResponse do_apply_delta(const WireRequest& request);
  WireResponse do_metrics(const WireRequest& request);
  WireResponse do_dump(const WireRequest& request);
  WireResponse do_persist(const WireRequest& request);
  WireResponse do_restore(const WireRequest& request);
  std::shared_ptr<TenantSession> find_session(const WireRequest& request,
                                              WireResponse* error) const;
  double lane_budget_ms(WireLane lane) const noexcept;

  /// Folds one solve's telemetry counters into engine-labeled series
  /// (the telemetry -> metrics bridge: no double bookkeeping in the
  /// engines themselves).
  void bridge_solve_telemetry(std::string_view engine,
                              const Telemetry& telemetry);
  /// Counter/histogram updates for one finished request.
  void note_request(const RequestRecord& record, double queue_us);
  /// Sets the scrape-time gauges (lanes, sessions, caches) from the
  /// scheduler and registry snapshots.
  void refresh_scrape_gauges();
  std::atomic<std::uint64_t>& lane_shed(WireLane lane) noexcept {
    return shed_lane_[static_cast<int>(lane)];
  }

  ServiceOptions options_;
  SessionRegistry registry_;
  BootRestoreReport boot_restore_;
  std::unique_ptr<RequestScheduler> scheduler_;  ///< null without workers
  MetricsRegistry metrics_;
  FlightRecorder flight_;
  RequestLogger logger_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> errors_total_{0};
  std::atomic<std::uint64_t> shed_total_{0};
  std::atomic<std::uint64_t> shed_lane_[2] = {};
  std::atomic<std::uint64_t> request_seq_{0};
};

}  // namespace streamrel
