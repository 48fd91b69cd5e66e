#pragma once
// Churn replay — R(t) of an overlay under a timestamped event stream.
//
// Where availability_sim.hpp plays random link renewals forward and
// MEASURES delivery, replay evaluates the exact snapshot reliability of
// the paper's model after every recorded edit: feed it the network at
// t=0 plus an EventStream and it returns the reliability series R(t)
// with per-event attribution (which event moved R, and by how much).
//
// The warm path drives a QuerySession: every event becomes a
// NetworkDelta through QuerySession::apply_delta, so probability events
// re-accumulate over cached side arrays, capacity events invalidate
// cut-scoped (side arrays become repair seeds), and only topology events pay
// a full recompile. The cold path (use_session = false) rebuilds and
// re-solves from scratch after every event — the baseline the E28 bench
// compares against. Both paths produce BITWISE-identical series; warm
// is purely a caching strategy.

#include <cstdint>
#include <string>
#include <vector>

#include "streamrel/core/query_session.hpp"
#include "streamrel/sim/event_stream.hpp"

namespace streamrel {

struct ReplayOptions {
  /// Solve configuration used for every evaluation (method, budgets...).
  SolveOptions solve{};
  /// Cache configuration of the warm path's QuerySession.
  QueryCacheOptions cache{};
  /// false = cold baseline: fresh compute_reliability per event, no
  /// session, no artifact reuse.
  bool use_session = true;
};

/// One evaluated event: what it did to the network, the caches and R.
struct ReplayEventOutcome {
  double time = 0.0;
  std::string label;
  DeltaClass applied = DeltaClass::kProbabilityOnly;
  double reliability = 0.0;  ///< R after this event
  double delta_r = 0.0;      ///< reliability - previous reliability
  /// Cache outcome of the event's invalidation (see DeltaOutcome); all
  /// zero on the cold path.
  std::uint64_t entries_full = 0;
  std::uint64_t entries_partial = 0;
  std::uint64_t entries_survived = 0;
  /// Fraction of cached mask entries that survived this event, counting
  /// an entry kept as repair seeds as half: (survived + partial/2) /
  /// touched entries.
  /// 1.0 when the cache held nothing to lose.
  double survival = 1.0;
};

struct ReplayReport {
  double initial_reliability = 0.0;  ///< R before any event
  std::vector<ReplayEventOutcome> series;  ///< R(t), one entry per event
  double final_reliability = 0.0;
  /// Index into `series` of the most damaging event (most negative
  /// delta_r); -1 when no event lowered R.
  int worst_event = -1;
  /// Mean per-event survival over events that found a warm cache —
  /// the artifact reuse rate of the whole replay. 0 on the cold path.
  double artifact_survival_rate = 0.0;
  /// Session telemetry (warm path): cache counters, per-query solve
  /// telemetry, invalidation split.
  Telemetry telemetry;
};

/// Replays `events` (already ordered; call sort_event_stream first if
/// not) against `net`, evaluating reliability for `demand` before the
/// first event and after every event. Demand endpoints are translated
/// through topology events' node maps; an event that removes an
/// endpoint throws std::invalid_argument naming the event. Event ids
/// follow the EventStream contract (each delta targets the state its
/// predecessors produced).
ReplayReport replay_churn(const FlowNetwork& net, const FlowDemand& demand,
                          const EventStream& events,
                          const ReplayOptions& options = {});

}  // namespace streamrel
