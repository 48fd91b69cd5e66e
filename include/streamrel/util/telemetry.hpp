#pragma once
// Structured telemetry tree: named counters and timers, nestable into
// children, mergeable across OpenMP shards. Every engine reports its work
// through one of these instead of ad-hoc result fields, so the facade can
// compare engines on equal footing and the CLI can emit the whole tree as
// JSON.
//
// Determinism contract: counters depend only on the instance and the
// options, never on thread count or scheduling (shard geometry is fixed,
// shard-local counters are merged in shard order). Timers measure wall
// clock and are exempt.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace streamrel {

/// Canonical counter names shared by the engines. Using the constants
/// (rather than string literals at each site) keeps the per-engine trees
/// comparable.
namespace telemetry_keys {
inline constexpr std::string_view kConfigurations = "configurations";
inline constexpr std::string_view kMaxflowCalls = "maxflow_calls";
inline constexpr std::string_view kEngineToggles = "engine_toggles";
inline constexpr std::string_view kStatesVisited = "states_visited";
inline constexpr std::string_view kSamples = "samples";
inline constexpr std::string_view kCandidates = "candidates";
inline constexpr std::string_view kLinksReduced = "links_reduced";
inline constexpr std::string_view kAssignments = "assignments";
// Bit-parallel side-array sweep (SideSweepStrategy::kBitParallel):
// per-lane feasibility decisions made by word-wide kernels vs the scalar
// residue that still consulted an incremental engine. The kLanes*
// breakdown partitions kLanesWordwise by kernel.
inline constexpr std::string_view kLanesWordwise = "lanes_decided_wordwise";
inline constexpr std::string_view kLanesCertificate = "lanes_certificate";
inline constexpr std::string_view kLanesConnectivity = "lanes_connectivity";
inline constexpr std::string_view kLanesPopcount = "lanes_popcount";
inline constexpr std::string_view kScalarResidue = "scalar_residue";
// Seeded (capacity-edit repair) sweeps: per-lane decisions taken from the
// pre-edit array without running a kernel.
inline constexpr std::string_view kLanesSeed = "lanes_decided_by_seed";
// QuerySession / BatchEvaluator serving-layer counters.
inline constexpr std::string_view kQueries = "queries";
inline constexpr std::string_view kFallbackSolves = "fallback_solves";
inline constexpr std::string_view kCacheHits = "cache_hits";
inline constexpr std::string_view kCacheMisses = "cache_misses";
inline constexpr std::string_view kCacheEvictions = "cache_evictions";
inline constexpr std::string_view kCacheInvalidations = "cache_invalidations";
// Cut-scoped invalidation outcome, counted per cached decomposition
// entry at each invalidation event: dropped outright / dropped with its
// side arrays kept as repair seeds / kept valid.
inline constexpr std::string_view kCacheInvalidationsFull =
    "cache_invalidations_full";
inline constexpr std::string_view kCacheInvalidationsPartial =
    "cache_invalidations_partial";
inline constexpr std::string_view kCacheSurvived = "cache_survived";
// Side arrays adopted verbatim from a repair seed whose capacities did
// not change, instead of re-swept on rebuild.
inline constexpr std::string_view kSideRepairs = "side_repairs";
}  // namespace telemetry_keys

/// Mergeable latency histogram with geometric buckets (quarter-powers of
/// two over microseconds) plus exact count/sum/min/max. Percentiles use
/// the nearest-rank rule and return the lower bound of the bucket the
/// ranked sample landed in — fully deterministic, and merging is
/// associative and commutative (bucket counts just add), so shard-local
/// histograms can be combined in any grouping with identical results.
class LatencyHistogram {
 public:
  /// Bucket 0 holds non-positive (and non-finite) samples; bucket i >= 1
  /// covers [2^((i-1)/4), 2^(i/4)) microseconds.
  static constexpr std::size_t kBuckets = 256;

  static std::size_t bucket_index(double ms) noexcept;
  /// The value percentile_ms reports for a sample in this bucket (its
  /// lower bound, in ms; 0 for bucket 0).
  static double bucket_value_ms(std::size_t index) noexcept;

  void record_ms(double ms) noexcept;
  void merge(const LatencyHistogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum_ms() const noexcept { return sum_ms_; }
  double min_ms() const noexcept { return count_ ? min_ms_ : 0.0; }
  double max_ms() const noexcept { return count_ ? max_ms_ : 0.0; }

  /// Nearest-rank percentile, `p` in [0, 100]; 0 on an empty histogram.
  double percentile_ms(double p) const noexcept;

  bool operator==(const LatencyHistogram& other) const noexcept {
    return buckets_ == other.buckets_ && count_ == other.count_;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ms_ = 0.0;
  double min_ms_ = 0.0;
  double max_ms_ = 0.0;
};

class Telemetry {
 public:
  using Counter = std::uint64_t;
  using CounterMap = std::map<std::string, Counter, std::less<>>;
  using TimerMap = std::map<std::string, double, std::less<>>;
  using HistogramMap = std::map<std::string, LatencyHistogram, std::less<>>;
  using ChildMap = std::map<std::string, Telemetry, std::less<>>;

  /// Mutable reference to a counter, created at 0 on first use.
  Counter& counter(std::string_view name);
  /// Read-only lookup; `fallback` when the counter was never touched.
  Counter counter_or(std::string_view name, Counter fallback = 0) const;
  void add(std::string_view name, Counter delta) { counter(name) += delta; }

  /// Mutable reference to a wall-clock timer in milliseconds.
  double& timer_ms(std::string_view name);
  double timer_ms_or(std::string_view name, double fallback = 0.0) const;

  /// Mutable latency histogram, created empty on first use. Histograms
  /// render in JSON as "<name>_hist" objects with count and p50/p95/p99.
  LatencyHistogram& histogram(std::string_view name);
  /// nullptr when absent.
  const LatencyHistogram* find_histogram(std::string_view name) const;

  /// Mutable child subtree, created empty on first use.
  Telemetry& child(std::string_view name);
  /// nullptr when absent.
  const Telemetry* find_child(std::string_view name) const;

  /// Element-wise sum: counters and timers add, histograms combine,
  /// children merge recursively. The SEQUENTIAL aggregation primitive
  /// (per-query trees merged in query order, nested phases of one
  /// thread).
  void merge(const Telemetry& other);

  /// Aggregation across trees recorded CONCURRENTLY (OpenMP shards,
  /// parallel batch queries): counters still add and histograms still
  /// combine, but timers take the MAX — concurrent wall-clock intervals
  /// overlap, so summing them would overstate elapsed time. Sites that
  /// also want the summed CPU view record an explicit "*_cpu" timer
  /// before merging (see build_side_array).
  void merge_parallel(const Telemetry& other);

  bool empty() const noexcept {
    return counters_.empty() && timers_.empty() && histograms_.empty() &&
           children_.empty();
  }

  const CounterMap& counters() const noexcept { return counters_; }
  const TimerMap& timers_ms() const noexcept { return timers_; }
  const HistogramMap& histograms() const noexcept { return histograms_; }
  const ChildMap& children() const noexcept { return children_; }

  /// Recursive equality over counters only (timers are wall-clock and
  /// excluded) — the determinism predicate the tests assert.
  bool counters_equal(const Telemetry& other) const;

  /// Deterministic JSON rendering (std::map iteration order). Timers are
  /// emitted with a "_ms" suffix (non-finite values as null), histograms
  /// as "_hist" objects; children nest as objects. Keys are escaped per
  /// RFC 8259, so the output always parses with util/json.
  std::string to_json() const;

 private:
  void append_json(std::string& out) const;

  CounterMap counters_;
  TimerMap timers_;
  HistogramMap histograms_;
  ChildMap children_;
};

/// RAII wall-clock timer: adds the elapsed milliseconds to
/// `telemetry.timer_ms(name)` on destruction.
class ScopedTimer {
 public:
  ScopedTimer(Telemetry& telemetry, std::string_view name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* slot_;
  std::uint64_t start_ns_;
};

}  // namespace streamrel
