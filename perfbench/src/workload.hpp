#pragma once
// Workload definitions of the serving benchmark: the tenants' overlays
// and the request stream, all derived from one seed. The daemon only ever
// sees the wire lines rendered here; the benchmark keeps its own copy of
// every network (parsed back from the registered text) and of every
// delta it sent, so answers can be recomputed in-process.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "streamrel/streamrel.hpp"
#include "streamrel/util/prng.hpp"

namespace perfbench {

enum class RequestKind { kSolve, kBatch, kDelta };

/// The knobs that make one traffic mix. See perfbench/README.md for why
/// each workload exists.
struct WorkloadSpec {
  std::string name;
  int tenants = 4;
  int links_s = 8;          ///< links inside the source cluster
  int links_t = 8;          ///< links inside the sink cluster
  int bottleneck_links = 2;
  bool mixed_demand = false;  ///< half the tenants at d=3, the rest d=2
  double bulk_share = 0.0;    ///< share of requests sent on the bulk lane
  int batch_queries = 0;      ///< > 0: bulk requests are batches of this size
  double delta_share = 0.0;   ///< share of requests that are apply_delta
  double scrape_every_ms = 0.0;  ///< > 0: one `metrics` scrape per period
  bool durable = false;          ///< --state-dir + --no-state-fsync
  int closed_inflight = 4;       ///< saturation: requests kept per connection
};

/// Throws std::invalid_argument on an unknown name.
WorkloadSpec workload_spec(std::string_view name);

struct Tenant {
  std::string name;
  std::string network_text;  ///< exactly what register_network carries
  streamrel::FlowNetwork base;  ///< parsed back from network_text
  streamrel::FlowDemand demand;
  int original_edges = 0;
  std::vector<streamrel::EdgeId> cluster_edges;  ///< capacity-edit targets
  std::vector<streamrel::Capacity> cluster_caps;  ///< registered values
  // Generator state for churn: current cluster capacities and the
  // parallel link added by a topology edit, if one is live.
  std::vector<streamrel::Capacity> live_caps;
  streamrel::EdgeId parallel_link = streamrel::kInvalidEdge;
  /// Topology edits go round the cluster links from a seed-chosen start.
  std::size_t next_parallel = 0;
  std::vector<int> edit_deck;  ///< edit kinds left in the current cycle
  /// Every delta drawn for this tenant, in draw order. The benchmark
  /// records which of them it sent, in send order (= apply order: one
  /// tenant's deltas all travel on one connection, applied inline).
  std::vector<streamrel::NetworkDelta> deltas;
};

std::vector<Tenant> make_tenants(const WorkloadSpec& spec, std::uint64_t seed);

/// One generated request. `overrides` is kept for the in-process oracle.
struct Request {
  RequestKind kind = RequestKind::kSolve;
  bool bulk = false;
  std::vector<streamrel::ProbOverride> overrides;
  std::string line;  ///< the wire line, no trailing newline
};

/// Deadline every compute request carries: a generous client timeout, so
/// the daemon never sheds at the offered loads used here.
inline constexpr double kRequestDeadlineMs = 1000.0;

/// Draws the next request for `tenant` (its kind from the workload's
/// shares). Churn edits update the tenant's generator state and history.
Request next_request(const WorkloadSpec& spec, Tenant& tenant,
                     streamrel::Xoshiro256& rng, std::uint64_t id, bool traced);

std::string register_line(const Tenant& tenant, std::uint64_t id);
/// A solve with no overrides: the cold solve of set-up, and the probe
/// the restart leg compares across the reboot.
std::string plain_solve_line(const Tenant& tenant, std::uint64_t id);
std::string control_line(streamrel::WireVerb verb, std::uint64_t id);

}  // namespace perfbench
