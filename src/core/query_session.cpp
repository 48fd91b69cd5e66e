#include "streamrel/core/query_session.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "streamrel/reliability/bounds.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

namespace {

bool same_search_options(const PartitionSearchOptions& a,
                         const PartitionSearchOptions& b) {
  return a.max_k == b.max_k && a.max_side_edges == b.max_side_edges &&
         a.enumeration.max_size == b.enumeration.max_size &&
         a.enumeration.max_subsets_examined ==
             b.enumeration.max_subsets_examined &&
         a.enumeration.max_results == b.enumeration.max_results;
}

/// Applies the overrides to the network for the duration of one facade
/// fallback (or bounds) call, restoring the original probabilities on
/// every exit path.
class OverrideGuard {
 public:
  OverrideGuard(FlowNetwork& net, std::span<const ProbOverride> overrides)
      : net_(net) {
    saved_.reserve(overrides.size());
    for (const ProbOverride& o : overrides) {
      if (!net_.valid_edge(o.edge)) {
        throw std::invalid_argument("override edge out of range");
      }
      saved_.emplace_back(o.edge, net_.edge(o.edge).failure_prob);
      net_.set_failure_prob(o.edge, o.failure_prob);
    }
  }
  ~OverrideGuard() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      net_.set_failure_prob(it->first, it->second);
    }
  }
  OverrideGuard(const OverrideGuard&) = delete;
  OverrideGuard& operator=(const OverrideGuard&) = delete;

 private:
  FlowNetwork& net_;
  std::vector<std::pair<EdgeId, double>> saved_;
};

}  // namespace

QuerySession::QuerySession(FlowNetwork net, QueryCacheOptions cache)
    : net_(std::move(net)), cache_options_(cache) {}

QuerySession::QuerySession(FlowNetwork net,
                           std::shared_ptr<const CompiledNetwork> warm_snapshot,
                           QueryCacheOptions cache)
    : net_(std::move(net)),
      snapshot_(std::move(warm_snapshot)),
      cache_options_(cache) {
  if (snapshot_ && (snapshot_->num_nodes() != net_.num_nodes() ||
                    snapshot_->num_edges() != net_.num_edges())) {
    throw std::invalid_argument(
        "warm snapshot disagrees with network on shape");
  }
}

void QuerySession::set_failure_prob(EdgeId id, double p) {
  net_.set_failure_prob(id, p);  // masks are probability-independent:
                                 // every cache layer survives
  if (snapshot_) {
    // Overlay the new probability on the pinned snapshot: the structure
    // id is preserved, so cached artifacts keep matching it.
    snapshot_ = snapshot_->with_failure_prob(id, p);
  }
}

void QuerySession::set_capacity(EdgeId id, Capacity c) {
  NetworkDelta delta;
  delta.set_capacity(id, c);
  apply_delta(delta);
}

EdgeId QuerySession::add_edge(NodeId u, NodeId v, Capacity capacity,
                              double failure_prob, EdgeKind kind) {
  NetworkDelta delta;
  delta.add_edge(u, v, capacity, failure_prob, kind);
  apply_delta(delta);
  return static_cast<EdgeId>(net_.num_edges() - 1);
}

void QuerySession::invalidate(DeltaClass scope) {
  if (scope == DeltaClass::kProbabilityOnly && snapshot_ &&
      static_cast<std::size_t>(net_.num_edges()) ==
          snapshot_->failure_probs().size()) {
    // The alias fast path: masks, assignment sets and partitions are all
    // probability-independent, so every structural artifact survives. The
    // pinned snapshot re-syncs its probability columns in place — the
    // structure id is preserved, so cached entries keep matching it.
    const std::vector<double> probs = net_.failure_probs();
    snapshot_ = snapshot_->with_failure_probs(probs);
    telemetry_.child("cache").counter(telemetry_keys::kCacheSurvived) +=
        lru_.size();
    return;
  }
  if (scope == DeltaClass::kProbabilityOnly && !snapshot_) {
    return;  // nothing pinned, nothing cached: nothing to do
  }
  // Capacity/topology scope (or an alias edit that changed the edge
  // count): the touched-edge set is unknown, so scoped invalidation is
  // impossible — flush everything.
  bump_epoch();
}

void QuerySession::bump_epoch() {
  Telemetry& cache = telemetry_.child("cache");
  cache.counter(telemetry_keys::kCacheInvalidations) += 1;
  cache.counter(telemetry_keys::kCacheInvalidationsFull) += lru_.size();
  snapshot_.reset();  // the next query mints a fresh structure identity
  partitions_.clear();
  assignments_.clear();
  lru_.clear();
  mask_index_.clear();
  failed_.clear();
  seeds_.clear();
  pending_hint_.reset();
}

DeltaOutcome QuerySession::apply_delta(const NetworkDelta& delta) {
  TraceSpan span("session_delta", "cache");
  DeltaOutcome out;
  out.applied = delta.classify();
  span.arg("class", to_string(out.applied));

  if (out.applied == DeltaClass::kTopology) {
    // Validates the whole batch before any mutation; the old shape is
    // dead, so every structural layer flushes (bump_epoch counts the
    // dropped entries as full invalidations).
    DeltaApplication app = apply_delta_in_place(net_, delta);
    out.node_map = std::move(app.node_map);
    out.edge_map = std::move(app.edge_map);
    out.entries_full = lru_.size();
    bump_epoch();
    return out;
  }

  // Probability / capacity deltas keep every id. Validate the batch up
  // front so a bad edit leaves network and caches untouched.
  for (const NetworkDelta::ProbEdit& e : delta.prob_edits) {
    if (!net_.valid_edge(e.edge)) {
      throw std::invalid_argument("delta: probability edit names a bad edge");
    }
    if (!(e.failure_prob >= 0.0) || !(e.failure_prob < 1.0)) {
      throw std::invalid_argument("delta: failure probability not in [0,1)");
    }
  }
  for (const NetworkDelta::CapacityEdit& e : delta.capacity_edits) {
    if (!net_.valid_edge(e.edge)) {
      throw std::invalid_argument("delta: capacity edit names a bad edge");
    }
    if (e.capacity < 0) {
      throw std::invalid_argument("delta: negative capacity");
    }
  }

  const std::uint64_t parent_structure =
      snapshot_ ? snapshot_->structure_id() : 0;

  // Patch the pinned snapshot: probability deltas share the whole
  // Structure (same id), capacity deltas share the Topology block and
  // mint a successor id journaled against the parent.
  std::vector<EdgeId> touched;
  if (snapshot_) {
    CompiledDelta patched = snapshot_->apply_delta(delta);
    snapshot_ = std::move(patched.snapshot);
    touched = std::move(patched.touched_edges);
  } else {
    for (const NetworkDelta::CapacityEdit& e : delta.capacity_edits) {
      touched.push_back(e.edge);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  }
  for (const NetworkDelta::ProbEdit& e : delta.prob_edits) {
    net_.set_failure_prob(e.edge, e.failure_prob);
  }
  for (const NetworkDelta::CapacityEdit& e : delta.capacity_edits) {
    net_.set_capacity(e.edge, e.capacity);
  }

  out.node_map.resize(static_cast<std::size_t>(net_.num_nodes()));
  for (NodeId n = 0; n < net_.num_nodes(); ++n) {
    out.node_map[static_cast<std::size_t>(n)] = n;
  }
  out.edge_map.resize(static_cast<std::size_t>(net_.num_edges()));
  for (EdgeId e = 0; e < net_.num_edges(); ++e) {
    out.edge_map[static_cast<std::size_t>(e)] = e;
  }

  Telemetry& cache = telemetry_.child("cache");
  if (out.applied == DeltaClass::kProbabilityOnly) {
    // Every structural artifact survives; only accumulations change.
    out.entries_survived = lru_.size();
    out.partitions_survived = partitions_.size();
    out.assignments_survived = assignments_.size();
    cache.counter(telemetry_keys::kCacheSurvived) += lru_.size();
    DeltaSolveHint hint;
    hint.parent_structure_id = parent_structure;
    hint.delta_class = DeltaClass::kProbabilityOnly;
    for (const NetworkDelta::ProbEdit& e : delta.prob_edits) {
      hint.touched_edges.push_back(e.edge);
    }
    pending_hint_ = std::move(hint);
    return out;
  }

  // Capacity-only: cut-scoped invalidation over the touched edges.
  cache.counter(telemetry_keys::kCacheInvalidations) += 1;
  invalidate_capacity_scoped(touched, out);
  cache.counter(telemetry_keys::kCacheInvalidationsFull) += out.entries_full;
  cache.counter(telemetry_keys::kCacheInvalidationsPartial) +=
      out.entries_partial;
  cache.counter(telemetry_keys::kCacheSurvived) += out.entries_survived;
  // Structural failures (assignment blow-ups) depend on crossing
  // capacities; re-decide them against the new structure.
  failed_.clear();
  DeltaSolveHint hint;
  hint.parent_structure_id = parent_structure;
  hint.delta_class = DeltaClass::kCapacityOnly;
  hint.touched_edges = std::move(touched);
  pending_hint_ = std::move(hint);
  span.arg("full", out.entries_full)
      .arg("partial", out.entries_partial)
      .arg("survived", out.entries_survived);
  return out;
}

void QuerySession::invalidate_capacity_scoped(std::span<const EdgeId> touched,
                                              DeltaOutcome& out) {
  // A seed stays valid across edits inside its sides (the rebuild diffs
  // its capacities against the edited sides) and dies when the touched
  // set reaches its partition's crossing (the assignment set it was
  // swept against changes).
  const auto crosses = [&](const std::vector<EdgeId>& crossing) {
    for (const EdgeId e : touched) {
      if (std::find(crossing.begin(), crossing.end(), e) != crossing.end()) {
        return true;
      }
    }
    return false;
  };
  for (auto it = seeds_.begin(); it != seeds_.end();) {
    it = crosses(it->second.crossing_edges) ? seeds_.erase(it) : std::next(it);
  }

  // Classify every cached entry by where the touched edges fall. Every
  // edge lies in exactly one of side_s / side_t / crossing for any
  // partition, so the entry's own views decide. (Entries built while the
  // side views were empty — zero-assignment decompositions — classify
  // every touch as crossing and drop, which is conservative but safe.)
  for (auto it = lru_.begin(); it != lru_.end();) {
    const ArtifactKey key = it->first;
    const ArtifactEntry& entry = *it->second;
    bool in_sides = false;
    bool in_crossing = false;
    const auto& to_s = entry.artifacts.side_s.view.edge_to_view();
    const auto& to_t = entry.artifacts.side_t.view.edge_to_view();
    for (const EdgeId e : touched) {
      const auto i = static_cast<std::size_t>(e);
      if ((i < to_s.size() && to_s[i] != kInvalidEdge) ||
          (i < to_t.size() && to_t[i] != kInvalidEdge)) {
        in_sides = true;
      } else {
        in_crossing = true;
      }
    }
    if (!in_sides && !in_crossing) {
      out.entries_survived += 1;  // empty touched set
      ++it;
      continue;
    }
    if (in_crossing) {
      // The cut itself was crossed: the assignment set (a function of
      // crossing capacities) is dead, and both side arrays were swept
      // against it. (The standalone sweep below catches assignment sets
      // whose mask entry is already gone; erasing here as well keeps the
      // conservative empty-side-view classification authoritative.)
      assignments_.erase(key);
      out.entries_full += 1;
    } else {
      // Touches confined to the sides: the assignment set is unchanged,
      // so both arrays seed the next rebuild. The key trades its entry
      // for a seed, so the cache budget still holds.
      const Telemetry& tel = entry.artifacts.telemetry;
      const auto side_tel = [&tel](std::string_view side) {
        const Telemetry* child = tel.find_child(side);
        return child ? *child : Telemetry{};
      };
      SeedEntry seed;
      seed.s = SideReuse{entry.artifacts.side_s, entry.artifacts.array_s,
                         side_tel("side_s")};
      seed.t = SideReuse{entry.artifacts.side_t, entry.artifacts.array_t,
                         side_tel("side_t")};
      seed.crossing_edges = entry.choice.partition.crossing_edges;
      seeds_.insert_or_assign(key, std::move(seed));
      out.entries_partial += 1;
    }
    mask_index_.erase(key);
    it = lru_.erase(it);
  }

  // Assignment sets outlive their mask entries (layer 2 survives layer-3
  // evictions), so they must be swept against the touched set on their
  // own: each key names a partition candidate, and its assignment set
  // dies when the touched edges reach that candidate's crossing. Without
  // this, a crossing-capacity edit arriving while the mask entry is
  // absent (evicted, or dropped by an earlier delta) would leave a stale
  // assignment set to be adopted by the next rebuild.
  for (auto it = assignments_.begin(); it != assignments_.end();) {
    const AssignmentKey& akey = it->first;
    const auto pit =
        partitions_.find({std::get<0>(akey), std::get<1>(akey)});
    const auto candidate = static_cast<std::size_t>(std::get<2>(akey));
    bool dead = true;  // no candidate to check against: drop, conservatively
    if (pit != partitions_.end() &&
        candidate < pit->second.candidates.size()) {
      const std::vector<EdgeId>& crossing =
          pit->second.candidates[candidate].partition.crossing_edges;
      dead = false;
      for (const EdgeId e : touched) {
        if (std::find(crossing.begin(), crossing.end(), e) !=
            crossing.end()) {
          dead = true;
          break;
        }
      }
    }
    it = dead ? assignments_.erase(it) : std::next(it);
  }

  // Partitions survive every capacity edit (candidate cuts are
  // capacity-independent); only their cached stats re-sum the new
  // crossing capacities, keeping reported stats identical to a cold
  // search on the edited network.
  for (auto& [pkey, pentry] : partitions_) {
    for (PartitionChoice& choice : pentry.candidates) {
      choice.stats =
          analyze_partition(net_, pkey.first, pkey.second, choice.partition);
    }
    out.partitions_survived += 1;
  }
  out.assignments_survived = assignments_.size();
}

Telemetry& QuerySession::layer_counters(std::string_view layer) {
  return telemetry_.child("cache").child(layer);
}

const std::shared_ptr<const CompiledNetwork>& QuerySession::snapshot() {
  if (!snapshot_) snapshot_ = net_.compile();
  return snapshot_;
}

std::uint64_t QuerySession::cache_hits() const {
  std::uint64_t total = 0;
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    for (const auto& [name, layer] : cache->children()) {
      total += layer.counter_or(telemetry_keys::kCacheHits);
    }
  }
  return total;
}

std::uint64_t QuerySession::cache_misses() const {
  std::uint64_t total = 0;
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    for (const auto& [name, layer] : cache->children()) {
      total += layer.counter_or(telemetry_keys::kCacheMisses);
    }
  }
  return total;
}

std::uint64_t QuerySession::cache_evictions() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    if (const Telemetry* masks = cache->find_child("masks")) {
      return masks->counter_or(telemetry_keys::kCacheEvictions);
    }
  }
  return 0;
}

std::uint64_t QuerySession::cache_invalidations() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    return cache->counter_or(telemetry_keys::kCacheInvalidations);
  }
  return 0;
}

std::uint64_t QuerySession::cache_invalidations_full() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    return cache->counter_or(telemetry_keys::kCacheInvalidationsFull);
  }
  return 0;
}

std::uint64_t QuerySession::cache_invalidations_partial() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    return cache->counter_or(telemetry_keys::kCacheInvalidationsPartial);
  }
  return 0;
}

std::uint64_t QuerySession::cache_survived() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    return cache->counter_or(telemetry_keys::kCacheSurvived);
  }
  return 0;
}

std::size_t QuerySession::cached_mask_bytes() const {
  std::size_t masks = 0;
  for (const auto& [key, entry] : lru_) {
    masks += entry->artifacts.array_s.size() + entry->artifacts.array_t.size();
  }
  for (const auto& [key, seed] : seeds_) {
    masks += seed.s.array.size() + seed.t.array.size();
  }
  return masks * sizeof(Mask);
}

void QuerySession::set_cache_budget(std::size_t max_mask_tables) {
  cache_options_.max_mask_tables = max_mask_tables;
  trim_to_budget();
}

void QuerySession::trim_to_budget() {
  const std::size_t budget =
      std::max<std::size_t>(cache_options_.max_mask_tables, 1);
  // A seed saves a rebuild only part of its sweeps, an entry all of
  // them, so seeds go first.
  while (lru_.size() + seeds_.size() > budget && !seeds_.empty()) {
    seeds_.erase(std::prev(seeds_.end()));
  }
  while (lru_.size() > budget) {
    layer_counters("masks").counter(telemetry_keys::kCacheEvictions) += 1;
    mask_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

bool QuerySession::cacheable(const FlowDemand& demand,
                             const SolveOptions& options) const {
  if (!cache_options_.enabled) return false;
  if (options.method != Method::kAuto &&
      options.method != Method::kBottleneck) {
    return false;
  }
  if (options.method == Method::kAuto && options.use_reductions &&
      demand.rate == 1) {
    // The facade runs the series/parallel reduction preprocessing for
    // undirected rate-1 demands, solving on a REWRITTEN network; those
    // queries are delegated wholesale so session answers stay bitwise
    // equal to facade answers.
    bool undirected = true;
    for (const Edge& e : net_.edges()) undirected &= !e.directed();
    if (undirected) return false;
  }
  return true;
}

const QuerySession::PartitionEntry& QuerySession::partition_candidates(
    const FlowDemand& demand, const SolveOptions& options,
    const ExecContext* ctx) {
  const PartitionKey key{demand.source, demand.sink};
  const auto it = partitions_.find(key);
  if (it != partitions_.end() &&
      same_search_options(it->second.options_used, options.partition_search)) {
    layer_counters("partitions").counter(telemetry_keys::kCacheHits) += 1;
    return it->second;
  }
  layer_counters("partitions").counter(telemetry_keys::kCacheMisses) += 1;
  PartitionEntry entry;
  entry.options_used = options.partition_search;
  entry.candidates = find_candidate_partitions(
      net_, demand.source, demand.sink, options.partition_search, ctx);
  return partitions_.insert_or_assign(key, std::move(entry)).first->second;
}

std::shared_ptr<const QuerySession::ArtifactEntry> QuerySession::artifact_entry(
    const FlowDemand& demand, int candidate_index,
    const PartitionChoice& choice, const SolveOptions& options,
    const ExecContext* ctx, SolveStatus* stop) {
  *stop = SolveStatus::kExact;
  const ArtifactKey key{demand.source,
                        demand.sink,
                        candidate_index,
                        demand.rate,
                        options.bottleneck.assignments.mode,
                        options.bottleneck.assignments.max_assignments};

  const auto hit = mask_index_.find(key);
  if (hit != mask_index_.end()) {
    if (hit->second->second->structure_id == snapshot()->structure_id()) {
      layer_counters("masks").counter(telemetry_keys::kCacheHits) += 1;
      lru_.splice(lru_.begin(), lru_, hit->second);  // touch
      return hit->second->second;
    }
    // Built against a different structure. Session edits cannot get here
    // (capacity/topology edits flush the cache; probability edits keep
    // the structure id), but never serve a stale structure.
    lru_.erase(hit->second);
    mask_index_.erase(hit);
  }
  if (failed_.count(key) != 0) {
    // Structural failures are deterministic per epoch: answer from the
    // negative cache instead of re-running the doomed enumeration.
    layer_counters("masks").counter(telemetry_keys::kCacheHits) += 1;
    throw std::invalid_argument("candidate previously failed for this demand");
  }
  layer_counters("masks").counter(telemetry_keys::kCacheMisses) += 1;

  auto entry = std::make_shared<ArtifactEntry>();
  entry->choice = choice;
  try {
    // Layer 2: the assignment set survives mask-table evictions, so a
    // rebuilt table skips the enumeration.
    std::shared_ptr<const AssignmentSet> assignments;
    const auto ait = assignments_.find(key);
    if (ait != assignments_.end()) {
      layer_counters("assignments").counter(telemetry_keys::kCacheHits) += 1;
      assignments = ait->second;
    } else {
      layer_counters("assignments").counter(telemetry_keys::kCacheMisses) += 1;
      assignments = std::make_shared<AssignmentSet>(enumerate_assignments(
          net_, choice.partition, demand.rate, options.bottleneck.assignments));
      assignments_.emplace(key, assignments);
    }
    // Cut-scoped repair: capacity deltas confined to the sides left both
    // pre-edit arrays as seeds. An untouched side is adopted verbatim, a
    // touched one is repaired by a seeded sweep; both are bitwise-equal
    // to rebuilding. The seed is consumed only by a finished build, so a
    // stopped repair leaves it for the next solve.
    const auto seed = seeds_.find(key);
    const bool seeded = seed != seeds_.end();
    entry->artifacts = build_bottleneck_artifacts(
        net_, demand, choice.partition, options.bottleneck, ctx,
        assignments.get(), snapshot(), seeded ? &seed->second.s : nullptr,
        seeded ? &seed->second.t : nullptr);
    if (seeded && entry->artifacts.usable()) {
      layer_counters("masks").counter(telemetry_keys::kSideRepairs) +=
          static_cast<std::uint64_t>(entry->artifacts.sides_adopted);
      seeds_.erase(seed);
    }
    entry->structure_id = snapshot()->structure_id();
  } catch (const std::invalid_argument&) {
    failed_.insert(key);
    throw;
  }
  if (!entry->artifacts.usable()) {
    *stop = entry->artifacts.status;
    return nullptr;  // interrupted builds are never cached
  }

  lru_.emplace_front(key, std::move(entry));
  mask_index_[key] = lru_.begin();
  trim_to_budget();
  return lru_.front().second;
}

QuerySession::PreparedQuery QuerySession::prepare_cached(
    const FlowDemand& demand, const SolveOptions& options, ExecContext& ctx) {
  PreparedQuery prepared;
  if (!cacheable(demand, options)) return prepared;
  net_.check_demand(demand);

  const PartitionEntry* entry = nullptr;
  try {
    entry = &partition_candidates(demand, options, &ctx);
  } catch (const ExecInterrupted& stop) {
    prepared.bottleneck_path = true;
    prepared.stop = stop.status;
    return prepared;
  }

  // The BottleneckEngine candidate walk, byte for byte: best candidate
  // first, worthwhile unless explicitly requested, assignment blow-ups
  // and mask overflows move on to the next candidate.
  bool overflowed = false;
  for (std::size_t i = 0; i < entry->candidates.size(); ++i) {
    const PartitionChoice& choice = entry->candidates[i];
    const int max_side = std::max(choice.stats.edges_s, choice.stats.edges_t);
    const bool worthwhile =
        max_side + choice.stats.k < net_.num_edges() || !net_.fits_mask();
    if (options.method != Method::kBottleneck && !worthwhile) break;
    if (choice.stats.edges_s > kMaxMaskBits ||
        choice.stats.edges_t > kMaxMaskBits ||
        choice.stats.k > kMaxMaskBits) {
      // Mirrors the mask-width pre-check in build_bottleneck_artifacts
      // (same stats, so the same verdict) without paying for the
      // assignment enumeration first.
      overflowed = true;
      continue;
    }
    SolveStatus stop = SolveStatus::kExact;
    std::shared_ptr<const ArtifactEntry> artifacts;
    try {
      artifacts = artifact_entry(demand, static_cast<int>(i), choice, options,
                                 &ctx, &stop);
    } catch (const std::invalid_argument&) {
      continue;
    }
    prepared.bottleneck_path = true;
    prepared.partition = choice;
    if (!artifacts) {
      prepared.stop = stop;
    } else {
      prepared.entry = std::move(artifacts);
    }
    return prepared;
  }

  if (overflowed) {
    if (options.method == Method::kBottleneck) {
      // An explicit request reports the capability limit as a status,
      // exactly like the engine.
      prepared.bottleneck_path = true;
      prepared.stop = SolveStatus::kMaskOverflow;
      return prepared;
    }
    // kAuto: fall through to the facade, whose chain retries the
    // bottleneck engine (reaching the same verdict) and then moves on to
    // a non-enumerating baseline — bitwise equal to the cold path.
    return prepared;
  }
  if (options.method == Method::kBottleneck) {
    throw std::invalid_argument(
        "no usable bottleneck partition found for this network");
  }
  return prepared;  // kAuto: facade fallback runs the baseline chain
}

BottleneckProbabilities QuerySession::gather_probs(
    const BottleneckPartition& partition, const BottleneckArtifacts& artifacts,
    std::span<const ProbOverride> overrides) const {
  BottleneckProbabilities probs =
      gather_bottleneck_probabilities(net_, partition, artifacts);
  for (const ProbOverride& o : overrides) {
    if (!net_.valid_edge(o.edge)) {
      throw std::invalid_argument("override edge out of range");
    }
    if (!(o.failure_prob >= 0.0) || !(o.failure_prob < 1.0)) {
      throw std::invalid_argument("override probability not in [0,1)");
    }
    // Each edge lives in exactly one place: a side subgraph or the
    // crossing set.
    for (std::size_t j = 0; j < partition.crossing_edges.size(); ++j) {
      if (partition.crossing_edges[j] == o.edge) {
        probs.crossing[j] = o.failure_prob;
      }
    }
    const auto place_side = [&](const SideProblem& side,
                                std::vector<double>& out) {
      const auto& to_view = side.view.edge_to_view();
      const auto idx = static_cast<std::size_t>(o.edge);
      if (idx < to_view.size() && to_view[idx] != kInvalidEdge) {
        out[static_cast<std::size_t>(to_view[idx])] = o.failure_prob;
      }
    };
    place_side(artifacts.side_s, probs.side_s);
    place_side(artifacts.side_t, probs.side_t);
  }
  return probs;
}

void QuerySession::validate_overrides(
    std::span<const ProbOverride> overrides) const {
  for (const ProbOverride& o : overrides) {
    if (!net_.valid_edge(o.edge)) {
      throw std::invalid_argument("override edge out of range");
    }
    if (!(o.failure_prob >= 0.0) || !(o.failure_prob < 1.0)) {
      throw std::invalid_argument("override probability not in [0,1)");
    }
  }
}

SolveReport QuerySession::finish_prepared(
    const PreparedQuery& prepared, const SolveOptions& options,
    std::span<const ProbOverride> overrides, const ExecContext* ctx) const {
  SolveReport report;
  report.method_used = Method::kBottleneck;
  report.engine = "bottleneck";
  report.partition = prepared.partition;
  if (prepared.stop != SolveStatus::kExact) {
    report.result.status = prepared.stop;
    return report;
  }
  TraceSpan span("query_accumulate", "cache");
  span.arg("overrides", static_cast<std::uint64_t>(overrides.size()));
  const BottleneckProbabilities probs = gather_probs(
      prepared.partition->partition, prepared.entry->artifacts, overrides);
  report.result =
      accumulate_bottleneck(prepared.entry->artifacts, probs,
                            options.bottleneck.accumulation, ctx);
  return report;
}

ReliabilityBounds QuerySession::bounds_with_overrides(
    const FlowDemand& demand, const BoundsOptions& options,
    std::span<const ProbOverride> overrides) {
  const OverrideGuard guard(net_, overrides);
  return reliability_bounds(net_, demand, options);
}

SolveReport QuerySession::solve_fallback(const FlowDemand& demand,
                                         const SolveOptions& options,
                                         std::span<const ProbOverride> overrides,
                                         ExecContext& ctx) {
  TraceSpan span("query_fallback", "cache");
  span.arg("method", to_string(options.method));
  const OverrideGuard guard(net_, overrides);
  SolveOptions forwarded = options;
  forwarded.context = &ctx;
  return compute_reliability(net_, demand, forwarded);
}

SolveReport QuerySession::solve(const FlowDemand& demand,
                                const SolveOptions& options) {
  return solve(demand, options, {});
}

SolveReport QuerySession::solve(const FlowDemand& demand,
                                const SolveOptions& options,
                                std::span<const ProbOverride> overrides) {
  validate_overrides(overrides);
  ExecContext local;
  ExecContext* ctx = options.context;
  if (!ctx) {
    if (options.deadline_ms > 0.0) local.set_deadline_ms(options.deadline_ms);
    local.max_threads = options.max_threads;
    ctx = &local;
  }

  // A delta applied since the last solve leaves an advisory hint; attach
  // it so a facade fallback keeps kAuto anchored on the delta-aware
  // engine. Never overrides a hint the caller set themselves.
  SolveOptions effective = options;
  if (!effective.delta_hint && pending_hint_) {
    effective.delta_hint = &*pending_hint_;
  }

  telemetry_.counter(telemetry_keys::kQueries) += 1;
  const ScopedTimer timer(telemetry_, "query_ms");
  const auto query_start = std::chrono::steady_clock::now();

  SolveReport report;
  PreparedQuery prepared;
  {
    TraceSpan span("query_prepare", "cache");
    // Annotate the span with the cache traffic THIS query caused: the
    // per-layer hit/miss counters are cheap to aggregate and only read
    // when a trace is actually being recorded.
    const std::uint64_t hits = span.active() ? cache_hits() : 0;
    const std::uint64_t misses = span.active() ? cache_misses() : 0;
    prepared = prepare_cached(demand, effective, *ctx);
    if (span.active()) {
      span.arg("cache_hits", cache_hits() - hits)
          .arg("cache_misses", cache_misses() - misses)
          .arg("bottleneck_path", prepared.bottleneck_path);
    }
  }
  if (prepared.bottleneck_path) {
    report = finish_prepared(prepared, effective, overrides, ctx);
    if (report.result.status != SolveStatus::kExact && !report.bounds) {
      report.bounds = bounds_with_overrides(demand, effective.bounds,
                                            overrides);
    }
    ctx->telemetry.merge(report.result.telemetry);
  } else {
    telemetry_.counter(telemetry_keys::kFallbackSolves) += 1;
    report = solve_fallback(demand, effective, overrides, *ctx);
  }
  telemetry_.child("solves").merge(report.result.telemetry);
  telemetry_.histogram("query_latency")
      .record_ms(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - query_start)
                     .count());
  return report;
}

}  // namespace streamrel
