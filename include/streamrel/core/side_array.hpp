#pragma once
// Side arrays (paper §III-C, Fig. 3, Example 2).
//
// For one side component (G_s or G_t) the algorithm records, for every
// failure configuration of the side's links, which assignments in D the
// configuration realizes — a |D|-bit value per configuration. Assignment
// feasibility on a side is a bounded max-flow question on the side's
// subgraph extended with super terminals:
//
//   source side, assignment a:  S0 -> s (cap d); S0 -> x_i (cap -a_i) for
//   negative entries; x_i -> T1 (cap a_i) for positive entries; realized
//   iff maxflow(S0, T1) == d + sum of negative magnitudes.
//
//   sink side: mirror image (y_i supplies for positive entries, y_i
//   demands for negative ones, t -> T1 carries d).
//
// One bounded max-flow per (configuration, assignment) pair is exactly
// the paper's procedure (SideSweepStrategy::kScratch). The production
// path (kBitParallel) decides the same pairs word-wide, 64 configurations
// at a time, and produces the identical array.
//
// Capacity-edit repair: the array depends only on the side's topology,
// its link capacities, the assignment set and d. After a capacity edit
// inside the side, the pre-edit array (a SideArraySeed) still decides
// every (configuration, assignment) pair the edit cannot flip — see
// build_side_array_slab.

#include <cstdint>
#include <span>
#include <vector>

#include "streamrel/core/assignments.hpp"
#include "streamrel/core/bit_slabs.hpp"
#include "streamrel/graph/compiled.hpp"
#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/util/exec_context.hpp"
#include "streamrel/util/telemetry.hpp"

namespace streamrel {

/// One side of the decomposition as a zero-copy view over one compiled
/// snapshot: no node or edge is duplicated, only index-translation tables
/// are built, and the snapshot stays pinned for the problem's lifetime.
struct SideProblem {
  NetworkView view;          ///< side view (VIEW edge ids index masks)
  bool is_source_side = true;
  NodeId anchor = kInvalidNode;         ///< s or t, in VIEW node ids
  std::vector<NodeId> endpoints;        ///< per crossing edge: x_i / y_i, VIEW ids
};

/// Builds the side problem for the source side (s, x_i) or sink side
/// (t, y_i) of a partition over one compiled snapshot. Throws if the side
/// has more than 63 links.
SideProblem make_side_problem(std::shared_ptr<const CompiledNetwork> snapshot,
                              const FlowDemand& demand,
                              const BottleneckPartition& partition,
                              bool source_side);

/// Convenience overload compiling `net` on the spot (one snapshot per
/// call — callers building both sides should compile once and use the
/// snapshot overload).
SideProblem make_side_problem(const FlowNetwork& net, const FlowDemand& demand,
                              const BottleneckPartition& partition,
                              bool source_side);

/// How build_side_array walks the 2^|E_side| configurations. Both
/// strategies produce bitwise-identical arrays.
enum class SideSweepStrategy {
  /// Slab sweep, the production path: the Gray walk is cut into 64-rank
  /// slabs held in the BitSlabs transposed layout, and word-wide kernels
  /// decide whole lanes of configurations at once — certificate
  /// word-ANDs from a small per-assignment certificate bank, a 64-lane
  /// bit-parallel BFS when feasibility degenerates to connectivity
  /// (required flow 1), and a bit-sliced popcount of the anchor cut
  /// against the demand. Only the residue the kernels cannot decide
  /// consults a (lazily created) incremental engine, whose fresh
  /// certificate immediately re-runs word-wide.
  kBitParallel,
  /// The paper's procedure: one from-scratch bounded max-flow per
  /// (configuration, assignment) pair. Kept as the reference oracle the
  /// slab sweep is tested and benchmarked against.
  kScratch,
};

struct SideArrayOptions {
  /// kScratch solver; the slab sweep's residue engines always repair
  /// with Dinic.
  MaxFlowAlgorithm algorithm = MaxFlowAlgorithm::kDinic;
  bool parallel = true;  ///< OpenMP over Gray-aligned configuration shards
  SideSweepStrategy sweep = SideSweepStrategy::kBitParallel;
};

/// Cost counters for one build_side_array run: a thin view over a
/// Telemetry subtree (shards are merged in shard order, so the counters
/// are deterministic and independent of the OpenMP thread count).
struct SideArrayStats {
  Telemetry telemetry;

  /// Solver invocations (scratch solves plus incremental-repair augments).
  std::uint64_t maxflow_calls() const {
    return telemetry.counter_or(telemetry_keys::kMaxflowCalls);
  }
  /// Single-link repairs applied by the residue engines.
  std::uint64_t engine_toggles() const {
    return telemetry.counter_or(telemetry_keys::kEngineToggles);
  }
  /// kBitParallel: per-lane decisions made by word-wide kernels
  /// (certificate AND + 64-lane BFS + bit-sliced cut popcount combined).
  std::uint64_t lanes_decided_wordwise() const {
    return telemetry.counter_or(telemetry_keys::kLanesWordwise);
  }
  /// kBitParallel: decisions that still consulted a scalar engine.
  std::uint64_t scalar_residue() const {
    return telemetry.counter_or(telemetry_keys::kScalarResidue);
  }
  /// Seeded sweeps: per-lane decisions copied from the seed without any
  /// kernel (see build_side_array_slab); the key is absent otherwise.
  /// Together with the word-wide lanes and the scalar residue this
  /// accounts for every (configuration, assignment) pair exactly once.
  std::uint64_t lanes_decided_by_seed() const {
    return telemetry.counter_or(telemetry_keys::kLanesSeed);
  }
  /// Complete by construction: every counter this struct exposes —
  /// including the accessors above — is a view over `telemetry`, and the
  /// struct holds NO scalar members outside the telemetry tree, so
  /// merging the trees merges the whole state.
  void merge(const SideArrayStats& other) { telemetry.merge(other.telemetry); }
};

/// The paper's array: element m is the mask of assignments realized by
/// side failure configuration m. Size 2^|side edges|.
///
/// With a context, the sweep polls for deadline/cancellation every
/// ExecContext::kPollStride configurations and honors the thread cap; a
/// stop raises ExecInterrupted (after any parallel region has joined) —
/// callers above the engine layer never see it.
std::vector<Mask> build_side_array(const SideProblem& side,
                                   const AssignmentSet& assignments,
                                   Capacity demand_rate,
                                   const SideArrayOptions& options,
                                   SideArrayStats* stats,
                                   const ExecContext* ctx = nullptr);

/// Convenience overload keeping the historical signature: only the
/// max-flow call counter is reported.
std::vector<Mask> build_side_array(const SideProblem& side,
                                   const AssignmentSet& assignments,
                                   Capacity demand_rate,
                                   const SideArrayOptions& options = {},
                                   std::uint64_t* maxflow_calls = nullptr);

/// A side array built before a capacity edit, offered to the rebuild of
/// the same side. Valid only when the seed was swept against the same
/// assignment set and demand rate as the rebuild; the side's topology is
/// checked (seed_changed_links), its capacities are diffed.
struct SideArraySeed {
  const SideProblem* side = nullptr;     ///< pre-edit problem
  const SlabMaskTable* array = nullptr;  ///< the pre-edit array
};

/// Side links whose capacity differs between the seed's view and
/// `side`'s view, or -1 when the seed cannot seed `side` (missing, a
/// different side, topology, anchor or endpoint list, or an array of the
/// wrong size). 0 means the seed's array IS the array of `side`.
int seed_changed_links(const SideProblem& side, const SideArraySeed& seed);

/// The same array in its rank-ordered resting form (see SlabMaskTable):
/// what BottleneckArtifacts carries and the slab fold consumes with unit
/// stride. Identical sweep, identical counters; only the output
/// permutation differs.
///
/// With a usable `seed` (seed_changed_links >= 0) the kBitParallel sweep
/// repairs the seed's array instead of deciding every pair afresh. A
/// (configuration, assignment) pair keeps the seed's bit when
///   (a) every changed link is dead in the configuration (the alive
///       subgraph is the pre-edit one; a 64-rank slab in which a changed
///       link >= 6 is dead is copied whole),
///   (b) the seed realizes the assignment at the configuration with the
///       lowered links dead (max flow is monotone in every capacity and
///       in the alive set, so that is a YES floor; with nothing lowered
///       it is the seed's own bit: a raise keeps every YES), or
///   (c) no changed link was raised and the seed's bit is clear (NO
///       stays NO).
/// Only the remaining pairs run the kernels and the residue engines, so
/// the array is bitwise identical to an unseeded sweep (and to kScratch,
/// which ignores the seed). The seed is read, never modified.
SlabMaskTable build_side_array_slab(const SideProblem& side,
                                    const AssignmentSet& assignments,
                                    Capacity demand_rate,
                                    const SideArrayOptions& options,
                                    SideArrayStats* stats,
                                    const ExecContext* ctx = nullptr,
                                    const SideArraySeed& seed = {});

/// A side array folded into a sparse probability distribution over
/// realized-assignment masks: bucket (m, P{configurations realizing
/// exactly the set m}), in ascending mask order. The accumulation step
/// only needs this. The fold streams the configurations in Gray-rank
/// order, 64 at a time: a configuration's probability factors into the
/// slab's product over the edges >= 6 times a 64-entry low-edge table, a
/// run of equal masks sums its low factors and multiplies once, and each
/// bucket is a compensated sum of its run sums. Every overload and every
/// sweep strategy shares the one fold, so their distributions are
/// bitwise identical.
struct MaskDistribution {
  std::vector<std::pair<Mask, double>> buckets;
  double total = 0.0;  ///< Kahan sum of the buckets (== 1 up to rounding)
};

MaskDistribution bucket_side_array(const SideProblem& side,
                                   const std::vector<Mask>& array);

/// Same fold under caller-supplied failure probabilities (one per side
/// link, indexed by side.view edge id) — the probability-only "what-if"
/// path: the cached mask array is reused, only the fold reruns.
MaskDistribution bucket_side_array(const SideProblem& side,
                                   const std::vector<Mask>& array,
                                   std::span<const double> failure_probs);

/// Slab-form folds: bitwise identical to the config-indexed overloads,
/// with unit-stride mask reads.
MaskDistribution bucket_side_array(const SideProblem& side,
                                   const SlabMaskTable& table);
MaskDistribution bucket_side_array(const SideProblem& side,
                                   const SlabMaskTable& table,
                                   std::span<const double> failure_probs);

/// Point evaluator for single side configurations: which assignments does
/// ONE failure configuration realize? Used by the sampling-based hybrid
/// estimator, which cannot afford the full 2^|E_side| array. Reuses its
/// residual graph and solver across calls. The referenced side problem
/// and assignment set must outlive the evaluator.
class SideMaskEvaluator {
 public:
  SideMaskEvaluator(const SideProblem& side, const AssignmentSet& assignments,
                    Capacity demand_rate,
                    MaxFlowAlgorithm algorithm = MaxFlowAlgorithm::kDinic);
  ~SideMaskEvaluator();
  SideMaskEvaluator(SideMaskEvaluator&&) noexcept;
  SideMaskEvaluator& operator=(SideMaskEvaluator&&) = delete;

  /// Mask of assignments the given alive-link configuration realizes.
  Mask realized(Mask config);

  std::uint64_t maxflow_calls() const noexcept { return calls_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t calls_ = 0;
};

}  // namespace streamrel
