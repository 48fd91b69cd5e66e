#pragma once
// Public API versioning. STREAMREL_API_VERSION is a single monotonically
// increasing integer bumped on every breaking change to the installed
// surface (the headers under include/streamrel/). The dotted library
// version tracks the CMake project version.

#define STREAMREL_VERSION_MAJOR 1
#define STREAMREL_VERSION_MINOR 2
#define STREAMREL_VERSION_PATCH 0

/// Breaking-change counter of the installed header surface.
/// v4: removed the deprecated src/streamrel.hpp shim and the deprecated
/// compute_reliability(net, demand, options, ctx) overload; the maxflow
/// reference solvers (edmonds_karp.hpp, push_relabel.hpp) moved into the
/// installed tree; FlowNetwork::compile() / CompiledNetwork / NetworkView
/// joined the public graph API.
/// v5: removed the deprecated apply_churn(net, server, model) shim (use
/// churn_delta + apply_delta_in_place); the versioned wire schema
/// (api/wire.hpp) and the serving daemon (server/*.hpp) joined the
/// public surface.
/// v6: durable sessions — the binary serializers (graph/serialize.hpp,
/// util/binio.hpp) and the crash-safe session store (persist/store.hpp)
/// joined the public surface; the wire schema gained the persist and
/// restore verbs and the state_corrupt error code; ServiceOptions
/// gained state_dir/wal_compact_threshold/state_fsync and the stream
/// transports a per-connection in-flight cap (StreamServeOptions /
/// TcpServerOptions::max_inflight).
/// v7: one side-array sweep — the feasibility-method enum (with the
/// polymatroid engine), the feasibility and monotone-pruning fields of
/// SideArrayOptions, the Gray and automatic sweep strategies and the
/// pruned-decisions counter are gone (SideSweepStrategy is now
/// kBitParallel, the default, or kScratch, the paper's oracle; README
/// lists the removed names); the wire contract gained kMaxWireLineBytes
/// and the payload_too_large error code, and
/// ReliabilityService::reject_payload_too_large().
#define STREAMREL_API_VERSION 7

namespace streamrel {

/// The API version the library was built against, for runtime checks
/// against the headers a client compiled with.
constexpr int api_version() noexcept { return STREAMREL_API_VERSION; }

}  // namespace streamrel
