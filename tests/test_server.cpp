// The daemon stack end to end, in process: service verbs over registered
// tenants, stream framing, shedding under a saturated scheduler, and the
// concurrent-tenant isolation the threading hardening promises. The TCP
// transport gets one loopback smoke (skipped if sockets are unavailable).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "streamrel/api/wire.hpp"
#include "streamrel/core/batch_evaluator.hpp"
#include "streamrel/core/query_session.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/graph/io.hpp"
#include "streamrel/persist/store.hpp"
#include "streamrel/server/service.hpp"
#include "streamrel/server/transport.hpp"
#include "streamrel/util/json.hpp"
#include "streamrel/util/prng.hpp"
#include "streamrel/util/trace.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace streamrel {
namespace {

/// Minimal blocking loopback client: connects, writes `script`, shuts
/// down the write side, and reads until `expected` newline-terminated
/// replies (or EOF). Returns the reply lines.
std::vector<std::string> tcp_client_exchange(const char* host,
                                             std::uint16_t port,
                                             const std::string& script,
                                             std::size_t expected) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Network byte order by hand; the htons macro trips -Wold-style-cast.
  unsigned char* port_bytes = reinterpret_cast<unsigned char*>(&addr.sin_port);
  port_bytes[0] = static_cast<unsigned char>(port >> 8);
  port_bytes[1] = static_cast<unsigned char>(port & 0xFF);
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::size_t sent = 0;
  while (sent < script.size()) {
    const ssize_t n =
        ::send(fd, script.data() + sent, script.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string buffer;
  std::vector<std::string> lines;
  char chunk[4096];
  while (lines.size() < expected) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (std::size_t nl = buffer.find('\n', pos); nl != std::string::npos;
         nl = buffer.find('\n', pos)) {
      lines.push_back(buffer.substr(pos, nl - pos));
      pos = nl + 1;
    }
    buffer.erase(0, pos);
  }
  ::close(fd);
  return lines;
}

GeneratedNetwork test_instance(std::uint64_t seed = 5) {
  Xoshiro256 rng(seed);
  ClusteredParams params;
  params.nodes_s = 5;
  params.extra_edges_s = 3;
  params.nodes_t = 4;
  params.extra_edges_t = 2;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {1, 3};
  return clustered_bottleneck(rng, params);
}

WireRequest register_request(const GeneratedNetwork& g,
                             const std::string& tenant = "default",
                             const std::string& network_id = "default") {
  WireRequest reg;
  reg.verb = WireVerb::kRegisterNetwork;
  reg.tenant = tenant;
  reg.network_id = network_id;
  reg.network_text = network_to_string(g.net);
  reg.query.source = g.source;
  reg.query.sink = g.sink;
  reg.query.rate = 2;
  return reg;
}

WireRequest batch_request(const std::string& tenant = "default") {
  WireRequest req;
  req.verb = WireVerb::kBatch;
  req.lane = WireLane::kBulk;
  req.tenant = tenant;
  req.queries.resize(3);
  req.queries[1].rate = 1;
  req.queries[2].overrides.push_back(ProbOverride{0, 0.5});
  return req;
}

TEST(Server, WarmBatchIsBitwiseEqualToColdAndToInProcess) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  const WireResponse cold = service.execute(batch_request());
  ASSERT_TRUE(cold.ok);
  ASSERT_EQ(cold.legacy_lines.size(), 3u);

  const WireResponse warm = service.execute(batch_request());
  ASSERT_TRUE(warm.ok);
  // Warm answers reuse the cold arithmetic: identical rendered lines.
  EXPECT_EQ(warm.legacy_lines, cold.legacy_lines);

  // And both match a fresh in-process QuerySession + BatchEvaluator.
  const FlowDemand demand{g.source, g.sink, 2};
  QuerySession session(g.net);
  BatchEvaluator evaluator(session);
  std::vector<WhatIfQuery> queries(3);
  for (WhatIfQuery& q : queries) q.demand = demand;
  queries[1].demand.rate = 1;
  queries[2].prob_overrides.push_back(ProbOverride{0, 0.5});
  const BatchReport batch = evaluator.evaluate(queries, {});
  ASSERT_EQ(batch.reports.size(), 3u);
  for (std::size_t i = 0; i < batch.reports.size(); ++i) {
    EXPECT_EQ(cold.legacy_lines[i],
              render_batch_query_line(i, queries[i].demand, batch.reports[i]));
  }
}

TEST(Server, DeltaInvalidatesAndWarmMatchesColdOnTheMutatedNetwork) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  const WireResponse before = service.execute(batch_request());
  ASSERT_TRUE(before.ok);

  WireRequest delta;
  delta.verb = WireVerb::kApplyDelta;
  delta.delta.set_failure_prob(0, 0.9);
  const WireResponse applied = service.execute(delta);
  ASSERT_TRUE(applied.ok);
  EXPECT_NE(applied.result_json.find("\"class\""), std::string::npos);

  const WireResponse warm = service.execute(batch_request());
  ASSERT_TRUE(warm.ok);
  EXPECT_NE(warm.legacy_lines, before.legacy_lines);

  // Cold reference on the mutated network.
  FlowNetwork mutated = g.net;
  mutated.set_failure_prob(0, 0.9);
  const FlowDemand demand{g.source, g.sink, 2};
  QuerySession session(mutated);
  BatchEvaluator evaluator(session);
  std::vector<WhatIfQuery> queries(3);
  for (WhatIfQuery& q : queries) q.demand = demand;
  queries[1].demand.rate = 1;
  queries[2].prob_overrides.push_back(ProbOverride{0, 0.5});
  const BatchReport batch = evaluator.evaluate(queries, {});
  for (std::size_t i = 0; i < batch.reports.size(); ++i) {
    EXPECT_EQ(warm.legacy_lines[i],
              render_batch_query_line(i, queries[i].demand, batch.reports[i]));
  }
}

TEST(Server, DeadlineStopIsAStructuredResultNotAnError) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.deadline_ms = 1e-7;
  const WireResponse resp = service.execute(solve);
  ASSERT_TRUE(resp.ok);  // the no-throw contract extends to the wire
  EXPECT_NE(resp.result_json.find("\"status\": \"deadline_expired\""),
            std::string::npos);
  EXPECT_NE(resp.result_json.find("\"bounds\""), std::string::npos);
}

TEST(Server, ShedPathBoundsOnA30LinkTenantAnswerPromptly) {
  // A two-cluster tenant with 14 links per side, as in a churning
  // overlay: a solve whose deadline has already expired degrades to the
  // polynomial bounds (minimal cuts of up to 8 links) under the tenant's
  // lock, and a solve queued right behind it must not wait for them.
  Xoshiro256 rng(9);
  ClusteredParams params;
  params.nodes_s = 8;
  params.extra_edges_s = 7;
  params.nodes_t = 8;
  params.extra_edges_t = 7;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {2, 3};
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  ASSERT_EQ(g.net.num_edges(), 30);

  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 2;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  using Clock = std::chrono::steady_clock;
  std::mutex mu;
  std::vector<std::pair<WireResponse, double>> responses;
  const Clock::time_point sent = Clock::now();
  auto done = [&](WireResponse resp) {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - sent).count();
    const std::lock_guard<std::mutex> lock(mu);
    responses.emplace_back(std::move(resp), ms);
  };
  WireRequest shed;
  shed.verb = WireVerb::kSolve;
  shed.id_json = "\"shed\"";
  shed.deadline_ms = 0.001;
  service.handle_line(serialize_wire_request(shed), done);
  WireRequest plain;
  plain.verb = WireVerb::kSolve;
  plain.id_json = "\"plain\"";
  service.handle_line(serialize_wire_request(plain), done);
  service.drain();

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& [resp, ms] : responses) {
    ASSERT_TRUE(resp.ok) << resp.id_json << ": " << resp.error_message;
    EXPECT_LT(ms, 100.0) << resp.id_json << " answered after " << ms << " ms";
    if (resp.id_json == "\"shed\"") {
      EXPECT_NE(resp.result_json.find("\"bounds\""), std::string::npos);
    } else {
      EXPECT_NE(resp.result_json.find("\"status\": \"exact\""),
                std::string::npos)
          << resp.result_json;
    }
  }
}

TEST(Server, UnknownTenantAndVerbErrorsAreStructured) {
  ReliabilityService service;
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.tenant = "ghost";
  const WireResponse resp = service.execute(solve);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "unknown_network");
  EXPECT_NE(resp.error_message.find("ghost/default"), std::string::npos);
}

TEST(Server, StreamSurvivesMalformedLines) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  std::stringstream in;
  in << serialize_wire_request(register_request(g)) << "\n"
     << "this is not json\n"
     << R"({"v": 1, "id": 2, "verb": "probe"})" << "\n"
     << R"({"v": 1, "id": 3, "verb": "solve"})" << "\n"
     << R"({"v": 1, "id": 4, "verb": "shutdown"})" << "\n"
     << R"({"v": 1, "id": 5, "verb": "stats"})" << "\n";  // after shutdown
  std::stringstream out;
  const StreamServeResult served = serve_stream(service, in, out);
  EXPECT_TRUE(served.shutdown);
  EXPECT_EQ(served.lines, 5u);  // the post-shutdown line is never read
  EXPECT_EQ(served.responses, 5u);

  std::vector<JsonValue> docs;
  std::string line;
  while (std::getline(out, line)) docs.push_back(parse_json(line));
  ASSERT_EQ(docs.size(), 5u);
  EXPECT_TRUE(docs[0].find("ok")->as_bool());
  EXPECT_FALSE(docs[1].find("ok")->as_bool());
  EXPECT_EQ(docs[1].find("error")->find("code")->as_string(), "parse_error");
  EXPECT_FALSE(docs[2].find("ok")->as_bool());
  EXPECT_EQ(docs[2].find("error")->find("code")->as_string(), "unknown_verb");
  EXPECT_EQ(docs[2].find("id")->as_number(), 2.0);
  EXPECT_TRUE(docs[3].find("ok")->as_bool());
  EXPECT_TRUE(docs[4].find("ok")->as_bool());
}

TEST(Server, SaturatedSchedulerShedsWithBoundsAttached) {
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 1;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  std::mutex mu;
  std::vector<WireResponse> responses;
  auto done = [&](WireResponse resp) {
    const std::lock_guard<std::mutex> lock(mu);
    responses.push_back(std::move(resp));
  };
  // One bulk batch to occupy the single worker, then interactive solves
  // whose microscopic deadlines are blown by the time a worker frees up.
  WireRequest bulk = batch_request();
  bulk.id_json = "\"bulk\"";
  service.handle_line(serialize_wire_request(bulk), done);
  for (int i = 0; i < 8; ++i) {
    WireRequest solve;
    solve.verb = WireVerb::kSolve;
    solve.id_json = std::to_string(100 + i);
    solve.deadline_ms = 1e-6;
    service.handle_line(serialize_wire_request(solve), done);
  }
  service.drain();

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), 9u);  // every request got a response
  std::size_t shed = 0;
  for (const WireResponse& resp : responses) {
    if (resp.id_json == "\"bulk\"") continue;
    ASSERT_TRUE(resp.ok) << resp.error_message;
    if (resp.result_json.find("\"shed\": true") != std::string::npos) {
      ++shed;
      EXPECT_NE(resp.result_json.find("deadline_expired"), std::string::npos);
      EXPECT_NE(resp.result_json.find("\"bounds\""), std::string::npos);
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(service.shed_count(), shed);
}

TEST(Server, ConcurrentTenantsStayIsolated) {
  constexpr int kTenants = 4;
  constexpr int kRoundsPerTenant = 12;
  std::vector<GeneratedNetwork> nets;
  ReliabilityService service;
  std::vector<WireResponse> baselines;
  for (int t = 0; t < kTenants; ++t) {
    nets.push_back(test_instance(static_cast<std::uint64_t>(7 + t)));
    const std::string tenant = "tenant" + std::to_string(t);
    ASSERT_TRUE(service.execute(register_request(nets.back(), tenant)).ok);
    baselines.push_back(service.execute(batch_request(tenant)));
    ASSERT_TRUE(baselines.back().ok);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      for (int round = 0; round < kRoundsPerTenant; ++round) {
        // Readers: warm batches must keep answering the registered
        // network's question no matter what other tenants do.
        const WireResponse warm = service.execute(batch_request(tenant));
        if (!warm.ok || warm.legacy_lines != baselines[static_cast<std::size_t>(t)].legacy_lines) {
          failures.fetch_add(1);
        }
        // And a point query through the interactive path.
        WireRequest solve;
        solve.verb = WireVerb::kSolve;
        solve.tenant = tenant;
        solve.want_trace = true;
        if (!service.execute(solve).ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const JsonValue stats = parse_json(service.stats_json());
  EXPECT_EQ(stats.find("sessions")->as_number(), 4.0);
  const JsonValue* tenants = stats.find("tenants");
  ASSERT_NE(tenants, nullptr);
  EXPECT_NE(tenants->find("tenant0/default"), nullptr);
}

TEST(Server, ConcurrentDeltasAndReadsOnOneTenant) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 20; ++i) {
      WireRequest delta;
      delta.verb = WireVerb::kApplyDelta;
      delta.delta.set_failure_prob(0, 0.05 + 0.01 * static_cast<double>(i % 5));
      if (!service.execute(delta).ok) failures.fetch_add(1);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        WireRequest solve;
        solve.verb = WireVerb::kSolve;
        const WireResponse resp = service.execute(solve);
        if (!resp.ok) failures.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Server, ReplayVerbMatchesTheStandaloneRenderers) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  WireRequest replay;
  replay.verb = WireVerb::kReplay;
  replay.events.resize(2);
  replay.events[0].time = 1.0;
  replay.events[0].label = "degrade";
  replay.events[0].delta.set_failure_prob(0, 0.5);
  replay.events[1].time = 2.0;
  replay.events[1].delta.set_failure_prob(0, 0.1);
  const WireResponse warm = service.execute(replay);
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.legacy_lines.size(), 3u);  // initial + 2 events

  replay.cold = true;
  const WireResponse cold = service.execute(replay);
  ASSERT_TRUE(cold.ok);
  ASSERT_EQ(cold.legacy_lines.size(), warm.legacy_lines.size());
  // Warm (session) and cold (recompile) replays agree on the R(t)
  // series; only the cache columns differ (cold has no cache to keep).
  for (std::size_t i = 0; i < warm.legacy_lines.size(); ++i) {
    const JsonValue w = parse_json(warm.legacy_lines[i]);
    const JsonValue c = parse_json(cold.legacy_lines[i]);
    EXPECT_EQ(w.find("reliability")->as_number(),
              c.find("reliability")->as_number());
  }
  EXPECT_NE(warm.legacy_summary.find("\"mode\": \"warm\""),
            std::string::npos);
  EXPECT_NE(cold.legacy_summary.find("\"mode\": \"cold\""),
            std::string::npos);
  // Replay is read-only: the registered session still answers cold.
  EXPECT_TRUE(service.execute(batch_request()).ok);
}

TEST(Server, PerRequestTraceCaptureDoesNotLeakAcrossThreads) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  Tracer::clear();
  WireRequest traced;
  traced.verb = WireVerb::kSolve;
  traced.want_trace = true;
  const WireResponse resp = service.execute(traced);
  ASSERT_TRUE(resp.ok);
  EXPECT_NE(resp.result_json.find("\"trace\""), std::string::npos);
  EXPECT_NE(resp.result_json.find("query_prepare"), std::string::npos);
  // Captured spans were diverted, not published to the global rings.
  EXPECT_EQ(Tracer::event_count(), 0u);
}

TEST(Server, StatsExposesQueueEstimateAndPerLaneSheds) {
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 1;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  // Force interactive sheds: pin the worker, then blow deadlines.
  std::atomic<int> answered{0};
  auto done = [&](WireResponse) { answered.fetch_add(1); };
  service.handle_line(serialize_wire_request(batch_request()), done);
  for (int i = 0; i < 6; ++i) {
    WireRequest solve;
    solve.verb = WireVerb::kSolve;
    solve.deadline_ms = 1e-6;
    service.handle_line(serialize_wire_request(solve), done);
  }
  service.drain();
  ASSERT_EQ(answered.load(), 7);

  const JsonValue stats = parse_json(service.stats_json());
  const JsonValue* lanes = stats.find("lanes");
  ASSERT_NE(lanes, nullptr);
  for (const char* lane : {"interactive", "bulk"}) {
    const JsonValue* snap = lanes->find(lane);
    ASSERT_NE(snap, nullptr) << lane;
    ASSERT_NE(snap->find("queue_estimate_ms"), nullptr) << lane;
    ASSERT_NE(snap->find("shed"), nullptr) << lane;
  }
  const double interactive_shed =
      lanes->find("interactive")->find("shed")->as_number();
  EXPECT_GT(interactive_shed, 0.0);
  EXPECT_EQ(static_cast<std::uint64_t>(interactive_shed) +
                static_cast<std::uint64_t>(
                    lanes->find("bulk")->find("shed")->as_number()),
            service.shed_count());
}

TEST(Server, StatsStaysCoherentUnderConcurrentTenantsAndScrapes) {
  constexpr int kTenants = 4;
  std::vector<GeneratedNetwork> nets;
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 2;
  ReliabilityService service(options);
  for (int t = 0; t < kTenants; ++t) {
    nets.push_back(test_instance(static_cast<std::uint64_t>(11 + t)));
    const std::string tenant = "tenant" + std::to_string(t);
    ASSERT_TRUE(service.execute(register_request(nets.back(), tenant)).ok);
  }

  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int t = 0; t < kTenants; ++t) {
    load.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      for (int round = 0; round < 16; ++round) {
        WireRequest solve;
        solve.verb = WireVerb::kSolve;
        solve.tenant = tenant;
        solve.deadline_ms = 10'000.0;
        sent.fetch_add(1);
        service.handle_line(serialize_wire_request(solve),
                            [&](WireResponse resp) {
                              if (!resp.ok) failures.fetch_add(1);
                            });
      }
    });
  }
  // Scrapers: the stats verb AND the Prometheus exposition, both racing
  // the load. Every snapshot must parse; neither may block a solve.
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&] {
      while (!stop.load()) {
        WireRequest statsv;
        statsv.verb = WireVerb::kStats;
        const WireResponse resp = service.execute(statsv);
        if (!resp.ok) failures.fetch_add(1);
        try {
          const JsonValue doc = parse_json(resp.result_json);
          if (doc.find("lanes") == nullptr ||
              doc.find("tenants") == nullptr) {
            failures.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
        if (service.metrics_text().empty()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : load) th.join();
  service.drain();
  stop.store(true);
  for (std::thread& th : scrapers) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The stats scrapers themselves count as requests, so the total is a
  // lower bound, not an equality.
  const JsonValue stats = parse_json(service.stats_json());
  EXPECT_GE(stats.find("requests")->as_number(),
            static_cast<double>(sent.load()));
}

TEST(Server, MetricsVerbRendersValidExposition) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.want_telemetry = true;  // feeds the telemetry -> metrics bridge
  ASSERT_TRUE(service.execute(solve).ok);

  WireRequest metrics;
  metrics.verb = WireVerb::kMetrics;
  const WireResponse resp = service.execute(metrics);
  ASSERT_TRUE(resp.ok);
  const JsonValue result = parse_json(resp.result_json);
  EXPECT_GT(result.find("series")->as_number(), 0.0);
  EXPECT_EQ(result.find("content_type")->as_string(),
            kPrometheusContentType);
  const std::string text = result.find("text")->as_string();
  EXPECT_NE(text.find("# TYPE streamrel_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE streamrel_request_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("streamrel_sessions 1"), std::string::npos);
  EXPECT_NE(
      text.find(
          "streamrel_requests_total{code=\"ok\",lane=\"interactive\","
          "verb=\"solve\"} 1"),
      std::string::npos);
  // The engine telemetry bridge produced engine-labeled series (label
  // keys render sorted: counter before engine).
  EXPECT_NE(text.find("streamrel_engine_work_total{counter="),
            std::string::npos);
  // le="+Inf" closes every histogram series.
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

TEST(Server, DumpVerbReturnsFlightRecordsInline) {
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.flight_capacity = 4;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  for (int i = 0; i < 6; ++i) {
    WireRequest solve;
    solve.verb = WireVerb::kSolve;
    solve.id_json = std::to_string(i);
    ASSERT_TRUE(service.execute(solve).ok);
  }

  WireRequest dump;
  dump.verb = WireVerb::kDump;
  const WireResponse resp = service.execute(dump);
  ASSERT_TRUE(resp.ok);
  const JsonValue result = parse_json(resp.result_json);
  EXPECT_EQ(result.find("retained")->as_number(), 4.0);
  EXPECT_EQ(result.find("total_recorded")->as_number(), 7.0);
  const JsonValue* records = result.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->as_array().size(), 4u);
  // Oldest first, and the ring dropped the three earliest requests.
  EXPECT_EQ(records->as_array().front().find("seq")->as_number(), 4.0);
  EXPECT_EQ(records->as_array().back().find("seq")->as_number(), 7.0);
  EXPECT_EQ(records->as_array().back().find("verb")->as_string(), "solve");
  EXPECT_EQ(records->as_array().back().find("engine")->as_string().empty(),
            false);
}

TEST(Server, StreamTransportAnswersGetMetrics) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  std::stringstream in;
  in << serialize_wire_request(register_request(g)) << "\n"
     << R"({"v": 1, "id": 1, "verb": "solve"})" << "\n"
     << "GET /metrics\n"
     << R"({"v": 1, "id": 2, "verb": "shutdown"})" << "\n";
  std::stringstream out;
  const StreamServeResult served = serve_stream(service, in, out);
  EXPECT_TRUE(served.shutdown);
  // The GET line is answered with raw exposition, not counted as a
  // wire request.
  EXPECT_EQ(served.lines, 3u);
  EXPECT_EQ(served.responses, 3u);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE streamrel_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("streamrel_request_latency_ms_bucket"),
            std::string::npos);
}

TEST(Server, RequestLogRecordsEveryRequestThroughTheService) {
  const GeneratedNetwork g = test_instance();
  std::ostringstream log;
  ServiceOptions options;
  options.request_log = &log;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.id_json = "\"rq-1\"";
  ASSERT_TRUE(service.execute(solve).ok);
  WireRequest ghost;
  ghost.verb = WireVerb::kSolve;
  ghost.tenant = "ghost";
  EXPECT_FALSE(service.execute(ghost).ok);

  std::vector<JsonValue> lines;
  std::istringstream in(log.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(parse_json(line));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("verb")->as_string(), "register_network");
  EXPECT_TRUE(lines[0].find("ok")->as_bool());
  EXPECT_EQ(lines[1].find("id")->as_string(), "rq-1");
  EXPECT_EQ(lines[1].find("verb")->as_string(), "solve");
  EXPECT_EQ(lines[1].find("status")->as_string(), "exact");
  EXPECT_FALSE(lines[1].find("engine")->as_string().empty());
  EXPECT_GT(lines[1].find("solve_us")->as_number(), 0.0);
  EXPECT_FALSE(lines[2].find("ok")->as_bool());
  EXPECT_EQ(lines[2].find("error_code")->as_string(), "unknown_network");
}

TEST(Server, SolveResultsAreIdenticalWithAndWithoutInstrumentation) {
  // The acceptance bar: metrics/logging must never perturb the
  // arithmetic. Same request, one service with every sink enabled and
  // one bare — bitwise-identical rendered results.
  const GeneratedNetwork g = test_instance();
  std::ostringstream log;
  ServiceOptions instrumented;
  instrumented.request_log = &log;
  instrumented.flight_capacity = 8;
  ReliabilityService with_obs(instrumented);
  ReliabilityService bare;
  ASSERT_TRUE(with_obs.execute(register_request(g)).ok);
  ASSERT_TRUE(bare.execute(register_request(g)).ok);

  for (int i = 0; i < 3; ++i) {
    WireRequest solve;
    solve.verb = WireVerb::kSolve;
    if (i == 2) solve.query.overrides.push_back(ProbOverride{0, 0.42});
    const WireResponse a = with_obs.execute(solve);
    const WireResponse b = bare.execute(solve);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    // Everything but the wall-clock field must match bit for bit
    // (reliability is rendered to full precision).
    const JsonValue da = parse_json(a.result_json);
    const JsonValue db = parse_json(b.result_json);
    EXPECT_EQ(da.find("reliability")->as_number(),
              db.find("reliability")->as_number());
    EXPECT_EQ(da.find("status")->as_string(), db.find("status")->as_string());
    EXPECT_EQ(da.find("method")->as_string(), db.find("method")->as_string());
    EXPECT_EQ(da.find("engine")->as_string(), db.find("engine")->as_string());
  }
  const WireResponse batch_a = with_obs.execute(batch_request());
  const WireResponse batch_b = bare.execute(batch_request());
  ASSERT_TRUE(batch_a.ok);
  EXPECT_EQ(batch_a.legacy_lines, batch_b.legacy_lines);
}

TEST(Server, TcpLoopbackRoundTrip) {
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 2;
  ReliabilityService service(options);

  std::unique_ptr<TcpServer> server;
  try {
    server = std::make_unique<TcpServer>(service, TcpServerOptions{});
  } catch (const std::exception& e) {
    GTEST_SKIP() << "no loopback TCP available: " << e.what();
  }
  std::thread runner([&] { server->run(); });

  std::stringstream script;
  WireRequest reg = register_request(g);
  reg.id_json = "1";
  script << serialize_wire_request(reg) << "\n";
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.id_json = "2";
  script << serialize_wire_request(solve) << "\n";

  const std::vector<std::string> replies =
      tcp_client_exchange("127.0.0.1", server->port(), script.str(), 2);
  server->stop();
  runner.join();

  ASSERT_EQ(replies.size(), 2u);
  bool saw_solve = false;
  for (const std::string& line : replies) {
    const JsonValue doc = parse_json(line);
    EXPECT_TRUE(doc.find("ok")->as_bool());
    if (doc.find("id")->as_number() == 2.0) {
      saw_solve = true;
      EXPECT_NE(doc.find("result")->find("reliability"), nullptr);
    }
  }
  EXPECT_TRUE(saw_solve);
}

/// A request line one byte over the wire cap (no newline).
std::string overlong_line() {
  return std::string(kMaxWireLineBytes + 1, 'x');
}

TEST(Server, StreamTransportRejectsAnOverlongLineAndKeepsServing) {
  ReliabilityService service;
  std::stringstream in;
  in << overlong_line() << "\n"
     << R"({"v": 1, "id": 2, "verb": "stats"})" << "\n";
  std::stringstream out;
  const StreamServeResult served = serve_stream(service, in, out);
  EXPECT_EQ(served.lines, 2u);
  EXPECT_EQ(served.responses, 2u);

  std::vector<JsonValue> docs;
  std::string line;
  while (std::getline(out, line)) docs.push_back(parse_json(line));
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_FALSE(docs[0].find("ok")->as_bool());
  EXPECT_EQ(docs[0].find("error")->find("code")->as_string(),
            "payload_too_large");
  EXPECT_TRUE(docs[1].find("ok")->as_bool());
  EXPECT_EQ(docs[1].find("id")->as_number(), 2.0);
  EXPECT_NE(service.metrics_text().find("code=\"payload_too_large\""),
            std::string::npos);
}

TEST(Server, TcpTransportRejectsAnOverlongLineAndKeepsServing) {
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 2;
  ReliabilityService service(options);

  std::unique_ptr<TcpServer> server;
  try {
    server = std::make_unique<TcpServer>(service, TcpServerOptions{});
  } catch (const std::exception& e) {
    GTEST_SKIP() << "no loopback TCP available: " << e.what();
  }
  std::thread runner([&] { server->run(); });

  // The overlong line arrives in thousands of recv() chunks; the reader
  // answers once it crosses the cap and drops the rest up to its newline.
  const std::string script = overlong_line() + "\n" +
                             R"({"v": 1, "id": 2, "verb": "stats"})" + "\n";
  const std::vector<std::string> replies =
      tcp_client_exchange("127.0.0.1", server->port(), script, 2);
  server->stop();
  runner.join();

  ASSERT_EQ(replies.size(), 2u);
  const JsonValue rejected = parse_json(replies[0]);
  EXPECT_FALSE(rejected.find("ok")->as_bool());
  EXPECT_EQ(rejected.find("error")->find("code")->as_string(),
            "payload_too_large");
  const JsonValue answered = parse_json(replies[1]);
  EXPECT_TRUE(answered.find("ok")->as_bool());
  EXPECT_EQ(answered.find("id")->as_number(), 2.0);
}

// --- durable sessions (--state-dir) ------------------------------------

namespace fs = std::filesystem;

/// Fresh scratch state root per test, removed on destruction.
struct ScratchStateDir {
  fs::path path;
  explicit ScratchStateDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("streamrel_server_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~ScratchStateDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

ServiceOptions durable_options(const ScratchStateDir& scratch) {
  ServiceOptions options;
  options.state_dir = scratch.path.string();
  options.state_fsync = false;  // scratch dirs; the crash test opts back in
  return options;
}

/// Extracts the rendered value of `key` from a flat JSON object string
/// (up to the next ',' or '}') — enough to pin a member bitwise.
std::string json_member(const std::string& object_json,
                        const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = object_json.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = object_json.find_first_of(",}", start);
  return object_json.substr(start, end - start);
}

WireRequest solve_request() {
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  return solve;
}

TEST(ServerPersist, RestartFromStateDirAnswersBitwiseIdentically) {
  const ScratchStateDir scratch("restart");
  const GeneratedNetwork g = test_instance();
  std::string reliability_before;
  std::vector<std::string> batch_before;
  {
    ReliabilityService service(durable_options(scratch));
    const WireResponse reg = service.execute(register_request(g));
    ASSERT_TRUE(reg.ok);
    EXPECT_EQ(json_member(reg.result_json, "persisted"), "true");

    WireRequest delta;
    delta.verb = WireVerb::kApplyDelta;
    delta.delta.set_failure_prob(0, 0.35);
    delta.delta.set_capacity(1, 2);
    ASSERT_TRUE(service.execute(delta).ok);  // journaled to the WAL

    const WireResponse solve = service.execute(solve_request());
    ASSERT_TRUE(solve.ok);
    reliability_before = json_member(solve.result_json, "reliability");
    ASSERT_FALSE(reliability_before.empty());
    const WireResponse batch = service.execute(batch_request());
    ASSERT_TRUE(batch.ok);
    batch_before = batch.legacy_lines;

    // The shutdown verb checkpoints every session before stopping.
    WireRequest shutdown;
    shutdown.verb = WireVerb::kShutdown;
    const WireResponse stop = service.execute(shutdown);
    ASSERT_TRUE(stop.ok);
    EXPECT_EQ(json_member(stop.result_json, "checkpointed"), "1");
    EXPECT_EQ(json_member(stop.result_json, "checkpoint_failures"), "0");
  }

  ReliabilityService service(durable_options(scratch));
  EXPECT_EQ(service.boot_restore().restored, 1u);
  EXPECT_EQ(service.boot_restore().corrupt, 0u);

  // No re-register: the restored session answers, bitwise.
  const WireResponse solve = service.execute(solve_request());
  ASSERT_TRUE(solve.ok);
  EXPECT_EQ(json_member(solve.result_json, "reliability"),
            reliability_before);
  const WireResponse batch = service.execute(batch_request());
  ASSERT_TRUE(batch.ok);
  EXPECT_EQ(batch.legacy_lines, batch_before);

  // stats surfaces the durability counters.
  const std::string stats = service.stats_json();
  EXPECT_NE(stats.find("\"persist\""), std::string::npos);
  EXPECT_NE(stats.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(stats.find("\"restores\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"durable\": true"), std::string::npos);
}

TEST(ServerPersist, RestartAfterDtorCheckpointAlsoRestores) {
  const ScratchStateDir scratch("dtor");
  const GeneratedNetwork g = test_instance();
  std::string before;
  {
    ReliabilityService service(durable_options(scratch));
    ASSERT_TRUE(service.execute(register_request(g)).ok);
    WireRequest delta;
    delta.verb = WireVerb::kApplyDelta;
    delta.delta.set_failure_prob(2, 0.6);
    ASSERT_TRUE(service.execute(delta).ok);
    const WireResponse solve = service.execute(solve_request());
    ASSERT_TRUE(solve.ok);
    before = json_member(solve.result_json, "reliability");
  }  // no shutdown verb: the destructor checkpoints

  ReliabilityService service(durable_options(scratch));
  ASSERT_EQ(service.boot_restore().restored, 1u);
  const WireResponse solve = service.execute(solve_request());
  ASSERT_TRUE(solve.ok);
  EXPECT_EQ(json_member(solve.result_json, "reliability"), before);
}

TEST(ServerPersist, PersistAndRestoreVerbsRoundTrip) {
  const ScratchStateDir scratch("verbs");
  const GeneratedNetwork g = test_instance();
  ReliabilityService service(durable_options(scratch));
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  WireRequest delta;
  delta.verb = WireVerb::kApplyDelta;
  delta.delta.set_failure_prob(1, 0.8);
  ASSERT_TRUE(service.execute(delta).ok);
  const WireResponse before = service.execute(solve_request());
  ASSERT_TRUE(before.ok);

  WireRequest persist;
  persist.verb = WireVerb::kPersist;
  const WireResponse persisted = service.execute(persist);
  ASSERT_TRUE(persisted.ok) << persisted.error_message;
  EXPECT_EQ(json_member(persisted.result_json, "checkpoints"), "2");

  WireRequest restore;
  restore.verb = WireVerb::kRestore;
  const WireResponse restored = service.execute(restore);
  ASSERT_TRUE(restored.ok) << restored.error_message;
  EXPECT_EQ(json_member(restored.result_json, "replayed_deltas"), "0");

  // The freshly restored session solves identically to the live one it
  // replaced (the WAL held every applied delta).
  const WireResponse after = service.execute(solve_request());
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(json_member(after.result_json, "reliability"),
            json_member(before.result_json, "reliability"));
}

TEST(ServerPersist, VerbsWithoutStateDirAreBadRequests) {
  ReliabilityService service;  // no state_dir
  const GeneratedNetwork g = test_instance();
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  for (const WireVerb verb : {WireVerb::kPersist, WireVerb::kRestore}) {
    WireRequest req;
    req.verb = verb;
    const WireResponse resp = service.execute(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, "bad_request");
  }
}

TEST(ServerPersist, CorruptStateColdStartsAndRestoreSaysStateCorrupt) {
  const ScratchStateDir scratch("corrupt");
  const GeneratedNetwork g = test_instance();
  {
    ReliabilityService service(durable_options(scratch));
    ASSERT_TRUE(service.execute(register_request(g)).ok);
  }
  // Flip one byte of the snapshot: the boot must cold-start with a
  // warning, never crash, never adopt the bytes.
  const StateDir state(scratch.path);
  const fs::path snap = state.store_path("default", "default") / "snapshot.bin";
  {
    std::fstream file(snap,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(40);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(40);
    file.write(&byte, 1);
  }

  ReliabilityService service(durable_options(scratch));
  EXPECT_EQ(service.boot_restore().restored, 0u);
  EXPECT_EQ(service.boot_restore().corrupt, 1u);
  ASSERT_FALSE(service.boot_restore().warnings.empty());

  // Not restored: the session is gone until re-registered...
  const WireResponse missing = service.execute(solve_request());
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.error_code, "unknown_network");

  // ...and an explicit restore reports the structured corruption error.
  WireRequest restore;
  restore.verb = WireVerb::kRestore;
  const WireResponse resp = service.execute(restore);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "state_corrupt");

  // Re-registering heals the store (fresh checkpoint over the bad one).
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  const WireResponse healed = service.execute(restore);
  EXPECT_TRUE(healed.ok) << healed.error_message;

  // Two refusals: the boot pass and the failed restore verb.
  const std::string metrics = service.metrics_text();
  EXPECT_NE(metrics.find("streamrel_state_corrupt_total 2"),
            std::string::npos);
}

TEST(ServerPersist, RejectOverloadedEchoesIdVerbAndCountsPerLane) {
  ReliabilityService service;
  const WireResponse resp = service.reject_overloaded(
      "{\"v\": 1, \"id\": 42, \"verb\": \"batch\", \"queries\": []}");
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "overloaded");
  EXPECT_EQ(resp.id_json, "42");
  EXPECT_EQ(resp.verb, "batch");
  // batch defaults to the bulk lane; the reject is counted there.
  const std::string metrics = service.metrics_text();
  EXPECT_NE(
      metrics.find("streamrel_backpressure_rejects_total{lane=\"bulk\"} 1"),
      std::string::npos);
  EXPECT_NE(metrics.find(
                "streamrel_backpressure_rejects_total{lane=\"interactive\"} 0"),
            std::string::npos);

  // A line that cannot parse gets its parse error, not `overloaded`.
  const WireResponse garbage = service.reject_overloaded("{nope");
  EXPECT_FALSE(garbage.ok);
  EXPECT_EQ(garbage.error_code, "parse_error");
}

TEST(ServerPersist, StreamTransportCapsInflightRequests) {
  // With a zero-size worker pool... the inline path never queues, so the
  // cap is exercised through reject_overloaded by a saturated scheduler
  // instead: one worker, a queue of one, and a stream of batches.
  const ScratchStateDir scratch("inflight");
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 1;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  std::string script;
  for (int i = 0; i < 8; ++i) {
    WireRequest req = batch_request();
    req.id_json = std::to_string(i);
    script += serialize_wire_request(req);
    script += "\n";
  }
  std::istringstream in(script);
  std::ostringstream out;
  StreamServeOptions stream;
  stream.max_inflight = 1;
  const StreamServeResult result = serve_stream(service, in, out, stream);
  EXPECT_EQ(result.lines, 8u);
  EXPECT_EQ(result.responses, 8u);  // rejects are answered too
  // Every line got exactly one response; any line past the cap carries
  // the structured overloaded error.
  std::size_t overloaded = 0;
  std::istringstream replies(out.str());
  std::string line;
  while (std::getline(replies, line)) {
    if (line.find("\"overloaded\"") != std::string::npos) ++overloaded;
  }
  EXPECT_EQ(overloaded, result.backpressure_rejects);
}

}  // namespace
}  // namespace streamrel
