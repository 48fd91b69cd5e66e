#include "streamrel/api/wire.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "streamrel/server/service.hpp"
#include "streamrel/server/transport.hpp"
#include "streamrel/util/json.hpp"

namespace streamrel {
namespace {

WireParseError capture_error(std::string_view line) {
  try {
    (void)parse_wire_request(line);
  } catch (const WireParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected WireParseError for: " << line;
  return WireParseError("", "");
}

TEST(Wire, ParsesMinimalSolveRequestWithDefaults) {
  const WireRequest req = parse_wire_request(R"({"v": 1, "verb": "solve"})");
  EXPECT_EQ(req.version, kWireSchemaVersion);
  EXPECT_EQ(req.id_json, "null");
  EXPECT_EQ(req.verb, WireVerb::kSolve);
  EXPECT_EQ(req.tenant, "default");
  EXPECT_EQ(req.network_id, "default");
  EXPECT_EQ(req.lane, WireLane::kInteractive);
  EXPECT_EQ(req.deadline_ms, 0.0);
  EXPECT_FALSE(req.query.source.has_value());
  EXPECT_FALSE(req.want_telemetry);
}

TEST(Wire, BatchAndReplayDefaultToBulkLane) {
  const WireRequest batch =
      parse_wire_request(R"({"v": 1, "verb": "batch", "queries": []})");
  EXPECT_EQ(batch.lane, WireLane::kBulk);
  const WireRequest replay = parse_wire_request(
      R"({"v": 1, "verb": "replay", "events": [], "cold": true})");
  EXPECT_EQ(replay.lane, WireLane::kBulk);
  EXPECT_TRUE(replay.cold);
  // An explicit lane wins over the verb default.
  const WireRequest pinned = parse_wire_request(
      R"({"v": 1, "verb": "batch", "queries": [], "lane": "interactive"})");
  EXPECT_EQ(pinned.lane, WireLane::kInteractive);
}

TEST(Wire, ParsesFullSolvePayload) {
  const WireRequest req = parse_wire_request(
      R"({"v": 1, "id": 7, "verb": "solve", "tenant": "alpha",)"
      R"( "network_id": "mesh", "deadline_ms": 50, "max_threads": 2,)"
      R"( "telemetry": true, "trace": true, "source": 0, "sink": 3,)"
      R"( "d": 2, "method": "frontier",)"
      R"( "overrides": [{"edge": 1, "p": 0.5}]})");
  EXPECT_EQ(req.id_json, "7");
  EXPECT_EQ(req.tenant, "alpha");
  EXPECT_EQ(req.network_id, "mesh");
  EXPECT_EQ(req.deadline_ms, 50.0);
  EXPECT_EQ(req.max_threads, 2);
  EXPECT_TRUE(req.want_telemetry);
  EXPECT_TRUE(req.want_trace);
  ASSERT_TRUE(req.query.source.has_value());
  EXPECT_EQ(*req.query.source, 0);
  ASSERT_TRUE(req.query.sink.has_value());
  EXPECT_EQ(*req.query.sink, 3);
  ASSERT_TRUE(req.query.rate.has_value());
  EXPECT_EQ(*req.query.rate, 2);
  EXPECT_EQ(req.query.method, Method::kFrontier);
  ASSERT_EQ(req.query.overrides.size(), 1u);
  EXPECT_EQ(req.query.overrides[0].edge, 1u);
  EXPECT_EQ(req.query.overrides[0].failure_prob, 0.5);
}

TEST(Wire, ErrorCodesMatchTheContract) {
  EXPECT_EQ(capture_error("not json").code(), "parse_error");
  EXPECT_EQ(capture_error("[1, 2]").code(), "bad_request");
  EXPECT_EQ(capture_error(R"({"verb": "solve"})").code(), "bad_request");
  EXPECT_EQ(capture_error(R"({"v": 2, "verb": "solve"})").code(),
            "unsupported_version");
  EXPECT_EQ(capture_error(R"({"v": 1, "verb": "explode"})").code(),
            "unknown_verb");
  EXPECT_EQ(capture_error(R"({"v": 1, "verb": "batch"})").code(),
            "bad_request");
  EXPECT_EQ(capture_error(R"({"v": 1, "verb": "replay"})").code(),
            "bad_request");
  EXPECT_EQ(
      capture_error(R"({"v": 1, "verb": "register_network"})").code(),
      "bad_request");
}

TEST(Wire, ErrorsStillEchoTheRequestId) {
  const WireParseError versioned =
      capture_error(R"({"v": 3, "id": "abc", "verb": "solve"})");
  EXPECT_EQ(versioned.code(), "unsupported_version");
  EXPECT_EQ(versioned.id_json(), "\"abc\"");
  EXPECT_EQ(std::string(versioned.what()),
            "unsupported wire schema version 3 (this build speaks 1)");

  const WireParseError payload = capture_error(
      R"({"v": 1, "id": 9, "verb": "solve", "method": "psychic"})");
  EXPECT_EQ(payload.id_json(), "9");
  EXPECT_EQ(payload.verb(), "solve");
}

TEST(Wire, IdMustBeAScalar) {
  const WireParseError e =
      capture_error(R"({"v": 1, "id": [1], "verb": "stats"})");
  EXPECT_EQ(e.code(), "bad_request");
}

TEST(Wire, IdRenderingPreservesScalarKinds) {
  EXPECT_EQ(parse_wire_request(R"({"v":1,"id":42,"verb":"stats"})").id_json,
            "42");
  EXPECT_EQ(
      parse_wire_request(R"({"v":1,"id":"q-1","verb":"stats"})").id_json,
      "\"q-1\"");
  EXPECT_EQ(parse_wire_request(R"({"v":1,"id":true,"verb":"stats"})").id_json,
            "true");
  EXPECT_EQ(parse_wire_request(R"({"v":1,"id":null,"verb":"stats"})").id_json,
            "null");
  // Non-integral numbers survive as numbers.
  const std::string fractional =
      parse_wire_request(R"({"v":1,"id":1.5,"verb":"stats"})").id_json;
  EXPECT_EQ(parse_json(fractional).as_number(), 1.5);
}

TEST(Wire, RoundTripsEveryVerb) {
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.id_json = "11";
  solve.tenant = "alpha";
  solve.deadline_ms = 25.0;
  solve.max_threads = 3;
  solve.want_telemetry = true;
  solve.query.source = 0;
  solve.query.sink = 4;
  solve.query.rate = 2;
  solve.query.method = Method::kBottleneck;
  solve.query.overrides.push_back(ProbOverride{2, 0.25});

  const WireRequest solve2 = parse_wire_request(serialize_wire_request(solve));
  EXPECT_EQ(solve2.id_json, "11");
  EXPECT_EQ(solve2.tenant, "alpha");
  EXPECT_EQ(solve2.deadline_ms, 25.0);
  EXPECT_EQ(solve2.max_threads, 3);
  EXPECT_TRUE(solve2.want_telemetry);
  EXPECT_EQ(solve2.query.method, Method::kBottleneck);
  ASSERT_EQ(solve2.query.overrides.size(), 1u);
  EXPECT_EQ(solve2.query.overrides[0].failure_prob, 0.25);

  WireRequest reg;
  reg.verb = WireVerb::kRegisterNetwork;
  reg.network_text = "nodes 2\nedge 0 1 cap 1 p 0.1\n";
  reg.query.source = 0;
  reg.query.sink = 1;
  reg.query.rate = 1;
  reg.max_mask_tables = 16;
  const WireRequest reg2 = parse_wire_request(serialize_wire_request(reg));
  EXPECT_EQ(reg2.network_text, reg.network_text);
  ASSERT_TRUE(reg2.max_mask_tables.has_value());
  EXPECT_EQ(*reg2.max_mask_tables, 16u);

  WireRequest batch;
  batch.verb = WireVerb::kBatch;
  batch.lane = WireLane::kBulk;  // the verb default; stays implicit on the wire
  batch.queries.resize(2);
  batch.queries[1].rate = 3;
  batch.queries[1].deadline_ms = 1.5;
  const WireRequest batch2 = parse_wire_request(serialize_wire_request(batch));
  EXPECT_EQ(batch2.lane, WireLane::kBulk);
  ASSERT_EQ(batch2.queries.size(), 2u);
  EXPECT_FALSE(batch2.queries[0].rate.has_value());
  ASSERT_TRUE(batch2.queries[1].rate.has_value());
  EXPECT_EQ(*batch2.queries[1].rate, 3);
  EXPECT_EQ(batch2.queries[1].deadline_ms, 1.5);

  WireRequest delta;
  delta.verb = WireVerb::kApplyDelta;
  delta.delta.set_failure_prob(0, 0.75);
  delta.delta.set_capacity(1, 4);
  delta.delta.nodes_added = 1;
  delta.delta.add_edge(0, 2, 2, 0.1);
  delta.delta.remove_edge(3);
  const WireRequest delta2 = parse_wire_request(serialize_wire_request(delta));
  ASSERT_EQ(delta2.delta.prob_edits.size(), 1u);
  EXPECT_EQ(delta2.delta.prob_edits[0].failure_prob, 0.75);
  ASSERT_EQ(delta2.delta.capacity_edits.size(), 1u);
  EXPECT_EQ(delta2.delta.nodes_added, 1);
  ASSERT_EQ(delta2.delta.edge_adds.size(), 1u);
  ASSERT_EQ(delta2.delta.edge_removes.size(), 1u);
  EXPECT_EQ(delta2.delta.edge_removes[0], 3u);

  WireRequest replay;
  replay.verb = WireVerb::kReplay;
  replay.cold = true;
  replay.events.resize(2);
  replay.events[0].time = 0.5;
  replay.events[0].label = "link \"3\" degrades";
  replay.events[0].delta.set_failure_prob(3, 0.25);
  replay.events[1].time = 1.0;
  replay.events[1].delta.remove_node(5);
  const WireRequest replay2 =
      parse_wire_request(serialize_wire_request(replay));
  EXPECT_TRUE(replay2.cold);
  ASSERT_EQ(replay2.events.size(), 2u);
  EXPECT_EQ(replay2.events[0].time, 0.5);
  EXPECT_EQ(replay2.events[0].label, "link \"3\" degrades");
  ASSERT_EQ(replay2.events[1].delta.node_removes.size(), 1u);

  WireRequest stats;
  stats.verb = WireVerb::kStats;
  EXPECT_EQ(parse_wire_request(serialize_wire_request(stats)).verb,
            WireVerb::kStats);
}

TEST(Wire, BatchFileGrammarKeepsTheLegacyErrorStrings) {
  EXPECT_THROW((void)parse_batch_file("{\"nope\": 1}"), WireParseError);
  try {
    (void)parse_batch_file("{\"nope\": 1}");
  } catch (const WireParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "batch file needs a top-level array or a \"queries\" key");
  }
  try {
    (void)parse_batch_file(R"([{"method": "psychic"}])");
    ADD_FAILURE() << "unknown method accepted";
  } catch (const WireParseError& e) {
    EXPECT_EQ(std::string(e.what()), "unknown method 'psychic' in batch file");
  }
  try {
    (void)parse_batch_file(R"([{"overrides": [{"edge": 1}]}])");
    ADD_FAILURE() << "bad override accepted";
  } catch (const WireParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "override needs \"edge\" and \"p\" members");
  }
  // Malformed JSON propagates unwrapped, like the pre-wire parser.
  EXPECT_THROW((void)parse_batch_file("{"), std::invalid_argument);

  const WireRequest bare = parse_batch_file(R"([{"d": 2}, {}])");
  EXPECT_EQ(bare.verb, WireVerb::kBatch);
  EXPECT_EQ(bare.lane, WireLane::kBulk);
  ASSERT_EQ(bare.queries.size(), 2u);
  const WireRequest keyed = parse_batch_file(
      R"({"queries": [{}], "max_mask_tables": 8})");
  ASSERT_TRUE(keyed.max_mask_tables.has_value());
  EXPECT_EQ(*keyed.max_mask_tables, 8u);
}

TEST(Wire, ResponseEnvelopeAndErrors) {
  WireResponse ok;
  ok.id_json = "3";
  ok.verb = "solve";
  ok.result_json = R"({"reliability": 1})";
  const std::string line = serialize_wire_response(ok);
  const JsonValue doc = parse_json(line);
  EXPECT_EQ(doc.find("v")->as_number(), kWireSchemaVersion);
  EXPECT_EQ(doc.find("id")->as_number(), 3.0);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("result")->find("reliability")->as_number(), 1.0);

  const WireResponse err = make_wire_error(
      "\"q\"", "solve", "bad_request", "a \"quoted\"\nmessage");
  const JsonValue edoc = parse_json(serialize_wire_response(err));
  EXPECT_FALSE(edoc.find("ok")->as_bool());
  EXPECT_EQ(edoc.find("error")->find("code")->as_string(), "bad_request");
  EXPECT_EQ(edoc.find("error")->find("message")->as_string(),
            "a \"quoted\"\nmessage");
}

TEST(Wire, DeeplyNestedLineIsAParseError) {
  // 50 000 levels would overflow the recursive parser's stack; the depth
  // cap turns the line into an ordinary parse_error instead.
  const std::size_t levels = 50'000;
  const std::string deep = std::string(levels, '[') + std::string(levels, ']');
  const WireParseError e = capture_error(deep);
  EXPECT_EQ(e.code(), "parse_error");
  EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  std::string objects = R"({"v": 1, "verb": "solve", "x": )";
  for (std::size_t i = 0; i < levels; ++i) objects += R"({"a": )";
  EXPECT_EQ(capture_error(objects).code(), "parse_error");

  // The cap sits at 256 levels: the 256-deep document still parses.
  const std::string at_cap = std::string(256, '[') + std::string(256, ']');
  EXPECT_NO_THROW(parse_json(at_cap));
  const std::string over_cap = std::string(257, '[') + std::string(257, ']');
  EXPECT_THROW(parse_json(over_cap), std::invalid_argument);
}

TEST(Wire, LineCapIsExactOnTheStreamTransport) {
  // A line of exactly kMaxWireLineBytes is read and parsed (here: a
  // parse_error); one byte more is payload_too_large without a parse.
  // Either way the next line on the stream is answered.
  ReliabilityService service;
  std::stringstream in;
  in << std::string(kMaxWireLineBytes, 'x') << "\n"
     << std::string(kMaxWireLineBytes + 1, 'x') << "\n"
     << R"({"v": 1, "id": 3, "verb": "stats"})";  // no trailing newline
  std::stringstream out;
  const StreamServeResult served = serve_stream(service, in, out);
  EXPECT_EQ(served.responses, 3u);

  std::vector<JsonValue> docs;
  std::string line;
  while (std::getline(out, line)) docs.push_back(parse_json(line));
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0].find("error")->find("code")->as_string(), "parse_error");
  EXPECT_EQ(docs[1].find("error")->find("code")->as_string(),
            "payload_too_large");
  EXPECT_EQ(docs[1].find("v")->as_number(), kWireSchemaVersion);
  EXPECT_TRUE(docs[2].find("ok")->as_bool());
  EXPECT_EQ(docs[2].find("id")->as_number(), 3.0);
}

TEST(Wire, AppendJsonMemberSplicesBeforeTheBrace) {
  std::string empty = "{}";
  append_json_member(empty, "shed", "true");
  EXPECT_EQ(empty, "{\"shed\": true}");
  std::string populated = "{\"a\": 1}";
  append_json_member(populated, "b", "[2]");
  EXPECT_EQ(populated, "{\"a\": 1, \"b\": [2]}");
}

TEST(Wire, JsonQuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  // Control characters take the \u00XX form and parse back.
  const std::string quoted = json_quote(std::string("\x01", 1));
  EXPECT_EQ(parse_json(quoted).as_string(), std::string("\x01", 1));
}

}  // namespace
}  // namespace streamrel
