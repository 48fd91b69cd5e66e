// Seeded, grammar-aware fuzzing of the wire protocol. The seed corpus is
// the worked daemon sessions in examples/data (server_session.jsonl and
// server_restart.jsonl). Each mutant is derived from one corpus line by
// token drops and duplicates, value type swaps, nesting to 255/256/257
// levels around the JSON depth cap, truncation and bit flips, then driven
// through parse_wire_request and ReliabilityService::handle_line. Every
// line must be answered exactly once — a result or a structured error —
// and never crash: parse_wire_request may only throw WireParseError,
// which is all handle_line catches. The seed and the iteration count are
// fixed, so a failure reproduces exactly.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "streamrel/api/wire.hpp"
#include "streamrel/server/service.hpp"
#include "streamrel/util/json.hpp"
#include "streamrel/util/prng.hpp"

#ifndef STREAMREL_EXAMPLES_DATA_DIR
#error "STREAMREL_EXAMPLES_DATA_DIR must name examples/data"
#endif

namespace streamrel {
namespace {

std::vector<std::string> read_lines(const std::string& name) {
  std::ifstream in(std::string(STREAMREL_EXAMPLES_DATA_DIR) + "/" + name);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// One JSON lexical token of a corpus line: a string literal (escapes
/// included), a number, a literal word, or one punctuation byte.
/// Whitespace between tokens is dropped; the mutants rejoin tokens with a
/// single space.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == ' ' || c == '\t') {
      ++i;
    } else if (c == '"') {
      std::size_t j = i + 1;
      while (j < line.size() && line[j] != '"') {
        j += line[j] == '\\' ? std::size_t{2} : std::size_t{1};
      }
      j = std::min(j + 1, line.size());
      tokens.push_back(line.substr(i, j - i));
      i = j;
    } else if (std::string("{}[]:,").find(c) != std::string::npos) {
      tokens.emplace_back(1, c);
      ++i;
    } else {
      std::size_t j = i;
      while (j < line.size() &&
             std::string(" \t{}[]:,\"").find(line[j]) == std::string::npos) {
        ++j;
      }
      tokens.push_back(line.substr(i, j - i));
      i = j;
    }
  }
  return tokens;
}

std::string join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

bool is_value(const std::string& token) {
  return std::string("{}[]:,").find(token[0]) == std::string::npos;
}

/// A replacement value of some JSON type (bounded numbers: the fuzzer
/// probes the grammar, not the solver's worst case).
std::string random_value(Xoshiro256& rng) {
  static const char* const kValues[] = {
      "0",    "-1",  "3",      "2.5",     "1e308", "-0",   "true",
      "false", "null", "\"\"", "\"solve\"", "\"x\"", "[]",   "{}",
      "[1, 2]", "{\"edge\": 0, \"p\": 0.5}", "\"\\u0000\"", "\"\\ud800\""};
  return kValues[rng.uniform_below(std::size(kValues))];
}

/// `value` wrapped so that, inside the top-level object, it sits at
/// `depth` levels of nesting (the object itself is level 1).
std::string nest(const std::string& value, std::size_t depth, bool arrays) {
  std::string open;
  std::string close;
  for (std::size_t level = 1; level < depth; ++level) {
    open += arrays ? "[" : "{\"k\": ";
    close += arrays ? "]" : "}";
  }
  return open + value + close;
}

std::string mutate(const std::string& line, Xoshiro256& rng) {
  std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty()) return line;
  const std::size_t at = rng.uniform_below(tokens.size());
  switch (rng.uniform_below(6)) {
    case 0:  // token drop
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
      return join(tokens);
    case 1:  // token duplicate
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                    tokens[at]);
      return join(tokens);
    case 2: {  // type swap of one value
      std::vector<std::size_t> values;
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (is_value(tokens[i])) values.push_back(i);
      }
      if (values.empty()) return join(tokens);
      tokens[values[rng.uniform_below(values.size())]] = random_value(rng);
      return join(tokens);
    }
    case 3: {  // one value nested to 255, 256 or 257 levels
      std::vector<std::size_t> values;
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (is_value(tokens[i]) && i > 0 && tokens[i - 1] == ":") {
          values.push_back(i);
        }
      }
      if (values.empty()) return join(tokens);
      const std::size_t depth = 255 + rng.uniform_below(3);
      std::string& value = tokens[values[rng.uniform_below(values.size())]];
      value = nest(value, depth, rng.uniform_below(2) == 0);
      return join(tokens);
    }
    case 4:  // truncation
      return line.substr(0, rng.uniform_below(line.size() + 1));
    default: {  // 1-3 bit flips
      std::string out = line;
      const int flips = 1 + static_cast<int>(rng.uniform_below(3));
      for (int f = 0; f < flips; ++f) {
        const std::size_t byte = rng.uniform_below(out.size());
        out[byte] = static_cast<char>(
            static_cast<unsigned char>(out[byte]) ^
            (1u << rng.uniform_below(8)));
      }
      return out;
    }
  }
}

TEST(WireFuzz, MutatedSessionLinesAlwaysGetAResponse) {
  std::vector<std::string> corpus = read_lines("server_session.jsonl");
  const std::vector<std::string> restart = read_lines("server_restart.jsonl");
  ASSERT_EQ(corpus.size(), 14u);
  ASSERT_EQ(restart.size(), 7u);
  corpus.insert(corpus.end(), restart.begin(), restart.end());

  ReliabilityService service;
  const auto drive = [&service](const std::string& line) {
    int responses = 0;
    WireResponse last;
    service.handle_line(line, [&](WireResponse response) {
      ++responses;
      last = std::move(response);
    });
    EXPECT_EQ(responses, 1) << line;
    if (last.ok) {
      EXPECT_NO_THROW(parse_json(last.result_json)) << line;
    } else {
      EXPECT_FALSE(last.error_code.empty()) << line;
    }
    // Whatever came back renders as one valid JSON line.
    const std::string rendered = serialize_wire_response(last);
    EXPECT_EQ(rendered.find('\n'), std::string::npos) << line;
    EXPECT_NO_THROW(parse_json(rendered)) << line;
    return last.ok;
  };
  // The unmutated corpus first, so later mutants find registered tenants.
  for (const std::string& line : corpus) drive(line);

  Xoshiro256 rng(0xf0220ed);
  constexpr int kIterations = 4000;
  int parsed = 0;
  int answered_ok = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string& seed = corpus[rng.uniform_below(corpus.size())];
    std::string line = mutate(seed, rng);
    if (rng.uniform_below(4) == 0) line = mutate(line, rng);  // stacked
    try {
      parse_wire_request(line);
      ++parsed;
    } catch (const WireParseError& e) {
      EXPECT_FALSE(e.code().empty()) << line;
    }
    // Any other exception type escapes here and fails the test: it would
    // escape handle_line too.
    answered_ok += drive(line) ? 1 : 0;
  }
  // Some mutants get past the parser and into the verbs (about 4% parse
  // and 3% succeed at this seed; most mutants are protocol errors).
  EXPECT_GT(parsed, kIterations / 50);
  EXPECT_GT(answered_ok, kIterations / 100);
}

}  // namespace
}  // namespace streamrel
