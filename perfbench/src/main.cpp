// perfbench_loadgen — socket-level serving benchmark of streamrel_serve.
//
//   perfbench_loadgen --serve PATH --workload NAME --seed N --seconds S
//                     --trace 0|1 --limit-ms MS --rate RPS --work-dir DIR
//
// Forks the daemon (default flags plus --port 0; churn_journal adds
// --state-dir and --no-state-fsync), drives it over TCP loopback from
// this single thread through at most four connections, and prints one
// JSON object as its last stdout line. perfbench/README.md documents
// every metric; perfbench/run.py builds the binaries and calls this.
//
// A run is: set-up (fork -> every tenant registered and warmed by one
// cold solve; repeated, median reported), an open-loop fixed-rate phase
// (Poisson arrivals, latency timed from the scheduled send time), a
// closed-loop saturation phase (fixed requests in flight per
// connection), the churn_journal restart leg, and the correctness gate.
// With --trace 1 every compute request asks for span summaries and
// telemetry, an untraced saturation phase runs beside the traced one,
// and a sample of lines is replayed in-process through the wire layer;
// the result then holds the per-layer metrics instead.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "client.hpp"
#include "daemon.hpp"
#include "streamrel/streamrel.hpp"
#include "streamrel/util/cli.hpp"
#include "streamrel/util/table.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace streamrel;

constexpr int kConnections = 4;
/// The open-loop sender keeps fewer requests than the daemon's default
/// per-connection cap (--max-inflight 64) outstanding on a connection,
/// with a margin for the instant between a response reaching the client
/// and the daemon releasing its slot; a request past the cap would be
/// refused, not served.
constexpr std::uint64_t kMaxInflightPerConnection = 56;
/// Share of the fixed-rate phase the daemon gets, after the schedule
/// ends, to work off a backlog before the rest is abandoned.
constexpr double kBacklogGrace = 0.25;
constexpr int kSetupReps = 15;
constexpr int kMaxChecks = 48;
constexpr double kCheckShare = 0.02;
constexpr double kSampleEveryMs = 50.0;
/// The generator fell behind its schedule when its median lateness
/// passes this share of the workload's latency limit, or when it kept a
/// core busier than kMaxGeneratorShare. Occasional late sends, when the
/// whole machine stalls, are reported (bench.late_ms_p99) but pass.
constexpr double kMaxLateShare = 0.1;
constexpr double kMaxGeneratorShare = 0.9;
constexpr int kWireReplayLines = 256;
/// A phase in which the host stole more than this share of the VM's CPU
/// time is flagged on stderr: its figures measure the host as much as
/// the daemon. The figures themselves are never filtered by steal.
constexpr double kStealWarnShare = 0.02;

/// The open-loop sender runs at real-time priority 1: a timer wakeup of
/// a normal-priority thread waits milliseconds behind the daemon's
/// runnable threads, and the latencies would then measure the client.
/// Reset-on-fork keeps the daemon an ordinary process. Without the
/// privilege the run goes on and the lateness check decides.
void set_realtime(bool on) {
  sched_param param{};
  param.sched_priority = on ? 1 : 0;
  const int policy = on ? SCHED_FIFO | SCHED_RESET_ON_FORK : SCHED_OTHER;
  if (::sched_setscheduler(0, policy, &param) != 0 && on) {
    std::cerr << "note: no real-time priority for the generator\n";
  }
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Cumulative CPU time of the whole VM and the part of it the host took
/// away ("steal" in /proc/stat), in clock ticks.
struct HostSample {
  double steal = 0.0;
  double total = 0.0;
};

HostSample read_host() {
  HostSample h;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal
  double v = 0.0;
  for (int i = 1; i <= 8 && stat >> v; ++i) {
    h.total += v;
    if (i == 8) h.steal = v;
  }
  return h;
}

/// Share of the VM's CPU time the host stole between two samples.
double steal_share(const HostSample& from, const HostSample& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

/// Raw rendered value of the first `"key": ` member in a response line
/// (up to the next ',' or '}'); empty when absent. The daemon renders
/// the envelope members (v, id, verb, ok) first, so top-level lookups of
/// those never hit a nested key.
std::string_view raw_member(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle.append(key);
  needle += "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find_first_of(",}", start);
  return line.substr(start, end == std::string_view::npos ? end : end - start);
}

double number_or(const JsonValue* v, double fallback = 0.0) {
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

enum class Tag {
  kSolve,
  kBatch,
  kDelta,
  kRegister,
  kColdSolve,
  kProbe,
  kStats,
  kScrape,
  kShutdown,
};

bool is_compute(Tag t) {
  return t == Tag::kSolve || t == Tag::kBatch || t == Tag::kDelta;
}

enum class Phase { kControl, kFixedRate, kSaturation };

struct Sent {
  Tag tag = Tag::kSolve;
  Phase phase = Phase::kControl;
  int conn = 0;
  int tenant = -1;
  bool bulk = false;
  bool traced = false;
  bool answered = false;
  Clock::time_point due;   ///< scheduled send (open loop) or send time
  Clock::time_point sent;  ///< actual send time
  // churn: the tenant's delta count at send, and whether none was in
  // flight then (see the unambiguity rule in the README)
  std::size_t deltas_before = 0;
  bool clean = true;
  std::size_t delta_index = 0;  ///< kDelta: its place in Tenant::deltas
  bool check = false;  ///< seed-chosen for the in-process oracle
  std::vector<ProbOverride> overrides;
  std::string reply;  ///< kept for control requests only
};

/// One oracle check: a solve answered from an unambiguous state.
struct Check {
  int tenant = 0;
  std::size_t deltas = 0;
  std::vector<ProbOverride> overrides;
  std::string method;
  std::string reliability;  ///< as rendered by the daemon
};

struct SpanSum {
  std::uint64_t count = 0;
  double ms = 0.0;
};

/// Per-layer accumulators, filled from traced responses of one phase.
struct LayerTrace {
  std::map<std::string, SpanSum> spans;
  std::vector<double> outside_ms;    ///< interactive: client wall - elapsed
  std::vector<double> lock_wait_ms;  ///< solve: elapsed - prepare - accumulate
  std::vector<double> delta_ms;      ///< session_delta span per apply_delta
  std::vector<double> scrape_ms;     ///< metrics verb client wall
  double series_count = 0.0;
  double elapsed_sum_ms = 0.0;  ///< interactive solves: server elapsed_ms
  double wall_sum_ms = 0.0;     ///< interactive solves: client wall
  std::uint64_t interactive = 0;
  std::uint64_t solves_accumulated = 0;
  double accumulate_ms = 0.0;
  double computed_configs = 0.0;  ///< 2^|E_s| + 2^|E_t| per accumulation
  double sweep_configs = 0.0;
  double sweep_tel_ms = 0.0;
  double maxflow_calls = 0.0;
  double lanes_wordwise = 0.0;
  double scalar_residue = 0.0;
  std::uint64_t batches = 0;
  double batch_prepare_ms = 0.0;
  double batch_accumulate_ms = 0.0;
};

struct PhaseStats {
  Clock::time_point start;
  Clock::time_point end;
  /// Responses that are ok, not shed, within the latency limit, and
  /// received before `end`.
  std::uint64_t good = 0;
  std::uint64_t compute_done = 0;
  std::vector<double> interactive_ms;
  std::vector<double> bulk_ms;
  std::vector<double> late_ms;
  /// Requests that found their connection at the in-flight cap.
  std::uint64_t held = 0;
  double steal_share = 0.0;  ///< host steal over the phase
  double daemon_cpu_s = 0.0;
  double gen_cpu_s = 0.0;
  LayerTrace* layer = nullptr;  ///< set for traced phases
};

struct Options {
  std::string serve;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double limit_ms = 0.0;
  double rate = 0.0;
  std::string work_dir;
};

class Bench {
 public:
  Bench(Options opts, WorkloadSpec spec)
      : opts_(std::move(opts)),
        spec_(std::move(spec)),
        tenants_(make_tenants(spec_, opts_.seed)),
        rng_(opts_.seed * std::uint64_t{0x9e3779b97f4a7c15} + 11),
        check_rng_(opts_.seed * std::uint64_t{0x9e3779b97f4a7c15} + 29),
        deltas_sent_(tenants_.size(), 0),
        deltas_acked_(tenants_.size(), 0),
        delta_order_(tenants_.size()),
        trusted_deltas_(tenants_.size(), kAllDeltas),
        sent_(1) {}

  /// Fork -> all tenants registered and warmed; returns seconds.
  double setup(int rep);
  void fixed_rate(double seconds, bool traced, PhaseStats& out);
  void saturation(double seconds, bool traced, PhaseStats& out);
  /// stats verb result object, parsed.
  JsonValue stats();
  /// churn_journal: shutdown, reboot from the state dir, compare probes.
  bool restart_leg(double* restore_ms);
  /// Sends shutdown and waits for a clean exit.
  bool stop_daemon();
  /// Replays the oracle sample in-process; returns mismatches.
  int verify_checks();
  void wire_replay(std::map<std::string, double>& metrics);

  ProcSample last_sample() {
    return daemon_ ? daemon_->sample() : ProcSample{};
  }
  int threads_max() const { return threads_max_; }
  double peak_rss_mb() const { return peak_hwm_mb_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_ + missing_; }
  bool protocol_ok() const {
    return internal_ == 0 && duplicates_ == 0 && unknown_ == 0 &&
           missing_ == 0 && !connection_lost_ && !lost_before_stop_ &&
           !history_lost_;
  }
  std::size_t checks() const { return checks_.size(); }
  /// Configurations one probability fold visits, computed from the side
  /// sizes (2^|E_s| + 2^|E_t|) rather than counted by the program.
  double computed_configs() const {
    return std::ldexp(1.0, spec_.links_s) + std::ldexp(1.0, spec_.links_t);
  }

 private:
  /// Draws the next request for `tenant` and fills its bookkeeping entry,
  /// which the caller must plan() or issue() next.
  Request draw(int tenant, Phase phase, bool traced, Sent* meta);
  std::uint64_t issue(int conn, Sent meta, const std::string& line);
  std::uint64_t plan(Sent meta);
  void send_planned(int conn, std::uint64_t id, const std::string& line,
                    Clock::time_point now);
  /// Handles one response line; returns the request it answered (null
  /// for unknown ids).
  Sent* on_line(std::string_view line, Clock::time_point at);
  void record_trace(const Sent& s, std::string_view line,
                    Clock::time_point at, LayerTrace& layer);
  bool drain(double timeout_s);
  void pump(Clock::time_point until);
  void maybe_sample(Clock::time_point now);
  int conn_of(int tenant) const { return tenant % kConnections; }
  std::vector<std::string> daemon_args(int rep) const;
  std::string state_dir(int rep) const {
    return opts_.work_dir + "/state" + std::to_string(rep);
  }
  /// Issues one probe solve per tenant and returns the rendered answer
  /// (reliability through links_reduced) per tenant.
  std::vector<std::string> probes(Clock::time_point* first_answer);

  Options opts_;
  WorkloadSpec spec_;
  std::vector<Tenant> tenants_;
  Xoshiro256 rng_;
  Xoshiro256 check_rng_;
  std::vector<std::size_t> deltas_sent_;
  std::vector<std::size_t> deltas_acked_;
  /// Per tenant, the Tenant::deltas indices in the order they were sent.
  /// A delta drawn but abandoned unsent leaves a gap in Tenant::deltas.
  std::vector<std::vector<std::size_t>> delta_order_;
  /// Per tenant, how many sent edits the oracle can still replay. An
  /// abandoned edit already moved the generator's copy of the tenant
  /// (say, a parallel link it later removes), so edits sent after it may
  /// be refused, and no later state of that tenant is checked.
  static constexpr std::size_t kAllDeltas = static_cast<std::size_t>(-1);
  std::vector<std::size_t> trusted_deltas_;
  std::vector<Sent> sent_;  ///< indexed by request id (0 unused)
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<Client> client_;
  int state_rep_ = 0;
  std::uint64_t outstanding_ = 0;
  std::vector<std::uint64_t> conn_outstanding_ =
      std::vector<std::uint64_t>(kConnections, 0);
  PhaseStats* phase_ = nullptr;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t internal_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t unknown_ = 0;
  std::uint64_t missing_ = 0;
  bool connection_lost_ = false;
  bool lost_before_stop_ = false;
  bool history_lost_ = false;
  int threads_max_ = 0;
  double peak_hwm_mb_ = 0.0;
  Clock::time_point next_sample_{};
  int errors_logged_ = 0;
};

std::vector<std::string> Bench::daemon_args(int rep) const {
  std::vector<std::string> args;
  if (spec_.durable) {
    args = {"--state-dir", state_dir(rep), "--no-state-fsync"};
  }
  return args;
}

Request Bench::draw(int tenant, Phase phase, bool traced, Sent* meta) {
  // The request's id is the index plan() gives its entry next.
  Request req = next_request(spec_, tenants_[static_cast<std::size_t>(tenant)],
                             rng_, sent_.size(), traced);
  meta->phase = phase;
  meta->tenant = tenant;
  meta->traced = traced;
  meta->tag = req.kind == RequestKind::kSolve   ? Tag::kSolve
              : req.kind == RequestKind::kBatch ? Tag::kBatch
                                                : Tag::kDelta;
  meta->bulk = req.bulk;
  if (meta->tag == Tag::kDelta) {
    meta->delta_index =
        tenants_[static_cast<std::size_t>(tenant)].deltas.size() - 1;
  }
  meta->check = meta->tag == Tag::kSolve && check_rng_.bernoulli(kCheckShare);
  if (meta->check) meta->overrides = req.overrides;
  return req;
}

std::uint64_t Bench::plan(Sent meta) {
  sent_.push_back(std::move(meta));
  return sent_.size() - 1;
}

void Bench::send_planned(int conn, std::uint64_t id, const std::string& line,
                         Clock::time_point now) {
  Sent& s = sent_[id];
  s.sent = now;
  s.conn = conn;
  ++conn_outstanding_[static_cast<std::size_t>(conn)];
  if (s.tag == Tag::kDelta) {
    const std::size_t t = static_cast<std::size_t>(s.tenant);
    ++deltas_sent_[t];
    delta_order_[t].push_back(s.delta_index);
  } else if (s.tag == Tag::kSolve && s.tenant >= 0) {
    const std::size_t t = static_cast<std::size_t>(s.tenant);
    s.deltas_before = deltas_sent_[t];
    s.clean = deltas_sent_[t] == deltas_acked_[t];
  }
  if (is_compute(s.tag)) ++attempted_;
  ++outstanding_;
  client_->send(conn, line);
}

std::uint64_t Bench::issue(int conn, Sent meta, const std::string& line) {
  const Clock::time_point now = Clock::now();
  meta.due = now;
  const std::uint64_t id = plan(std::move(meta));
  send_planned(conn, id, line, now);
  return id;
}

void Bench::maybe_sample(Clock::time_point now) {
  if (now < next_sample_ || !daemon_) return;
  next_sample_ = now + std::chrono::microseconds(
                           static_cast<long long>(kSampleEveryMs * 1000.0));
  const ProcSample s = daemon_->sample();
  threads_max_ = std::max(threads_max_, s.threads);
  peak_hwm_mb_ = std::max(peak_hwm_mb_, s.hwm_mb);
}

Sent* Bench::on_line(std::string_view line, Clock::time_point at) {
  const std::string_view id_text = raw_member(line, "id");
  std::uint64_t id = 0;
  for (char c : id_text) {
    if (c < '0' || c > '9') {
      id = 0;
      break;
    }
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (id == 0 || id >= sent_.size()) {
    ++unknown_;
    std::cerr << "response with an unknown id: " << line.substr(0, 200)
              << "\n";
    return nullptr;
  }
  Sent& s = sent_[id];
  if (s.answered) {
    ++duplicates_;
    std::cerr << "second response for id " << id << "\n";
    return nullptr;
  }
  s.answered = true;
  --outstanding_;
  --conn_outstanding_[static_cast<std::size_t>(s.conn)];
  const bool ok = raw_member(line, "ok") == "true";
  if (!ok) {
    ++failed_;
    const std::string_view code = raw_member(line, "code");
    if (code == "\"internal\"") ++internal_;
    if (errors_logged_++ < 5) {
      std::cerr << "error response: " << line.substr(0, 300) << "\n";
    }
  }
  if (s.tag == Tag::kDelta) {
    const std::size_t t = static_cast<std::size_t>(s.tenant);
    ++deltas_acked_[t];
    // A refused edit never applied, so the benchmark's copy of the
    // tenant no longer matches the daemon's: nothing is checkable. After
    // an abandoned edit a refusal is expected and only counts as failed.
    if (!ok && trusted_deltas_[t] == kAllDeltas) history_lost_ = true;
  }
  if (!is_compute(s.tag) && s.tag != Tag::kScrape) s.reply.assign(line);
  if (s.tag == Tag::kSolve && ok && s.check &&
      static_cast<int>(checks_.size()) < kMaxChecks) {
    const std::size_t t = static_cast<std::size_t>(s.tenant);
    if (s.clean && deltas_sent_[t] == s.deltas_before &&
        s.deltas_before <= trusted_deltas_[t]) {
      Check c;
      c.tenant = s.tenant;
      c.deltas = s.deltas_before;
      c.overrides = s.overrides;
      const std::string_view method = raw_member(line, "method");
      if (method.size() >= 2) {
        c.method.assign(method.substr(1, method.size() - 2));
      }
      c.reliability.assign(raw_member(line, "reliability"));
      checks_.push_back(std::move(c));
    }
  }

  PhaseStats* phase = phase_;
  if (phase != nullptr && s.phase != Phase::kControl) {
    const double latency = ms_between(s.due, at);
    if (is_compute(s.tag)) {
      ++phase->compute_done;
      const bool shed = !raw_member(line, "shed").empty();
      if (ok && !shed && latency <= opts_.limit_ms && at <= phase->end) {
        ++phase->good;
      }
      (s.bulk ? phase->bulk_ms : phase->interactive_ms).push_back(latency);
    }
    if (phase->layer != nullptr && (s.traced || s.tag == Tag::kScrape) && ok) {
      record_trace(s, line, at, *phase->layer);
    }
  }
  return &s;
}

void Bench::record_trace(const Sent& s, std::string_view line,
                         Clock::time_point at, LayerTrace& layer) {
  const double wall = ms_between(s.sent, at);
  if (s.tag == Tag::kScrape) {
    layer.scrape_ms.push_back(wall);
    const std::string_view series = raw_member(line, "series");
    if (!series.empty()) layer.series_count = std::stod(std::string(series));
    return;
  }
  const JsonValue doc = parse_json(line);
  const JsonValue* result = doc.find("result");
  if (result == nullptr) return;
  std::map<std::string, SpanSum> spans;
  if (const JsonValue* trace = result->find("trace")) {
    if (const JsonValue* obj = trace->find("spans")) {
      for (const auto& [name, v] : obj->as_object()) {
        SpanSum sum;
        sum.count = static_cast<std::uint64_t>(number_or(v.find("count")));
        sum.ms = number_or(v.find("total_us")) / 1000.0;
        spans[name] = sum;
        SpanSum& total = layer.spans[name];
        total.count += sum.count;
        total.ms += sum.ms;
      }
    }
  }
  const auto span_ms = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.ms;
  };
  // Sweep counters: warm answers repeat the cached artifacts' telemetry,
  // so only responses that actually swept contribute.
  const auto sweep = spans.find("build_side_array");
  if (sweep != spans.end() && sweep->second.count > 0) {
    if (const JsonValue* tel = result->find("telemetry")) {
      layer.sweep_configs += number_or(tel->find("configurations"));
      layer.sweep_tel_ms += number_or(tel->find("sweep_ms"));
      layer.maxflow_calls += number_or(tel->find("maxflow_calls"));
      layer.lanes_wordwise += number_or(tel->find("lanes_decided_wordwise"));
      layer.scalar_residue += number_or(tel->find("scalar_residue"));
    }
  }
  const double configs = computed_configs();
  switch (s.tag) {
    case Tag::kSolve: {
      const double elapsed = number_or(result->find("elapsed_ms"));
      const double accumulate = span_ms("query_accumulate");
      layer.lock_wait_ms.push_back(
          std::max(0.0, elapsed - span_ms("query_prepare") - accumulate));
      if (spans.count("query_accumulate") != 0) {
        ++layer.solves_accumulated;
        layer.accumulate_ms += accumulate;
        layer.computed_configs += configs;
      }
      if (!s.bulk) {
        layer.outside_ms.push_back(wall - elapsed);
        layer.elapsed_sum_ms += elapsed;
        layer.wall_sum_ms += wall;
        ++layer.interactive;
      }
      break;
    }
    case Tag::kBatch: {
      ++layer.batches;
      layer.batch_prepare_ms += span_ms("batch_prepare");
      layer.batch_accumulate_ms += span_ms("batch_accumulate");
      break;
    }
    case Tag::kDelta:
      layer.delta_ms.push_back(span_ms("session_delta"));
      break;
    default:
      break;
  }
}

void Bench::pump(Clock::time_point until) {
  const Client::LineSink sink = [this](int, std::string_view line,
                                       Clock::time_point at) {
    on_line(line, at);
  };
  if (!client_->poll(until, sink)) connection_lost_ = true;
  maybe_sample(Clock::now());
}

bool Bench::drain(double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<long long>(timeout_s * 1000.0));
  while (outstanding_ > 0 && !connection_lost_) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) break;
    pump(std::min(deadline, now + std::chrono::milliseconds(50)));
  }
  if (outstanding_ > 0) {
    std::cerr << outstanding_ << " request(s) never answered\n";
    missing_ += outstanding_;
    outstanding_ = 0;
    return false;
  }
  return true;
}

double Bench::setup(int rep) {
  state_rep_ = rep;
  if (spec_.durable) {
    std::filesystem::remove_all(state_dir(rep));
    std::filesystem::create_directories(state_dir(rep));
  }
  const Clock::time_point t0 = Clock::now();
  daemon_ = std::make_unique<Daemon>(opts_.serve, daemon_args(rep));
  client_ = std::make_unique<Client>(daemon_->port(), kConnections);
  // Tenants are registered and warmed one after another. Pipelined, the
  // cold solves of all tenants build their artifacts at once, each with
  // its own OpenMP team on the same cores; on a shared host that set-up
  // time spread three to four times as much from run to run on
  // point_queries and whatif_mixed.
  std::vector<std::uint64_t> ids;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    Sent reg;
    reg.tag = Tag::kRegister;
    reg.tenant = static_cast<int>(t);
    const int conn = conn_of(static_cast<int>(t));
    ids.push_back(issue(conn, reg, register_line(tenants_[t], sent_.size())));
    Sent cold;
    cold.tag = Tag::kColdSolve;
    cold.tenant = static_cast<int>(t);
    ids.push_back(
        issue(conn, cold, plain_solve_line(tenants_[t], sent_.size())));
    drain(60.0);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (std::uint64_t id : ids) {
    if (raw_member(sent_[id].reply, "ok") != "true") {
      throw std::runtime_error("set-up request failed: " + sent_[id].reply);
    }
  }
  return seconds;
}

bool Bench::stop_daemon() {
  if (!daemon_) return true;
  // The daemon closes every connection once it has answered shutdown;
  // only a connection lost before that is a failure.
  lost_before_stop_ = lost_before_stop_ || connection_lost_;
  Sent stop;
  stop.tag = Tag::kShutdown;
  issue(0, stop, control_line(WireVerb::kShutdown, sent_.size()));
  drain(30.0);
  client_.reset();
  connection_lost_ = false;
  const bool exited = daemon_->wait_exit(std::chrono::seconds(30));
  const bool clean = exited && daemon_->exited_cleanly();
  if (!clean) {
    std::cerr << "daemon did not stop cleanly: " << daemon_->stderr_text()
              << "\n";
  }
  daemon_.reset();
  return clean;
}

void Bench::fixed_rate(double seconds, bool traced, PhaseStats& out) {
  // Pre-generate the whole schedule, so the send loop only sends.
  struct Planned {
    double due_ms;
    int conn;
    std::uint64_t id;
    std::string line;
  };
  std::vector<Planned> schedule;
  double t_ms = 0.0;
  double next_scrape_ms = spec_.scrape_every_ms;
  const double end_ms = seconds * 1000.0;
  for (;;) {
    t_ms += -std::log(1.0 - rng_.uniform01()) * 1000.0 / opts_.rate;
    while (spec_.scrape_every_ms > 0.0 && next_scrape_ms <= t_ms &&
           next_scrape_ms < end_ms) {
      Sent scrape;
      scrape.tag = Tag::kScrape;
      scrape.phase = Phase::kFixedRate;
      const std::uint64_t id = plan(scrape);
      schedule.push_back(
          {next_scrape_ms, 0, id, control_line(WireVerb::kMetrics, id)});
      next_scrape_ms += spec_.scrape_every_ms;
    }
    if (t_ms >= end_ms) break;
    const int tenant = static_cast<int>(rng_.uniform_below(tenants_.size()));
    Sent meta;
    Request req = draw(tenant, Phase::kFixedRate, traced, &meta);
    const std::uint64_t id = plan(std::move(meta));
    schedule.push_back({t_ms, conn_of(tenant), id, std::move(req.line)});
  }

  set_realtime(true);
  const double cpu0 = cpu_seconds_self();
  const ProcSample d0 = daemon_->sample();
  out.start = Clock::now() + std::chrono::milliseconds(2);
  out.end = out.start + std::chrono::microseconds(
                            static_cast<long long>(end_ms * 1000.0));
  phase_ = &out;
  const HostSample host0 = read_host();
  const auto due_at = [&](std::size_t i) {
    return out.start + std::chrono::microseconds(
                           static_cast<long long>(schedule[i].due_ms * 1000.0));
  };
  // Requests that are due but wait for a free in-flight slot on their
  // connection, oldest first. Their latency still counts from due time.
  std::vector<std::deque<std::size_t>> held(kConnections);
  std::size_t held_total = 0;
  // A backlog the daemon has not drained this long after the schedule
  // ended is abandoned: those requests count as failed (timed out).
  const Clock::time_point give_up =
      out.end + std::chrono::microseconds(
                    static_cast<long long>(end_ms * 1000.0 * kBacklogGrace));
  for (std::size_t i = 0; !connection_lost_;) {
    Clock::time_point now = Clock::now();
    if (now >= give_up) {
      for (std::deque<std::size_t>& queue : held) {
        for (std::size_t k : queue) {
          Sent& s = sent_[schedule[k].id];
          s.answered = true;
          if (is_compute(s.tag)) {
            ++attempted_;
            ++failed_;
          }
          if (s.tag == Tag::kDelta) {
            const std::size_t t = static_cast<std::size_t>(s.tenant);
            trusted_deltas_[t] = std::min(trusted_deltas_[t], deltas_sent_[t]);
          }
        }
        queue.clear();
      }
      std::cerr << "the daemon fell behind the offered load; abandoned "
                << held_total << " request(s)\n";
      break;
    }
    for (; i < schedule.size() && due_at(i) <= now; ++i) {
      sent_[schedule[i].id].due = due_at(i);
      out.late_ms.push_back(ms_between(due_at(i), now));
      const std::size_t c = static_cast<std::size_t>(schedule[i].conn);
      if (!held[c].empty() ||
          conn_outstanding_[c] >= kMaxInflightPerConnection) {
        ++out.held;
      }
      held[c].push_back(i);
      ++held_total;
    }
    for (std::deque<std::size_t>& queue : held) {
      while (!queue.empty()) {
        const Planned& p = schedule[queue.front()];
        if (conn_outstanding_[static_cast<std::size_t>(p.conn)] >=
            kMaxInflightPerConnection) {
          break;
        }
        send_planned(p.conn, p.id, p.line, Clock::now());
        queue.pop_front();
        --held_total;
      }
    }
    if (i == schedule.size() && held_total == 0) break;
    pump(i < schedule.size() ? due_at(i)
                             : Clock::now() + std::chrono::seconds(1));
  }
  drain(60.0);
  out.steal_share = steal_share(host0, read_host());
  phase_ = nullptr;
  out.gen_cpu_s = cpu_seconds_self() - cpu0;
  out.daemon_cpu_s = daemon_->sample().cpu_s - d0.cpu_s;
  set_realtime(false);
}

void Bench::saturation(double seconds, bool traced, PhaseStats& out) {
  std::vector<std::vector<int>> conn_tenants(kConnections);
  for (int t = 0; t < static_cast<int>(tenants_.size()); ++t) {
    conn_tenants[static_cast<std::size_t>(conn_of(t))].push_back(t);
  }
  const auto issue_next = [&](int conn) {
    const std::vector<int>& mine = conn_tenants[static_cast<std::size_t>(conn)];
    const int tenant = mine[rng_.uniform_below(mine.size())];
    Sent meta;
    const Request req = draw(tenant, Phase::kSaturation, traced, &meta);
    issue(conn, std::move(meta), req.line);
  };

  const double cpu0 = cpu_seconds_self();
  const ProcSample d0 = daemon_->sample();
  out.start = Clock::now();
  out.end = out.start + std::chrono::microseconds(
                            static_cast<long long>(seconds * 1e6));
  phase_ = &out;
  const HostSample host0 = read_host();
  for (int c = 0; c < kConnections; ++c) {
    if (conn_tenants[static_cast<std::size_t>(c)].empty()) continue;
    for (int k = 0; k < spec_.closed_inflight; ++k) issue_next(c);
  }
  const auto scrape_period = std::chrono::microseconds(
      static_cast<long long>(spec_.scrape_every_ms * 1000.0));
  Clock::time_point next_scrape = out.start + scrape_period;
  const Client::LineSink sink = [&](int conn, std::string_view line,
                                    Clock::time_point at) {
    const Sent* s = on_line(line, at);
    if (s != nullptr && is_compute(s->tag) && at < out.end) issue_next(conn);
  };
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= out.end || connection_lost_) break;
    if (spec_.scrape_every_ms > 0.0 && now >= next_scrape) {
      Sent scrape;
      scrape.tag = Tag::kScrape;
      scrape.phase = Phase::kSaturation;
      issue(0, scrape, control_line(WireVerb::kMetrics, sent_.size()));
      next_scrape += scrape_period;
    }
    Clock::time_point until = out.end;
    if (spec_.scrape_every_ms > 0.0) until = std::min(until, next_scrape);
    if (!client_->poll(until, sink)) connection_lost_ = true;
    maybe_sample(Clock::now());
  }
  drain(60.0);
  out.steal_share = steal_share(host0, read_host());
  phase_ = nullptr;
  out.gen_cpu_s = cpu_seconds_self() - cpu0;
  out.daemon_cpu_s = daemon_->sample().cpu_s - d0.cpu_s;
}

JsonValue Bench::stats() {
  Sent s;
  s.tag = Tag::kStats;
  const std::uint64_t id =
      issue(0, s, control_line(WireVerb::kStats, sent_.size()));
  drain(30.0);
  const JsonValue doc = parse_json(sent_[id].reply);
  const JsonValue* result = doc.find("result");
  return result != nullptr ? *result : JsonValue();
}

std::vector<std::string> Bench::probes(Clock::time_point* first_answer) {
  std::vector<std::uint64_t> ids;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    Sent p;
    p.tag = Tag::kProbe;
    p.tenant = static_cast<int>(t);
    ids.push_back(issue(conn_of(static_cast<int>(t)), p,
                        plain_solve_line(tenants_[t], sent_.size())));
  }
  if (first_answer != nullptr) {
    while (outstanding_ == ids.size() && !connection_lost_) {
      pump(Clock::now() + std::chrono::seconds(1));
    }
    *first_answer = Clock::now();
  }
  drain(60.0);
  std::vector<std::string> answers;
  for (std::uint64_t id : ids) {
    const std::string& reply = sent_[id].reply;
    const std::size_t from = reply.find("\"reliability\"");
    const std::size_t to = reply.find(", \"elapsed_ms\"");
    answers.push_back(from == std::string::npos || to == std::string::npos
                          ? std::string("missing: ") + reply
                          : reply.substr(from, to - from));
  }
  return answers;
}

bool Bench::restart_leg(double* restore_ms) {
  const std::vector<std::string> before = probes(nullptr);
  if (!stop_daemon()) return false;
  const Clock::time_point t0 = Clock::now();
  daemon_ = std::make_unique<Daemon>(opts_.serve, daemon_args(state_rep_));
  client_ = std::make_unique<Client>(daemon_->port(), kConnections);
  Clock::time_point first{};
  const std::vector<std::string> after = probes(&first);
  *restore_ms = ms_between(t0, first);
  bool same = true;
  for (std::size_t t = 0; t < before.size(); ++t) {
    if (before[t] != after[t]) {
      std::cerr << "restart changed tenant " << t << ": " << before[t]
                << " -> " << after[t] << "\n";
      same = false;
    }
  }
  return same;
}

int Bench::verify_checks() {
  int mismatches = 0;
  std::vector<std::size_t> order(checks_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(checks_[a].tenant, checks_[a].deltas) <
           std::tie(checks_[b].tenant, checks_[b].deltas);
  });
  int tenant = -1;
  std::size_t applied = 0;
  FlowNetwork net;
  for (std::size_t i : order) {
    const Check& c = checks_[i];
    const Tenant& t = tenants_[static_cast<std::size_t>(c.tenant)];
    if (c.tenant != tenant) {
      tenant = c.tenant;
      net = t.base;
      applied = 0;
    }
    const std::vector<std::size_t>& order_sent =
        delta_order_[static_cast<std::size_t>(c.tenant)];
    for (; applied < c.deltas; ++applied) {
      apply_delta_in_place(net, t.deltas[order_sent[applied]]);
    }
    FlowNetwork query = net;
    for (const ProbOverride& o : c.overrides) {
      query.set_failure_prob(o.edge, o.failure_prob);
    }
    SolveOptions options;
    if (!parse_method_name(c.method, &options.method)) {
      options.method = Method::kAuto;
    }
    const SolveReport report = compute_reliability(query, t.demand, options);
    const std::string expected = format_double(report.result.reliability, 10);
    if (expected != c.reliability) {
      ++mismatches;
      std::cerr << "answer mismatch on " << t.name << " after " << c.deltas
                << " delta(s): daemon " << c.reliability << ", in-process "
                << expected << "\n";
    }
  }
  return mismatches;
}

void Bench::wire_replay(std::map<std::string, double>& metrics) {
  // A fresh copy of the workload, replayed through the wire layer of an
  // in-process service (no workers, no sockets): parse and render cost.
  std::vector<Tenant> tenants = make_tenants(spec_, opts_.seed);
  ReliabilityService service;
  for (const Tenant& t : tenants) {
    service.execute(parse_wire_request(register_line(t, 0)));
  }
  Xoshiro256 rng(opts_.seed ^ std::uint64_t{0x5bd1e995});
  double parse_us = 0.0;
  double render_us = 0.0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  for (int i = 0; i < kWireReplayLines; ++i) {
    const int tenant = static_cast<int>(rng.uniform_below(tenants.size()));
    const Request req =
        next_request(spec_, tenants[static_cast<std::size_t>(tenant)], rng,
                     static_cast<std::uint64_t>(i + 1), false);
    const Clock::time_point t0 = Clock::now();
    const WireRequest parsed = parse_wire_request(req.line);
    const Clock::time_point t1 = Clock::now();
    const WireResponse resp = service.execute(parsed);
    const Clock::time_point t2 = Clock::now();
    const std::string out = serialize_wire_response(resp);
    const Clock::time_point t3 = Clock::now();
    parse_us += ms_between(t0, t1) * 1000.0;
    render_us += ms_between(t2, t3) * 1000.0;
    request_bytes += static_cast<double>(req.line.size() + 1);
    response_bytes += static_cast<double>(out.size() + 1);
  }
  const double n = kWireReplayLines;
  metrics["wire.parse_us"] = parse_us / n;
  metrics["wire.render_us"] = render_us / n;
  metrics["wire.request_bytes"] = request_bytes / n;
  metrics["wire.response_bytes"] = response_bytes / n;
}

double lane_value(const JsonValue& stats, const char* lane, const char* key) {
  const JsonValue* lanes = stats.find("lanes");
  const JsonValue* l = lanes != nullptr ? lanes->find(lane) : nullptr;
  return l != nullptr ? number_or(l->find(key)) : 0.0;
}

double persist_value(const JsonValue& stats, const char* key) {
  const JsonValue* p = stats.find("persist");
  return p != nullptr ? number_or(p->find(key)) : 0.0;
}

/// Sums `key` over every tenant object of the stats verb.
double tenant_sum(const JsonValue& stats, const char* key) {
  double sum = 0.0;
  if (const JsonValue* tenants = stats.find("tenants")) {
    for (const auto& [name, t] : tenants->as_object()) {
      sum += number_or(t.find(key));
    }
  }
  return sum;
}

struct Unit {
  const char* name;
  const char* unit;
};

/// Units of every metric this program prints (README has the meanings).
const std::vector<Unit>& units() {
  static const std::vector<Unit> kUnits = {
      {"goodput_rps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"bulk_latency_p50_ms", "ms"},
      {"bulk_latency_p95_ms", "ms"},
      {"cpu_ms_per_request", "ms"},
      {"peak_rss_mb", "MiB"},
      {"setup_s", "s"},
      {"transport.outside_ms_p50", "ms"},
      {"transport.outside_ms_p99", "ms"},
      {"transport.outside_share", "ratio"},
      {"wire.parse_us", "us"},
      {"wire.render_us", "us"},
      {"wire.request_bytes", "bytes"},
      {"wire.response_bytes", "bytes"},
      {"scheduler.interactive_queue_ms_p50", "ms"},
      {"scheduler.interactive_queue_ms_p99", "ms"},
      {"scheduler.bulk_queue_ms_p50", "ms"},
      {"scheduler.bulk_queue_ms_p99", "ms"},
      {"scheduler.shed_share", "ratio"},
      {"scheduler.rejected", "count"},
      {"tenant_lock.wait_ms_p50", "ms"},
      {"tenant_lock.wait_ms_p99", "ms"},
      {"cache.hit_share", "ratio"},
      {"cache.mask_mb", "MiB"},
      {"cuts.searches", "count"},
      {"cuts.search_ms", "ms"},
      {"assignments.enumerations", "count"},
      {"assignments.enum_ms", "ms"},
      {"side_array.sweeps", "count"},
      {"side_array.sweep_ms", "ms"},
      {"side_array.configs_per_ms", "1/ms"},
      {"side_array.wordwise_share", "ratio"},
      {"maxflow.calls_per_kconfig", "count"},
      {"accumulate.ms_per_query", "ms"},
      {"accumulate.mconfigs_per_s", "1/s"},
      {"batch.prepare_ms", "ms"},
      {"batch.accumulate_ms", "ms"},
      {"delta.apply_ms_p50", "ms"},
      {"delta.apply_ms_p99", "ms"},
      {"persist.bytes_per_delta", "bytes"},
      {"persist.wal_appends", "count"},
      {"persist.restore_ms", "ms"},
      {"metrics_scrape.ms_p50", "ms"},
      {"metrics_scrape.ms_p95", "ms"},
      {"metrics.series_count", "count"},
      {"process.cpu_ms_per_request", "ms"},
      {"process.threads_max", "count"},
      {"stages.coverage", "ratio"},
      {"trace.overhead_share", "ratio"},
      {"bench.late_ms_p99", "ms"},
      {"bench.cpu_share", "ratio"},
      {"bench.steal_share", "ratio"},
  };
  return kUnits;
}

const char* unit_of(const std::string& name) {
  for (const Unit& u : units()) {
    if (name == u.name) return u.unit;
  }
  return "";
}

std::string render_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::map<std::string, double>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(value) ? value : 0.0;
    out += json_quote(name) + ": {\"value\": " + format_double(v, 15) +
           ", \"unit\": " + json_quote(unit_of(name)) + "}";
  }
  out += "}}";
  return out;
}

int run(const Options& opts) {
  const WorkloadSpec spec = workload_spec(opts.workload);
  std::filesystem::create_directories(opts.work_dir);
  Bench bench(opts, spec);
  bool correct = true;
  std::map<std::string, double> metrics;

  // --- set-up: repeated, median reported; the last daemon stays up ----
  const int reps = opts.trace ? 1 : kSetupReps;
  std::vector<double> setups;
  for (int rep = 0; rep < reps; ++rep) {
    setups.push_back(bench.setup(rep));
    if (rep + 1 < reps && !bench.stop_daemon()) correct = false;
  }

  const JsonValue stats0 = bench.stats();
  PhaseStats fixed;
  PhaseStats sat;
  PhaseStats sat_traced;
  LayerTrace layer;
  JsonValue stats1;
  if (opts.trace) {
    fixed.layer = &layer;
    bench.fixed_rate(opts.seconds * 0.5, true, fixed);
    stats1 = bench.stats();
    bench.saturation(opts.seconds * 0.25, false, sat);
    bench.saturation(opts.seconds * 0.25, true, sat_traced);
  } else {
    bench.fixed_rate(opts.seconds * 0.7, false, fixed);
    bench.saturation(opts.seconds * 0.3, false, sat);
  }
  const ProcSample end_sample = bench.last_sample();

  double restore_ms = 0.0;
  if (spec.durable) {
    if (!bench.restart_leg(&restore_ms)) {
      std::cerr << "FAIL: restart leg answers differ from before shutdown\n";
      correct = false;
    }
  }
  if (!bench.stop_daemon()) correct = false;

  const int mismatches = bench.verify_checks();
  if (mismatches != 0 || bench.checks() == 0) {
    std::cerr << "FAIL: " << mismatches << " of " << bench.checks()
              << " sampled answers differ from in-process solves\n";
    correct = false;
  }
  if (!bench.protocol_ok()) {
    std::cerr << "FAIL: a request was lost, answered twice, or hit an "
                 "internal error\n";
    correct = false;
  }
  const double fixed_s =
      std::chrono::duration<double>(fixed.end - fixed.start).count();
  const double late_p99 = percentile(fixed.late_ms, 0.99);
  const double gen_share = fixed.gen_cpu_s / fixed_s;
  const double late_p50 = percentile(fixed.late_ms, 0.50);
  if (late_p50 > kMaxLateShare * opts.limit_ms ||
      gen_share > kMaxGeneratorShare) {
    std::cerr << "FAIL: the generator fell behind its schedule (median "
              << late_p50 << " ms late, " << gen_share << " of a core)\n";
    correct = false;
  }

  const auto goodput_of = [](const PhaseStats& p) {
    return static_cast<double>(p.good) /
           std::chrono::duration<double>(p.end - p.start).count();
  };
  const double goodput = goodput_of(sat);
  std::cout << "workload " << spec.name << " seed " << opts.seed
            << (opts.trace ? " (traced)" : "") << "\n"
            << "  fixed-rate: " << fixed.interactive_ms.size()
            << " interactive, " << fixed.bulk_ms.size() << " bulk samples at "
            << opts.rate << "/s offered; saturation: " << sat.compute_done
            << " responses, " << sat.good << " within "
            << opts.limit_ms
            << " ms; " << bench.checks() << " answers checked; "
            << fixed.held << " sends waited for an in-flight slot\n"
            << "  set-up (s):";
  for (double x : setups) std::cout << " " << format_double(x, 4);
  std::cout << "\n";

  // Untraced runs also print the wall-clock figures (`shown`), but the
  // result line carries only `metrics`: on a shared host the wall-clock
  // figures move with the CPU time the host steals (see the README).
  std::map<std::string, double> shown;
  if (!opts.trace) {
    shown["goodput_rps"] = goodput;
    shown["latency_p50_ms"] = percentile(fixed.interactive_ms, 0.50);
    shown["latency_p99_ms"] = percentile(fixed.interactive_ms, 0.99);
    shown["bulk_latency_p50_ms"] = percentile(fixed.bulk_ms, 0.50);
    // Bulk requests are a tenth of the traffic: too few for a p99 that
    // rests on enough samples beyond it.
    shown["bulk_latency_p95_ms"] = percentile(fixed.bulk_ms, 0.95);
    metrics["cpu_ms_per_request"] = fixed.daemon_cpu_s * 1000.0 /
                                    static_cast<double>(fixed.compute_done);
    metrics["peak_rss_mb"] = std::max(bench.peak_rss_mb(), end_sample.hwm_mb);
    metrics["setup_s"] = percentile(setups, 0.5);
  } else {
    metrics["transport.outside_ms_p50"] = percentile(layer.outside_ms, 0.50);
    metrics["transport.outside_ms_p99"] = percentile(layer.outside_ms, 0.99);
    metrics["transport.outside_share"] =
        layer.wall_sum_ms > 0.0
            ? (layer.wall_sum_ms - layer.elapsed_sum_ms) / layer.wall_sum_ms
            : 0.0;
    bench.wire_replay(metrics);
    metrics["scheduler.interactive_queue_ms_p50"] =
        lane_value(stats1, "interactive", "queue_p50_ms");
    metrics["scheduler.interactive_queue_ms_p99"] =
        lane_value(stats1, "interactive", "queue_p99_ms");
    metrics["scheduler.bulk_queue_ms_p50"] =
        lane_value(stats1, "bulk", "queue_p50_ms");
    metrics["scheduler.bulk_queue_ms_p99"] =
        lane_value(stats1, "bulk", "queue_p99_ms");
    const double submitted = lane_value(stats1, "interactive", "submitted") +
                             lane_value(stats1, "bulk", "submitted");
    metrics["scheduler.shed_share"] =
        submitted > 0.0 ? number_or(stats1.find("shed")) / submitted : 0.0;
    metrics["scheduler.rejected"] =
        lane_value(stats1, "interactive", "rejected") +
        lane_value(stats1, "bulk", "rejected");
    metrics["tenant_lock.wait_ms_p50"] = percentile(layer.lock_wait_ms, 0.50);
    metrics["tenant_lock.wait_ms_p99"] = percentile(layer.lock_wait_ms, 0.99);
    const double hits = tenant_sum(stats1, "cache_hits") -
                        tenant_sum(stats0, "cache_hits");
    const double misses = tenant_sum(stats1, "cache_misses") -
                          tenant_sum(stats0, "cache_misses");
    metrics["cache.hit_share"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    metrics["cache.mask_mb"] =
        tenant_sum(stats1, "mask_bytes") / (1024.0 * 1024.0);
    const auto span = [&layer](const char* name) {
      const auto it = layer.spans.find(name);
      return it == layer.spans.end() ? SpanSum{} : it->second;
    };
    metrics["cuts.searches"] =
        static_cast<double>(span("partition_search").count);
    metrics["cuts.search_ms"] = span("partition_search").ms;
    metrics["assignments.enumerations"] =
        static_cast<double>(span("assignments").count);
    metrics["assignments.enum_ms"] = span("assignments").ms;
    const SpanSum sweeps = span("build_side_array");
    metrics["side_array.sweeps"] = static_cast<double>(sweeps.count);
    metrics["side_array.sweep_ms"] = sweeps.ms;
    metrics["side_array.configs_per_ms"] =
        layer.sweep_tel_ms > 0.0 ? layer.sweep_configs / layer.sweep_tel_ms
                                 : 0.0;
    const double lanes = layer.lanes_wordwise + layer.scalar_residue;
    metrics["side_array.wordwise_share"] =
        lanes > 0.0 ? layer.lanes_wordwise / lanes : 0.0;
    metrics["maxflow.calls_per_kconfig"] =
        layer.sweep_configs > 0.0
            ? layer.maxflow_calls / layer.sweep_configs * 1000.0
            : 0.0;
    metrics["accumulate.ms_per_query"] =
        layer.solves_accumulated > 0
            ? layer.accumulate_ms /
                  static_cast<double>(layer.solves_accumulated)
            : 0.0;
    metrics["accumulate.mconfigs_per_s"] =
        layer.accumulate_ms > 0.0
            ? layer.computed_configs / layer.accumulate_ms / 1000.0
            : 0.0;
    const double batches = static_cast<double>(layer.batches);
    metrics["batch.prepare_ms"] =
        batches > 0.0 ? layer.batch_prepare_ms / batches : 0.0;
    metrics["batch.accumulate_ms"] =
        batches > 0.0 ? layer.batch_accumulate_ms / batches : 0.0;
    metrics["delta.apply_ms_p50"] = percentile(layer.delta_ms, 0.50);
    metrics["delta.apply_ms_p99"] = percentile(layer.delta_ms, 0.99);
    const double deltas = static_cast<double>(layer.delta_ms.size());
    const double wal = persist_value(stats1, "wal_appends") -
                       persist_value(stats0, "wal_appends");
    metrics["persist.wal_appends"] = wal;
    metrics["persist.bytes_per_delta"] =
        deltas > 0.0 ? (persist_value(stats1, "bytes_written") -
                        persist_value(stats0, "bytes_written")) /
                           deltas
                     : 0.0;
    metrics["persist.restore_ms"] = restore_ms;
    metrics["metrics_scrape.ms_p50"] = percentile(layer.scrape_ms, 0.50);
    metrics["metrics_scrape.ms_p95"] = percentile(layer.scrape_ms, 0.95);
    metrics["metrics.series_count"] = layer.series_count;
    const double fixed_requests = static_cast<double>(fixed.compute_done);
    metrics["process.cpu_ms_per_request"] =
        fixed_requests > 0.0 ? fixed.daemon_cpu_s * 1000.0 / fixed_requests
                             : 0.0;
    metrics["process.threads_max"] = bench.threads_max();
    const double n = static_cast<double>(layer.interactive);
    metrics["stages.coverage"] =
        layer.wall_sum_ms > 0.0
            ? (layer.elapsed_sum_ms +
               n * (metrics["scheduler.interactive_queue_ms_p50"] +
                    (metrics["wire.parse_us"] + metrics["wire.render_us"]) /
                        1000.0)) /
                  layer.wall_sum_ms
            : 0.0;
    const double traced_goodput = goodput_of(sat_traced);
    metrics["trace.overhead_share"] =
        goodput > 0.0 ? 1.0 - traced_goodput / goodput : 0.0;
    metrics["bench.late_ms_p99"] = late_p99;
    metrics["bench.cpu_share"] = gen_share;
    metrics["bench.steal_share"] = fixed.steal_share;
  }

  for (const auto& [name, value] : metrics) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), value, unit_of(name));
  }
  for (const auto& [name, value] : shown) {
    std::printf("  %-36s %14.6g %s (reported, not in the result)\n",
                name.c_str(), value, unit_of(name));
  }
  std::printf(
      "  generator: p99 %.4g ms late; %.3g of a core at fixed rate, %.3g at "
      "saturation; host steal %.3g (fixed rate), %.3g (saturation)\n",
      late_p99, gen_share,
      sat.gen_cpu_s /
          std::chrono::duration<double>(sat.end - sat.start).count(),
      fixed.steal_share, sat.steal_share);
  if (std::max(fixed.steal_share, sat.steal_share) > kStealWarnShare) {
    std::cerr << "warning: the host stole more than " << kStealWarnShare
              << " of the CPU time during a phase; this run's figures are "
                 "disturbed by the host\n";
  }
  std::cout << render_result(correct, bench.attempted(), bench.failed(),
                             metrics)
            << std::endl;
  std::filesystem::remove_all(opts.work_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const streamrel::CliArgs args(argc, argv);
  perfbench::Options opts;
  opts.serve = args.get("serve", "");
  opts.workload = args.get("workload", "");
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opts.seconds = args.get_double("seconds", 10.0);
  opts.trace = args.get_int("trace", 0) != 0;
  opts.limit_ms = args.get_double("limit-ms", 0.0);
  opts.rate = args.get_double("rate", 0.0);
  opts.work_dir = args.get("work-dir", "");
  if (opts.serve.empty() || opts.workload.empty() || opts.work_dir.empty() ||
      opts.limit_ms <= 0.0 || opts.rate <= 0.0 || opts.seconds <= 0.0) {
    std::cerr << "usage: perfbench_loadgen --serve PATH --workload NAME "
                 "--seed N --seconds S --trace 0|1 --limit-ms MS --rate RPS "
                 "--work-dir DIR\n";
    return 2;
  }
  try {
    return perfbench::run(opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
