#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "base/prng.h"
#include "bench.h"
#include "soap/message.h"
#include "shred/shredded_doc.h"
#include "xml/parser.h"
#include "xquery/parser.h"

namespace perfbench {

using xrpc::StatusOr;
using xrpc::core::Peer;
using xrpc::core::PeerNetwork;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t MinorFaultsNow() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kHttp: return "net.http";
    case SpanKind::kServer: return "server.handle";
    case SpanKind::kWsat: return "server.wsat";
  }
  return "?";
}

void Tracer::Record(SpanKind kind, int64_t start_ns, int64_t end_ns) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      {kind, op_.load(std::memory_order_relaxed), start_ns, end_ns});
}

StatusOr<std::string> TimedEndpoint::Handle(const std::string& path,
                                            const std::string& body) {
  const int64_t start = NowNs();
  StatusOr<std::string> reply = inner_->Handle(path, body);
  const int64_t end = NowNs();
  const bool wsat = path == "wsat";
  probe_->tracer.Record(wsat ? SpanKind::kWsat : SpanKind::kServer, start, end);
  WireCounters& wire = probe_->wire;
  if (wsat) wire.wsat_requests.fetch_add(1, std::memory_order_relaxed);
  wire.request_bytes.fetch_add(static_cast<int64_t>(body.size()),
                               std::memory_order_relaxed);
  if (reply.ok()) {
    wire.response_bytes.fetch_add(static_cast<int64_t>(reply->size()),
                                  std::memory_order_relaxed);
    if (!wsat && probe_->capture.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(probe_->capture_mu);
      probe_->captured_requests.push_back(body);
      probe_->captured_responses.push_back(reply.value());
    }
  }
  return reply;
}

namespace {

// Idle expiry far beyond any run on both ends of the keep-alive connection,
// so connection counts are exact functions of the request count.
xrpc::net::HttpConnectionPool::Options LongIdlePool() {
  xrpc::net::HttpConnectionPool::Options options;
  options.idle_timeout_millis = 600'000;
  return options;
}

}  // namespace

HttpForwarder::HttpForwarder(int port, Probe* probe)
    : base_uri_("xrpc://127.0.0.1:" + std::to_string(port) + "/"),
      probe_(probe),
      transport_(LongIdlePool()) {}

StatusOr<std::string> HttpForwarder::Handle(const std::string& path,
                                            const std::string& body) {
  const int64_t start = NowNs();
  auto posted = transport_.Post(base_uri_ + path, body);
  probe_->tracer.Record(SpanKind::kHttp, start, NowNs());
  if (!posted.ok()) return posted.status();
  return std::move(posted->body);
}

std::vector<std::unique_ptr<TimedEndpoint>> WrapPeers(
    PeerNetwork* net, const std::vector<Peer*>& peers, Probe* probe) {
  std::vector<std::unique_ptr<TimedEndpoint>> wrapped;
  for (Peer* peer : peers) {
    wrapped.push_back(std::make_unique<TimedEndpoint>(&peer->service(), probe));
    net->network().RegisterPeer(xrpc::net::ParseXrpcUri(peer->uri()).value(),
                                wrapped.back().get());
  }
  return wrapped;
}

Reference::Reference(
    const std::vector<std::pair<std::string, std::string>>& docs) {
  xrpc::core::Peer* peer =
      net_.AddPeer("ref", xrpc::core::EngineKind::kRelational);
  for (const auto& [doc_name, text] : docs) {
    if (loaded_.ok()) loaded_ = peer->AddDocument(doc_name, text);
  }
}

std::shared_ptr<const std::string> Reference::Result(const std::string& query) {
  auto report = net_.Execute("ref", query);
  if (!loaded_.ok() || !report.ok()) {
    return std::make_shared<const std::string>("<reference query failed>");
  }
  return std::make_shared<const std::string>(
      xrpc::xdm::SequenceToString(report->result));
}

std::string PointQuery(const std::string& person) {
  return "import module namespace b=\"functions_b\" at \"b.xq\";\n"
         "execute at {\"shard:auctions.xml\"} {b:Q_B3(\"" +
         person + "\")}";
}

std::string LocalPointQuery(const std::string& person) {
  return "doc(\"auctions.xml\")//closed_auction[./buyer/@person=\"" + person +
         "\"]";
}

std::vector<int> SeededPermutation(int n, uint64_t seed) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  xrpc::DeterministicPrng prng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[prng.NextUint64() % static_cast<uint64_t>(i + 1)]);
  }
  return perm;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "soap_bulk") return MakeSoapBulk(seed);
  if (name == "xmark_shard") return MakeXmarkShard(seed);
  if (name == "update_2pc") return MakeUpdate2pc(seed);
  return nullptr;
}

namespace {

/// The CPUs the process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the calling thread to `cpu`.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// What the runner records about one measured op.
struct OpSample {
  int kind = 0;
  bool traced = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t allocs = 0;
  int64_t alloc_bytes = 0;
  int64_t minor_faults = 0;
  int64_t requests_sent = 0;
  int64_t network_us = 0;
  int64_t wsat_requests = 0;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
  int64_t bulk_requests = 0;
  double wall_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

struct EngineCounts {
  int64_t bulk_requests = 0;
  int64_t fallbacks = 0;
  int64_t txn_appends = 0;

  /// Adds `to - from`, the counts of one fleet's measured ops.
  void AddDelta(const EngineCounts& from, const EngineCounts& to) {
    bulk_requests += to.bulk_requests - from.bulk_requests;
    fallbacks += to.fallbacks - from.fallbacks;
    txn_appends += to.txn_appends - from.txn_appends;
  }
};

EngineCounts ReadEngines(const std::vector<Peer*>& peers) {
  EngineCounts counts;
  for (Peer* peer : peers) {
    if (auto* engine = peer->relational_engine()) {
      counts.bulk_requests += engine->bulk_requests();
      counts.fallbacks += engine->interpreter_fallbacks();
    }
    counts.txn_appends += peer->service().txn_log().appends();
  }
  return counts;
}

using Interval = std::pair<int64_t, int64_t>;

/// Length of the union of `intervals`, each clipped to [lo, hi].
int64_t UnionLength(std::vector<Interval> intervals, int64_t lo, int64_t hi) {
  for (Interval& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (!open || iv.first > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = iv.first;
      cur_end = iv.second;
      open = true;
    } else {
      cur_end = std::max(cur_end, iv.second);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// Wall time of one traced op split by the deepest layer open at each
/// instant; the four parts sum to the op's wall time.
struct LayerSplit {
  double p0_self_ms = 0;
  double http_self_ms = 0;
  double handle_ms = 0;  ///< covered by >= 1 XRPC server.handle span
  double wsat_ms = 0;    ///< covered by >= 1 WS-AT span, not by the above
  double server_busy_ms = 0;  ///< summed server span durations
};

LayerSplit SplitOp(const OpSample& op, const std::vector<const Span*>& spans) {
  std::vector<Interval> http;
  std::vector<Interval> xrpc;
  std::vector<Interval> server;
  LayerSplit split;
  for (const Span* s : spans) {
    const Interval iv{s->start_ns, s->end_ns};
    if (s->kind == SpanKind::kHttp) http.push_back(iv);
    if (s->kind == SpanKind::kServer) xrpc.push_back(iv);
    if (s->kind == SpanKind::kServer || s->kind == SpanKind::kWsat) {
      server.push_back(iv);
      split.server_busy_ms += static_cast<double>(iv.second - iv.first) / 1e6;
    }
  }
  std::vector<Interval> all = http;
  all.insert(all.end(), server.begin(), server.end());
  const int64_t lo = op.start_ns;
  const int64_t hi = op.end_ns;
  const int64_t covered_all = UnionLength(all, lo, hi);
  const int64_t covered_server = UnionLength(server, lo, hi);
  const int64_t covered_xrpc = UnionLength(xrpc, lo, hi);
  split.p0_self_ms = static_cast<double>(hi - lo - covered_all) / 1e6;
  split.http_self_ms = static_cast<double>(covered_all - covered_server) / 1e6;
  split.handle_ms = static_cast<double>(covered_xrpc) / 1e6;
  split.wsat_ms = static_cast<double>(covered_server - covered_xrpc) / 1e6;
  return split;
}

/// Sums over the ops of one kind, or of a whole run.
struct LayerSums {
  LayerSplit split;  ///< over traced ops
  double wall_ms = 0;
  std::vector<double> traced_ms, untraced_ms;
  double requests = 0, wire_us = 0, req_b = 0, resp_b = 0, wsat = 0,
         bulk = 0, allocs = 0, alloc_b = 0, faults = 0;  ///< untraced ops

  double traced_ops() const {
    return static_cast<double>(std::max<size_t>(traced_ms.size(), 1));
  }
  double untraced_ops() const {
    return static_cast<double>(std::max<size_t>(untraced_ms.size(), 1));
  }
  void AddTraced(const OpSample& s, const LayerSplit& l) {
    split.p0_self_ms += l.p0_self_ms;
    split.http_self_ms += l.http_self_ms;
    split.handle_ms += l.handle_ms;
    split.wsat_ms += l.wsat_ms;
    split.server_busy_ms += l.server_busy_ms;
    wall_ms += s.wall_ms();
    traced_ms.push_back(s.wall_ms());
  }
  void AddUntraced(const OpSample& s) {
    untraced_ms.push_back(s.wall_ms());
    requests += static_cast<double>(s.requests_sent);
    wire_us += static_cast<double>(s.network_us);
    req_b += static_cast<double>(s.request_bytes);
    resp_b += static_cast<double>(s.response_bytes);
    wsat += static_cast<double>(s.wsat_requests);
    bulk += static_cast<double>(s.bulk_requests);
    allocs += static_cast<double>(s.allocs);
    alloc_b += static_cast<double>(s.alloc_bytes);
    faults += static_cast<double>(s.minor_faults);
  }
};

/// One row of the per-layer table.
std::string TableLine(const std::string& name, const LayerSums& l,
                      double parse_ms) {
  const double t = l.traced_ops();
  const double u = l.untraced_ops();
  const double parts = l.split.p0_self_ms + l.split.http_self_ms +
                       l.split.handle_ms + l.split.wsat_ms;
  const double untraced_p50 = Percentile(l.untraced_ms, 50);
  const double overhead =
      untraced_p50 > 0 ? Percentile(l.traced_ms, 50) / untraced_p50 - 1 : 0;
  char line[320];
  std::snprintf(line, sizeof(line),
                "%-15s %6zu %8.3f %8.3f %10.3f %14.3f %12.3f %9.4f "
                "%12.3f %+14.2f%% %9.2f %7.0f %9.4f\n",
                name.c_str(), l.traced_ms.size(), l.wall_ms / t,
                l.split.p0_self_ms / t, l.split.http_self_ms / t,
                l.split.handle_ms / t, l.split.wsat_ms / t,
                l.wall_ms > 0 ? parts / l.wall_ms : 0,
                l.split.server_busy_ms / t, overhead * 100, l.requests / u,
                l.allocs / u, parse_ms);
  return line;
}

/// Median seconds per call of `fn`, over 5 batches of >= 20 ms each.
template <typename Fn>
double ReplaySeconds(Fn fn) {
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    int64_t reps = 0;
    const int64_t start = NowNs();
    int64_t now = start;
    while (reps == 0 || now - start < 20'000'000) {
      fn();
      ++reps;
      now = NowNs();
    }
    per_call.push_back(static_cast<double>(now - start) / 1e9 /
                       static_cast<double>(reps));
  }
  return Percentile(per_call, 50);
}

/// Throughput in MB/s of `fn`, which processes `bytes` bytes per call.
template <typename Fn>
double ReplayMbS(double bytes, Fn fn) {
  return bytes > 0 ? bytes / ReplaySeconds(fn) / 1e6 : 0;
}

/// Fleets per run. The measured rounds are split evenly over this many
/// fresh fleets, so the program's state grows over a fraction of the run
/// only, and set-up is timed this many times, spread over the whole run;
/// setup_s is the median (see NOTES.md).
constexpr int64_t kFleets = 15;

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Fixed(double v, int digits) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

class Runner {
 public:
  Runner(Workload* workload, const RunOptions& options)
      : w_(workload), opt_(options), kinds_(workload->kinds()) {}

  RunResult Run();

 private:
  void Fail(const std::string& what) {
    ++result_.failed;
    if (result_.errors.size() < 5) result_.errors.push_back(what);
  }
  /// Executes and checks one op, counting a failure if it does not pass.
  void Execute(const Op& op, OpSample* sample);
  /// Replaces the fleet by a fresh one and runs the warm-up pass. Returns
  /// the timed seconds of build plus warm-up; teardown is not timed.
  /// Returns a negative value if the fleet could not be built.
  double SetUp(bool capture);
  void EndToEndMetrics(const std::vector<double>& setup_s);
  /// `counted`: engine counter deltas over the measured ops of all fleets.
  void LayerMetrics(const EngineCounts& counted);
  void WriteTrace(const std::vector<std::vector<const Span*>>& spans_by_op,
                  const std::string& table);

  Workload* w_;
  RunOptions opt_;
  std::vector<std::string> kinds_;
  std::string p0_;
  std::vector<Peer*> peers_;
  std::vector<OpSample> samples_;
  RunResult result_;
};

void Runner::Execute(const Op& op, OpSample* sample) {
  Probe& probe = w_->probe();
  const WireCounters& wire = probe.wire;
  const int64_t wsat0 = wire.wsat_requests.load();
  const int64_t req0 = wire.request_bytes.load();
  const int64_t resp0 = wire.response_bytes.load();
  const int64_t bulk0 = ReadEngines(peers_).bulk_requests;
  const int64_t faults0 = MinorFaultsNow();
  const AllocCounts alloc0 = AllocNow();
  const int64_t start = NowNs();
  StatusOr<xrpc::core::ExecutionReport> report =
      w_->net().Execute(p0_, op.query, op.options);
  const int64_t end = NowNs();
  const AllocCounts alloc1 = AllocNow();
  sample->minor_faults = MinorFaultsNow() - faults0;
  sample->kind = op.kind;
  sample->start_ns = start;
  sample->end_ns = end;
  sample->allocs = alloc1.count - alloc0.count;
  sample->alloc_bytes = alloc1.bytes - alloc0.bytes;
  sample->wsat_requests = wire.wsat_requests.load() - wsat0;
  sample->request_bytes = wire.request_bytes.load() - req0;
  sample->response_bytes = wire.response_bytes.load() - resp0;
  sample->bulk_requests = ReadEngines(peers_).bulk_requests - bulk0;

  const std::string& kind = kinds_[static_cast<size_t>(op.kind)];
  if (!report.ok()) {
    Fail(kind + ": " + report.status().ToString());
    return;
  }
  sample->requests_sent = report->requests_sent;
  sample->network_us = report->network_micros;
  if (op.expected == nullptr) {
    if (!report->committed) {
      Fail(kind + ": not committed: " + report->abort_reason);
      return;
    }
  } else {
    const std::string got = xrpc::xdm::SequenceToString(report->result);
    if (got != *op.expected) {
      Fail(kind + ": wrong result (" + std::to_string(got.size()) +
           " bytes, expected " + std::to_string(op.expected->size()) + ")");
      return;
    }
  }
  w_->OnSuccess(op);
}

double Runner::SetUp(bool capture) {
  Probe& probe = w_->probe();
  probe.capture = capture;
  w_->Teardown();
  const int64_t start = NowNs();
  xrpc::Status built = w_->BuildFleet();
  if (!built.ok()) {
    Fail("fleet: " + built.ToString());
    return -1;
  }
  peers_ = w_->peers();
  p0_ = peers_[0]->name();
  for (size_t kind = 0; kind < kinds_.size(); ++kind) {
    OpSample warm;
    Execute(w_->MakeOp(static_cast<int>(kind), -1), &warm);
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  probe.capture = false;
  return seconds;
}

RunResult Runner::Run() {
  const std::vector<int> round = w_->round();
  const int64_t per_round = static_cast<int64_t>(round.size());
  const int64_t rounds =
      std::max<int64_t>(2, w_->rounds_per_second() * opt_.seconds);
  const int64_t ops_per_fleet = (rounds + kFleets - 1) / kFleets * per_round;
  const int64_t total = rounds * per_round;

  Probe& probe = w_->probe();
  SetAllocCounting(opt_.trace);
  if (w_->one_malloc_arena()) mallopt(M_ARENA_MAX, 1);
  if (opt_.trace) probe.tracer.Reserve(static_cast<size_t>(total) * 128);
  samples_.reserve(static_cast<size_t>(total));
  std::vector<double> setup_s;
  EngineCounts counted;      // engine counter deltas, summed over the fleets
  EngineCounts fleet_start;  // the counters after the current fleet's set-up
  int mismatches = 0;
  std::vector<int64_t> issued(kinds_.size(), 0);  // per-kind seq
  const std::vector<int> cpus = AllowedCpus();
  // Measured phase. In a traced run every other round records spans, so
  // both halves see the same host phases and state growth.
  for (int64_t i = 0; i < total; ++i) {
    if (i % ops_per_fleet == 0) {
      if (i > 0) mismatches += w_->PostRunMismatches();
      // The envelopes of the first warm-up pass are the SOAP replay input.
      const double seconds = SetUp(/*capture=*/i == 0);
      if (seconds < 0) {
        result_.correct = false;
        return result_;
      }
      setup_s.push_back(seconds);
      fleet_start = ReadEngines(peers_);
    }
    if (i % per_round == 0 && w_->single_threaded() && !cpus.empty()) {
      PinTo(cpus[static_cast<size_t>(i / per_round) % cpus.size()]);
    }
    const int kind = round[static_cast<size_t>(i % per_round)];
    Op op = w_->MakeOp(kind, issued[static_cast<size_t>(kind)]++);
    if (kinds_[static_cast<size_t>(op.kind)] == opt_.sabotage_kind) {
      op.expected = std::make_shared<const std::string>("sabotaged");
    }
    OpSample sample;
    sample.traced = opt_.trace && (i / per_round) % 2 == 1;
    probe.tracer.set_op(i);
    probe.tracer.set_enabled(sample.traced);
    Execute(op, &sample);
    probe.tracer.set_enabled(false);
    ++result_.attempted;
    samples_.push_back(sample);
    if ((i + 1) % ops_per_fleet == 0 || i + 1 == total) {
      counted.AddDelta(fleet_start, ReadEngines(peers_));
    }
  }
  mismatches += w_->PostRunMismatches();
  for (int m = 0; m < mismatches; ++m) Fail("post-run state check");
  result_.correct = result_.failed == 0;

  if (opt_.trace) {
    LayerMetrics(counted);
  } else {
    EndToEndMetrics(setup_s);
  }
  return result_;
}

void Runner::EndToEndMetrics(const std::vector<double>& setup_s) {
  Metrics& m = result_.metrics;
  std::vector<std::vector<double>> wall_ms(kinds_.size());
  double busy_s = 0;
  for (const OpSample& s : samples_) {
    wall_ms[static_cast<size_t>(s.kind)].push_back(s.wall_ms());
    busy_s += s.wall_ms() / 1e3;
  }
  // Every kind counts once in the geometric mean, whatever its latency or
  // its share of the round.
  double log_sum = 0;
  for (const std::vector<double>& ms : wall_ms) {
    log_sum += std::log(Percentile(ms, 50));
  }
  m["setup_s"] = {Percentile(setup_s, 50), "s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["ops_per_s"] = {static_cast<double>(samples_.size()) / busy_s, "1/s"};
  m["lead_p50_ms"] = {Percentile(wall_ms[0], 50), "ms"};
  m["lead_p95_ms"] = {Percentile(wall_ms[0], 95), "ms"};
  m["second_p50_ms"] = {Percentile(wall_ms[1], 50), "ms"};
  m["geomean_p50_ms"] = {
      std::exp(log_sum / static_cast<double>(wall_ms.size())), "ms"};
}

void Runner::LayerMetrics(const EngineCounts& counted) {
  Metrics& m = result_.metrics;
  Probe& probe = w_->probe();

  // Spans grouped by op (ops are numbered by their index in samples_).
  std::vector<std::vector<const Span*>> spans_by_op(samples_.size());
  for (const Span& s : probe.tracer.spans()) {
    if (s.op >= 0 && static_cast<size_t>(s.op) < samples_.size()) {
      spans_by_op[static_cast<size_t>(s.op)].push_back(&s);
    }
  }

  // Per-op sums for each kind and for the whole run. Times come from the
  // traced ops; counts come from the untraced ops, so span recording never
  // shows in the allocation or fault figures.
  std::vector<LayerSums> by_kind(kinds_.size());
  LayerSums all;
  for (size_t i = 0; i < samples_.size(); ++i) {
    const OpSample& s = samples_[i];
    LayerSums& kind = by_kind[static_cast<size_t>(s.kind)];
    if (s.traced) {
      const LayerSplit split = SplitOp(s, spans_by_op[i]);
      kind.AddTraced(s, split);
      all.AddTraced(s, split);
    } else {
      kind.AddUntraced(s);
      all.AddUntraced(s);
    }
  }

  // Parse time of each kind's query text; the run's figure weights the
  // kinds by their share of the round.
  std::vector<double> parse_ms(kinds_.size());
  for (size_t kind = 0; kind < kinds_.size(); ++kind) {
    const Op op = w_->MakeOp(static_cast<int>(kind), 0);
    parse_ms[kind] =
        ReplaySeconds([&] { (void)xrpc::xquery::ParseMainModule(op.query); }) *
        1e3;
  }
  const std::vector<int> round = w_->round();
  double round_parse_ms = 0;
  for (int kind : round) round_parse_ms += parse_ms[static_cast<size_t>(kind)];

  const double t = all.traced_ops();
  const double u = all.untraced_ops();
  m["core.op_ms"] = {all.wall_ms / t, "ms"};
  m["core.p0_self_ms"] = {all.split.p0_self_ms / t, "ms"};
  m["server.handle_ms"] = {
      (all.split.handle_ms + all.split.wsat_ms) / t, "ms"};
  m["core.requests_per_op"] = {all.requests / u, "count"};
  m["core.modeled_wire_ms"] = {all.wire_us / u / 1e3, "ms"};
  m["server.wsat_requests_per_op"] = {all.wsat / u, "count"};
  m["server.request_kb_per_op"] = {all.req_b / u / 1e3, "KB"};
  m["server.response_kb_per_op"] = {all.resp_b / u / 1e3, "KB"};
  m["compiler.bulk_requests_per_op"] = {all.bulk / u, "count"};
  m["alloc.count_per_op"] = {all.allocs / u, "count"};
  m["alloc.mb_per_op"] = {all.alloc_b / u / 1e6, "MB"};
  m["proc.minor_faults_per_op"] = {all.faults / u, "count"};
  m["xquery.parse_ms"] = {
      round_parse_ms / static_cast<double>(round.size()), "ms"};

  std::string table =
      "kind            traced  wall_ms  p0_self  http_self  server.handle  "
      "server.wsat  sum/wall  server_busy  trace_overhead  requests  "
      "allocs  parse_ms\n";
  for (size_t kind = 0; kind <= kinds_.size(); ++kind) {
    const bool total = kind == kinds_.size();
    table += TableLine(total ? "all" : kinds_[kind],
                       total ? all : by_kind[kind],
                       total ? round_parse_ms /
                                   static_cast<double>(round.size())
                             : parse_ms[kind]);
  }
  table +=
      "(per op means; `all` is the run's op mix; wall time is split by the "
      "deepest layer\n open at each instant, so p0_self + http_self + "
      "server.handle + server.wsat = wall;\n server_busy sums overlapping "
      "spans; trace_overhead = median traced op / median\n untraced op - 1; "
      "requests and allocs per untraced op)\n";

  // Engine and service counters over the measured phase.
  m["compiler.interpreter_fallbacks"] = {
      static_cast<double>(counted.fallbacks), "count"};
  m["server.txn_log_appends_per_op"] = {
      static_cast<double>(counted.txn_appends) /
          static_cast<double>(samples_.size()),
      "count"};
  int64_t sessions = 0;
  for (Peer* peer : peers_) {
    sessions += static_cast<int64_t>(
        peer->service().isolation().active_sessions());
  }
  m["server.active_sessions_after_run"] = {static_cast<double>(sessions),
                                           "count"};
  if (auto* engine = peers_[0]->relational_engine()) {
    m["shred.p0_cache_entries"] = {
        static_cast<double>(engine->shred_cache().size()), "count"};
  }
  m["error_rate"] = {
      static_cast<double>(result_.failed) /
          static_cast<double>(std::max<int64_t>(result_.attempted, 1)),
      "ratio"};
  m["net.connections_accepted"] = {0, "count"};
  m["net.pool_hits"] = {0, "count"};
  w_->AddLayerMetrics(&m);

  // Replay timings of the single-module layers on captured envelopes and
  // the loaded documents.
  std::string replay;
  {
    std::lock_guard<std::mutex> lock(probe.capture_mu);
    const auto& reqs = probe.captured_requests;
    const auto& resps = probe.captured_responses;
    double req_bytes = 0, resp_bytes = 0;
    for (const std::string& r : reqs) {
      req_bytes += static_cast<double>(r.size());
    }
    for (const std::string& r : resps) {
      resp_bytes += static_cast<double>(r.size());
    }
    m["soap.parse_request_mb_s"] = {
        ReplayMbS(req_bytes, [&] {
          for (const std::string& r : reqs) (void)xrpc::soap::ParseRequest(r);
        }),
        "MB/s"};
    m["soap.parse_response_mb_s"] = {
        ReplayMbS(resp_bytes, [&] {
          for (const std::string& r : resps) (void)xrpc::soap::ParseResponse(r);
        }),
        "MB/s"};
    std::vector<xrpc::soap::XrpcResponse> parsed;
    double out_bytes = 0;
    for (const std::string& r : resps) {
      auto p = xrpc::soap::ParseResponse(r);
      if (!p.ok()) continue;
      out_bytes +=
          static_cast<double>(xrpc::soap::SerializeResponse(*p).size());
      parsed.push_back(std::move(p).value());
    }
    m["soap.serialize_response_mb_s"] = {
        ReplayMbS(out_bytes, [&] {
          for (const auto& p : parsed) (void)xrpc::soap::SerializeResponse(p);
        }),
        "MB/s"};
    replay += "replay: soap requests " + std::to_string(reqs.size()) + " (" +
              Fixed(req_bytes / 1e3, 1) + " KB), responses " +
              std::to_string(resps.size()) + " (" +
              Fixed(resp_bytes / 1e3, 1) + " KB)\n";
  }
  {
    const auto docs = w_->documents();
    double bytes = 0;
    std::vector<xrpc::xml::NodePtr> doms;
    for (const std::string* text : docs) {
      bytes += static_cast<double>(text->size());
      auto dom = xrpc::xml::ParseXml(*text);
      if (dom.ok()) doms.push_back(std::move(dom).value());
    }
    m["xml.parse_mb_s"] = {ReplayMbS(bytes,
                                     [&] {
                                       for (const std::string* text : docs) {
                                         (void)xrpc::xml::ParseXml(*text);
                                       }
                                     }),
                           "MB/s"};
    m["shred.mb_s"] = {ReplayMbS(bytes,
                                 [&] {
                                   for (const auto& dom : doms) {
                                     xrpc::shred::ShredCache fresh;
                                     (void)fresh.GetOrShred(dom);
                                   }
                                 }),
                       "MB/s"};
    replay += "replay: documents " + std::to_string(docs.size()) + " (" +
              Fixed(bytes / 1e3, 1) + " KB)\n";
  }
  for (const char* name :
       {"soap.parse_request_mb_s", "soap.parse_response_mb_s",
        "soap.serialize_response_mb_s", "xml.parse_mb_s", "shred.mb_s"}) {
    replay += std::string("replay: ") + name + " = " +
              Fixed(m[name].value, 2) + "\n";
  }
  WriteTrace(spans_by_op, table + replay);
}

void Runner::WriteTrace(
    const std::vector<std::vector<const Span*>>& spans_by_op,
    const std::string& table) {
  std::fprintf(stderr, "%s", table.c_str());
  if (opt_.out_dir.empty()) return;
  const std::string base = opt_.out_dir + "/" + w_->name() + "-seed" +
                           std::to_string(opt_.seed);
  std::ofstream(base + ".layers.txt") << table;

  // Spans: one op span per traced op, its http/server children, parents by
  // interval containment. Times in microseconds from the first op.
  std::ofstream out(base + ".spans.json");
  const int64_t t0 = samples_.empty() ? 0 : samples_.front().start_ns;
  auto us = [t0](int64_t ns) {
    return Fixed(static_cast<double>(ns - t0) / 1e3, 3);
  };
  out << "{\"workload\": \"" << w_->name() << "\", \"seed\": " << opt_.seed
      << ", \"spans\": [\n";
  int64_t id = 0;
  bool first = true;
  for (size_t i = 0; i < samples_.size(); ++i) {
    const OpSample& s = samples_[i];
    if (!s.traced) continue;
    const int64_t op_id = id++;
    out << (first ? "" : ",\n") << "{\"id\": " << op_id
        << ", \"name\": \"op\", \"kind\": \""
        << kinds_[static_cast<size_t>(s.kind)] << "\", \"op\": " << i
        << ", \"parent\": null, \"start_us\": " << us(s.start_ns)
        << ", \"end_us\": " << us(s.end_ns) << "}";
    first = false;
    std::vector<std::pair<const Span*, int64_t>> http_ids;
    for (const Span* sp : spans_by_op[i]) {
      if (sp->kind != SpanKind::kHttp) continue;
      http_ids.push_back({sp, id});
      out << ",\n{\"id\": " << id++ << ", \"name\": \"net.http\", \"op\": " << i
          << ", \"parent\": " << op_id << ", \"start_us\": " << us(sp->start_ns)
          << ", \"end_us\": " << us(sp->end_ns) << "}";
    }
    for (const Span* sp : spans_by_op[i]) {
      if (sp->kind == SpanKind::kHttp) continue;
      int64_t parent = op_id;
      for (const auto& [h, hid] : http_ids) {
        if (h->start_ns <= sp->start_ns && sp->end_ns <= h->end_ns) {
          parent = hid;
        }
      }
      out << ",\n{\"id\": " << id++ << ", \"name\": \"" << SpanName(sp->kind)
          << "\", \"op\": " << i << ", \"parent\": " << parent
          << ", \"start_us\": " << us(sp->start_ns)
          << ", \"end_us\": " << us(sp->end_ns) << "}";
    }
  }
  out << "\n]}\n";
}

}  // namespace

RunResult RunWorkload(Workload* workload, const RunOptions& options) {
  return Runner(workload, options).Run();
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + Num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
