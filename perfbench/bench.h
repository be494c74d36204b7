// Shared pieces of the repo benchmark: process counters, the span recorder,
// the timing decorators wrapped around every peer's SOAP endpoint, the
// workload interface and the closed-loop runner. See NOTES.md for what each
// workload measures and how to read the numbers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/peer_network.h"
#include "net/http.h"
#include "net/transport.h"

namespace perfbench {

int64_t NowNs();

// ---------------------------------------------------------------------------
// Process counters (alloc_count.cc replaces the global operator new).

struct AllocCounts {
  int64_t count = 0;
  int64_t bytes = 0;
};
AllocCounts AllocNow();
/// Counting is off by default, so an untraced run pays one relaxed load
/// per allocation and no shared-counter updates.
void SetAllocCounting(bool on);
int64_t MinorFaultsNow();
double PeakRssMb();

// ---------------------------------------------------------------------------
// Spans. Exactly one operation is in flight at a time (closed loop), so the
// op id of a span is the op the runner is executing when the span ends —
// dispatch-pool and HTTP worker threads attach to it without any context
// being passed through the program.

enum class SpanKind : uint8_t { kHttp, kServer, kWsat };
const char* SpanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kServer;
  int64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Pre-sizes the span store so recording never allocates inside an op.
  void Reserve(size_t spans) { spans_.reserve(spans); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_op(int64_t op) { op_.store(op, std::memory_order_relaxed); }
  void Record(SpanKind kind, int64_t start_ns, int64_t end_ns);
  /// Call only while no op is in flight.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> op_{0};
  std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// Server-side counts, accumulated by the decorators for the op in flight.
struct WireCounters {
  std::atomic<int64_t> wsat_requests{0};
  std::atomic<int64_t> request_bytes{0};
  std::atomic<int64_t> response_bytes{0};
};

/// Everything the decorators report into. Envelopes seen while `capture`
/// is on (the warm-up pass) are kept as replay inputs for the SOAP layer.
struct Probe {
  Tracer tracer;
  WireCounters wire;
  std::atomic<bool> capture{false};
  std::mutex capture_mu;  // guards the two vectors below
  std::vector<std::string> captured_requests;
  std::vector<std::string> captured_responses;
};

/// Times and counts every request a peer's XrpcService handles.
class TimedEndpoint : public xrpc::net::SoapEndpoint {
 public:
  TimedEndpoint(xrpc::net::SoapEndpoint* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}
  TimedEndpoint(const TimedEndpoint&) = delete;
  TimedEndpoint& operator=(const TimedEndpoint&) = delete;
  xrpc::StatusOr<std::string> Handle(const std::string& path,
                                     const std::string& body) override;

 private:
  xrpc::net::SoapEndpoint* inner_;
  Probe* probe_;
};

/// Stands in for a peer on the simulated network and forwards each request
/// over a real keep-alive HTTP connection to that peer's HttpServer.
class HttpForwarder : public xrpc::net::SoapEndpoint {
 public:
  HttpForwarder(int port, Probe* probe);
  HttpForwarder(const HttpForwarder&) = delete;
  HttpForwarder& operator=(const HttpForwarder&) = delete;
  xrpc::StatusOr<std::string> Handle(const std::string& path,
                                     const std::string& body) override;
  xrpc::net::HttpTransport& transport() { return transport_; }

 private:
  std::string base_uri_;
  Probe* probe_;
  xrpc::net::HttpTransport transport_;
};

/// Replaces each peer's registration on the simulated network by a
/// TimedEndpoint around its XrpcService.
std::vector<std::unique_ptr<TimedEndpoint>> WrapPeers(
    xrpc::core::PeerNetwork* net, const std::vector<xrpc::core::Peer*>& peers,
    Probe* probe);

// ---------------------------------------------------------------------------
// Workloads.

/// One operation the client issues. `expected` is the SequenceToString of
/// the correct result; null means the op is an update that must commit.
struct Op {
  int kind = 0;
  std::string query;
  xrpc::core::ExecuteOptions options;
  std::shared_ptr<const std::string> expected;
  int tag = 0;        ///< workload-private: which peer an update writes
  std::string label;  ///< workload-private: what an update writes
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// The op kinds, by index. Every workload reports the same end-to-end
  /// metrics, so the order carries meaning: kinds()[0] is the lead kind
  /// (lead_p50_ms, lead_p95_ms) and kinds()[1] the second (second_p50_ms).
  virtual std::vector<std::string> kinds() const = 0;
  /// The kinds one round runs, by index and in order; every round is the
  /// same. A kind may appear more than once so that every tail metric gets
  /// >= 200 samples without growing state through the other kinds. The
  /// order is fixed, not seeded: the program's state growth depends on the
  /// op order (see NOTES.md).
  virtual std::vector<int> round() const = 0;
  /// Measured rounds per --seconds: a fixed op count, never a time budget,
  /// because the fleet's state grows with every op. The runner splits them
  /// evenly over several fresh fleets.
  virtual int64_t rounds_per_second() const = 0;

  /// Builds a fresh fleet with its data loaded and every peer wrapped in a
  /// TimedEndpoint reporting into probe(). Called with no fleet in place.
  virtual xrpc::Status BuildFleet() = 0;
  /// Destroys the fleet BuildFleet built, if any. The runner calls it
  /// outside the timed set-up window, so setup_s never includes teardown.
  virtual void Teardown() = 0;
  virtual xrpc::core::PeerNetwork& net() = 0;
  /// Every peer of the fleet; peers()[0] is p0, the client's peer.
  virtual std::vector<xrpc::core::Peer*> peers() = 0;

  /// Op number `seq` of kind `kind`; seq -1 is the warm-up op.
  virtual Op MakeOp(int kind, int64_t seq) = 0;
  /// Called after an op passed its check.
  virtual void OnSuccess(const Op& /*op*/) {}
  /// State checks on the fleet after its last op; returns the mismatches
  /// found.
  virtual int PostRunMismatches() { return 0; }

  /// The texts of the documents loaded into the fleet: replay input of
  /// the XML parse and shred timings.
  virtual std::vector<const std::string*> documents() = 0;
  /// Overwrites per-layer counters that only this workload's set-up can
  /// read; the runner reports them as 0 otherwise.
  virtual void AddLayerMetrics(Metrics* /*metrics*/) {}
  /// True when every op runs on the client's thread alone. The runner then
  /// moves the thread to the next CPU each round (see NOTES.md).
  virtual bool single_threaded() const { return false; }
  /// True when threads only hand each op to one another and never allocate
  /// at the same time. The runner then limits glibc malloc to one arena:
  /// otherwise which threads share an arena depends on thread start-up
  /// timing, and peak RSS flips between two levels (see NOTES.md).
  virtual bool one_malloc_arena() const { return false; }

  Probe& probe() { return probe_; }

 protected:
  // Declared in the base so it outlives every fleet member of a workload.
  Probe probe_;
};

/// Linear-interpolated percentile (`p` in [0, 100]) of `values`.
double Percentile(std::vector<double> values, double p);

/// One relational peer holding unsharded documents (name, text): computes
/// the expected value of a distributed read once, at set-up.
class Reference {
 public:
  explicit Reference(
      const std::vector<std::pair<std::string, std::string>>& docs);
  /// SequenceToString of `query`'s result; a failing query yields a marker
  /// no result can equal, so every op checked against it fails.
  std::shared_ptr<const std::string> Result(const std::string& query);

 private:
  xrpc::core::PeerNetwork net_;
  xrpc::Status loaded_;
};

/// A routed Q_B3 read of `person` over shard:auctions.xml, and the same
/// selection on the unsharded auctions.xml.
std::string PointQuery(const std::string& person);
std::string LocalPointQuery(const std::string& person);

/// 0..n-1 in a seeded order: point reads visit every person equally often
/// whatever the seed, so the seed changes the order, not the key mix.
std::vector<int> SeededPermutation(int n, uint64_t seed);

std::unique_ptr<Workload> MakeSoapBulk(uint64_t seed);
std::unique_ptr<Workload> MakeXmarkShard(uint64_t seed);
std::unique_ptr<Workload> MakeUpdate2pc(uint64_t seed);
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

struct RunOptions {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< trace output directory ("" = none)
  /// Test hook: replaces the expected result of every op of this kind.
  std::string sabotage_kind;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> errors;  ///< first few failure descriptions
};

RunResult RunWorkload(Workload* workload, const RunOptions& options);

std::string ResultJson(const RunResult& result);

/// Splits `seed` into independent streams (SplitMix64 finaliser).
uint64_t MixSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
