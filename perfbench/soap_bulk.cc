// soap_bulk: two relational peers, p0 -> y, with y's XrpcService behind a
// real loopback HttpServer. Exercises message marshal, XML parse and
// serialize, parameter shredding and HTTP framing; no joins, no catalog and
// no 2PC (see NOTES.md).
#include <thread>

#include "base/prng.h"
#include "bench.h"
#include "xmark/xmark.h"

namespace perfbench {
namespace {

using xrpc::core::EngineKind;
using xrpc::core::Peer;
using xrpc::core::PeerNetwork;

enum Kind { kBulk, kRpcLoop, kShipRequest, kShipResponse };

constexpr int kBulkCalls = 1000;  // Table 2's Bulk RPC of 1000 calls
constexpr int kLoopCalls = 100;   // 100 round trips, one call each
constexpr size_t kPayloadBytes = 256 * 1024;

constexpr char kPeerUri[] = "xrpc://y.example.org";

constexpr char kCountModule[] = R"(
module namespace pb = "perfbench";
declare function pb:count($x as item()*) as xs:integer { count($x) };
declare function pb:rows($name as xs:string) as node()*
{ doc($name)/payload/row };
)";

std::string Sequence(int n) {
  std::string out;
  for (int i = 1; i <= n; ++i) {
    if (i > 1) out += " ";
    out += std::to_string(i);
  }
  return out;
}

std::string EchoLoop(int n) {
  return "import module namespace t=\"test\" at \"test.xq\";\n"
         "for $i in 1 to " +
         std::to_string(n) + " return execute at {\"" + kPeerUri +
         "\"} {t:echo($i)}";
}

/// <payload> of seeded <row> words, about kPayloadBytes long.
std::string MakePayload(uint64_t seed, int* rows) {
  xrpc::DeterministicPrng prng(seed);
  static const char* const kWords[] = {"auction", "bid",   "person",
                                       "item",    "price", "annotation",
                                       "seller",  "buyer"};
  std::string payload = "<payload>";
  *rows = 0;
  while (payload.size() + 64 < kPayloadBytes) {
    payload += "<row>";
    payload += kWords[prng.NextUint64() % 8];
    payload += "-" + std::to_string(prng.NextUint64() % 100000) + "</row>";
    ++*rows;
  }
  return payload + "</payload>";
}

class SoapBulk : public Workload {
 public:
  explicit SoapBulk(uint64_t seed)
      : seed_(seed), payload_(MakePayload(MixSeed(seed, 2), &rows_)) {
    bulk_expected_ = std::make_shared<const std::string>(Sequence(kBulkCalls));
    loop_expected_ = std::make_shared<const std::string>(Sequence(kLoopCalls));
    rows_expected_ = std::make_shared<const std::string>(std::to_string(rows_));
  }

  const char* name() const override { return "soap_bulk"; }
  std::vector<std::string> kinds() const override {
    return {"bulk", "rpc_loop", "ship_request", "ship_response"};
  }
  // Three bulk ops per round give lead_p95_ms its 200 samples in one run.
  std::vector<int> round() const override {
    return {kBulk, kRpcLoop, kBulk, kShipRequest, kBulk, kRpcLoop,
            kShipResponse};
  }
  int64_t rounds_per_second() const override { return 7; }
  // The client and the HTTP worker serving the one connection take turns.
  bool one_malloc_arena() const override { return true; }

  void Teardown() override {
    server_.reset();
    forwarder_.reset();
    wrapped_.clear();
    peers_.clear();
    net_.reset();
  }

  xrpc::Status BuildFleet() override {
    net_ = std::make_unique<PeerNetwork>();
    Peer* p0 = net_->AddPeer("p0.example.org", EngineKind::kRelational);
    Peer* y = net_->AddPeer("y.example.org", EngineKind::kRelational);
    XRPC_RETURN_IF_ERROR(
        y->RegisterModule(xrpc::xmark::TestModuleSource(), "test.xq"));
    XRPC_RETURN_IF_ERROR(y->RegisterModule(kCountModule, "pb.xq"));
    // Regenerated so data generation is part of the set-up time.
    int rows = 0;
    const std::string payload = MakePayload(MixSeed(seed_, 2), &rows);
    XRPC_RETURN_IF_ERROR(p0->AddDocument("payload.xml", payload));
    XRPC_RETURN_IF_ERROR(y->AddDocument("payload.xml", payload));
    peers_ = {p0, y};
    wrapped_ = WrapPeers(net_.get(), peers_, &probe_);

    xrpc::net::HttpServer::Options options;
    options.workers =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    options.keep_alive_idle_millis = 600'000;
    server_ = std::make_unique<xrpc::net::HttpServer>(wrapped_[1].get(),
                                                      options);
    auto port = server_->Start(0);
    if (!port.ok()) return port.status();
    forwarder_ = std::make_unique<HttpForwarder>(port.value(), &probe_);
    net_->network().RegisterPeer(xrpc::net::ParseXrpcUri(y->uri()).value(),
                                 forwarder_.get());
    return xrpc::Status::OK();
  }

  PeerNetwork& net() override { return *net_; }
  std::vector<Peer*> peers() override { return peers_; }

  Op MakeOp(int kind, int64_t /*seq*/) override {
    Op op;
    op.kind = kind;
    switch (kind) {
      case kBulk:
        op.query = EchoLoop(kBulkCalls);
        op.expected = bulk_expected_;
        break;
      case kRpcLoop:
        op.query = EchoLoop(kLoopCalls);
        op.options.force_one_at_a_time = true;
        op.expected = loop_expected_;
        break;
      case kShipRequest:
        op.query = std::string(
                       "import module namespace pb=\"perfbench\" at "
                       "\"pb.xq\";\nexecute at {\"") +
                   kPeerUri +
                   "\"} {pb:count(doc(\"payload.xml\")/payload/row)}";
        op.expected = rows_expected_;
        break;
      case kShipResponse:
        op.query = std::string(
                       "import module namespace pb=\"perfbench\" at "
                       "\"pb.xq\";\ncount(execute at {\"") +
                   kPeerUri + "\"} {pb:rows(\"payload.xml\")})";
        op.expected = rows_expected_;
        break;
    }
    return op;
  }

  std::vector<const std::string*> documents() override {
    return {&payload_};
  }

  void AddLayerMetrics(Metrics* m) override {
    (*m)["net.connections_accepted"] = {
        static_cast<double>(server_->connections_accepted()), "count"};
    (*m)["net.pool_hits"] = {
        static_cast<double>(forwarder_->transport().pool().hits()), "count"};
  }

 private:
  uint64_t seed_;
  int rows_ = 0;
  std::string payload_;
  std::shared_ptr<const std::string> bulk_expected_;
  std::shared_ptr<const std::string> loop_expected_;
  std::shared_ptr<const std::string> rows_expected_;

  // Destroyed bottom-up: the server stops before the endpoints it serves.
  std::unique_ptr<PeerNetwork> net_;
  std::vector<Peer*> peers_;
  std::vector<std::unique_ptr<TimedEndpoint>> wrapped_;
  std::unique_ptr<HttpForwarder> forwarder_;
  std::unique_ptr<xrpc::net::HttpServer> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeSoapBulk(uint64_t seed) {
  return std::make_unique<SoapBulk>(seed);
}

}  // namespace perfbench
