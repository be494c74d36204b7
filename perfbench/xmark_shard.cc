// xmark_shard: Section 5's Q7 over shard:auctions.xml on 8 relational shard
// peers, p0 holding persons.xml, with parallel dispatch. Exercises
// loop-lifted compile and execution, algebra, shredding and routing; the
// envelopes are small relative to the compute (see NOTES.md).
#include <thread>

#include "bench.h"
#include "xmark/shard_loader.h"

namespace perfbench {
namespace {

using xrpc::core::EngineKind;
using xrpc::core::Peer;
using xrpc::core::PeerNetwork;

enum Kind { kSemijoin, kPushdown, kPoint };

constexpr int kShards = 8;

constexpr char kImportB[] =
    "import module namespace b=\"functions_b\" at \"b.xq\";\n";

// Q7_3: loop-lifted semi-join, one pruned Bulk RPC per shard.
constexpr char kSemijoinQuery[] = R"(
for $p in doc("persons.xml")//person
let $ca := execute at {"shard:auctions.xml"} {b:Q_B3(string($p/@id))}
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>)";

// Q7_1: predicate push-down, a broadcast plus a p0-local join.
constexpr char kPushdownQuery[] = R"(
for $p in doc("persons.xml")//person,
    $ca in execute at {"shard:auctions.xml"} {b:Q_B1()}
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>)";

// The same join evaluated locally on the unsharded documents: the
// reference both distributed strategies must reproduce.
constexpr char kLocalJoin[] = R"(
for $p in doc("persons.xml")//person,
    $ca in doc("auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>)";

xrpc::xmark::XmarkConfig DataConfig(uint64_t seed) {
  xrpc::xmark::XmarkConfig config;
  config.num_persons = 100;
  config.num_closed_auctions = 240;
  config.num_matches = config.num_persons;  // every person has one match
  // Items and open auctions are never shipped, but every //closed_auction
  // scan at a shard walks them: they set the compute per op without
  // growing p0's shred cache.
  config.num_open_auctions = 800;
  config.num_items = 1600;
  config.item_description_bytes = 64;
  config.annotation_bytes = 64;
  config.seed = seed;
  return config;
}

class XmarkShard : public Workload {
 public:
  explicit XmarkShard(uint64_t seed)
      : config_(DataConfig(MixSeed(seed, 3))),
        point_order_(SeededPermutation(config_.num_persons, MixSeed(seed, 4))) {
    persons_ = xrpc::xmark::GeneratePersons(config_);
    fragments_ = xrpc::xmark::GenerateAuctionsFragments(config_, kShards);
    Reference reference(
        {{"persons.xml", persons_},
         {"auctions.xml", xrpc::xmark::GenerateAuctions(config_)}});
    join_expected_ = reference.Result(kLocalJoin);
    for (int i = 0; i < config_.num_persons; ++i) {
      point_expected_.push_back(
          reference.Result(LocalPointQuery("person" + std::to_string(i))));
    }
  }

  const char* name() const override { return "xmark_shard"; }
  std::vector<std::string> kinds() const override {
    return {"semijoin", "pushdown", "point"};
  }
  // Two semi-joins per round give lead_p95_ms its 200 samples while
  // the push-down, whose shipped nodes stay in p0's shred cache, runs half
  // as often.
  std::vector<int> round() const override {
    return {kSemijoin, kPoint, kPushdown, kSemijoin, kPoint};
  }
  int64_t rounds_per_second() const override { return 7; }

  void Teardown() override {
    wrapped_.clear();
    peers_.clear();
    net_.reset();
  }

  xrpc::Status BuildFleet() override {
    net_ = std::make_unique<PeerNetwork>();
    net_->EnableParallelDispatch(
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
    xrpc::xmark::ShardLoadOptions options;
    options.num_shards = kShards;
    options.engine = EngineKind::kRelational;
    XRPC_ASSIGN_OR_RETURN(xrpc::xmark::ShardLoadResult loaded,
                          xrpc::xmark::LoadShardedXmark(net_.get(), config_,
                                                        options));
    // LoadShardedXmark generates the fragments; p0's persons.xml is
    // generated here too, so data generation is part of the set-up time.
    Peer* p0 = net_->AddPeer("p0", EngineKind::kRelational);
    XRPC_RETURN_IF_ERROR(p0->AddDocument(
        "persons.xml", xrpc::xmark::GeneratePersons(config_)));
    XRPC_RETURN_IF_ERROR(p0->RegisterModule(
        xrpc::xmark::FunctionsBModuleSource(p0->uri()), "b.xq"));
    peers_ = {p0};
    peers_.insert(peers_.end(), loaded.peers.begin(), loaded.peers.end());
    wrapped_ = WrapPeers(net_.get(), peers_, &probe_);
    return xrpc::Status::OK();
  }

  PeerNetwork& net() override { return *net_; }
  std::vector<Peer*> peers() override { return peers_; }

  Op MakeOp(int kind, int64_t seq) override {
    Op op;
    op.kind = kind;
    switch (kind) {
      case kSemijoin:
        op.query = std::string(kImportB) + kSemijoinQuery;
        op.expected = join_expected_;
        break;
      case kPushdown:
        op.query = std::string(kImportB) + kPushdownQuery;
        op.expected = join_expected_;
        break;
      case kPoint: {
        const int person = point_order_[static_cast<size_t>(seq + 1) %
                                        point_order_.size()];
        op.query = PointQuery("person" + std::to_string(person));
        op.expected = point_expected_[static_cast<size_t>(person)];
        break;
      }
    }
    return op;
  }

  std::vector<const std::string*> documents() override {
    std::vector<const std::string*> docs = {&persons_};
    for (const std::string& fragment : fragments_) docs.push_back(&fragment);
    return docs;
  }

 private:
  xrpc::xmark::XmarkConfig config_;
  std::string persons_;
  std::vector<std::string> fragments_;
  std::shared_ptr<const std::string> join_expected_;
  std::vector<int> point_order_;
  /// Expected point results, indexed by person number.
  std::vector<std::shared_ptr<const std::string>> point_expected_;

  std::unique_ptr<PeerNetwork> net_;
  std::vector<Peer*> peers_;
  std::vector<std::unique_ptr<TimedEndpoint>> wrapped_;
};

}  // namespace

std::unique_ptr<Workload> MakeXmarkShard(uint64_t seed) {
  return std::make_unique<XmarkShard>(seed);
}

}  // namespace perfbench
