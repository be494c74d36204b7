// update_2pc: 4 relational shard peers with replication factor 2, each
// also holding filmDB.xml. Two-peer inserts and all-copies broadcasts run
// WS-AT 2PC under repeatable isolation, with routed reads beside them.
// Exercises prepare/commit, the TxnLog, isolation sessions and PUL apply
// (see NOTES.md).
#include "bench.h"
#include "xmark/shard_loader.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using xrpc::core::EngineKind;
using xrpc::core::Peer;
using xrpc::core::PeerNetwork;

enum Kind { kCommit, kShardedCommit, kPoint };

constexpr int kShards = 4;
constexpr int kReplication = 2;

constexpr int kExtraFilms = 1500;  // filmDB.xml size: what a commit clones

constexpr char kFilmModule[] = R"(
module namespace film = "films";
declare updating function film:addFilm($name as xs:string,
                                       $actor as xs:string)
{ insert nodes <film><name>{$name}</name><actor>{$actor}</actor></film>
  into doc("filmDB.xml")/films };
)";

// The stamp lands under /site, where Q_B3 does not look, so point reads
// keep one expected result while the collection is written.
constexpr char kStampModule[] = R"(
module namespace u = "upd_bench";
declare updating function u:stamp()
{ insert nodes <load-stamp/> into doc("auctions.xml")/site };
)";

constexpr char kShardedCommitQuery[] =
    "declare option xrpc:isolation \"repeatable\";\n"
    "import module namespace u=\"upd_bench\" at \"u.xq\";\n"
    "execute at {\"shard:auctions.xml\"} {u:stamp()}";

xrpc::xmark::XmarkConfig DataConfig(uint64_t seed) {
  xrpc::xmark::XmarkConfig config;
  config.num_persons = 100;
  config.num_closed_auctions = 400;
  config.num_matches = config.num_persons;
  config.num_open_auctions = 20;
  config.num_items = 40;
  config.annotation_bytes = 64;
  config.seed = seed;
  return config;
}

/// Number of element children of `node` named `local`.
int CountChildren(const xrpc::xml::Node& node, const std::string& local) {
  int n = 0;
  for (const auto& child : node.children()) {
    if (child->kind() == xrpc::xml::NodeKind::kElement &&
        child->name().local == local) {
      ++n;
    }
  }
  return n;
}

/// The document element of a document node (null if none).
const xrpc::xml::Node* DocumentElement(const xrpc::xml::NodePtr& doc) {
  for (const auto& child : doc->children()) {
    if (child->kind() == xrpc::xml::NodeKind::kElement) return child.get();
  }
  return nullptr;
}

/// The film/name strings of a filmDB.xml document, in document order.
std::vector<std::string> FilmNames(
    const xrpc::StatusOr<xrpc::xml::NodePtr>& doc) {
  std::vector<std::string> names;
  const xrpc::xml::Node* root = doc.ok() ? DocumentElement(*doc) : nullptr;
  if (root == nullptr) return names;
  for (const auto& film : root->children()) {
    for (const auto& field : film->children()) {
      if (field->kind() == xrpc::xml::NodeKind::kElement &&
          field->name().local == "name") {
        names.push_back(field->StringValue());
      }
    }
  }
  return names;
}

class Update2pc : public Workload {
 public:
  explicit Update2pc(uint64_t seed)
      : seed_(seed),
        config_(DataConfig(MixSeed(seed, 5))),
        point_order_(SeededPermutation(config_.num_persons, MixSeed(seed, 6))) {
    Reference reference(
        {{"auctions.xml", xrpc::xmark::GenerateAuctions(config_)}});
    for (int i = 0; i < config_.num_persons; ++i) {
      point_expected_.push_back(
          reference.Result(LocalPointQuery("person" + std::to_string(i))));
    }
    fragments_ = xrpc::xmark::GenerateAuctionsFragments(config_, kShards);
    film_db_ = xrpc::xmark::GenerateFilmDb(kExtraFilms, MixSeed(seed, 8));
    initial_films_ = FilmNames(xrpc::xml::ParseXml(film_db_));
  }

  const char* name() const override { return "update_2pc"; }
  std::vector<std::string> kinds() const override {
    return {"commit", "sharded_commit", "point"};
  }
  std::vector<int> round() const override {
    return {kCommit, kShardedCommit, kCommit, kPoint, kCommit, kShardedCommit};
  }
  int64_t rounds_per_second() const override { return 35; }
  bool single_threaded() const override { return true; }

  void Teardown() override {
    wrapped_.clear();
    peers_.clear();
    shard_peers_.clear();
    net_.reset();
  }

  xrpc::Status BuildFleet() override {
    net_ = std::make_unique<PeerNetwork>();
    xrpc::xmark::ShardLoadOptions options;
    options.num_shards = kShards;
    options.engine = EngineKind::kRelational;
    options.replication_factor = kReplication;
    XRPC_ASSIGN_OR_RETURN(xrpc::xmark::ShardLoadResult loaded,
                          xrpc::xmark::LoadShardedXmark(net_.get(), config_,
                                                        options));
    Peer* p0 = net_->AddPeer("p0", EngineKind::kRelational);
    XRPC_RETURN_IF_ERROR(p0->RegisterModule(
        xrpc::xmark::FunctionsBModuleSource(p0->uri()), "b.xq"));
    XRPC_RETURN_IF_ERROR(p0->RegisterModule(kFilmModule, "film.xq"));
    XRPC_RETURN_IF_ERROR(p0->RegisterModule(kStampModule, "u.xq"));
    shard_peers_ = loaded.peers;
    // Generated here (as LoadShardedXmark generates the fragments) so data
    // generation is part of the set-up time.
    const std::string film_db =
        xrpc::xmark::GenerateFilmDb(kExtraFilms, MixSeed(seed_, 8));
    for (Peer* peer : shard_peers_) {
      XRPC_RETURN_IF_ERROR(peer->AddDocument("filmDB.xml", film_db));
      XRPC_RETURN_IF_ERROR(peer->RegisterModule(kFilmModule, "film.xq"));
      XRPC_RETURN_IF_ERROR(peer->RegisterModule(kStampModule, "u.xq"));
    }
    peers_ = {p0};
    peers_.insert(peers_.end(), shard_peers_.begin(), shard_peers_.end());
    wrapped_ = WrapPeers(net_.get(), peers_, &probe_);
    films_.assign(kShards, {});
    stamps_ = 0;
    return xrpc::Status::OK();
  }

  PeerNetwork& net() override { return *net_; }
  std::vector<Peer*> peers() override { return peers_; }

  Op MakeOp(int kind, int64_t seq) override {
    Op op;
    op.kind = kind;
    switch (kind) {
      case kCommit: {
        // Commits walk the peer pairs (0,1) (2,3) (1,2) (3,0) in a fixed
        // order: the order of the pairs alone moved commit p50 by 1.5x
        // between seeds (NOTES.md).
        static constexpr int kFirstPeer[kShards] = {0, 2, 1, 3};
        const int first = kFirstPeer[(seq + 1) % kShards];
        const int second = (first + 1) % kShards;
        const std::string film =
            "film-" + std::to_string(MixSeed(seed_, 9) % 1000000) + "-" +
            std::to_string(seq + 1);
        op.tag = first;
        op.label = film;
        const std::string call = "{f:addFilm(\"" + film + "\", \"bench\")}";
        op.query = "declare option xrpc:isolation \"repeatable\";\n"
                   "import module namespace f=\"films\" at \"film.xq\";\n"
                   "(execute at {\"" +
                   shard_peers_[static_cast<size_t>(first)]->uri() + "\"} " +
                   call + ",\n execute at {\"" +
                   shard_peers_[static_cast<size_t>(second)]->uri() + "\"} " +
                   call + ")";
        break;
      }
      case kShardedCommit:
        op.query = kShardedCommitQuery;
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

  void OnSuccess(const Op& op) override {
    if (op.kind == kCommit) {
      films_[static_cast<size_t>(op.tag)].push_back(op.label);
      films_[static_cast<size_t>((op.tag + 1) % kShards)].push_back(op.label);
    } else if (op.kind == kShardedCommit) {
      ++stamps_;
    }
  }

  // Each filmDB.xml holds its loaded films plus exactly the films
  // committed to it, in commit order; every copy of every auctions
  // fragment holds one <load-stamp/> per committed broadcast.
  int PostRunMismatches() override {
    int mismatches = 0;
    for (size_t k = 0; k < shard_peers_.size(); ++k) {
      xrpc::server::Database& db = shard_peers_[k]->database();
      std::vector<std::string> expected = initial_films_;
      expected.insert(expected.end(), films_[k].begin(), films_[k].end());
      if (FilmNames(db.GetDocument("filmDB.xml")) != expected) ++mismatches;

      for (const std::string& doc_name : db.DocumentNames()) {
        if (doc_name.rfind("auctions.xml.", 0) != 0) continue;
        auto doc = db.GetDocument(doc_name);
        const xrpc::xml::Node* site =
            doc.ok() ? DocumentElement(*doc) : nullptr;
        if (site == nullptr || CountChildren(*site, "load-stamp") != stamps_) {
          ++mismatches;
        }
      }
    }
    return mismatches;
  }

  std::vector<const std::string*> documents() override {
    std::vector<const std::string*> docs = {&film_db_};
    for (const std::string& fragment : fragments_) docs.push_back(&fragment);
    return docs;
  }

 private:
  uint64_t seed_;
  xrpc::xmark::XmarkConfig config_;
  std::vector<int> point_order_;
  std::vector<std::string> fragments_;
  std::string film_db_;
  std::vector<std::string> initial_films_;
  /// Expected point results, indexed by person number.
  std::vector<std::shared_ptr<const std::string>> point_expected_;

  std::unique_ptr<PeerNetwork> net_;
  std::vector<Peer*> peers_;
  std::vector<Peer*> shard_peers_;
  std::vector<std::unique_ptr<TimedEndpoint>> wrapped_;
  std::vector<std::vector<std::string>> films_;  ///< committed, per shard peer
  int stamps_ = 0;                               ///< committed broadcasts
};

}  // namespace

std::unique_ptr<Workload> MakeUpdate2pc(uint64_t seed) {
  return std::make_unique<Update2pc>(seed);
}

}  // namespace perfbench
