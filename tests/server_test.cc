// End-to-end tests of the peer runtime: XRPC service over the simulated
// network, isolation levels (rules RFr/R'Fr/RFu/R'Fu), snapshot expiry,
// WS-AT two-phase commit including aborts and conflicts, and the
// participating-peers piggyback.

#include <gtest/gtest.h>

#include <memory>

#include "net/simulated_network.h"
#include "server/rpc_client.h"
#include "server/xrpc_service.h"
#include "xml/serializer.h"

namespace xrpc::server {
namespace {

using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

constexpr char kFilmDb[] =
    "<films>"
    "<film><name>The Rock</name><actor>Sean Connery</actor></film>"
    "<film><name>Goldfinger</name><actor>Sean Connery</actor></film>"
    "<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>"
    "</films>";

constexpr char kFilmModule[] = R"(
  module namespace film = "films";
  declare function film:filmsByActor($actor as xs:string) as node()*
  { doc("filmDB.xml")//name[../actor=$actor] };
  declare function film:countFilms() as xs:integer
  { count(doc("filmDB.xml")//film) };
  declare updating function film:addFilm($name as xs:string,
                                         $actor as xs:string)
  { insert nodes <film><name>{$name}</name><actor>{$actor}</actor></film>
    into doc("filmDB.xml")/films };
)";

// One simulated XRPC peer: database + registry + interpreter engine +
// service, registered on a shared SimulatedNetwork.
class TestPeer {
 public:
  TestPeer(const std::string& name, net::SimulatedNetwork* net)
      : uri_("xrpc://" + name),
        engine_(),
        service_({uri_}, &db_, &registry_, &engine_, net) {
    net->RegisterPeer(net::ParseXrpcUri(uri_).value(), &service_);
  }

  Database& db() { return db_; }
  ModuleRegistry& registry() { return registry_; }
  XrpcService& service() { return service_; }
  const std::string& uri() const { return uri_; }

 private:
  std::string uri_;
  Database db_;
  ModuleRegistry registry_;
  InterpreterEngine engine_;
  XrpcService service_;
};

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : peer_("y.example.org", &net_) {
    EXPECT_TRUE(peer_.db().PutDocumentText("filmDB.xml", kFilmDb).ok());
    EXPECT_TRUE(peer_.registry().RegisterModule(kFilmModule).ok());
  }

  xquery::RpcCall FilmsByActor(const std::string& actor) {
    xquery::RpcCall call;
    call.dest_uri = peer_.uri();
    call.module_ns = "films";
    call.function = xml::QName("films", "filmsByActor");
    call.args = {Sequence{Item(AtomicValue::String(actor))}};
    return call;
  }

  soap::XrpcRequest AddFilmRequest(const std::string& name,
                                   const std::string& actor) {
    soap::XrpcRequest req;
    req.module_ns = "films";
    req.method = "addFilm";
    req.arity = 2;
    req.updating = true;
    req.calls.push_back({Sequence{Item(AtomicValue::String(name))},
                         Sequence{Item(AtomicValue::String(actor))}});
    return req;
  }

  net::SimulatedNetwork net_;
  TestPeer peer_;
};

TEST_F(ServerTest, SingleCallRoundTrip) {
  RpcClient client(&net_, {});
  auto result = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(xml::SerializeNode(*result.value()[0].node()),
            "<name>The Rock</name>");
  EXPECT_EQ(client.requests_sent(), 1);
  EXPECT_EQ(peer_.service().requests_handled(), 1);
  EXPECT_EQ(*client.participating_peers().begin(), peer_.uri());
}

TEST_F(ServerTest, BulkRequestExecutesAllCalls) {
  RpcClient client(&net_, {});
  soap::XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.arity = 1;
  req.calls.push_back({Sequence{Item(AtomicValue::String("Julie Andrews"))}});
  req.calls.push_back({Sequence{Item(AtomicValue::String("Sean Connery"))}});
  req.calls.push_back(
      {Sequence{Item(AtomicValue::String("Gerard Depardieu"))}});
  auto response = client.ExecuteBulk(peer_.uri(), std::move(req));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->results.size(), 3u);
  EXPECT_TRUE(response->results[0].empty());
  EXPECT_EQ(response->results[1].size(), 2u);
  EXPECT_EQ(response->results[2].size(), 1u);
  // One network message for three calls.
  EXPECT_EQ(net_.messages_sent(), 1);
  EXPECT_EQ(peer_.service().calls_handled(), 3);
}

TEST_F(ServerTest, UnknownModuleYieldsSoapFault) {
  RpcClient client(&net_, {});
  xquery::RpcCall call = FilmsByActor("x");
  call.module_ns = "no-such-module";
  auto result = client.Execute(call);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSoapFault);
  EXPECT_NE(result.status().message().find("could not load module"),
            std::string::npos);
}

TEST_F(ServerTest, UnknownFunctionYieldsSoapFault) {
  RpcClient client(&net_, {});
  xquery::RpcCall call = FilmsByActor("x");
  call.function = xml::QName("films", "noSuchFunction");
  auto result = client.Execute(call);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSoapFault);
}

TEST_F(ServerTest, DeeplyNestedRequestIsASenderFault) {
  // A peer that can POST must not crash this one: ten thousand nested
  // elements inside a parameter come back as a SOAP Sender fault.
  soap::XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.arity = 1;
  req.calls.push_back({Sequence{Item::Node(xml::Node::NewElement(xml::QName("n")))}});
  std::string body = soap::SerializeRequest(req);
  std::string deep;
  for (int i = 0; i < 10000; ++i) deep += "<n>";
  for (int i = 0; i < 10000; ++i) deep += "</n>";
  const size_t pos = body.find("<n/>");
  ASSERT_NE(pos, std::string::npos);
  body.replace(pos, 4, deep);
  auto reply = peer_.service().Handle("/xrpc", body);
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto parsed = soap::ParseResponse(*reply);
  ASSERT_EQ(parsed.status().code(), StatusCode::kSoapFault);
  EXPECT_NE(parsed.status().message().find("env:Sender"), std::string::npos)
      << parsed.status();
  EXPECT_NE(parsed.status().message().find("nested deeper"), std::string::npos);
}

TEST_F(ServerTest, IsolationNoneSeesLatestState) {
  // Rule RFr: each request sees the current database state.
  RpcClient client(&net_, {});
  auto r1 = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->size(), 2u);
  // Another transaction replaces the database between the two calls.
  ASSERT_TRUE(peer_.db()
                  .PutDocumentText("filmDB.xml",
                                   "<films><film><name>Dr. No</name>"
                                   "<actor>Sean Connery</actor></film>"
                                   "</films>")
                  .ok());
  auto r2 = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 1u);
}

TEST_F(ServerTest, RepeatableReadPinsSnapshot) {
  // Rule R'Fr: both requests of the same query see db_p(t_q^p).
  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "query-1";
  qid.host = "xrpc://p0";
  qid.timeout_sec = 60;
  opts.query_id = qid;
  RpcClient client(&net_, opts);

  auto r1 = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1->size(), 2u);
  ASSERT_TRUE(
      peer_.db().PutDocumentText("filmDB.xml", "<films/>").ok());
  auto r2 = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->size(), 2u);  // same snapshot, unaffected by the update
  EXPECT_EQ(peer_.service().isolation().active_sessions(), 1u);

  // A different query sees the new state.
  RpcClient fresh(&net_, {});
  auto r3 = fresh.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->size(), 0u);
}

TEST_F(ServerTest, ExpiredQueryIdIsRejected) {
  int64_t fake_now = 1'000'000;
  peer_.service().isolation().SetTimeSource([&] { return fake_now; });

  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "query-2";
  qid.host = "xrpc://p0";
  qid.timestamp = 77;
  qid.timeout_sec = 10;
  opts.query_id = qid;
  RpcClient client(&net_, opts);

  ASSERT_TRUE(client.Execute(FilmsByActor("Sean Connery")).ok());
  fake_now += 11'000'000;  // advance past the 10 s timeout
  auto late = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.status().message().find("expired"), std::string::npos);
  // The expired id is remembered: even a brand-new request with the same
  // id errors out.
  auto again = client.Execute(FilmsByActor("Sean Connery"));
  EXPECT_FALSE(again.ok());
}

TEST_F(ServerTest, UpdatingCallWithoutIsolationAppliesImmediately) {
  // Rule RFu: the pending update list is applied per request.
  RpcClient client(&net_, {});
  uint64_t version_before = peer_.db().VersionOf("filmDB.xml");
  auto response =
      client.ExecuteBulk(peer_.uri(), AddFilmRequest("Dr. No", "Sean Connery"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_GT(peer_.db().VersionOf("filmDB.xml"), version_before);

  auto count = client.Execute([this] {
    xquery::RpcCall call;
    call.dest_uri = peer_.uri();
    call.module_ns = "films";
    call.function = xml::QName("films", "countFilms");
    return call;
  }());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value()[0].atomic().AsInteger(), 4);
}

TEST_F(ServerTest, IsolatedUpdateDeferredUntilCommit) {
  // Rule R'Fu + 2PC: updates stay invisible until Commit.
  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "upd-1";
  qid.host = "xrpc://p0";
  qid.timeout_sec = 60;
  opts.query_id = qid;
  RpcClient client(&net_, opts);

  ASSERT_TRUE(
      client.ExecuteBulk(peer_.uri(), AddFilmRequest("Dr. No", "Sean Connery"))
          .ok());
  // Not yet visible.
  RpcClient reader(&net_, {});
  xquery::RpcCall count_call;
  count_call.dest_uri = peer_.uri();
  count_call.module_ns = "films";
  count_call.function = xml::QName("films", "countFilms");
  auto before = reader.Execute(count_call);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value()[0].atomic().AsInteger(), 3);

  // Commit through WS-AT.
  std::vector<std::string> participants(client.participating_peers().begin(),
                                        client.participating_peers().end());
  auto outcome = RunTwoPhaseCommit(&net_, participants, "upd-1");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->committed);
  EXPECT_EQ(outcome->prepares_sent, 1);
  EXPECT_EQ(outcome->commits_sent, 1);
  EXPECT_EQ(peer_.service().txn_log().CountAppended(
                TxnLog::RecordType::kPrepared),
            1u);
  EXPECT_EQ(peer_.service().txn_log().CountAppended(
                TxnLog::RecordType::kCommitted),
            1u);

  auto after = reader.Execute(count_call);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value()[0].atomic().AsInteger(), 4);
  EXPECT_EQ(peer_.service().isolation().active_sessions(), 0u);
}

TEST_F(ServerTest, PrepareFailureAbortsDistributedTransaction) {
  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "upd-2";
  qid.host = "xrpc://p0";
  qid.timeout_sec = 60;
  opts.query_id = qid;
  RpcClient client(&net_, opts);
  ASSERT_TRUE(
      client.ExecuteBulk(peer_.uri(), AddFilmRequest("Dr. No", "Sean Connery"))
          .ok());

  peer_.service().txn_log().FailNextAppend(
      Status::TransactionError("disk full"));
  auto outcome = RunTwoPhaseCommit(&net_, {peer_.uri()}, "upd-2");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->committed);
  EXPECT_NE(outcome->abort_reason.find("disk full"), std::string::npos);

  // The database is untouched and the session is gone.
  RpcClient reader(&net_, {});
  xquery::RpcCall count_call;
  count_call.dest_uri = peer_.uri();
  count_call.module_ns = "films";
  count_call.function = xml::QName("films", "countFilms");
  auto count = reader.Execute(count_call);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value()[0].atomic().AsInteger(), 3);
  EXPECT_EQ(peer_.service().isolation().active_sessions(), 0u);
}

TEST_F(ServerTest, WriteWriteConflictAbortsAtPrepare) {
  // First-committer-wins: a transaction that committed after our snapshot
  // forces an abort at Prepare.
  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "upd-3";
  qid.host = "xrpc://p0";
  qid.timeout_sec = 60;
  opts.query_id = qid;
  RpcClient client(&net_, opts);
  ASSERT_TRUE(
      client.ExecuteBulk(peer_.uri(), AddFilmRequest("Dr. No", "Sean Connery"))
          .ok());

  // Meanwhile another (non-isolated) update commits.
  RpcClient other(&net_, {});
  ASSERT_TRUE(other
                  .ExecuteBulk(peer_.uri(),
                               AddFilmRequest("Thunderball", "Sean Connery"))
                  .ok());

  auto outcome = RunTwoPhaseCommit(&net_, {peer_.uri()}, "upd-3");
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->committed);
  EXPECT_NE(outcome->abort_reason.find("conflict"), std::string::npos);
}

TEST_F(ServerTest, NestedCallsPiggybackParticipants) {
  // y calls z from within a module function; p0 must learn about z from
  // the piggybacked peer list.
  TestPeer z("z.example.org", &net_);
  ASSERT_TRUE(z.db().PutDocumentText("filmDB.xml", kFilmDb).ok());
  ASSERT_TRUE(z.registry().RegisterModule(kFilmModule).ok());
  ASSERT_TRUE(peer_.registry()
                  .RegisterModule(R"(
    module namespace fwd = "forward";
    import module namespace film = "films" at "film.xq";
    declare function fwd:remoteCount() as xs:integer
    { execute at {"xrpc://z.example.org"} {film:countFilms()} };)")
                  .ok());

  RpcClient client(&net_, {});
  xquery::RpcCall call;
  call.dest_uri = peer_.uri();
  call.module_ns = "forward";
  call.function = xml::QName("forward", "remoteCount");
  auto result = client.Execute(call);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value()[0].atomic().AsInteger(), 3);
  EXPECT_EQ(client.participating_peers().count("xrpc://z.example.org"), 1u);
  EXPECT_EQ(client.participating_peers().count("xrpc://y.example.org"), 1u);
}

TEST_F(ServerTest, NetworkTimeAccumulatesOnClient) {
  RpcClient client(&net_, {});
  ASSERT_TRUE(client.Execute(FilmsByActor("Sean Connery")).ok());
  ASSERT_TRUE(client.Execute(FilmsByActor("Julie Andrews")).ok());
  EXPECT_GE(client.network_micros(), 4 * net_.profile().latency_us);
  EXPECT_EQ(client.requests_sent(), 2);
}

}  // namespace
}  // namespace xrpc::server
