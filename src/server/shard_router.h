#ifndef XRPC_SERVER_SHARD_ROUTER_H_
#define XRPC_SERVER_SHARD_ROUTER_H_

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "core/catalog.h"
#include "server/engine.h"
#include "soap/message.h"
#include "xdm/item.h"

namespace xrpc::server {

/// The one `execute at` router of both engines (DESIGN.md §13.2): the
/// loop-lifted evaluator routes each iteration through it, RpcClient each
/// one-at-a-time call. It owns every routing decision and the StaleCatalog
/// re-route policy, so no routing rule can drift between the engines. One
/// router serves one `execute at`; it is not thread-safe.
class ShardRouter {
 public:
  /// One physical call: where it goes and how it is scoped.
  struct Target {
    std::string dest_uri;
    /// Replicas a read fails over to; none for an update (at-most-once).
    std::vector<std::string> fallback_uris;
    std::optional<soap::XrpcRequest::ShardScope> scope;  ///< none if plain
    /// "shard:<c>#<i>", plus "@<peer>" for an echo; empty if plain.
    std::string shard_key;
    int shard = 0;
    /// Replica copy of an updating call (all-copies write, DESIGN.md §17):
    /// it enlists in the 2PC, but its results are dropped from the merge.
    bool echo = false;

    /// Calls with one key travel in one Bulk RPC request: per shard, not
    /// per peer, since each fragment a peer holds needs its own scope.
    const std::string& group_key() const {
      return shard_key.empty() ? dest_uri : shard_key;
    }
  };

  /// The targets of one call, in dispatch order.
  struct Route {
    std::span<const Target> targets;
    bool pruned = false;  ///< the route key picked the owning shard

    /// Merge rank of `t`'s results within the call's iteration.
    int Rank(const Target& t) const { return pruned ? 0 : t.shard; }
  };

  /// A null `catalog` fails every shard destination with an eval error.
  ShardRouter(const core::Catalog* catalog, bool updating)
      : catalog_(catalog), updating_(updating) {}

  /// Routes one call. A plain destination is one rank-0 target without a
  /// scope. "shard:<collection>" is pruned to the shard owning the route
  /// key when the routing argument is a singleton — `key_of(p)` returns
  /// argument p's only item or null — and otherwise, or when the key does
  /// not route, broadcast to every shard. Each dispatch attempt reads one
  /// Catalog::Snapshot per collection. The targets stay valid until the
  /// next RouteCall() or Reroute().
  template <typename KeyOf>
  StatusOr<Route> RouteCall(std::string_view dest, size_t arity,
                            const KeyOf& key_of) {
    XRPC_ASSIGN_OR_RETURN(const Entry* entry, Resolve(dest));
    const int p = entry != nullptr ? entry->collection.route_param : -1;
    const xdm::Item* key =
        p >= 0 && static_cast<size_t>(p) < arity ? key_of(p) : nullptr;
    return Select(entry, key);
  }

  /// True when a failed dispatch is to be re-routed: once, after a
  /// StaleCatalog fence, and never for an updating call — copies that
  /// accepted the first attempt already staged it under the queryID, so a
  /// re-dispatch would commit it twice. Counts the re-route through
  /// `channel` and drops the snapshots, so the next attempt re-reads them.
  bool Reroute(const Status& status, BulkRpcChannel* channel);

 private:
  /// One collection's snapshot and its targets, ascending by shard.
  struct Entry {
    core::ShardedCollection collection;
    std::vector<Target> targets;
  };

  /// Null for a plain destination, which is routed to plain_.
  StatusOr<const Entry*> Resolve(std::string_view dest);
  Route Select(const Entry* entry, const xdm::Item* key) const;

  const core::Catalog* catalog_;
  const bool updating_;
  bool rerouted_ = false;
  std::map<std::string, Entry, std::less<>> entries_;  ///< by collection
  Target plain_;
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_SHARD_ROUTER_H_
