#include "server/shard_router.h"

#include <algorithm>
#include <functional>

namespace xrpc::server {

StatusOr<const ShardRouter::Entry*> ShardRouter::Resolve(
    std::string_view dest) {
  if (!core::Catalog::IsShardUri(dest)) {
    plain_.dest_uri.assign(dest);
    return nullptr;
  }
  if (catalog_ == nullptr) {
    return Status::EvalError("no peer catalog configured for destination " +
                             std::string(dest));
  }
  const std::string_view name = core::Catalog::CollectionOf(dest);
  auto it = entries_.find(name);
  if (it != entries_.end()) return &it->second;

  // One Snapshot per collection per attempt: every route below reads a COPY
  // of the shard map, immune to concurrent re-registration.
  Entry entry;
  int64_t version = 0;
  if (!catalog_->Snapshot(name, &entry.collection, &version) ||
      entry.collection.shards.empty()) {
    return Status::EvalError("unknown sharded collection: " +
                             std::string(dest));
  }
  const std::string& collection = entry.collection.name;
  for (const core::ShardInfo& s : entry.collection.shards) {
    Target primary;
    primary.dest_uri = s.peer_uri;
    primary.scope = soap::XrpcRequest::ShardScope{
        collection, s.index, version,
        catalog_->FragmentDataVersion(collection, s.index)};
    primary.shard_key = std::string(dest) + "#" + std::to_string(s.index);
    primary.shard = s.index;
    if (!updating_) primary.fallback_uris = s.replicas;
    entry.targets.push_back(primary);
    if (!updating_) continue;
    // All-copies write (DESIGN.md §17): every copy of the shard stages the
    // same scoped calls and enlists in the 2PC, so a commit lands on all.
    for (const std::string& replica : s.replicas) {
      Target& echo = entry.targets.emplace_back(primary);
      echo.dest_uri = replica;
      echo.shard_key += "@" + replica;
      echo.echo = true;
    }
  }
  return &entries_.emplace(std::string(name), std::move(entry)).first->second;
}

ShardRouter::Route ShardRouter::Select(const Entry* entry,
                                       const xdm::Item* key) const {
  if (entry == nullptr) return Route{{&plain_, 1}};
  if (key != nullptr) {
    auto r = catalog_->RouteKey(entry->collection, key->Atomize().ToString());
    // An unroutable key (e.g. outside every range) is not an error: the
    // call simply cannot be pruned and broadcasts.
    if (r.ok()) {
      auto owned = std::ranges::equal_range(entry->targets, r.value(),
                                            std::less<>{}, &Target::shard);
      return Route{{owned.begin(), owned.end()}, /*pruned=*/true};
    }
  }
  return Route{entry->targets};
}

bool ShardRouter::Reroute(const Status& status, BulkRpcChannel* channel) {
  if (status.code() != StatusCode::kStaleCatalog || updating_ || rerouted_) {
    return false;
  }
  rerouted_ = true;
  entries_.clear();  // refetch the shard map on the next route
  channel->NoteStaleReroute();
  return true;
}

}  // namespace xrpc::server
