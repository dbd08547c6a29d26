// ShardRouter: maps routing-key values to shards, per table.
//
// Two routing disciplines, selectable when a table is registered:
//
//  - kHash: consistent hashing over a vnode ring (~64 virtual points per
//    shard by default). Point lookups (inserts, key deletes) land on one
//    shard; range reads scatter to every shard, because a hash ring gives
//    ranges no locality.
//  - kRange: num_shards-1 ascending boundary values partition the key
//    domain into contiguous intervals; shard i owns [b[i-1], b[i]) with
//    the extremes unbounded. Range reads prune to the shards whose
//    interval intersects the predicate.
//
// Rebalance layers *overrides* on top of either discipline: a
// (lo, hi) -> shard entry routes subsequent inserts for keys in [lo, hi)
// to the migration target, the latest matching entry winning. Overrides
// are append-only — older entries stay in the list so ShardsFor can still
// name every shard a historical routing decision may have parked rows on.
// ShardsFor therefore returns a *superset* of the shards holding matching
// rows; it never excludes a shard that might hold one (the invariant the
// scatter layer's exactness rests on).
//
// Thread-safety: none internally. ShardedDatabase guards the router with
// its topology lock — reads under shared, registration and overrides
// under exclusive.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/predicate.h"
#include "util/result.h"
#include "util/status.h"

namespace aidx {

enum class RoutingKind : char { kHash, kRange };

inline std::string_view RoutingKindName(RoutingKind kind) {
  return kind == RoutingKind::kHash ? "hash" : "range";
}

/// Per-table routing declaration, given at table registration.
struct TableRoutingSpec {
  /// The column whose value routes a row. Must exist in the table's schema
  /// by the time rows arrive.
  std::string key_column;
  RoutingKind kind = RoutingKind::kHash;
  /// kRange only: exactly num_shards-1 strictly ascending boundaries.
  std::vector<std::int64_t> range_boundaries;
};

/// One rebalance's routing residue: keys in [lo, hi) route to `shard`.
struct RoutingOverride {
  std::int64_t lo = 0;  // inclusive
  std::int64_t hi = 0;  // exclusive
  std::size_t shard = 0;
};

class ShardRouter {
 public:
  explicit ShardRouter(std::size_t num_shards);

  std::size_t num_shards() const { return num_shards_; }

  /// Registers a table. Validates the spec (kRange boundary count and
  /// ordering); AlreadyExists on duplicate names.
  Status RegisterTable(std::string table, TableRoutingSpec spec);

  Result<const TableRoutingSpec*> Spec(std::string_view table) const;

  /// The shard a row with routing key `key` should be *written* to.
  /// Fires the `dist.route` failpoint (scope: table name) before any
  /// routing state is read, so an injected error aborts the operation
  /// with no shard touched.
  Result<std::size_t> ShardOf(std::string_view table, std::int64_t key) const;

  /// Every shard that may hold a row matching `pred` — a superset, never
  /// an underestimate. kHash tables scatter to all shards; kRange tables
  /// prune by boundary interval; override targets whose range intersects
  /// `pred` are always included.
  Result<std::vector<std::size_t>> ShardsFor(
      std::string_view table, const RangePredicate<std::int64_t>& pred) const;

  /// Records a rebalance's residue: future inserts of keys in [lo, hi)
  /// route to `shard`. Latest entry wins for ShardOf; all entries
  /// contribute to ShardsFor.
  Status AddOverride(std::string_view table, std::int64_t lo, std::int64_t hi,
                     std::size_t shard);

  /// Override count for a table (tests; 0 if the table is unknown).
  std::size_t num_overrides(std::string_view table) const;

 private:
  struct TableEntry {
    TableRoutingSpec spec;
    std::vector<RoutingOverride> overrides;  // append-only; later wins
  };

  const TableEntry* Find(std::string_view table) const;
  std::size_t RingShardOf(std::int64_t key) const;
  /// Boundary-interval owner under kRange routing.
  static std::size_t RangeShardOf(const std::vector<std::int64_t>& boundaries,
                                  std::int64_t key);

  /// Consistent-hash ring resolution: virtual nodes per shard.
  static constexpr std::size_t kVnodesPerShard = 64;

  std::size_t num_shards_;
  /// Sorted (hash point, shard) pairs — the consistent-hash ring shared by
  /// every kHash table.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
  std::unordered_map<std::string, TableEntry> tables_;
};

}  // namespace aidx
