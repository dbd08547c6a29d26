// The stores a run drives. Store A is the ShardedDatabase under test. A
// traced run also builds, from the same seed, replica B (a second
// ShardedDatabase whose shards are driven one leg at a time through
// shard(i), routed by a ShardRouter the benchmark owns) and replica C (one
// AccessPath per shard and strategy over a copy of that shard's key
// column). Every workload is deterministic — one driver, no deadlines, no
// background-merge threshold — so the replicas stay in A's exact state and
// time the same work one layer down.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/shard_router.h"
#include "dist/sharded_database.h"
#include "exec/access_path.h"
#include "util/thread_pool.h"

namespace bench {

inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kScatterThreads = 2;
inline constexpr const char* kTable = "t";
inline constexpr const char* kKey = "k";

/// Shape of the benchmark table: a key column "k" plus payload columns.
struct TableShape {
  std::size_t rows = 0;
  std::int64_t domain = 0;  // keys are uniform over [0, domain)
  aidx::RoutingKind routing = aidx::RoutingKind::kRange;
  std::vector<std::string> payloads;  // column names after "k"
  std::uint64_t seed = 0;

  std::size_t width() const { return 1 + payloads.size(); }
};

/// Range boundaries splitting [0, domain) into kShards equal intervals.
std::vector<std::int64_t> RangeBoundaries(std::int64_t domain);
aidx::TableRoutingSpec RoutingSpec(const TableShape& shape);

/// The table's rows, row-major in (k, payloads...) order; deterministic in
/// the shape's seed.
std::vector<std::int64_t> GenerateRows(const TableShape& shape);

/// Payload value for a row inserted later (write_mix); deterministic.
std::int64_t PayloadFor(std::uint64_t seed, std::uint64_t op_index, std::size_t column);

/// Builds a kShards-store on `pool` and bulk-loads `rows` in batches.
std::unique_ptr<aidx::ShardedDatabase> BuildStore(const TableShape& shape,
                                                  const std::vector<std::int64_t>& rows,
                                                  aidx::ThreadPool* pool);

/// A shard's current key column (a copy).
std::vector<std::int64_t> ShardKeys(aidx::ShardedDatabase& db, std::size_t shard);

/// Replica C's per-shard paths. `base` must outlive the paths: a path
/// borrows it until its first operation materializes a private copy.
struct ShardPaths {
  std::vector<std::int64_t> base;
  std::unique_ptr<aidx::AccessPath<std::int64_t>> crack;
  std::unique_ptr<aidx::AccessPath<std::int64_t>> pcrack;  // null unless used
};

struct Replicas {
  std::unique_ptr<aidx::ShardedDatabase> b;
  std::unique_ptr<aidx::ShardRouter> router;  // B's routing, rebalances included
  std::vector<ShardPaths> c;                  // one per shard
};

/// Builds replicas B and C over the same rows as store A.
Replicas BuildReplicas(const TableShape& shape, const std::vector<std::int64_t>& rows,
                       aidx::ThreadPool* pool, bool with_pcrack);

/// The strategies the workloads read through.
aidx::StrategyConfig CrackStrategy();
aidx::StrategyConfig PcrackStrategy();  // pcrack(4x1): 4 partitions, no pool

}  // namespace bench
