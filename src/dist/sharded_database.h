// ShardedDatabase: N in-process Database nodes behind one routable query
// API (docs/DISTRIBUTION.md).
//
// The facade owns the shards, a ShardRouter mapping routing-key values to
// them, and (optionally borrowing) a scatter pool. Queries take the
// QueryRequest form verbatim — the same struct a single node serves — and
// are scattered to the router's shard superset, gathered, and merged:
// Count sums, Sum adds exact per-shard partials and rounds once (so it
// equals a single node's Sum bit for bit), SelectProject concatenates
// per-shard projections in shard order. DML routes by the table's
// declared key column.
//
// Consistency model: one topology-wide reader/writer lock. Every query
// and DML call holds it shared; Rebalance (and schema changes) hold it
// exclusive. A per-shard mutex then serializes concurrent operations on
// each node (Database is not thread-safe). Consequence: reads never
// observe a rebalance's intermediate state — a scatter sees the topology
// either wholly before or wholly after a migration, which is what the
// differential harness's mid-rebalance exactness checks rely on.
//
// Threading: a scatter's legs run where they are cheapest. A single-leg
// scatter, or any scatter without a pool, runs on the calling thread. A
// multi-leg scatter runs its legs on the calling thread too when every leg
// of the previous multi-leg scatter finished under kInlineLegBudget
// (20 µs, about one pool hand-off on a 4-vCPU host; ten times that in
// sanitizer builds, whose legs run that much slower; sharded_database.cc)
// — the converged case, where a leg is an index lookup and waking a worker
// costs more than the leg. Otherwise — including the first fan-out of a
// fresh store and the first after a rebalance — legs go to the pool via
// ParallelFor. The budget is a constant, not a knob: it prices a leg
// against the hand-off it saves. A wrong guess is bounded: the first
// inline leg over budget hands the remaining legs to the pool. Where a
// leg runs changes nothing else: it holds the same shard mutex, shares
// the same chained token, and reports errors the same way.
//
// Deadlines and cancellation: a request's QueryContext is re-derived per
// scatter — every leg shares one fresh token *chained* to the caller's
// (util/query_context.h), so the first failing leg cancels its siblings
// at their next piece-granularity check while the caller's own token is
// never touched. Deadlines propagate unchanged: a shard leg that blows
// the budget surfaces DeadlineExceeded for the whole scatter.
//
// Cross-shard atomicity: per-shard only. A multi-row InsertBatch is
// routed, split, and applied shard by shard; each sub-batch is row-atomic
// on its node (the engine's validate-then-apply contract), but a fault
// injected mid-sequence leaves earlier shards applied. Single-row DML is
// atomic, full stop — the fault-schedule differential harness sticks to
// it (tests/sharded_db_test.cc).
//
// Rebalance(table, from, to, [lo, hi)) migrates a key range *with its
// index investment*: rows are extracted, the source's cached access paths
// export their realized cuts in range (PieceBundle serialization,
// parallel/piece_transfer.h), the source evacuates via one bulk
// DeleteWhere, the target absorbs the rows and replays the cuts — so a
// query bounded at a carried cut value performs zero new cracks on the
// target. Failpoints `dist.migrate_piece` fire per extracted row chunk in
// the validate phase, before either shard mutates.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dist/shard_router.h"
#include "exec/engine.h"
#include "util/result.h"
#include "util/status.h"
#include "util/writer_priority_mutex.h"

namespace aidx {

class ThreadPool;

struct ShardedDatabaseOptions {
  std::size_t num_shards = 4;
  /// Per-node engine options. `node_options.thread_pool` is overwritten
  /// with `scatter_pool` so the nodes and the scatter share one pool.
  DatabaseOptions node_options;
  /// Borrowed; may be null (every scatter then runs inline on the caller).
  ThreadPool* scatter_pool = nullptr;
};

/// Per-shard health gauges (Stats()); one entry per shard, in shard order:
/// the node's own DatabaseStats plus its shard index.
struct ShardStats : DatabaseStats {
  std::size_t shard = 0;
};

/// What a Rebalance moved.
struct RebalanceReport {
  std::size_t rows_moved = 0;
  /// Serialized cuts re-realized on the target, summed over configs.
  std::size_t cuts_carried = 0;
  /// Distinct (strategy config) bundles carried.
  std::size_t bundles = 0;
};

class ShardedDatabase {
 public:
  explicit ShardedDatabase(const ShardedDatabaseOptions& options = {});

  std::size_t num_shards() const { return shards_.size(); }
  const ShardRouter& router() const { return router_; }

  // -- Schema ---------------------------------------------------------------

  /// Creates `name` on every shard and registers its routing. The spec's
  /// key column need not exist yet; it must by the first row.
  Status CreateTable(std::string name, TableRoutingSpec spec);

  /// Adds an (empty) int64 column on every shard. Allowed only while the
  /// table is empty everywhere — rows arrive routed, so there is no
  /// meaningful cross-shard alignment for a bulk column of values.
  Status AddColumn(std::string_view table, std::string column);

  // -- DML (routed) ---------------------------------------------------------

  /// Appends one row (column_names() order), routed by its key-column
  /// value. Row-atomic on the owning shard.
  Status Insert(std::string_view table, std::span<const std::int64_t> row);
  Status Insert(std::string_view table, std::initializer_list<std::int64_t> row) {
    return Insert(table, std::span<const std::int64_t>(row.begin(), row.size()));
  }

  /// Row-major batch, split by routing and applied per shard. Validation
  /// (width, routing, `dist.route`) covers the whole batch before any
  /// shard mutates; the apply phase is atomic per shard, not across them.
  Status InsertBatch(std::string_view table, std::span<const std::int64_t> rows);

  /// Deletes at most one row whose `column` equals `value`, probing the
  /// candidate shards in ascending shard order; within a shard, the row
  /// with the lowest row id goes (Database::Delete). Every duplicate of a
  /// routing key lives on the shard the key routes to, so a delete on that
  /// key removes its lowest-rid row there. On any other column every shard
  /// is a candidate, and the victim is the lowest-rid match on the
  /// lowest-numbered shard holding one — not the table's oldest match (row
  /// ids are per shard). ok(false) when none matched.
  Result<bool> Delete(std::string_view table, std::string_view column,
                      std::int64_t value);

  // -- Queries (scatter/gather) ---------------------------------------------

  /// COUNT(*) summed over the shard superset for `req.predicate`.
  Result<std::size_t> Count(const QueryRequest& req);
  /// SUM(column) over the superset: exact per-shard partials, rounded once.
  Result<double> Sum(const QueryRequest& req);
  /// Projection gathered in shard order (row order across shards is
  /// routing-dependent; compare as multisets).
  Result<ProjectionResult<std::int64_t>> SelectProject(const QueryRequest& req);

  // -- Operations -----------------------------------------------------------

  /// Moves every row of `table` with key in [lo, hi) from shard `from` to
  /// shard `to`, carrying cracked-piece boundaries (see file comment).
  /// Registers a routing override so future inserts in the range land on
  /// `to`. Exclusive: blocks all queries and DML for the duration.
  Result<RebalanceReport> Rebalance(std::string_view table, std::size_t from,
                                    std::size_t to, std::int64_t lo,
                                    std::int64_t hi);

  /// Per-shard gauges, in shard order.
  std::vector<ShardStats> Stats() const;

  /// Direct node access for tests; bypasses all locking.
  Database& shard(std::size_t i) { return *shards_[i]; }

 private:
  struct ScatterLeg {
    std::size_t shard;
    Status status;
  };

  /// Resolves the routing key's column index from shard 0's catalog (all
  /// shards share one schema).
  Result<std::size_t> KeyColumnIndex(std::string_view table,
                                     std::string_view key_column) const;

  /// The shard superset for a query whose predicate is over `column`:
  /// router pruning applies only when `column` IS the routing key — a
  /// predicate over any other column says nothing about key placement, so
  /// every shard is a candidate.
  Result<std::vector<std::size_t>> TargetsFor(
      std::string_view table, std::string_view column,
      const RangePredicate<std::int64_t>& pred) const;

  /// Runs `fn(ti, shard, leg_request)` for every shard in `targets` — on
  /// the calling thread or the scatter pool per the file comment's
  /// threading rule. Each invocation holds that shard's mutex; every leg
  /// shares one leg request. Returns the root-cause non-OK status (a leg's
  /// own error over its siblings' Cancelled); a shared chained token
  /// cancels sibling legs once any leg fails.
  template <typename Fn>
  Status Scatter(std::string_view table, const std::vector<std::size_t>& targets,
                 const QueryRequest& req, Fn&& fn);

  ShardRouter router_;
  ThreadPool* scatter_pool_;  // borrowed; may be null
  // Whether every leg of the last multi-leg scatter was under budget; the
  // next one then runs inline. Starts false: a cold store fans out. A
  // rebalance resets it.
  std::atomic<bool> legs_cheap_{false};
  // unique_ptr: Database is move-only but the vector must not relocate
  // nodes while shard mutexes point at them.
  std::vector<std::unique_ptr<Database>> shards_;
  // Topology lock: queries/DML shared, Rebalance and schema exclusive.
  // Writer-priority (util/writer_priority_mutex.h): a pending rebalance
  // briefly queues new readers instead of starving behind them.
  mutable WriterPriorityMutex topology_mu_;
  // One per shard; serializes concurrent shared-mode callers on a node.
  mutable std::vector<std::unique_ptr<std::mutex>> shard_mu_;
};

}  // namespace aidx
