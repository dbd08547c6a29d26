// Differential harness for the sharded serving layer (src/dist/,
// docs/DISTRIBUTION.md): a ShardedDatabase over N nodes must answer every
// query bit-exactly like one single-node Database over the same rows —
// across shard counts, both routing disciplines, interleaved DML,
// rebalances, and seeded fault schedules.
//
// The acceptance pins:
//  - differential exactness for N in {1, 2, 4, 8} under hash and range
//    routing, with writes interleaved between queries;
//  - Rebalance preserves index investment: carried cuts are re-realized
//    on the target, so a query bounded at a carried cut value performs
//    ZERO new cracks there;
//  - reads overlapping a rebalance stay exact (the topology lock makes a
//    scatter see the migration wholly before or wholly after);
//  - dist.* failpoints abort cleanly in the validate phase — a faulted
//    route/scatter/migration leaves every shard's answer unchanged.
//
// Environment knobs (CI's fault-schedule job sets both; the `dist`
// schedule aims at this suite):
//   AIDX_FAULT_SCHEDULE  quiet | delays | errors | mixed | dist
//   AIDX_FAULT_SEED      seed for the randomized test, echoed in the log
//
// Runs under ThreadSanitizer via the `concurrency` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/sharded_database.h"
#include "exec/engine.h"
#include "util/failpoint.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;

constexpr std::int64_t kDomain = 1000;

// Rows are a pure function of the key, so two stores holding the same key
// multiset hold identical row multisets — the property every differential
// comparison below rests on.
std::int64_t PayloadA(std::int64_t k) { return k * 7 + 1; }
std::int64_t PayloadB(std::int64_t k) { return k % 13 - 5; }

QueryRequest Req(std::string table, std::string column, Pred pred) {
  QueryRequest req;
  req.table = std::move(table);
  req.column = std::move(column);
  req.predicate = pred;
  req.strategy = StrategyConfig::Crack();
  return req;
}

std::vector<std::int64_t> RandomKeys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> keys(n);
  for (auto& k : keys) k = static_cast<std::int64_t>(rng.NextBounded(kDomain));
  return keys;
}

std::vector<std::int64_t> RowMajor(const std::vector<std::int64_t>& keys) {
  std::vector<std::int64_t> rows;
  rows.reserve(keys.size() * 3);
  for (auto k : keys) {
    rows.push_back(k);
    rows.push_back(PayloadA(k));
    rows.push_back(PayloadB(k));
  }
  return rows;
}

TableRoutingSpec SpecFor(RoutingKind kind, std::size_t num_shards) {
  TableRoutingSpec spec;
  spec.key_column = "k";
  spec.kind = kind;
  if (kind == RoutingKind::kRange) {
    // Evenly spaced boundaries over the key domain.
    for (std::size_t i = 1; i < num_shards; ++i) {
      spec.range_boundaries.push_back(
          static_cast<std::int64_t>(i * kDomain / num_shards));
    }
  }
  return spec;
}

Status SetUpTable(ShardedDatabase* db, RoutingKind kind) {
  AIDX_RETURN_NOT_OK(db->CreateTable("t", SpecFor(kind, db->num_shards())));
  AIDX_RETURN_NOT_OK(db->AddColumn("t", "k"));
  AIDX_RETURN_NOT_OK(db->AddColumn("t", "a"));
  AIDX_RETURN_NOT_OK(db->AddColumn("t", "b"));
  return Status::OK();
}

Status SetUpOracle(Database* db) {
  AIDX_RETURN_NOT_OK(db->CreateTable("t"));
  AIDX_RETURN_NOT_OK(db->AddColumn("t", "k", {}));
  AIDX_RETURN_NOT_OK(db->AddColumn("t", "a", {}));
  AIDX_RETURN_NOT_OK(db->AddColumn("t", "b", {}));
  return Status::OK();
}

using RowTuple = std::vector<std::int64_t>;

std::vector<RowTuple> SortedRows(const ProjectionResult<std::int64_t>& res) {
  std::vector<RowTuple> rows(res.num_rows);
  for (std::size_t i = 0; i < res.num_rows; ++i) {
    for (const auto& column : res.columns) rows[i].push_back(column[i]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class ShardedDbTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  static Status Configure(const std::string& spec) {
    return FailpointRegistry::Instance().Configure(spec);
  }
};

// ---------------------------------------------------------------------------
// Router unit surface.
// ---------------------------------------------------------------------------

TEST_F(ShardedDbTest, RouterValidatesSpecs) {
  ShardRouter router(4);
  TableRoutingSpec bad;
  bad.key_column = "k";
  bad.kind = RoutingKind::kRange;
  bad.range_boundaries = {10, 5, 20};  // not ascending
  EXPECT_TRUE(router.RegisterTable("t", bad).IsInvalidArgument());
  bad.range_boundaries = {10, 20};  // wrong count for 4 shards
  EXPECT_TRUE(router.RegisterTable("t", bad).IsInvalidArgument());
  bad.range_boundaries = {10, 20, 30};
  EXPECT_TRUE(router.RegisterTable("t", bad).ok());
  EXPECT_TRUE(router.RegisterTable("t", SpecFor(RoutingKind::kHash, 4))
                  .IsAlreadyExists());
  EXPECT_TRUE(router.ShardOf("unknown", 1).status().IsNotFound());
}

TEST_F(ShardedDbTest, RangeRoutingOwnsContiguousIntervals) {
  ShardRouter router(4);
  TableRoutingSpec spec;
  spec.key_column = "k";
  spec.kind = RoutingKind::kRange;
  spec.range_boundaries = {100, 200, 300};
  ASSERT_TRUE(router.RegisterTable("t", spec).ok());
  EXPECT_EQ(*router.ShardOf("t", -50), 0u);
  EXPECT_EQ(*router.ShardOf("t", 99), 0u);
  EXPECT_EQ(*router.ShardOf("t", 100), 1u);
  EXPECT_EQ(*router.ShardOf("t", 250), 2u);
  EXPECT_EQ(*router.ShardOf("t", 300), 3u);
  EXPECT_EQ(*router.ShardOf("t", 1 << 20), 3u);

  // Range reads prune to intersecting intervals only.
  auto shards = *router.ShardsFor("t", Pred::Between(120, 180));
  EXPECT_EQ(shards, (std::vector<std::size_t>{1}));
  shards = *router.ShardsFor("t", Pred::Between(99, 100));
  EXPECT_EQ(shards, (std::vector<std::size_t>{0, 1}));
  shards = *router.ShardsFor("t", Pred::All());
  EXPECT_EQ(shards.size(), 4u);
  shards = *router.ShardsFor("t", Pred::HalfOpen(0, 100));
  EXPECT_EQ(shards, (std::vector<std::size_t>{0}));
}

TEST_F(ShardedDbTest, HashRoutingIsDeterministicAndTotal) {
  ShardRouter a(8), b(8);
  ASSERT_TRUE(a.RegisterTable("t", SpecFor(RoutingKind::kHash, 8)).ok());
  ASSERT_TRUE(b.RegisterTable("t", SpecFor(RoutingKind::kHash, 8)).ok());
  std::vector<std::size_t> hits(8, 0);
  for (std::int64_t k = 0; k < 4000; ++k) {
    const std::size_t s = *a.ShardOf("t", k);
    ASSERT_LT(s, 8u);
    EXPECT_EQ(s, *b.ShardOf("t", k)) << "ring layout must be stable";
    ++hits[s];
  }
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " owns nothing";
  }
  // Hash reads scatter everywhere.
  EXPECT_EQ(a.ShardsFor("t", Pred::Between(1, 2))->size(), 8u);
}

TEST_F(ShardedDbTest, OverridesWinForInsertsAndWidenReads) {
  ShardRouter router(4);
  TableRoutingSpec spec;
  spec.key_column = "k";
  spec.kind = RoutingKind::kRange;
  spec.range_boundaries = {100, 200, 300};
  ASSERT_TRUE(router.RegisterTable("t", spec).ok());
  ASSERT_TRUE(router.AddOverride("t", 120, 180, 3).ok());
  EXPECT_EQ(*router.ShardOf("t", 150), 3u);  // override wins
  EXPECT_EQ(*router.ShardOf("t", 199), 1u);  // outside the override
  // A later overlapping override supersedes for inserts...
  ASSERT_TRUE(router.AddOverride("t", 120, 180, 2).ok());
  EXPECT_EQ(*router.ShardOf("t", 150), 2u);
  // ...but reads still include every historical target (superset).
  const auto shards = *router.ShardsFor("t", Pred::Between(150, 150));
  EXPECT_TRUE(std::find(shards.begin(), shards.end(), 3u) != shards.end());
  EXPECT_TRUE(std::find(shards.begin(), shards.end(), 2u) != shards.end());
  EXPECT_EQ(router.num_overrides("t"), 2u);
}

// ---------------------------------------------------------------------------
// Differential exactness across shard counts and routings.
// ---------------------------------------------------------------------------

void RunDifferential(std::size_t num_shards, RoutingKind kind,
                     std::uint64_t seed, ThreadPool* pool) {
  SCOPED_TRACE(std::string(RoutingKindName(kind)) + " N=" +
               std::to_string(num_shards) + " seed=" + std::to_string(seed));
  ShardedDatabaseOptions options;
  options.num_shards = num_shards;
  options.scatter_pool = pool;
  ShardedDatabase sharded(options);
  Database oracle;
  ASSERT_TRUE(SetUpTable(&sharded, kind).ok());
  ASSERT_TRUE(SetUpOracle(&oracle).ok());

  std::vector<std::int64_t> keys = RandomKeys(2000, seed);
  const auto rows = RowMajor(keys);
  ASSERT_TRUE(sharded.InsertBatch("t", rows).ok());
  ASSERT_TRUE(oracle.InsertBatch("t", rows).ok());

  Rng rng(seed ^ 0xD157);
  for (int round = 0; round < 20; ++round) {
    // Interleaved writes.
    for (int w = 0; w < 10; ++w) {
      if (rng.NextBounded(3) != 0 || keys.empty()) {
        const auto k = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        ASSERT_TRUE(sharded.Insert("t", {k, PayloadA(k), PayloadB(k)}).ok());
        ASSERT_TRUE(oracle.Insert("t", {k, PayloadA(k), PayloadB(k)}).ok());
        keys.push_back(k);
      } else {
        const auto k = keys[rng.NextBounded(keys.size())];
        auto d1 = sharded.Delete("t", "k", k);
        auto d2 = oracle.Delete("t", "k", k);
        ASSERT_TRUE(d1.ok() && d2.ok());
        ASSERT_EQ(*d1, *d2);
        keys.erase(std::find(keys.begin(), keys.end(), k));
      }
    }
    // Count / Sum over the key and a payload column; predicates over a
    // non-key column must not be prunable (TargetsFor falls back to all
    // shards) — both cases must match the oracle bit-for-bit.
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(kDomain));
    const Pred key_pred = Pred::Between(lo, lo + 150);
    const Pred pay_pred = Pred::Between(PayloadA(lo), PayloadA(lo + 100));
    for (const auto& probe :
         {Req("t", "k", key_pred), Req("t", "a", pay_pred),
          Req("t", "k", Pred::All())}) {
      auto c1 = sharded.Count(probe);
      auto c2 = oracle.Count(probe);
      ASSERT_TRUE(c1.ok() && c2.ok());
      ASSERT_EQ(*c1, *c2) << "round " << round;
      auto s1 = sharded.Sum(probe);
      auto s2 = oracle.Sum(probe);
      ASSERT_TRUE(s1.ok() && s2.ok());
      ASSERT_DOUBLE_EQ(*s1, *s2) << "round " << round;
    }
    // Projection: row order across shards is routing-dependent, compare
    // as sorted multisets.
    QueryRequest proj = Req("t", "k", key_pred);
    proj.tails = {"a", "b"};
    auto p1 = sharded.SelectProject(proj);
    auto p2 = oracle.SelectProject(proj);
    ASSERT_TRUE(p1.ok() && p2.ok());
    ASSERT_EQ(p1->column_names, p2->column_names);
    ASSERT_EQ(SortedRows(*p1), SortedRows(*p2)) << "round " << round;
  }
  // Shard stats stay consistent with the base: rows sum to the oracle's.
  std::size_t rows_total = 0;
  for (const auto& stats : sharded.Stats()) rows_total += stats.rows;
  EXPECT_EQ(rows_total, keys.size());
}

TEST_F(ShardedDbTest, DifferentialAcrossShardCountsHash) {
  ThreadPool pool(4);
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    RunDifferential(n, RoutingKind::kHash, 40'000 + n, &pool);
  }
}

TEST_F(ShardedDbTest, DifferentialAcrossShardCountsRange) {
  ThreadPool pool(4);
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    RunDifferential(n, RoutingKind::kRange, 50'000 + n, &pool);
  }
}

TEST_F(ShardedDbTest, InlineScatterMatchesPooledScatter) {
  // No pool: scatter degrades to an inline loop with identical answers.
  RunDifferential(4, RoutingKind::kRange, 60'000, nullptr);
}

// ---------------------------------------------------------------------------
// API surface contracts.
// ---------------------------------------------------------------------------

TEST_F(ShardedDbTest, SchemaChangesRequireEmptyTable) {
  ShardedDatabaseOptions options;
  options.num_shards = 2;
  ShardedDatabase db(options);
  ASSERT_TRUE(SetUpTable(&db, RoutingKind::kHash).ok());
  ASSERT_TRUE(db.Insert("t", {1, PayloadA(1), PayloadB(1)}).ok());
  EXPECT_TRUE(db.AddColumn("t", "late").IsInvalidArgument());
  EXPECT_TRUE(db.CreateTable("t", SpecFor(RoutingKind::kHash, 2))
                  .IsAlreadyExists());
  EXPECT_TRUE(db.Insert("unknown", {1}).IsNotFound());
  // Row too narrow to even hold the key column.
  EXPECT_FALSE(db.InsertBatch("t", std::vector<std::int64_t>{1, 2}).ok());
}

TEST_F(ShardedDbTest, DeadlineExpiryPropagatesThroughTheScatter) {
  ShardedDatabaseOptions options;
  options.num_shards = 4;
  ShardedDatabase db(options);
  ASSERT_TRUE(SetUpTable(&db, RoutingKind::kHash).ok());
  ASSERT_TRUE(db.InsertBatch("t", RowMajor(RandomKeys(500, 7))).ok());

  QueryRequest req = Req("t", "k", Pred::Between(100, 900));
  req.context = QueryContext::WithTimeout(std::chrono::hours(1));
  ASSERT_TRUE(db.Count(req).ok());

  // An already-expired deadline fails every leg; the scatter surfaces
  // DeadlineExceeded, not a partial answer.
  req.context =
      QueryContext::WithDeadline(std::chrono::steady_clock::now() -
                                 std::chrono::milliseconds(1));
  auto expired = db.Count(req);
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status().ToString();

  // A cancelled caller token is observed through the chained leg tokens.
  auto token = std::make_shared<CancellationToken>();
  token->Cancel();
  QueryContext ctx;
  ctx.SetToken(token);
  req.context = ctx;
  auto cancelled = db.Count(req);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled()) << cancelled.status().ToString();
}

TEST_F(ShardedDbTest, DistFailpointsAbortCleanly) {
  ShardedDatabaseOptions options;
  options.num_shards = 2;
  ShardedDatabase db(options);
  ASSERT_TRUE(SetUpTable(&db, RoutingKind::kRange).ok());
  ASSERT_TRUE(db.InsertBatch("t", RowMajor(RandomKeys(400, 11))).ok());
  const auto live = [&] {
    auto c = db.Count(Req("t", "k", Pred::All()));
    AIDX_CHECK_OK(c.status());
    return *c;
  };
  const std::size_t before = live();

  // A faulted route aborts the insert with no shard touched.
  ASSERT_TRUE(Configure("dist.route=error(resource_exhausted)").ok());
  EXPECT_TRUE(db.Insert("t", {1, PayloadA(1), PayloadB(1)}).IsResourceExhausted());
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(live(), before);

  // A faulted scatter leg fails the query; the store is unchanged and the
  // same query answers after disarming.
  ASSERT_TRUE(Configure("dist.scatter=error").ok());
  EXPECT_FALSE(db.Count(Req("t", "k", Pred::All())).ok());
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(live(), before);

  // A faulted migration chunk aborts the rebalance before either shard
  // mutates: answers and per-shard row counts are untouched.
  const auto stats_before = db.Stats();
  ASSERT_TRUE(Configure("dist.migrate_piece=error").ok());
  EXPECT_FALSE(db.Rebalance("t", 0, 1, 0, kDomain / 2).ok());
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(live(), before);
  const auto stats_after = db.Stats();
  for (std::size_t s = 0; s < stats_before.size(); ++s) {
    EXPECT_EQ(stats_after[s].rows, stats_before[s].rows) << "shard " << s;
  }
}

TEST_F(ShardedDbTest, DistFailpointScopesNameTableAndLeg) {
  ShardedDatabaseOptions options;
  options.num_shards = 2;
  ShardedDatabase db(options);
  ASSERT_TRUE(SetUpTable(&db, RoutingKind::kRange).ok());
  ASSERT_TRUE(db.InsertBatch("t", RowMajor(RandomKeys(400, 11))).ok());
  std::mutex mu;
  std::vector<std::string> seen;
  FailpointPolicy record;
  record.mode = FailpointMode::kCallback;
  record.handler = [&](std::string_view scope) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(scope);
    return Status::OK();
  };
  const auto scope = [](const std::string& leg) {
    return std::string("t") + kFailpointScopeSep + leg;
  };

  // One evaluation per scatter leg, scoped "<table>\x1fshard<N>".
  failpoints::dist_scatter.Arm(record);
  ASSERT_TRUE(db.Count(Req("t", "k", Pred::All())).ok());
  failpoints::dist_scatter.Disarm();
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::string>{scope("shard0"), scope("shard1")}));

  // One evaluation per migrated chunk, scoped "<table>\x1fpiece<i>".
  seen.clear();
  failpoints::dist_migrate_piece.Arm(record);
  ASSERT_TRUE(db.Rebalance("t", 0, 1, 0, kDomain / 2).ok());
  failpoints::dist_migrate_piece.Disarm();
  EXPECT_EQ(seen, std::vector<std::string>{scope("piece0")});
}

// ShardStats::under_pressure is computed from fresh byte totals, not from
// the governor's gauges as the last read left them: writes after a read
// must show up in Stats() with no read in between.
TEST_F(ShardedDbTest, StatsReportPressureFromWritesSinceTheLastRead) {
  constexpr std::size_t kBudget = 1024;
  constexpr std::int64_t kInserts = 400;
  ShardedDatabaseOptions options;
  options.num_shards = 2;
  options.node_options.memory_budget = kBudget;
  ShardedDatabase db(options);
  ASSERT_TRUE(SetUpTable(&db, RoutingKind::kRange).ok());
  ASSERT_TRUE(db.InsertBatch("t", RowMajor(RandomKeys(400, 13))).ok());
  // The read caches a crack path on every shard; nothing is pending yet.
  ASSERT_TRUE(db.Count(Req("t", "k", Pred::All())).ok());
  for (const ShardStats& s : db.Stats()) {
    EXPECT_FALSE(s.under_pressure) << "shard " << s.shard;
  }
  // Routed inserts queue in each shard's crack path until a read merges
  // them; spread over the key domain, each shard's share exceeds kBudget.
  for (std::int64_t i = 0; i < kInserts; ++i) {
    const std::int64_t k = i * kDomain / kInserts;
    ASSERT_TRUE(db.Insert("t", {k, PayloadA(k), PayloadB(k)}).ok());
  }
  for (const ShardStats& s : db.Stats()) {
    EXPECT_GT(s.pending_update_bytes, kBudget) << "shard " << s.shard;
    EXPECT_TRUE(s.under_pressure) << "shard " << s.shard;
  }
}

// ---------------------------------------------------------------------------
// Delete's victim rule.
// ---------------------------------------------------------------------------

// Delete by key removes the surviving duplicate with the lowest row id —
// through one Database and through a ShardedDatabase deleting on its
// routing key, where every duplicate routes to one shard. Payloads are
// distinct powers of two, so each drop in Sum(v) names the row that went.
TEST_F(ShardedDbTest, DeleteRemovesTheLowestRidDuplicate) {
  // Rows (k, v) in row-id order; key 5 repeats with payloads 1, 4, 16, 32.
  const std::vector<std::int64_t> first = {5, 1, 1, 2, 5, 4, 2, 8, 5, 16, 5, 32};
  // Inserted after two deletes: a younger duplicate that goes last.
  const std::vector<std::int64_t> later = {5, 64, 3, 128};
  const std::vector<std::int64_t> victims = {1, 4, 16, 32, 64};
  const auto payload_sum = [](auto& db) {
    return static_cast<std::int64_t>(*db.Sum(Req("t", "v", Pred::All())));
  };
  const auto check = [&](auto& db, const std::string& label) {
    ASSERT_TRUE(db.InsertBatch("t", first).ok()) << label;
    // A warmed crack path, so Delete also reaches a cached path.
    ASSERT_EQ(*db.Count(Req("t", "k", Pred::Between(5, 5))), 4u) << label;
    std::int64_t sum = payload_sum(db);
    for (std::size_t i = 0; i < victims.size(); ++i) {
      if (i == 2) {
        ASSERT_TRUE(db.InsertBatch("t", later).ok()) << label;
        sum += 64 + 128;
      }
      ASSERT_TRUE(*db.Delete("t", "k", 5)) << label << " delete " << i;
      const std::int64_t now = payload_sum(db);
      EXPECT_EQ(sum - now, victims[i]) << label << " delete " << i;
      sum = now;
    }
    EXPECT_FALSE(*db.Delete("t", "k", 5)) << label;
    EXPECT_EQ(sum, 2 + 8 + 128) << label;  // keys 1, 2 and 3 survive
  };

  Database single;
  ASSERT_TRUE(single.CreateTable("t").ok());
  ASSERT_TRUE(single.AddColumn("t", "k", {}).ok());
  ASSERT_TRUE(single.AddColumn("t", "v", {}).ok());
  check(single, "Database");

  for (const RoutingKind kind : {RoutingKind::kHash, RoutingKind::kRange}) {
    ShardedDatabase sharded;
    ASSERT_TRUE(sharded.CreateTable("t", SpecFor(kind, sharded.num_shards())).ok());
    ASSERT_TRUE(sharded.AddColumn("t", "k").ok());
    ASSERT_TRUE(sharded.AddColumn("t", "v").ok());
    check(sharded, kind == RoutingKind::kHash ? "hash" : "range");
  }
}

// Delete's erase swaps the base's last row into the freed position, so
// after the first delete position order is no longer row-id order and the
// first match in the base is not the victim. Rows (k, v) in row-id order;
// each delete below would take a younger row if it went by position. The
// first delete (key 9) moves the youngest key-5 row to the front. Run with
// a cached crack path on k (its count bounds the base scan) and without
// one (the scan reads the whole key column); a range-routed
// ShardedDatabase keeps every key on shard 0.
TEST_F(ShardedDbTest, DeleteTakesTheLowestRidOnceSwapsReorderTheBase) {
  const std::vector<std::int64_t> rows = {9, 1,  5, 2,  3, 4,  5, 8,
                                          3, 16, 5, 32, 3, 64, 5, 128};
  const std::vector<std::int64_t> keys = {9, 5, 3, 5, 5, 3, 3, 5};
  const std::vector<std::int64_t> victims = {1, 2, 4, 8, 32, 16, 64, 128};
  const auto check = [&](auto& db, bool warm_key_path, const std::string& label) {
    ASSERT_TRUE(db.InsertBatch("t", rows).ok()) << label;
    if (warm_key_path) {
      ASSERT_EQ(*db.Count(Req("t", "k", Pred::Between(5, 5))), 4u) << label;
    }
    const auto payload_sum = [&] {
      return static_cast<std::int64_t>(*db.Sum(Req("t", "v", Pred::All())));
    };
    std::int64_t sum = payload_sum();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(*db.Delete("t", "k", keys[i])) << label << " delete " << i;
      const std::int64_t now = payload_sum();
      EXPECT_EQ(sum - now, victims[i]) << label << " delete " << i;
      sum = now;
    }
    EXPECT_EQ(sum, 0) << label;
    EXPECT_FALSE(*db.Delete("t", "k", 5)) << label;
  };
  for (const bool warm : {true, false}) {
    const std::string path = warm ? " with a key path" : " without a key path";
    Database single;
    ASSERT_TRUE(single.CreateTable("t").ok());
    ASSERT_TRUE(single.AddColumn("t", "k", {}).ok());
    ASSERT_TRUE(single.AddColumn("t", "v", {}).ok());
    check(single, warm, "Database" + path);

    ShardedDatabase sharded;
    ASSERT_TRUE(
        sharded.CreateTable("t", SpecFor(RoutingKind::kRange, sharded.num_shards())).ok());
    ASSERT_TRUE(sharded.AddColumn("t", "k").ok());
    ASSERT_TRUE(sharded.AddColumn("t", "v").ok());
    check(sharded, warm, "ShardedDatabase" + path);
    EXPECT_EQ(sharded.shard(0).num_cached_paths(), warm ? 2u : 1u) << path;
  }
}

// Delete on a column that is not the routing key probes the shards in
// ascending order and removes the lowest-rid match on the first shard that
// has one, so a younger row on a lower shard goes before an older row on a
// higher one. Value 7 of `tag` sits on shards 0, 2 and 3 (range routing,
// boundaries 250/500/750); payloads are distinct powers of two, so each
// drop in Sum(v) names the row that went.
TEST_F(ShardedDbTest, NonRoutingDeleteTakesTheLowestShardFirst) {
  ShardedDatabase db;  // four shards
  ASSERT_TRUE(db.CreateTable("t", SpecFor(RoutingKind::kRange, db.num_shards())).ok());
  ASSERT_TRUE(db.AddColumn("t", "k").ok());
  ASSERT_TRUE(db.AddColumn("t", "tag").ok());
  ASSERT_TRUE(db.AddColumn("t", "v").ok());
  // Rows (k, tag, v) in insertion order: the oldest tag-7 row lands on the
  // highest shard.
  const std::vector<std::int64_t> rows = {900, 7, 1,  10, 7, 2,  600, 3, 64,
                                          20,  7, 4,  500, 7, 8};
  ASSERT_TRUE(db.InsertBatch("t", rows).ok());
  const Pred tag7 = Pred::Between(7, 7);
  const std::size_t per_shard[] = {2, 0, 1, 1};
  for (std::size_t s = 0; s < db.num_shards(); ++s) {
    ASSERT_EQ(*db.shard(s).Count(Req("t", "tag", tag7)), per_shard[s]) << "shard " << s;
  }
  const auto payload_sum = [&] {
    return static_cast<std::int64_t>(*db.Sum(Req("t", "v", Pred::All())));
  };
  std::int64_t sum = payload_sum();
  for (const std::int64_t victim : {2, 4, 8, 1}) {
    ASSERT_TRUE(*db.Delete("t", "tag", 7)) << "victim " << victim;
    const std::int64_t now = payload_sum();
    EXPECT_EQ(sum - now, victim);
    sum = now;
  }
  EXPECT_FALSE(*db.Delete("t", "tag", 7));
  EXPECT_EQ(sum, 64);  // only the tag-3 row survives
}

// ---------------------------------------------------------------------------
// Exact Sum across shards.
// ---------------------------------------------------------------------------

TEST_F(ShardedDbTest, SumRoundsOnceAcrossShards) {
  // 2^62 + 1 is not a double; adding per-shard doubles loses the 1 and
  // cancels to 0. Adding exact per-shard partials keeps it.
  const std::int64_t big = std::int64_t{1} << 62;
  const std::vector<std::int64_t> rows = {1, big + 1, 200, -big};
  TableRoutingSpec spec;
  spec.key_column = "k";
  spec.kind = RoutingKind::kRange;
  spec.range_boundaries = {100};
  ThreadPool pool(2);
  ShardedDatabaseOptions options;
  options.num_shards = 2;
  options.scatter_pool = &pool;
  ShardedDatabase sharded(options);
  ASSERT_TRUE(sharded.CreateTable("t", spec).ok());
  ASSERT_TRUE(sharded.AddColumn("t", "k").ok());
  ASSERT_TRUE(sharded.AddColumn("t", "v").ok());
  ASSERT_TRUE(sharded.InsertBatch("t", rows).ok());
  Database single;
  ASSERT_TRUE(single.CreateTable("t").ok());
  ASSERT_TRUE(single.AddColumn("t", "k", {}).ok());
  ASSERT_TRUE(single.AddColumn("t", "v", {}).ok());
  ASSERT_TRUE(single.InsertBatch("t", rows).ok());
  // Each shard holds one row.
  ASSERT_EQ(*sharded.shard(0).Count(Req("t", "k", Pred::All())), 1u);
  ASSERT_EQ(*sharded.shard(1).Count(Req("t", "k", Pred::All())), 1u);

  for (const StrategyConfig& config :
       {StrategyConfig::FullScan(), StrategyConfig::FullSort(),
        StrategyConfig::BTree(), StrategyConfig::Crack(),
        StrategyConfig::AdaptiveMerge(),
        StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kSort),
        StrategyConfig::ParallelCrack(2, 2)}) {
    SCOPED_TRACE(config.DisplayName());
    QueryRequest req = Req("t", "v", Pred::All());
    req.strategy = config;
    for (const bool with_context : {false, true}) {
      if (with_context) req.context = QueryContext::WithTimeout(std::chrono::hours(1));
      auto got = sharded.Sum(req);
      auto want = single.Sum(req);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(*want, 1.0);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*got), std::bit_cast<std::uint64_t>(*want))
          << *got << " vs " << *want;
    }
  }
}

// ---------------------------------------------------------------------------
// Scatter threading: cheap legs run on the caller, expensive ones on the
// pool (sharded_database.h, "Threading").
// ---------------------------------------------------------------------------

// Records the thread of every scatter leg through the dist.scatter
// callback; `then` runs after the record (a sleep, an injected error). The
// record is kept cheap — no allocation — because it runs inside the timed
// leg.
class LegThreads {
 public:
  LegThreads() { threads_.reserve(kMaxLegs); }
  // The armed handler points at this object.
  ~LegThreads() { failpoints::dist_scatter.Disarm(); }

  void Arm(std::function<Status(std::string_view)> then = nullptr) {
    failpoints::dist_scatter.Disarm();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      threads_.clear();
    }
    then_ = std::move(then);
    FailpointPolicy policy;
    policy.mode = FailpointMode::kCallback;
    policy.handler = [this](std::string_view scope) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (threads_.size() < kMaxLegs) threads_.push_back(std::this_thread::get_id());
      }
      return then_ ? then_(scope) : Status::OK();
    };
    failpoints::dist_scatter.Arm(std::move(policy));
  }

  std::vector<std::thread::id> Take() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::thread::id> out = threads_;
    threads_.clear();
    return out;
  }

  std::size_t Distinct() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::thread::id> ids = threads_;
    std::sort(ids.begin(), ids.end());
    return static_cast<std::size_t>(std::unique(ids.begin(), ids.end()) - ids.begin());
  }

 private:
  static constexpr std::size_t kMaxLegs = 64;
  std::mutex mu_;
  std::vector<std::thread::id> threads_;
  // Written only while the point is disarmed.
  std::function<Status(std::string_view)> then_;
};

bool AllOnCaller(const std::vector<std::thread::id>& legs, std::size_t expected) {
  return legs.size() == expected &&
         std::all_of(legs.begin(), legs.end(),
                     [](std::thread::id id) { return id == std::this_thread::get_id(); });
}

// Counts ThreadPool submissions from here on. A pooled scatter submits
// helpers even when the caller ends up claiming every leg itself, so zero
// submissions is what tells an inline scatter apart.
void CountPoolSubmits() {
  FailpointPolicy count;
  count.mode = FailpointMode::kCallback;
  count.handler = [](std::string_view) { return Status::OK(); };
  failpoints::threadpool_submit.ResetCounters();
  failpoints::threadpool_submit.Arm(std::move(count));
}

std::uint64_t PoolSubmits() { return failpoints::threadpool_submit.hits(); }

// A warm hash-routed 4-shard store on a 2-worker pool: every range query
// fans out to all four shards, and repeated queries have converged.
class ScatterThreadingTest : public ShardedDbTest {
 protected:
  static constexpr std::size_t kShards = 4;

  void SetUp() override {
    ShardedDbTest::SetUp();
    ShardedDatabaseOptions options;
    options.num_shards = kShards;
    options.scatter_pool = &pool_;
    db_ = std::make_unique<ShardedDatabase>(options);
    ASSERT_TRUE(SetUpTable(db_.get(), RoutingKind::kHash).ok());
    ASSERT_TRUE(SetUpOracle(&oracle_).ok());
    const auto rows = RowMajor(RandomKeys(400, 91));
    ASSERT_TRUE(db_->InsertBatch("t", rows).ok());
    ASSERT_TRUE(oracle_.InsertBatch("t", rows).ok());
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(db_->Count(Probe()).ok());
  }

  static QueryRequest Probe() { return Req("t", "k", Pred::Between(100, 899)); }

  // Runs the probe until one scatter keeps every leg on the caller. The
  // first try normally does; retries only absorb a leg that a preempted
  // thread pushed over budget, which rightly sends the next scatter to
  // the pool.
  bool ScatterStaysOnCaller(LegThreads* legs) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      legs->Arm();
      CountPoolSubmits();
      auto count = db_->Count(Probe());
      failpoints::dist_scatter.Disarm();
      failpoints::threadpool_submit.Disarm();
      if (!count.ok()) return false;
      if (AllOnCaller(legs->Take(), kShards) && PoolSubmits() == 0) return true;
    }
    return false;
  }

  ThreadPool pool_{2};
  std::unique_ptr<ShardedDatabase> db_;
  Database oracle_;
};

TEST_F(ScatterThreadingTest, ConvergedLegsRunOnTheCaller) {
  LegThreads legs;
  EXPECT_TRUE(ScatterStaysOnCaller(&legs));
}

TEST_F(ScatterThreadingTest, RebalanceSendsTheNextScatterToThePool) {
  LegThreads legs;
  ASSERT_TRUE(ScatterStaysOnCaller(&legs));
  ASSERT_TRUE(db_->Rebalance("t", 0, 1, 0, kDomain / 2).ok());
  CountPoolSubmits();
  ASSERT_TRUE(db_->Count(Probe()).ok());
  failpoints::threadpool_submit.Disarm();
  EXPECT_GT(PoolSubmits(), 0u);
  // The moved rows answer from their new shard.
  auto count = db_->Count(Probe());
  auto want = oracle_.Count(Probe());
  ASSERT_TRUE(count.ok() && want.ok());
  EXPECT_EQ(*count, *want);
}

TEST_F(ScatterThreadingTest, ExpensiveLegsReturnToThePoolAndBack) {
  LegThreads legs;
  ASSERT_TRUE(ScatterStaysOnCaller(&legs));

  // Slow legs: the first runs inline and misses the budget, and the
  // scatter hands the rest to the pool.
  legs.Arm([](std::string_view) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return Status::OK();
  });
  CountPoolSubmits();
  ASSERT_TRUE(db_->Count(Probe()).ok());
  failpoints::threadpool_submit.Disarm();
  const auto slow = legs.Take();
  ASSERT_EQ(slow.size(), kShards);
  EXPECT_EQ(slow.front(), std::this_thread::get_id());
  EXPECT_GT(PoolSubmits(), 0u);

  // The next scatter goes to the pool. Each leg waits (bounded) for a
  // second thread to join, so the check does not depend on how fast a
  // worker wakes — and an inline scatter would fail it, one thread only.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  legs.Arm([&](std::string_view) {
    while (legs.Distinct() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return Status::OK();
  });
  ASSERT_TRUE(db_->Count(Probe()).ok());
  EXPECT_GE(legs.Distinct(), 2u);
  failpoints::dist_scatter.Disarm();

  // Cheap legs again: one pooled scatter observes it, and the following
  // ones return to the caller.
  ASSERT_TRUE(db_->Count(Probe()).ok());
  EXPECT_TRUE(ScatterStaysOnCaller(&legs));
}

TEST_F(ScatterThreadingTest, InlineLegErrorIsReportedNotCancelled) {
  LegThreads legs;
  const std::string failing = std::string("t") + kFailpointScopeSep + "shard1";
  bool inline_seen = false;
  for (int attempt = 0; attempt < 100 && !inline_seen; ++attempt) {
    legs.Arm([&](std::string_view scope) {
      return scope == failing ? Status::ResourceExhausted("injected leg fault")
                              : Status::OK();
    });
    CountPoolSubmits();
    auto count = db_->Count(Probe());
    failpoints::dist_scatter.Disarm();
    failpoints::threadpool_submit.Disarm();
    // Legs after shard 1 unwind with Cancelled; the root cause wins.
    ASSERT_FALSE(count.ok());
    EXPECT_TRUE(count.status().IsResourceExhausted()) << count.status().ToString();
    inline_seen = AllOnCaller(legs.Take(), kShards) && PoolSubmits() == 0;
  }
  EXPECT_TRUE(inline_seen);
  auto count = db_->Count(Probe());
  auto want = oracle_.Count(Probe());
  ASSERT_TRUE(count.ok() && want.ok());
  EXPECT_EQ(*count, *want);
}

TEST_F(ScatterThreadingTest, AnswersStayExactWhileLegsFlipBetweenThreads) {
  // Oracle answers first: the single-node Database is not thread-safe.
  std::vector<QueryRequest> probes;
  std::vector<std::size_t> counts;
  std::vector<double> sums;
  for (std::int64_t lo = 0; lo < kDomain; lo += 125) {
    for (QueryRequest req : {Req("t", "k", Pred::Between(lo, lo + 200)),
                             Req("t", "a", Pred::Between(PayloadA(lo), PayloadA(lo + 200)))}) {
      auto c = oracle_.Count(req);
      auto s = oracle_.Sum(req);
      ASSERT_TRUE(c.ok() && s.ok());
      probes.push_back(std::move(req));
      counts.push_back(*c);
      sums.push_back(*s);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 150; ++i) {
        const std::size_t p = static_cast<std::size_t>(c * 7 + i) % probes.size();
        auto count = db_->Count(probes[p]);
        auto sum = db_->Sum(probes[p]);
        if (!count.ok() || *count != counts[p] || !sum.ok() || *sum != sums[p]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread flipper([&] {
    // Over the inline budget in every build, sanitized ones included.
    FailpointPolicy slow;
    slow.mode = FailpointMode::kDelay;
    slow.delay_micros = 500;
    while (!stop.load()) {
      failpoints::dist_scatter.Arm(slow);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      failpoints::dist_scatter.Disarm();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& client : clients) client.join();
  stop.store(true);
  flipper.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Rebalance: correctness and carried index investment.
// ---------------------------------------------------------------------------

TEST_F(ShardedDbTest, RebalanceMovesARangeAndKeepsAnswersExact) {
  ShardedDatabaseOptions options;
  options.num_shards = 2;
  ShardedDatabase db(options);
  Database oracle;
  ASSERT_TRUE(SetUpTable(&db, RoutingKind::kRange).ok());
  ASSERT_TRUE(SetUpOracle(&oracle).ok());
  const auto rows = RowMajor(RandomKeys(3000, 13));
  ASSERT_TRUE(db.InsertBatch("t", rows).ok());
  ASSERT_TRUE(oracle.InsertBatch("t", rows).ok());

  const std::size_t src_rows_before = db.Stats()[0].rows;
  // Move the bottom quarter of shard 0's half to shard 1.
  auto report = db.Rebalance("t", 0, 1, 0, kDomain / 4);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->rows_moved, 0u);
  const auto stats = db.Stats();
  EXPECT_EQ(stats[0].rows, src_rows_before - report->rows_moved);

  // Future inserts in the migrated range land on the target.
  ASSERT_TRUE(db.Insert("t", {1, PayloadA(1), PayloadB(1)}).ok());
  ASSERT_TRUE(oracle.Insert("t", {1, PayloadA(1), PayloadB(1)}).ok());
  EXPECT_EQ(db.Stats()[1].rows, stats[1].rows + 1);

  // Differential exactness after the migration, including the migrated
  // range and the straddling boundary.
  for (const auto& pred :
       {Pred::All(), Pred::Between(0, kDomain / 4), Pred::Between(100, 600)}) {
    auto c1 = db.Count(Req("t", "k", pred));
    auto c2 = oracle.Count(Req("t", "k", pred));
    ASSERT_TRUE(c1.ok() && c2.ok());
    EXPECT_EQ(*c1, *c2);
  }
  QueryRequest proj = Req("t", "k", Pred::Between(0, kDomain / 2));
  proj.tails = {"a", "b"};
  auto p1 = db.SelectProject(proj);
  auto p2 = oracle.SelectProject(proj);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(SortedRows(*p1), SortedRows(*p2));
}

TEST_F(ShardedDbTest, RebalanceCarriesIndexInvestment) {
  ShardedDatabaseOptions options;
  options.num_shards = 2;
  ShardedDatabase db(options);
  ASSERT_TRUE(SetUpTable(&db, RoutingKind::kRange).ok());
  ASSERT_TRUE(db.InsertBatch("t", RowMajor(RandomKeys(4000, 17))).ok());

  // Warm the source: these queries realize cuts at their bounds inside
  // the soon-to-migrate range [0, 200).
  const Pred warm1 = Pred::Between(40, 110);
  const Pred warm2 = Pred::Between(60, 160);
  ASSERT_TRUE(db.Count(Req("t", "k", warm1)).ok());
  ASSERT_TRUE(db.Count(Req("t", "k", warm2)).ok());

  auto report = db.Rebalance("t", 0, 1, 0, 200);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->rows_moved, 0u);
  EXPECT_GT(report->cuts_carried, 0u) << "warmed cuts must be exported";
  EXPECT_GT(report->bundles, 0u);

  // The carried cuts were re-realized during the rebalance itself; the
  // same bounded queries on the migrated rows crack NOTHING new on the
  // target. (Counters cover crack-in-two/three and stochastic cracks.)
  const auto work = [&](const DatabaseStats& s) {
    return s.crack.num_crack_in_two + s.crack.num_crack_in_three +
           s.crack.num_stochastic_cracks;
  };
  const DatabaseStats target_before = db.shard(1).Stats();
  auto c1 = db.Count(Req("t", "k", warm1));
  auto c2 = db.Count(Req("t", "k", warm2));
  ASSERT_TRUE(c1.ok() && c2.ok());
  const DatabaseStats target_after = db.shard(1).Stats();
  EXPECT_EQ(work(target_after), work(target_before))
      << "queries at carried cut values must not crack the target again";
  // The carried investment is real piece structure, not just counters.
  EXPECT_GT(target_after.cracked_pieces, 1u);
}

TEST_F(ShardedDbTest, ReadsOverlappingARebalanceStayExact) {
  ShardedDatabaseOptions options;
  options.num_shards = 4;
  ThreadPool pool(4);
  options.scatter_pool = &pool;
  ShardedDatabase db(options);
  ASSERT_TRUE(SetUpTable(&db, RoutingKind::kRange).ok());
  const auto keys = RandomKeys(4000, 19);
  ASSERT_TRUE(db.InsertBatch("t", RowMajor(keys)).ok());
  const std::size_t expected = keys.size();
  const std::int64_t expected_sum = [&] {
    std::int64_t sum = 0;
    for (auto k : keys) sum += k;
    return sum;
  }();

  // Readers hammer scatter queries while the main thread migrates ranges
  // back and forth. Every read must see a pre- or post-migration
  // topology, never a torn one — i.e. always the full row multiset.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto count = db.Count(Req("t", "k", Pred::All()));
        auto sum = db.Sum(Req("t", "k", Pred::All()));
        if (!count.ok() || !sum.ok() || *count != expected ||
            *sum != static_cast<double>(expected_sum)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Migrations can finish before the OS even schedules the reader
  // threads; hold the first one until reads are actually in flight so
  // the overlap this test exists for really happens.
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  for (int i = 0; i < 6; ++i) {
    const std::size_t from = i % 2 == 0 ? 0 : 3;
    const std::size_t to = i % 2 == 0 ? 3 : 0;
    auto report = db.Rebalance("t", from, to, 0, kDomain / 4);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u) << "after " << reads.load() << " reads";
  EXPECT_GT(reads.load(), 0u);
}

// ---------------------------------------------------------------------------
// Randomized schedule: the dist chaos arm (AIDX_FAULT_SCHEDULE=dist arms
// dist.route / dist.scatter / dist.migrate_piece probabilistically; the
// other schedules exercise the engine under the sharded facade).
// ---------------------------------------------------------------------------

std::string ScheduleSpec(const std::string& name) {
  if (name == "quiet") return "";
  if (name == "delays") {
    return "crack.piece=delay(20);sideways.ripple=delay(50);"
           "storage.commit_row=delay(20);organizer.step=delay(10)";
  }
  if (name == "errors") {
    return "threadpool.submit=prob(0.1);crack.piece=prob(0.05)";
  }
  if (name == "dist") {
    return "dist.route=prob(0.03);dist.scatter=prob(0.05);"
           "dist.migrate_piece=prob(0.1);crack.piece=delay(10)";
  }
  // mixed (default)
  return "crack.piece=prob(0.02);threadpool.submit=prob(0.05);"
         "sideways.ripple=delay(30);storage.commit_row=delay(10)";
}

TEST_F(ShardedDbTest, RandomizedScheduleKeepsDifferentialExactness) {
  std::uint64_t seed = 20260807;
  if (const char* env = std::getenv("AIDX_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::string schedule = "dist";
  if (const char* env = std::getenv("AIDX_FAULT_SCHEDULE")) schedule = env;
  std::cout << "[sharded-faults] schedule=" << schedule << " seed=" << seed
            << std::endl;
  RecordProperty("fault_schedule", schedule);
  RecordProperty("fault_seed", std::to_string(seed));
  const std::string spec = ScheduleSpec(schedule);
  if (!spec.empty()) {
    ASSERT_TRUE(Configure(spec).ok()) << spec;
  }

  ThreadPool pool(2);
  ShardedDatabaseOptions options;
  options.num_shards = 4;
  options.scatter_pool = &pool;
  ShardedDatabase db(options);
  ASSERT_TRUE(SetUpTable(&db, RoutingKind::kRange).ok());
  // The oracle is the key multiset; every comparison retries through
  // transient injected faults (all dist faults are validate-phase clean
  // aborts, so a failed op means "nothing happened").
  std::vector<std::int64_t> keys;

  const auto count_with_retries = [&](const Pred& pred) -> std::size_t {
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto c = db.Count(Req("t", "k", pred));
      if (c.ok()) return *c;
    }
    ADD_FAILURE() << "query kept failing under schedule";
    return 0;
  };

  Rng rng(seed);
  for (int burst = 0; burst < 12; ++burst) {
    for (int op = 0; op < 30; ++op) {
      const std::uint64_t dice = rng.NextBounded(10);
      if (dice < 6) {
        // Single-row DML only: cross-shard batches are atomic per shard,
        // not per batch (sharded_database.h), so the oracle tracks the
        // row-atomic surface.
        const auto k = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        if (db.Insert("t", {k, PayloadA(k), PayloadB(k)}).ok()) {
          keys.push_back(k);
        }  // else: clean abort, nothing landed
      } else if (dice < 8 && !keys.empty()) {
        const auto k = keys[rng.NextBounded(keys.size())];
        auto deleted = db.Delete("t", "k", k);
        if (deleted.ok()) {
          ASSERT_TRUE(*deleted);
          keys.erase(std::find(keys.begin(), keys.end(), k));
        }
      } else {
        const auto lo = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        const Pred p = Pred::Between(lo, lo + 120);
        auto probe = db.Count(Req("t", "k", p));
        if (probe.ok()) {
          std::size_t expect = 0;
          for (auto key : keys) expect += p.Matches(key) ? 1 : 0;
          ASSERT_EQ(*probe, expect) << "burst " << burst;
        }
      }
    }
    // A mid-schedule rebalance either completes or aborts cleanly; either
    // way the row multiset is unchanged.
    if (burst % 3 == 1) {
      const auto lo = static_cast<std::int64_t>(rng.NextBounded(kDomain / 2));
      (void)db.Rebalance("t", burst % 4, (burst + 1) % 4, lo, lo + 100);
    }
    // Post-burst invariants.
    ASSERT_EQ(count_with_retries(Pred::All()), keys.size()) << "burst " << burst;
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(kDomain));
    const Pred p = Pred::Between(lo, lo + 200);
    std::size_t expect = 0;
    for (auto key : keys) expect += p.Matches(key) ? 1 : 0;
    ASSERT_EQ(count_with_retries(p), expect) << "burst " << burst;
  }
  FailpointRegistry::Instance().DisarmAll();
}

}  // namespace
}  // namespace aidx
