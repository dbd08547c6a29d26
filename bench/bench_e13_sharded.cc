// E13 — Sharded serving layer: scatter/gather throughput vs shard count,
// and the cost of an online Rebalance (docs/DISTRIBUTION.md).
//
// Three sweeps over one routed table (k, a, b; k = routing key):
//   1. queries/sec vs shard count (1, 2, 4, 8) under RANGE routing — the
//      router prunes each key-range Count to the owning shard interval,
//      so more shards means both smaller cracked columns per node and
//      fewer rows scanned per leg;
//   2. the same sweep under HASH routing — every key-range query fans
//      out to all shards, isolating pure scatter overhead;
//   3. one Rebalance on the warmed 8-shard range store, moving shard 0's
//      whole interval (rows + realized cracked-piece cuts) to shard 1:
//      rows/sec and the carried-cut count.
//
// Every configuration answers the identical query stream and the result
// checksum is compared across configurations, so a routing bug fails
// loudly rather than flattering the numbers. The `headline` row reports
// shard_scaling = range-routed qps at 8 shards / qps at 1 shard. On a
// 1-core host expect little throughput scaling (legs serialize on the
// pool); the per-shard pruning of sweep 1 still helps, because pruned
// queries touch fewer rows regardless of parallelism.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dist/shard_router.h"
#include "dist/sharded_database.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace aidx;

namespace {

constexpr std::size_t kMaxShards = 8;

void Require(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "FATAL: %s\n", what);
  std::exit(1);
}

std::int64_t PayloadA(std::int64_t k) { return k * 7 + 1; }
std::int64_t PayloadB(std::int64_t k) { return k % 13 - 5; }

QueryRequest CountReq(const RangePredicate<std::int64_t>& pred) {
  QueryRequest req;
  req.table = "t";
  req.column = "k";
  req.predicate = pred;
  req.strategy = StrategyConfig::Crack();
  return req;
}

TableRoutingSpec SpecFor(RoutingKind kind, std::size_t num_shards,
                         std::int64_t domain) {
  TableRoutingSpec spec;
  spec.key_column = "k";
  spec.kind = kind;
  if (kind == RoutingKind::kRange) {
    for (std::size_t i = 1; i < num_shards; ++i) {
      spec.range_boundaries.push_back(
          static_cast<std::int64_t>(i) * domain / static_cast<std::int64_t>(num_shards));
    }
  }
  return spec;
}

// Builds an N-shard store and bulk-loads `n` rows whose keys are a
// multiplicative scramble of 0..n-1 (a permutation when n is a power of
// two; with other n a few keys collide, which is harmless — the checksum
// only needs every config to load identical data).
std::unique_ptr<ShardedDatabase> BuildStore(RoutingKind kind, std::size_t shards,
                                            std::size_t n, ThreadPool* pool) {
  ShardedDatabaseOptions options;
  options.num_shards = shards;
  options.scatter_pool = pool;
  auto db = std::make_unique<ShardedDatabase>(options);
  const auto domain = static_cast<std::int64_t>(n);
  Require(db->CreateTable("t", SpecFor(kind, shards, domain)).ok(), "create");
  for (const char* column : {"k", "a", "b"}) {
    Require(db->AddColumn("t", column).ok(), "add column");
  }
  std::vector<std::int64_t> rows;
  rows.reserve(n * 3);
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::int64_t>((i * 2654435761ULL) % n);
    rows.push_back(k);
    rows.push_back(PayloadA(k));
    rows.push_back(PayloadB(k));
  }
  Require(db->InsertBatch("t", rows).ok(), "load");
  return db;
}

// `q` random fixed-selectivity key ranges; identical across configs.
std::vector<RangePredicate<std::int64_t>> MakeQueries(std::size_t q,
                                                      std::int64_t domain) {
  std::mt19937_64 rng(20120313);  // EDBT 2012
  const std::int64_t width = domain / 100 > 0 ? domain / 100 : 1;
  std::uniform_int_distribution<std::int64_t> lo_dist(0, domain - width);
  std::vector<RangePredicate<std::int64_t>> queries;
  queries.reserve(q);
  for (std::size_t i = 0; i < q; ++i) {
    const std::int64_t lo = lo_dist(rng);
    queries.push_back(RangePredicate<std::int64_t>::HalfOpen(lo, lo + width));
  }
  return queries;
}

struct SweepPoint {
  double qps = 0.0;
  std::uint64_t checksum = 0;
};

SweepPoint TimeQueries(ShardedDatabase& db,
                       const std::vector<RangePredicate<std::int64_t>>& queries) {
  SweepPoint point;
  WallTimer timer;
  for (const auto& pred : queries) {
    auto count = db.Count(CountReq(pred));
    Require(count.ok(), "count");
    point.checksum += count.value();
  }
  point.qps = static_cast<double>(queries.size()) / timer.ElapsedSeconds();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = bench::ColumnSize();
  const std::size_t q = bench::NumQueries();
  const auto domain = static_cast<std::int64_t>(n);
  const auto queries = MakeQueries(q, domain);

  bench::JsonReport json("e13_sharded", argc, argv);
  bench::PrintHeader("E13 sharded serving layer",
                     "scatter/gather scaling and rebalance cost for adaptive "
                     "indexes behind a routed query API");
  std::printf("rows: %zu, queries: %zu, selectivity 1%%\n\n", n, q);
  std::printf("%8s %8s %14s %16s\n", "routing", "shards", "qps", "checksum");

  ThreadPool pool(kMaxShards);
  {
    // Throwaway store: pays one-time process costs (heap growth, pool
    // thread wakeup, first-touch page faults) outside every measured
    // window. Each measured config still adapts from scratch — the first
    // config would otherwise eat these costs alone and skew the scaling.
    auto warm = BuildStore(RoutingKind::kRange, 2, std::min<std::size_t>(n, 4096),
                           &pool);
    std::vector<RangePredicate<std::int64_t>> warm_queries(
        queries.begin(), queries.begin() + std::min<std::size_t>(q, 32));
    (void)TimeQueries(*warm, warm_queries);
  }
  std::uint64_t reference_checksum = 0;
  double range_qps_1 = 0.0;
  double range_qps_max = 0.0;
  std::unique_ptr<ShardedDatabase> warmed_range_store;

  for (const RoutingKind kind : {RoutingKind::kRange, RoutingKind::kHash}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{8}}) {
      auto db = BuildStore(kind, shards, n, &pool);
      const SweepPoint point = TimeQueries(*db, queries);
      if (reference_checksum == 0) reference_checksum = point.checksum;
      Require(point.checksum == reference_checksum, "checksum mismatch");
      std::printf("%8.*s %8zu %14.0f %16llu\n",
                  static_cast<int>(RoutingKindName(kind).size()),
                  RoutingKindName(kind).data(), shards, point.qps,
                  static_cast<unsigned long long>(point.checksum));
      json.AddRow("shard_sweep")
          .Set("routing", RoutingKindName(kind))
          .Set("shards", shards)
          .Set("qps", point.qps)
          .Set("checksum", point.checksum);
      if (kind == RoutingKind::kRange) {
        if (shards == 1) range_qps_1 = point.qps;
        if (shards == kMaxShards) {
          range_qps_max = point.qps;
          warmed_range_store = std::move(db);  // cracked by the sweep
        }
      }
    }
  }

  // Sweep 3: migrate shard 0's whole interval, index investment and all,
  // out of the store that the range sweep just cracked.
  {
    ShardedDatabase& db = *warmed_range_store;
    const std::int64_t hi = domain / static_cast<std::int64_t>(kMaxShards);
    WallTimer timer;
    auto report = db.Rebalance("t", 0, 1, 0, hi);
    const double seconds = timer.ElapsedSeconds();
    Require(report.ok(), "rebalance");
    const double rows_per_s =
        static_cast<double>(report.value().rows_moved) / seconds;
    std::printf("rebalance: %zu rows in %.3fs (%.0f rows/s), %zu cuts in %zu "
                "bundles carried\n",
                report.value().rows_moved, seconds, rows_per_s,
                report.value().cuts_carried, report.value().bundles);
    json.AddRow("rebalance")
        .Set("rows_moved", report.value().rows_moved)
        .Set("seconds", seconds)
        .Set("rows_per_s", rows_per_s)
        .Set("cuts_carried", report.value().cuts_carried)
        .Set("bundles", report.value().bundles);
    // The moved range must answer identically from its new home.
    const SweepPoint after = TimeQueries(db, queries);
    Require(after.checksum == reference_checksum, "post-rebalance checksum");
  }

  const double scaling = range_qps_max / range_qps_1;
  std::printf("headline: range-routed qps scaling at %zu shards = %.2fx\n",
              kMaxShards, scaling);
  json.AddRow("headline")
      .Set("metric", "shard_scaling")
      .Set("shard_scaling", scaling)
      .Set("routing", "range")
      .Set("shards", kMaxShards);
  json.Write();
  return 0;
}
