#include "stores.h"

#include <algorithm>
#include <span>

#include "harness.h"
#include "storage/table.h"
#include "workload/data_generator.h"

namespace bench {

namespace {

constexpr std::size_t kLoadBatchRows = std::size_t{1} << 20;

std::uint64_t SplitMix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<std::int64_t> RangeBoundaries(std::int64_t domain) {
  std::vector<std::int64_t> bounds;
  for (std::size_t i = 1; i < kShards; ++i) {
    bounds.push_back(static_cast<std::int64_t>(i) * domain /
                     static_cast<std::int64_t>(kShards));
  }
  return bounds;
}

aidx::TableRoutingSpec RoutingSpec(const TableShape& shape) {
  aidx::TableRoutingSpec spec;
  spec.key_column = kKey;
  spec.kind = shape.routing;
  if (shape.routing == aidx::RoutingKind::kRange) {
    spec.range_boundaries = RangeBoundaries(shape.domain);
  }
  return spec;
}

std::int64_t PayloadFor(std::uint64_t seed, std::uint64_t op_index, std::size_t column) {
  return static_cast<std::int64_t>(
      SplitMix(seed ^ SplitMix(op_index * 8 + column)) % 1000000007ULL);
}

std::vector<std::int64_t> GenerateRows(const TableShape& shape) {
  aidx::DataSpec spec;
  spec.n = shape.rows;
  spec.domain = shape.domain;
  spec.distribution = aidx::DataDistribution::kUniform;
  spec.seed = shape.seed;
  const std::vector<std::int64_t> keys = aidx::GenerateData(spec);
  const std::size_t width = shape.width();
  std::vector<std::int64_t> rows(shape.rows * width);
  for (std::size_t r = 0; r < shape.rows; ++r) {
    rows[r * width] = keys[r];
    for (std::size_t c = 1; c < width; ++c) {
      rows[r * width + c] = PayloadFor(shape.seed + 1, r, c);
    }
  }
  return rows;
}

std::unique_ptr<aidx::ShardedDatabase> BuildStore(const TableShape& shape,
                                                  const std::vector<std::int64_t>& rows,
                                                  aidx::ThreadPool* pool) {
  aidx::ShardedDatabaseOptions options;
  options.num_shards = kShards;
  options.scatter_pool = pool;
  auto db = std::make_unique<aidx::ShardedDatabase>(options);
  if (!db->CreateTable(kTable, RoutingSpec(shape)).ok()) Fatal("CreateTable failed");
  if (!db->AddColumn(kTable, kKey).ok()) Fatal("AddColumn k failed");
  for (const std::string& column : shape.payloads) {
    if (!db->AddColumn(kTable, column).ok()) Fatal("AddColumn " + column + " failed");
  }
  const std::size_t width = shape.width();
  const std::span<const std::int64_t> all(rows);
  for (std::size_t r = 0; r < shape.rows; r += kLoadBatchRows) {
    const std::size_t n = std::min(kLoadBatchRows, shape.rows - r);
    if (!db->InsertBatch(kTable, all.subspan(r * width, n * width)).ok()) {
      Fatal("bulk load failed");
    }
  }
  return db;
}

std::vector<std::int64_t> ShardKeys(aidx::ShardedDatabase& db, std::size_t shard) {
  auto table = db.shard(shard).catalog().GetTable(kTable);
  if (!table.ok()) Fatal("shard table missing");
  auto column = table.value()->GetTypedColumn<std::int64_t>(kKey);
  if (!column.ok()) Fatal("shard key column missing");
  const auto values = column.value()->Values();
  return {values.begin(), values.end()};
}

aidx::StrategyConfig CrackStrategy() { return aidx::StrategyConfig::Crack(); }

aidx::StrategyConfig PcrackStrategy() {
  return aidx::StrategyConfig::ParallelCrack(/*partitions=*/4, /*threads=*/1);
}

Replicas BuildReplicas(const TableShape& shape, const std::vector<std::int64_t>& rows,
                       aidx::ThreadPool* pool, bool with_pcrack) {
  Replicas r;
  r.b = BuildStore(shape, rows, pool);
  r.router = std::make_unique<aidx::ShardRouter>(kShards);
  if (!r.router->RegisterTable(kTable, RoutingSpec(shape)).ok()) {
    Fatal("replica router registration failed");
  }
  r.c.resize(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    ShardPaths& paths = r.c[s];
    paths.base = ShardKeys(*r.b, s);
    paths.crack = aidx::MakeAccessPath<std::int64_t>(paths.base, CrackStrategy());
    if (with_pcrack) {
      paths.pcrack = aidx::MakeAccessPath<std::int64_t>(paths.base, PcrackStrategy());
    }
  }
  return r;
}

}  // namespace bench
