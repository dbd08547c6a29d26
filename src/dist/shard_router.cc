#include "dist/shard_router.h"

#include <algorithm>

#include "util/failpoint.h"

namespace aidx {

namespace {

/// SplitMix64 finalizer — cheap, well-mixed, and stable across runs (the
/// ring layout is part of the differential harness's determinism).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Whether [lo, hi) (a half-open interval, extremes flagged unbounded)
/// intersects `pred`. Conservative: ties toward "intersects".
bool IntervalIntersects(bool lo_bounded, std::int64_t lo, bool hi_bounded,
                        std::int64_t hi,
                        const RangePredicate<std::int64_t>& pred) {
  // Predicate entirely below the interval: pred.high < lo.
  if (lo_bounded && pred.high_kind != BoundKind::kUnbounded) {
    if (pred.high < lo) return false;
    if (pred.high == lo && pred.high_kind == BoundKind::kExclusive) return false;
  }
  // Predicate entirely above the interval: pred.low >= hi (hi exclusive).
  if (hi_bounded && pred.low_kind != BoundKind::kUnbounded) {
    if (pred.low >= hi) return false;
  }
  return true;
}

}  // namespace

ShardRouter::ShardRouter(std::size_t num_shards)
    : num_shards_(num_shards == 0 ? 1 : num_shards) {
  ring_.reserve(num_shards_ * kVnodesPerShard);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    for (std::size_t r = 0; r < kVnodesPerShard; ++r) {
      const std::uint64_t point =
          Mix64((static_cast<std::uint64_t>(s) << 32) | static_cast<std::uint64_t>(r));
      ring_.emplace_back(point, static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

Status ShardRouter::RegisterTable(std::string table, TableRoutingSpec spec) {
  if (table.empty()) return Status::InvalidArgument("table name must be non-empty");
  if (spec.key_column.empty()) {
    return Status::InvalidArgument("routing key column must be non-empty for table '" +
                                   table + "'");
  }
  if (spec.kind == RoutingKind::kRange) {
    if (spec.range_boundaries.size() != num_shards_ - 1) {
      return Status::InvalidArgument(
          "range routing for table '" + table + "' needs " +
          std::to_string(num_shards_ - 1) + " boundaries, got " +
          std::to_string(spec.range_boundaries.size()));
    }
    for (std::size_t i = 1; i < spec.range_boundaries.size(); ++i) {
      if (spec.range_boundaries[i] <= spec.range_boundaries[i - 1]) {
        return Status::InvalidArgument(
            "range boundaries for table '" + table + "' must be strictly ascending");
      }
    }
  } else if (!spec.range_boundaries.empty()) {
    return Status::InvalidArgument("hash routing for table '" + table +
                                   "' takes no range boundaries");
  }
  if (tables_.contains(table)) {
    return Status::AlreadyExists("table '" + table + "' already registered");
  }
  tables_.emplace(std::move(table), TableEntry{std::move(spec), {}});
  return Status::OK();
}

const ShardRouter::TableEntry* ShardRouter::Find(std::string_view table) const {
  const auto it = tables_.find(std::string(table));
  return it == tables_.end() ? nullptr : &it->second;
}

Result<const TableRoutingSpec*> ShardRouter::Spec(std::string_view table) const {
  const TableEntry* entry = Find(table);
  if (entry == nullptr) {
    return Status::NotFound("table '" + std::string(table) + "' is not registered");
  }
  return &entry->spec;
}

std::size_t ShardRouter::RingShardOf(std::int64_t key) const {
  const std::uint64_t h = Mix64(static_cast<std::uint64_t>(key));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::uint32_t>& point, std::uint64_t hash) {
        return point.first < hash;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::size_t ShardRouter::RangeShardOf(const std::vector<std::int64_t>& boundaries,
                                      std::int64_t key) {
  // Shard i owns [boundaries[i-1], boundaries[i]); first value >= key+1...
  // i.e. the count of boundaries <= key.
  const auto it = std::upper_bound(boundaries.begin(), boundaries.end(), key);
  return static_cast<std::size_t>(it - boundaries.begin());
}

Result<std::size_t> ShardRouter::ShardOf(std::string_view table,
                                         std::int64_t key) const {
  AIDX_RETURN_NOT_OK(failpoints::dist_route.Inject(table));
  const TableEntry* entry = Find(table);
  if (entry == nullptr) {
    return Status::NotFound("table '" + std::string(table) + "' is not registered");
  }
  // Latest matching override wins — it is the most recent rebalance's
  // routing decision for this key.
  for (auto it = entry->overrides.rbegin(); it != entry->overrides.rend(); ++it) {
    if (key >= it->lo && key < it->hi) return it->shard;
  }
  if (entry->spec.kind == RoutingKind::kRange) {
    return RangeShardOf(entry->spec.range_boundaries, key);
  }
  return RingShardOf(key);
}

Result<std::vector<std::size_t>> ShardRouter::ShardsFor(
    std::string_view table, const RangePredicate<std::int64_t>& pred) const {
  const TableEntry* entry = Find(table);
  if (entry == nullptr) {
    return Status::NotFound("table '" + std::string(table) + "' is not registered");
  }
  std::vector<bool> include(num_shards_, false);
  if (pred.DefinitelyEmpty()) return std::vector<std::size_t>{};
  if (entry->spec.kind == RoutingKind::kHash) {
    // A hash ring gives ranges no locality: every shard may hold a match.
    include.assign(num_shards_, true);
  } else {
    const auto& b = entry->spec.range_boundaries;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      const bool lo_bounded = s > 0;
      const bool hi_bounded = s < b.size();
      const std::int64_t lo = lo_bounded ? b[s - 1] : 0;
      const std::int64_t hi = hi_bounded ? b[s] : 0;
      if (IntervalIntersects(lo_bounded, lo, hi_bounded, hi, pred)) {
        include[s] = true;
      }
    }
    // Rows may sit wherever a past override routed them — every override
    // target whose range intersects the predicate stays in the superset.
    for (const RoutingOverride& o : entry->overrides) {
      if (IntervalIntersects(true, o.lo, true, o.hi, pred)) include[o.shard] = true;
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    if (include[s]) out.push_back(s);
  }
  return out;
}

Status ShardRouter::AddOverride(std::string_view table, std::int64_t lo,
                                std::int64_t hi, std::size_t shard) {
  const auto it = tables_.find(std::string(table));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(table) + "' is not registered");
  }
  if (lo >= hi) return Status::InvalidArgument("override range [lo, hi) must be non-empty");
  if (shard >= num_shards_) {
    return Status::InvalidArgument("override shard " + std::to_string(shard) +
                                   " out of range; " + std::to_string(num_shards_) +
                                   " shards");
  }
  it->second.overrides.push_back(RoutingOverride{lo, hi, shard});
  return Status::OK();
}

std::size_t ShardRouter::num_overrides(std::string_view table) const {
  const TableEntry* entry = Find(table);
  return entry == nullptr ? 0 : entry->overrides.size();
}

}  // namespace aidx
