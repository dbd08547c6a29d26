#include "dist/sharded_database.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "storage/table.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace aidx {

namespace {

std::string ScatterScope(std::string_view table, std::size_t shard) {
  std::string scope(table);
  scope.push_back(kFailpointScopeSep);
  scope += "shard" + std::to_string(shard);
  return scope;
}

std::string PieceScope(std::string_view table, std::size_t chunk) {
  std::string scope(table);
  scope.push_back(kFailpointScopeSep);
  scope += "piece" + std::to_string(chunk);
  return scope;
}

/// Rows extracted per dist.migrate_piece evaluation during rebalance.
constexpr std::size_t kMigrateChunkRows = 4096;

/// Sanitizer builds run a leg about ten times slower than a release build.
/// The budget below scales with them, so that those builds keep taking the
/// inline path that release builds take: checking it is what they are for.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kSanitizerSlowdown = 10;
#else
constexpr int kSanitizerSlowdown = 1;
#endif

/// A multi-leg scatter runs on the calling thread while its legs finish
/// under this budget (sharded_database.h, "Threading"). About one pool
/// hand-off on a 4-vCPU host: a cheaper leg costs less than moving it to
/// a worker. A constant, not a knob: it compares a leg with the hand-off
/// it would save, and only a machine with a very different wake-up
/// latency would want a different value.
constexpr std::chrono::microseconds kInlineLegBudget{20 * kSanitizerSlowdown};

/// Bounded retries for the evacuation DeleteWhere once the target has
/// absorbed the rows — the only failure source there is probabilistic
/// fault injection, and giving up would leave the range duplicated.
constexpr int kEvacuateRetries = 64;

}  // namespace

ShardedDatabase::ShardedDatabase(const ShardedDatabaseOptions& options)
    : router_(options.num_shards == 0 ? 1 : options.num_shards),
      scatter_pool_(options.scatter_pool) {
  const std::size_t n = router_.num_shards();
  DatabaseOptions node = options.node_options;
  node.thread_pool = options.scatter_pool;
  shards_.reserve(n);
  shard_mu_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Database>(node));
    shard_mu_.push_back(std::make_unique<std::mutex>());
  }
}

Status ShardedDatabase::CreateTable(std::string name, TableRoutingSpec spec) {
  std::unique_lock lock(topology_mu_);
  AIDX_RETURN_NOT_OK(router_.RegisterTable(name, std::move(spec)));
  for (auto& shard : shards_) {
    AIDX_RETURN_NOT_OK(shard->CreateTable(name));
  }
  return Status::OK();
}

Status ShardedDatabase::AddColumn(std::string_view table, std::string column) {
  std::unique_lock lock(topology_mu_);
  AIDX_RETURN_NOT_OK(router_.Spec(table).status());
  // Validate phase: the column may only be added while the table is empty
  // on every shard — routed rows have no cross-shard position alignment a
  // bulk column of values could attach to.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    AIDX_ASSIGN_OR_RETURN(Table * t, shards_[s]->catalog().GetTable(table));
    if (t->num_rows() != 0) {
      return Status::InvalidArgument(
          "cannot add column '" + column + "' to non-empty sharded table '" +
          std::string(table) + "' (shard " + std::to_string(s) + " has rows)");
    }
  }
  for (auto& shard : shards_) {
    AIDX_RETURN_NOT_OK(shard->AddColumn(table, column, {}));
  }
  return Status::OK();
}

Result<std::size_t> ShardedDatabase::KeyColumnIndex(
    std::string_view table, std::string_view key_column) const {
  AIDX_ASSIGN_OR_RETURN(Table * t, shards_[0]->catalog().GetTable(table));
  const auto& names = t->column_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == key_column) return i;
  }
  return Status::NotFound("routing key column '" + std::string(key_column) +
                          "' not in table '" + std::string(table) + "'");
}

Status ShardedDatabase::Insert(std::string_view table,
                               std::span<const std::int64_t> row) {
  std::shared_lock lock(topology_mu_);
  AIDX_ASSIGN_OR_RETURN(const TableRoutingSpec* spec, router_.Spec(table));
  AIDX_ASSIGN_OR_RETURN(std::size_t key_idx,
                        KeyColumnIndex(table, spec->key_column));
  if (key_idx >= row.size()) {
    return Status::InvalidArgument("row has " + std::to_string(row.size()) +
                                   " values; key column is at position " +
                                   std::to_string(key_idx));
  }
  AIDX_ASSIGN_OR_RETURN(std::size_t s, router_.ShardOf(table, row[key_idx]));
  std::lock_guard<std::mutex> shard_lock(*shard_mu_[s]);
  return shards_[s]->Insert(table, row);
}

Status ShardedDatabase::InsertBatch(std::string_view table,
                                    std::span<const std::int64_t> rows) {
  std::shared_lock lock(topology_mu_);
  AIDX_ASSIGN_OR_RETURN(const TableRoutingSpec* spec, router_.Spec(table));
  AIDX_ASSIGN_OR_RETURN(std::size_t key_idx,
                        KeyColumnIndex(table, spec->key_column));
  AIDX_ASSIGN_OR_RETURN(Table * t, shards_[0]->catalog().GetTable(table));
  const std::size_t ncols = t->num_columns();
  if (ncols == 0) {
    return Status::InvalidArgument("table '" + std::string(table) + "' has no columns");
  }
  if (rows.size() % ncols != 0) {
    return Status::InvalidArgument(
        "batch size " + std::to_string(rows.size()) + " is not a multiple of " +
        std::to_string(ncols) + " columns");
  }
  // Validate phase: route every row before any shard mutates, so an
  // injected dist.route error aborts with nothing applied anywhere.
  const std::size_t nrows = rows.size() / ncols;
  std::vector<std::vector<std::int64_t>> per_shard(shards_.size());
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::int64_t key = rows[r * ncols + key_idx];
    AIDX_ASSIGN_OR_RETURN(std::size_t s, router_.ShardOf(table, key));
    auto& bucket = per_shard[s];
    bucket.insert(bucket.end(), rows.begin() + static_cast<std::ptrdiff_t>(r * ncols),
                  rows.begin() + static_cast<std::ptrdiff_t>((r + 1) * ncols));
  }
  // Apply phase: atomic per shard (each node's validate-then-apply), not
  // across shards — see the file comment in sharded_database.h.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    std::lock_guard<std::mutex> shard_lock(*shard_mu_[s]);
    AIDX_RETURN_NOT_OK(shards_[s]->InsertBatch(table, per_shard[s]));
  }
  return Status::OK();
}

Result<bool> ShardedDatabase::Delete(std::string_view table,
                                     std::string_view column,
                                     std::int64_t value) {
  std::shared_lock lock(topology_mu_);
  AIDX_ASSIGN_OR_RETURN(const TableRoutingSpec* spec, router_.Spec(table));
  std::vector<std::size_t> targets;
  if (column == spec->key_column) {
    AIDX_ASSIGN_OR_RETURN(
        targets,
        router_.ShardsFor(table, RangePredicate<std::int64_t>::Between(value, value)));
  } else {
    // Deleting by a non-routing column: the key is unknown, probe everyone.
    for (std::size_t s = 0; s < shards_.size(); ++s) targets.push_back(s);
  }
  for (std::size_t s : targets) {
    std::lock_guard<std::mutex> shard_lock(*shard_mu_[s]);
    AIDX_ASSIGN_OR_RETURN(bool removed, shards_[s]->Delete(table, column, value));
    if (removed) return true;
  }
  return false;
}

Result<std::vector<std::size_t>> ShardedDatabase::TargetsFor(
    std::string_view table, std::string_view column,
    const RangePredicate<std::int64_t>& pred) const {
  AIDX_ASSIGN_OR_RETURN(const TableRoutingSpec* spec, router_.Spec(table));
  if (column == spec->key_column) return router_.ShardsFor(table, pred);
  std::vector<std::size_t> all(shards_.size());
  for (std::size_t s = 0; s < all.size(); ++s) all[s] = s;
  return all;
}

template <typename Fn>
Status ShardedDatabase::Scatter(std::string_view table,
                                const std::vector<std::size_t>& targets,
                                const QueryRequest& req, Fn&& fn) {
  // One leg request per scatter, shared by every leg. Its token is fresh
  // and chained to the caller's: the first failing leg cancels its
  // siblings at their next piece check without being able to cancel the
  // caller's query as a whole.
  QueryRequest leg = req;
  if (!leg.context.has_value()) leg.context.emplace();
  auto scatter_token = CancellationToken::Chained(leg.context->token());
  leg.context->SetToken(scatter_token);
  std::vector<Status> statuses(targets.size(), Status::OK());
  const auto run_leg = [&](std::size_t ti) {
    const std::size_t s = targets[ti];
    // The scope string is only built when the point is armed.
    Status st = Status::OK();
    if (AIDX_PREDICT_FALSE(failpoints::dist_scatter.armed())) {
      st = failpoints::dist_scatter.Inject(ScatterScope(table, s));
    }
    if (st.ok()) {
      std::lock_guard<std::mutex> shard_lock(*shard_mu_[s]);
      st = fn(ti, s, leg);
    }
    if (!st.ok()) {
      statuses[ti] = std::move(st);
      scatter_token->Cancel();
    }
  };
  if (scatter_pool_ == nullptr || targets.size() == 1) {
    for (std::size_t ti = 0; ti < targets.size(); ++ti) run_leg(ti);
  } else {
    // True when the leg finished within kInlineLegBudget.
    const auto run_timed_leg = [&](std::size_t ti) {
      const auto start = std::chrono::steady_clock::now();
      run_leg(ti);
      return std::chrono::steady_clock::now() - start <= kInlineLegBudget;
    };
    bool cheap = true;
    std::size_t next = 0;
    if (legs_cheap_.load(std::memory_order_relaxed)) {
      // The last fan-out was all cheap legs: run them here, where they
      // cost less than a hand-off. The first leg over budget sends the
      // rest to the pool, so a wrong guess costs at most one leg.
      while (cheap && next < targets.size()) cheap = run_timed_leg(next++);
    }
    if (next < targets.size()) {
      const std::size_t first = next;
      std::atomic<bool> pooled_cheap{true};
      scatter_pool_->ParallelFor(targets.size() - first, [&](std::size_t i) {
        if (!run_timed_leg(first + i)) {
          pooled_cheap.store(false, std::memory_order_relaxed);
        }
      });
      cheap = cheap && pooled_cheap.load(std::memory_order_relaxed);
    }
    legs_cheap_.store(cheap, std::memory_order_relaxed);
  }
  // Report the root cause: a leg's own error beats the Cancelled its
  // siblings unwound with.
  Status first = Status::OK();
  for (Status& st : statuses) {
    if (st.ok()) continue;
    if (first.ok() || (first.code() == StatusCode::kCancelled &&
                       st.code() != StatusCode::kCancelled)) {
      first = std::move(st);
    }
  }
  return first;
}

Result<std::size_t> ShardedDatabase::Count(const QueryRequest& req) {
  std::shared_lock lock(topology_mu_);
  AIDX_ASSIGN_OR_RETURN(std::vector<std::size_t> targets,
                        TargetsFor(req.table, req.column, req.predicate));
  if (targets.empty()) return static_cast<std::size_t>(0);
  std::vector<std::size_t> counts(targets.size(), 0);
  AIDX_RETURN_NOT_OK(Scatter(
      req.table, targets, req,
      [&](std::size_t ti, std::size_t s, const QueryRequest& leg) -> Status {
        AIDX_ASSIGN_OR_RETURN(counts[ti], shards_[s]->Count(leg));
        return Status::OK();
      }));
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  return total;
}

Result<double> ShardedDatabase::Sum(const QueryRequest& req) {
  std::shared_lock lock(topology_mu_);
  AIDX_ASSIGN_OR_RETURN(std::vector<std::size_t> targets,
                        TargetsFor(req.table, req.column, req.predicate));
  if (targets.empty()) return 0.0;
  // Exact per-shard partials, rounded once: the same answer a single node
  // holding every row gives, bit for bit.
  std::vector<SumAcc<std::int64_t>> sums(targets.size());
  AIDX_RETURN_NOT_OK(Scatter(
      req.table, targets, req,
      [&](std::size_t ti, std::size_t s, const QueryRequest& leg) -> Status {
        AIDX_ASSIGN_OR_RETURN(sums[ti], shards_[s]->SumPartial(leg));
        return Status::OK();
      }));
  SumAcc<std::int64_t> total = 0;
  for (const SumAcc<std::int64_t>& x : sums) total += x;
  return static_cast<double>(RoundSum<std::int64_t>(total));
}

Result<ProjectionResult<std::int64_t>> ShardedDatabase::SelectProject(
    const QueryRequest& req) {
  std::shared_lock lock(topology_mu_);
  AIDX_ASSIGN_OR_RETURN(std::vector<std::size_t> targets,
                        TargetsFor(req.table, req.column, req.predicate));
  // An empty superset still needs a correctly shaped (named, zero-row)
  // result; let shard 0 produce it through the ordinary path.
  if (targets.empty()) targets.push_back(0);
  std::vector<ProjectionResult<std::int64_t>> legs(targets.size());
  AIDX_RETURN_NOT_OK(Scatter(
      req.table, targets, req,
      [&](std::size_t ti, std::size_t s, const QueryRequest& leg) -> Status {
        AIDX_ASSIGN_OR_RETURN(legs[ti], shards_[s]->SelectProject(leg));
        return Status::OK();
      }));
  ProjectionResult<std::int64_t> merged;
  merged.column_names = legs[0].column_names;
  merged.columns.resize(merged.column_names.size());
  for (const auto& leg : legs) {
    AIDX_DCHECK(leg.column_names == merged.column_names);
    merged.num_rows += leg.num_rows;
    for (std::size_t c = 0; c < leg.columns.size(); ++c) {
      merged.columns[c].insert(merged.columns[c].end(), leg.columns[c].begin(),
                               leg.columns[c].end());
    }
  }
  return merged;
}

Result<RebalanceReport> ShardedDatabase::Rebalance(std::string_view table,
                                                   std::size_t from,
                                                   std::size_t to,
                                                   std::int64_t lo,
                                                   std::int64_t hi) {
  std::unique_lock lock(topology_mu_);
  if (from >= shards_.size() || to >= shards_.size()) {
    return Status::InvalidArgument("shard out of range; " +
                                   std::to_string(shards_.size()) + " shards");
  }
  if (from == to) {
    return Status::InvalidArgument("rebalance source and target must differ");
  }
  if (lo >= hi) {
    return Status::InvalidArgument("rebalance range [lo, hi) must be non-empty");
  }
  AIDX_ASSIGN_OR_RETURN(const TableRoutingSpec* spec, router_.Spec(table));
  const std::string key_column = spec->key_column;
  AIDX_RETURN_NOT_OK(KeyColumnIndex(table, key_column).status());
  Database& src = *shards_[from];
  Database& tgt = *shards_[to];

  // -- Validate / extract phase: nothing mutates until it completes. ------
  AIDX_ASSIGN_OR_RETURN(Table * t, src.catalog().GetTable(table));
  AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* key_col,
                        t->GetTypedColumn<std::int64_t>(key_column));
  const auto& names = t->column_names();
  std::vector<const TypedColumn<std::int64_t>*> cols;
  cols.reserve(names.size());
  for (const auto& name : names) {
    AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* c,
                          t->GetTypedColumn<std::int64_t>(name));
    cols.push_back(c);
  }
  const std::span<const std::int64_t> keys = key_col->Values();
  std::vector<std::size_t> victims;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    if (keys[r] >= lo && keys[r] < hi) victims.push_back(r);
  }
  // The migrated rows, row-major in column order, ready for InsertBatch.
  std::vector<std::int64_t> moved;
  moved.reserve(victims.size() * cols.size());
  for (std::size_t r : victims) {
    for (const auto* c : cols) moved.push_back(c->Get(r));
  }
  // The carried index investment: every cached path's realized cuts in
  // [lo, hi] (the cut at hi bounds the migrated range on the target).
  AIDX_ASSIGN_OR_RETURN(std::vector<ColumnCutExport> exports,
                        src.ExportColumnCuts(table, key_column, lo, hi));
  // dist.migrate_piece fires once per extracted chunk, all before either
  // shard mutates — an injected error is a clean abort. The scope string
  // is only built when the point is armed.
  const std::size_t chunks = (victims.size() + kMigrateChunkRows - 1) / kMigrateChunkRows;
  for (std::size_t i = 0; i < chunks || i == 0; ++i) {
    if (AIDX_PREDICT_FALSE(failpoints::dist_migrate_piece.armed())) {
      AIDX_RETURN_NOT_OK(failpoints::dist_migrate_piece.Inject(PieceScope(table, i)));
    }
    if (chunks == 0) break;
  }

  // -- Apply phase. -------------------------------------------------------
  RebalanceReport report;
  report.rows_moved = victims.size();
  report.bundles = exports.size();
  for (const auto& e : exports) report.cuts_carried += e.bundle.cuts.size();
  if (!victims.empty()) {
    // Target first: a failure here (the engine's own validate phase) is a
    // clean abort with both shards untouched.
    AIDX_RETURN_NOT_OK(tgt.InsertBatch(table, moved));
    // Source evacuation. The target already holds the rows, so giving up
    // now would leave the range duplicated; the only failure source is
    // probabilistic fault injection, so retry within a bound and report
    // the torn state honestly if it somehow persists.
    Status evacuated = Status::OK();
    for (int attempt = 0; attempt < kEvacuateRetries; ++attempt) {
      Result<std::size_t> removed = src.DeleteWhere(
          table, key_column, RangePredicate<std::int64_t>::HalfOpen(lo, hi));
      evacuated = removed.status();
      if (evacuated.ok()) break;
    }
    if (!evacuated.ok()) {
      return Status::Internal(
          "rebalance torn: target holds migrated rows but source evacuation "
          "kept failing: " + std::string(evacuated.message()));
    }
  }
  // The moved range's reads now fan out to both shards, and both queue
  // merges: the last scatter's timings no longer describe the next one.
  legs_cheap_.store(false, std::memory_order_relaxed);
  AIDX_RETURN_NOT_OK(router_.AddOverride(table, lo, hi, to));
  AIDX_RETURN_NOT_OK(tgt.ReplayColumnCuts(table, key_column, exports));
  return report;
}

std::vector<ShardStats> ShardedDatabase::Stats() const {
  std::shared_lock lock(topology_mu_);
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> shard_lock(*shard_mu_[s]);
    out.push_back({shards_[s]->Stats(), s});
  }
  return out;
}

}  // namespace aidx
