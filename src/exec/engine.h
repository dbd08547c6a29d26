// Database: the facade tying the substrate together — a catalog of tables,
// per-column adaptive access paths chosen by strategy, and sideways
// cracking for multi-column select-project queries.
//
// This plays the role the MonetDB integration plays in the surveyed papers:
// the component that routes query operators to adaptive structures
// (tutorial §2, "Auto-tuning Kernels").
//
// Ownership: a Database owns everything it serves — the catalog's base
// columns (moved in via AddColumn) and every cached adaptive structure.
// All adaptive state of one column lives in one entry (ColumnState),
// keyed by the catalog's stable Column*: its access paths, created lazily
// on first use and matched by StrategyConfig's defaulted operator== —
// every knob participates, so two configs share an adaptive structure only
// when they are identical, and knob sweeps need no ResetAdaptiveState
// between configs — plus its sideways cracker when the column has served
// as a SelectProject head. Queries resolve names through the catalog
// without building strings; DML reaches the entries of the columns it has
// already resolved, never another table's.
//
// DML is **row-atomic**: Insert/InsertBatch take whole rows (one value per
// column, column_names() order), Delete removes the first base row whose
// key column matches, and each row mutation applies to *all* of the
// table's columns, cached access paths, and sideways cracker maps, or to
// none of them. One row id is allocated per row (storage/table.h) and
// shared by every structure. The partial-failure contract: every fallible
// step — name resolution, type checks, row-width validation, the
// `engine.dml_validate` failpoint (util/failpoint.h) — runs before the
// first byte moves, so a failed DML call leaves the table, its paths, and
// its sideways maps observably unchanged (no torn rows). The apply phase
// feeds every column's paths and sideways log before the base changes, so
// paths that still borrow the base span snapshot it first.
//
// Sideways cracker maps are NOT dropped on DML: crackers are backed by
// the table (sideways/sideways.h) and each row mutation is appended to
// their operation log, folded into live maps by ripple moves on the next
// touch — cracked investment survives writes. Only AddColumn (a schema
// change) still drops a table's cached sideways state.
//
// Memory pressure (util/resource_governor.h): with a limited budget,
// SelectProject sums the sideways-map and pending-update bytes fresh,
// sheds cold crackers on a denied admission, and falls back to a scan if
// the new maps still do not fit; Stats() sums the same bytes at the call.
//
// The type is move-only and not thread-safe: callers wanting concurrency
// wrap paths in SerializedAccessPath (exec/serialized_path.h), shard by
// column, or use StrategyKind::kParallelCrack, whose access path latches
// internally at partition granularity (docs/CONCURRENCY.md) — though the
// Database facade itself (catalog and path cache) must still be
// externally serialized.
//
// The query surface is a single QueryRequest struct — table, column,
// predicate, strategy, optional context, projection tails — with one
// entry per verb (Count / Sum / SumPartial / SelectProject). A request is
// the serializable unit the dist router (src/dist/) forwards to a shard
// verbatim, and what a future socket front-end would ship.
//
// Usage:
//   Database db;                       // or Database(DatabaseOptions{...})
//   AIDX_CHECK_OK(db.CreateTable("sales"));
//   AIDX_CHECK_OK(db.AddColumn("sales", "amount", std::move(amounts)));
//   AIDX_CHECK_OK(db.AddColumn("sales", "qty", std::move(qtys)));
//   auto n = db.Count({.table = "sales",
//                      .column = "amount",
//                      .predicate = RangePredicate<std::int64_t>::Between(lo, hi),
//                      .strategy = StrategyConfig::Crack()});  // cracks
//   AIDX_CHECK_OK(db.Insert("sales", {42, 7}));  // row-atomic, all paths
//   AIDX_CHECK_OK(db.Delete("sales", "amount", 42).status());
// All entry points return Status/Result rather than throwing; errors are
// NotFound / AlreadyExists / InvalidArgument from util/status.h.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/access_path.h"
#include "sideways/sideways.h"
#include "storage/catalog.h"
#include "storage/predicate.h"
#include "util/query_context.h"
#include "util/resource_governor.h"
#include "util/result.h"
#include "util/status.h"

namespace aidx {

class ThreadPool;

/// Construction-time configuration. Explicit options beat env sniffing:
/// a ShardedDatabase configures its N nodes deterministically from one
/// options value, and tests never depend on ambient environment state.
/// The environment remains the *default* source — Database() delegates to
/// FromEnv() — so existing env-driven workflows keep working.
struct DatabaseOptions {
  /// Soft budget (bytes) over auxiliary engine state — sideways maps and
  /// pending update stores (util/resource_governor.h). kUnlimited (the
  /// default) disables shedding.
  std::size_t memory_budget = ResourceGovernor::kUnlimited;
  /// Borrowed pool for engine-adjacent parallel work; may be null. The
  /// Database does not own or shut it down. The dist layer threads its
  /// scatter pool through here so every node shares one pool instead of
  /// spawning per-node workers.
  ThreadPool* thread_pool = nullptr;

  /// The historical defaults: AIDX_MEMORY_BUDGET (bytes) applied when set
  /// and parseable, everything else default-initialized.
  static DatabaseOptions FromEnv();
};

/// A fully specified query against one table and column — the
/// serializable unit of the query API. One request struct serves every
/// verb: Count/Sum read `table`/`column`/`predicate`/`strategy` (+
/// optional `context`); SelectProject reads `table`/`column` (the head) /
/// `predicate`/`tails`. The dist router forwards requests verbatim.
struct QueryRequest {
  std::string table;
  /// The aggregated column, or the selection head for SelectProject.
  std::string column;
  RangePredicate<std::int64_t> predicate = RangePredicate<std::int64_t>::All();
  /// Which adaptive structure answers (and adapts); ignored by
  /// SelectProject, whose sideways maps have their own machinery.
  StrategyConfig strategy{};
  /// Deadline/cancellation; nullopt runs in the background context.
  std::optional<QueryContext> context{};
  /// Projected columns (SelectProject only).
  std::vector<std::string> tails{};
};

/// Aggregate engine gauges for health endpoints (dist ShardStats).
/// Rows/pieces/pending are live sums over the catalog and path cache;
/// crack counters are cumulative.
struct DatabaseStats {
  std::size_t tables = 0;
  std::size_t rows = 0;                 // summed over tables
  std::size_t cached_paths = 0;
  std::size_t cached_sideways = 0;
  std::size_t cracked_pieces = 0;       // summed over cached paths
  std::size_t pending_update_bytes = 0; // approx, summed over cached paths
  CrackerStats crack;                   // summed crack-work counters
  /// Sideways-map plus pending-update bytes over the memory budget,
  /// summed fresh at the call.
  bool under_pressure = false;
  /// The governor's cumulative counters: SelectProject admissions denied,
  /// and sheds of cold sideways state after a denial.
  std::size_t admission_denials = 0;
  std::size_t sheds = 0;
};

/// One cached path's carried index investment over a key range: the
/// strategy it belongs to plus the serialized cuts (rebalance contract,
/// docs/DISTRIBUTION.md).
struct ColumnCutExport {
  StrategyConfig config;
  PieceBundle<std::int64_t> bundle;
};

/// Engine facade over int64 columns (the experiment type; the underlying
/// templates support int32/float64 — see tests).
class Database {
 public:
  /// Equivalent to Database(DatabaseOptions::FromEnv()).
  Database() : Database(DatabaseOptions::FromEnv()) {}
  explicit Database(const DatabaseOptions& options);
  AIDX_DEFAULT_MOVE_ONLY(Database);

  /// Creates a table; fails on duplicates.
  Status CreateTable(std::string name);

  /// Adds an int64 column to a table. A schema change: the table's cached
  /// sideways state is dropped (rebuilt with the new column registered).
  Status AddColumn(std::string_view table, std::string column,
                   std::vector<std::int64_t> values);

  /// Appends one row (one value per column, column_names() order),
  /// row-atomically: every cached access path of every column absorbs its
  /// value, every cached sideways cracker logs the row, then the base
  /// columns grow — all under a single fresh row id.
  Status Insert(std::string_view table, std::span<const std::int64_t> row);
  Status Insert(std::string_view table, std::initializer_list<std::int64_t> row) {
    return Insert(table, std::span<const std::int64_t>(row.begin(), row.size()));
  }

  /// Batch row insert: `rows` is row-major, size a multiple of the column
  /// count. Same row-atomic contract as Insert; validation covers the
  /// whole batch before any row applies.
  Status InsertBatch(std::string_view table,
                     std::span<const std::int64_t> rows);

  /// Deletes the first base row (lowest position) whose `column` value
  /// equals `value`, row-atomically across all columns, cached paths, and
  /// sideways maps. Returns ok(false) when no row matches — the table is
  /// untouched in that case.
  Result<bool> Delete(std::string_view table, std::string_view column,
                      std::int64_t value);

  /// Deletes *every* base row whose `column` value matches `pred`,
  /// row-atomically (same validate-then-apply contract as Delete, one
  /// bulk compaction pass over the base). Returns the number of rows
  /// removed. The dist layer's rebalance uses this to evacuate a migrated
  /// key range from the source shard.
  Result<std::size_t> DeleteWhere(std::string_view table,
                                  std::string_view column,
                                  const RangePredicate<std::int64_t>& pred);

  /// COUNT(*) over rows matching `req` — answered through the access path
  /// of `req.strategy` (created lazily and cached per column+strategy, so
  /// repeated requests adapt the same structure). With `req.context`, the
  /// context is checked at query entry and at piece granularity inside the
  /// crack loops: an expired or cancelled query returns DeadlineExceeded /
  /// Cancelled with the index ValidatePieces-clean, and cracks realized
  /// before expiry are KEPT (ordinary incremental indexing investment) —
  /// pending-update merges roll forward or park at a clean boundary,
  /// never mid-step.
  Result<std::size_t> Count(const QueryRequest& req);

  /// SUM(column) over rows matching `req`; same caching and context
  /// semantics as Count.
  Result<double> Sum(const QueryRequest& req);

  /// Sum before its one rounding step (SumAcc, index/scan.h): the exact
  /// 128-bit sum. Sum is RoundSum of this; the dist gather adds per-shard
  /// partials and rounds once, so a sharded Sum equals a single node's.
  Result<SumAcc<std::int64_t>> SumPartial(const QueryRequest& req);

  /// σ_predicate(column) projecting `req.tails`, via sideways cracking
  /// (one cracker map per projected column, adaptively aligned, maintained
  /// incrementally under DML).
  Result<ProjectionResult<std::int64_t>> SelectProject(const QueryRequest& req);

  /// Drops every cached adaptive structure (access paths and sideways
  /// maps); base tables are untouched.
  void ResetAdaptiveState();

  /// Soft memory budget (bytes) over auxiliary engine state — sideways
  /// maps and pending update stores. Under pressure the engine sheds cold
  /// sideways map state and falls back to scan-plus-crack-later for
  /// projections; it never fails a query. Also settable at construction
  /// via the AIDX_MEMORY_BUDGET env knob.
  void SetMemoryBudget(std::size_t bytes) { governor_.set_budget_bytes(bytes); }
  const ResourceGovernor& resource_governor() const { return governor_; }

  /// Read-only view of a cached sideways cracker (tests inspect map
  /// survival and stats through this); NotFound when no SelectProject has
  /// materialized one for (table, head).
  Result<const SidewaysCracker<std::int64_t>*> SidewaysState(
      std::string_view table, std::string_view head) const;

  const Catalog& catalog() const { return catalog_; }
  std::size_t num_cached_paths() const;
  std::size_t num_cached_sideways() const;

  /// Borrowed pool handed in via DatabaseOptions; null when none was.
  ThreadPool* thread_pool() const { return thread_pool_; }

  /// Aggregate gauges over the catalog and caches (dist ShardStats).
  DatabaseStats Stats() const;

  // -- Shard-migration hooks (src/dist/, docs/DISTRIBUTION.md) --------------

  /// Exports, per cached access path of (table, column), the realized cuts
  /// with values in [lo, hi] — the index investment a rebalance carries
  /// alongside the migrated rows. Paths without cut structure contribute
  /// nothing. NotFound when the table or column does not exist.
  Result<std::vector<ColumnCutExport>> ExportColumnCuts(
      std::string_view table, std::string_view column, std::int64_t lo,
      std::int64_t hi) const;

  /// Re-realizes carried cuts: for each export, the access path of its
  /// config is fetched (created lazily if absent — it then materializes
  /// over the post-migration base) and replays the bundle, so queries
  /// bounded at carried values perform zero new cracks.
  Status ReplayColumnCuts(std::string_view table, std::string_view column,
                          const std::vector<ColumnCutExport>& exports);

 private:
  /// One column's cached adaptive state: an access path per distinct
  /// StrategyConfig (linear match on ==; a column carries a handful at
  /// most) and the sideways cracker headed by this column, if any.
  struct ColumnState {
    std::vector<std::pair<StrategyConfig, std::unique_ptr<AccessPath<std::int64_t>>>>
        paths;
    std::unique_ptr<SidewaysCracker<std::int64_t>> sideways;
  };

  /// Resolves (table, column) to its int64 catalog column; NotFound or
  /// InvalidArgument as the catalog reports.
  Result<const TypedColumn<std::int64_t>*> Int64Column(std::string_view table,
                                                       std::string_view column) const;
  /// The cached state of `column`; null when nothing was ever cached.
  ColumnState* StateOf(const Column* column);
  const ColumnState* StateOf(const Column* column) const;
  Result<AccessPath<std::int64_t>*> PathFor(std::string_view table,
                                            std::string_view column,
                                            const StrategyConfig& config);
  Result<SidewaysCracker<std::int64_t>*> SidewaysFor(std::string_view table,
                                                     std::string_view head);
  /// The validate phase shared by every DML entry point: resolves the
  /// table and *all* its columns (type-checked), fires the fault hook.
  /// After it returns OK, the apply phase cannot fail.
  Result<Table*> PrepareRowDml(std::string_view table,
                               std::vector<TypedColumn<std::int64_t>*>* cols);
  /// The cached state of each of `cols`, in order (null where none).
  std::vector<ColumnState*> StatesOf(
      const std::vector<TypedColumn<std::int64_t>*>& cols);
  /// The apply phase shared by Delete and DeleteWhere: removes the rows at
  /// `positions` (strictly ascending) from every cached path, logs them to
  /// every sideways cracker, then erases them from the base. Cannot fail.
  void ApplyErase(Table* t, const std::vector<TypedColumn<std::int64_t>*>& cols,
                  std::span<const std::size_t> positions);
  /// Logs one appended row into `cracker` (head value + tails in the
  /// cracker's registration order).
  static void LogSidewaysInsert(SidewaysCracker<std::int64_t>& cracker,
                                std::string_view head,
                                const std::vector<std::string>& names,
                                std::span<const std::int64_t> row, row_id_t rid);
  /// Pressure reaction: drops every cached sideways cracker except `keep`
  /// (maps are pure acceleration state and rebuild on demand).
  void ShedSidewaysExcept(const SidewaysCracker<std::int64_t>* keep);
  /// Current bytes of the governed state: cached sideways maps, and
  /// deferred updates over every cached path.
  std::size_t SidewaysBytes() const;
  std::size_t PendingBytes() const;
  /// Scan-plus-crack-later projection: answers σ_pred(head) ⋉ tails by
  /// scanning the base columns, materializing no sideways map.
  Result<ProjectionResult<std::int64_t>> ScanProject(
      std::string_view table, std::string_view head,
      const RangePredicate<std::int64_t>& pred,
      const std::vector<std::string>& tails) const;

  Catalog catalog_;
  ThreadPool* thread_pool_ = nullptr;  // borrowed (DatabaseOptions)
  std::unordered_map<const Column*, ColumnState> columns_;
  ResourceGovernor governor_;
};

}  // namespace aidx
