#include "exec/engine.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "util/failpoint.h"

namespace aidx {

namespace internal {
namespace {

std::size_t HashCombine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

std::size_t PathKeyHash::operator()(const PathKey& key) const {
  std::size_t h = std::hash<std::string>{}(key.table);
  h = HashCombine(h, std::hash<std::string>{}(key.column));
  const StrategyConfig& c = key.config;
  h = HashCombine(h, static_cast<std::size_t>(c.kind));
  h = HashCombine(h, c.min_piece_size);
  h = HashCombine(h, c.stochastic_threshold);
  h = HashCombine(h, static_cast<std::size_t>(c.seed));
  h = HashCombine(h, c.run_size);
  h = HashCombine(h, static_cast<std::size_t>(c.hybrid_initial));
  h = HashCombine(h, static_cast<std::size_t>(c.hybrid_final));
  h = HashCombine(h, static_cast<std::size_t>(c.radix_bits));
  h = HashCombine(h, c.num_partitions);
  h = HashCombine(h, c.num_threads);
  h = HashCombine(h, static_cast<std::size_t>(c.merge_policy));
  h = HashCombine(h, c.gradual_budget);
  h = HashCombine(h, static_cast<std::size_t>(c.with_row_ids));
  h = HashCombine(h, static_cast<std::size_t>(c.crack_kernel));
  h = HashCombine(h, c.latch_stripes);
  h = HashCombine(h, c.background_merge_threshold);
  return h;
}

}  // namespace internal

namespace {

/// Position of `name` in `names`; names.size() when absent.
std::size_t IndexOf(const std::vector<std::string>& names, std::string_view name) {
  return static_cast<std::size_t>(std::find(names.begin(), names.end(), name) -
                                  names.begin());
}

/// Index of the key column `column` in `t.column_names()`; NotFound when
/// absent.
Result<std::size_t> KeyIndex(const Table& t, std::string_view column) {
  const std::size_t i = IndexOf(t.column_names(), column);
  if (i == t.num_columns()) {
    return t.GetColumn(column).status();  // NotFound with the usual message
  }
  return i;
}

}  // namespace

DatabaseOptions DatabaseOptions::FromEnv() {
  DatabaseOptions options;
  if (const char* env = std::getenv("AIDX_MEMORY_BUDGET")) {
    char* end = nullptr;
    const unsigned long long bytes = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') {
      options.memory_budget = static_cast<std::size_t>(bytes);
    }
  }
  return options;
}

Database::Database(const DatabaseOptions& options)
    : thread_pool_(options.thread_pool) {
  governor_->set_budget_bytes(options.memory_budget);
}

Status Database::CreateTable(std::string name) {
  return catalog_.CreateTable(std::move(name)).status();
}

Status Database::AddColumn(std::string_view table, std::string column,
                           std::vector<std::int64_t> values) {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_RETURN_NOT_OK(t->AddColumn<std::int64_t>(std::move(column), std::move(values)));
  // Schema change: cached sideways crackers registered their tails at
  // creation and would not know the new column; rebuild on next use.
  DropSideways(table);
  return Status::OK();
}

Result<std::span<const std::int64_t>> Database::ColumnSpan(
    std::string_view table, std::string_view column) const {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* col,
                        t->GetTypedColumn<std::int64_t>(column));
  return col->Values();
}

void Database::DropSideways(std::string_view table) {
  std::string prefix;
  prefix.reserve(table.size() + 1);
  prefix.append(table);
  prefix.push_back('.');
  for (auto it = sideways_.begin(); it != sideways_.end();) {
    if (it->first.starts_with(prefix)) {
      it = sideways_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<Table*> Database::PrepareRowDml(
    std::string_view table, std::vector<TypedColumn<std::int64_t>*>* cols) {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  if (t->num_columns() == 0) {
    return Status::InvalidArgument("table '" + t->name() + "' has no columns");
  }
  cols->clear();
  cols->reserve(t->num_columns());
  for (const std::string& name : t->column_names()) {
    AIDX_ASSIGN_OR_RETURN(Column * raw, t->GetColumn(name));
    AIDX_ASSIGN_OR_RETURN(TypedColumn<std::int64_t> * typed,
                          raw->As<std::int64_t>());
    cols->push_back(typed);
  }
  // Validate-phase fault injection: one scoped evaluation per column, so a
  // policy can target "table\x1fcolumn" precisely. The scope string is
  // only built when the point is armed.
  if (AIDX_PREDICT_FALSE(failpoints::engine_dml_validate.armed())) {
    for (const std::string& name : t->column_names()) {
      std::string scope;
      scope.reserve(t->name().size() + 1 + name.size());
      scope.append(t->name());
      scope.push_back(kFailpointScopeSep);
      scope.append(name);
      AIDX_RETURN_NOT_OK(failpoints::engine_dml_validate.Inject(scope));
    }
  }
  return t;
}

void Database::LogSidewaysInsert(SidewaysCracker<std::int64_t>& cracker,
                                 std::string_view head,
                                 const std::vector<std::string>& names,
                                 std::span<const std::int64_t> row,
                                 row_id_t rid) {
  const auto value_of = [&](std::string_view name) {
    const std::size_t i = IndexOf(names, name);
    AIDX_CHECK(i < names.size()) << "sideways column '" << name << "' missing from table";
    return row[i];
  };
  std::vector<std::int64_t> tails;
  tails.reserve(cracker.registered_tails().size());
  for (const std::string& tail_name : cracker.registered_tails()) {
    tails.push_back(value_of(tail_name));
  }
  cracker.ApplyInsert(rid, value_of(head), std::move(tails));
}

Status Database::Insert(std::string_view table,
                        std::span<const std::int64_t> row) {
  std::vector<TypedColumn<std::int64_t>*> cols;
  AIDX_ASSIGN_OR_RETURN(Table * t, PrepareRowDml(table, &cols));
  if (row.size() != cols.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values; table '" + t->name() +
        "' has " + std::to_string(cols.size()) + " columns");
  }
  // Validate phase done — nothing below can fail (row-atomicity).
  const row_id_t rid = t->AllocateRowId();
  const std::vector<std::string>& names = t->column_names();
  // Paths first: ones that have not materialized yet snapshot the base
  // span now, while it is still untouched.
  for (std::size_t i = 0; i < cols.size(); ++i) {
    ForEachPathOf(table, names[i],
                  [&](AccessPath<std::int64_t>& path) { path.Insert(row[i]); });
  }
  ForEachSidewaysOf(table, [&](std::string_view head,
                               SidewaysCracker<std::int64_t>& cracker) {
    LogSidewaysInsert(cracker, head, names, row, rid);
  });
  for (std::size_t i = 0; i < cols.size(); ++i) cols[i]->Append(row[i]);
  t->CommitAppendedRow(rid);
  return Status::OK();
}

Status Database::InsertBatch(std::string_view table,
                             std::span<const std::int64_t> rows) {
  std::vector<TypedColumn<std::int64_t>*> cols;
  AIDX_ASSIGN_OR_RETURN(Table * t, PrepareRowDml(table, &cols));
  const std::size_t width = cols.size();
  if (rows.size() % width != 0) {
    return Status::InvalidArgument(
        "row-major batch of " + std::to_string(rows.size()) +
        " values is not a multiple of " + std::to_string(width) + " columns");
  }
  const std::size_t num_rows = rows.size() / width;
  if (num_rows == 0) return Status::OK();
  // Validate phase done — nothing below can fail (row-atomicity).
  const std::vector<std::string>& names = t->column_names();
  std::vector<std::int64_t> column_values(num_rows);
  for (std::size_t c = 0; c < width; ++c) {
    for (std::size_t r = 0; r < num_rows; ++r) {
      column_values[r] = rows[r * width + c];
    }
    ForEachPathOf(table, names[c], [&](AccessPath<std::int64_t>& path) {
      path.InsertBatch(column_values);
    });
  }
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::span<const std::int64_t> row = rows.subspan(r * width, width);
    const row_id_t rid = t->AllocateRowId();
    ForEachSidewaysOf(table, [&](std::string_view head,
                                 SidewaysCracker<std::int64_t>& cracker) {
      LogSidewaysInsert(cracker, head, names, row, rid);
    });
    for (std::size_t c = 0; c < width; ++c) cols[c]->Append(row[c]);
    t->CommitAppendedRow(rid);
  }
  return Status::OK();
}

Result<bool> Database::Delete(std::string_view table, std::string_view column,
                              std::int64_t value) {
  std::vector<TypedColumn<std::int64_t>*> cols;
  AIDX_ASSIGN_OR_RETURN(Table * t, PrepareRowDml(table, &cols));
  AIDX_ASSIGN_OR_RETURN(const std::size_t key, KeyIndex(*t, column));
  const auto key_values = cols[key]->Values();
  const auto victim = std::find(key_values.begin(), key_values.end(), value);
  if (victim == key_values.end()) return false;  // no row matches: no-op
  const std::size_t pos = static_cast<std::size_t>(victim - key_values.begin());
  ApplyErase(t, cols, std::span<const std::size_t>(&pos, 1));
  return true;
}

Result<std::size_t> Database::DeleteWhere(
    std::string_view table, std::string_view column,
    const RangePredicate<std::int64_t>& pred) {
  std::vector<TypedColumn<std::int64_t>*> cols;
  AIDX_ASSIGN_OR_RETURN(Table * t, PrepareRowDml(table, &cols));
  AIDX_ASSIGN_OR_RETURN(const std::size_t key, KeyIndex(*t, column));
  const auto key_values = cols[key]->Values();
  std::vector<std::size_t> victims;
  for (std::size_t pos = 0; pos < key_values.size(); ++pos) {
    if (pred.Matches(key_values[pos])) victims.push_back(pos);
  }
  if (!victims.empty()) ApplyErase(t, cols, victims);
  return victims.size();
}

void Database::ApplyErase(Table* t,
                          const std::vector<TypedColumn<std::int64_t>*>& cols,
                          std::span<const std::size_t> positions) {
  // The validate phase is done, so nothing here can fail (row atomicity).
  // Each doomed row is read from the base, which changes only at the end.
  const std::vector<std::string>& names = t->column_names();
  const auto row_ids = t->row_ids();
  std::vector<std::int64_t> row(cols.size());
  for (const std::size_t pos : positions) {
    for (std::size_t i = 0; i < cols.size(); ++i) row[i] = cols[i]->Values()[pos];
    for (std::size_t i = 0; i < cols.size(); ++i) {
      ForEachPathOf(t->name(), names[i], [&](AccessPath<std::int64_t>& path) {
        const bool removed = path.Delete(row[i]);
        // Paths mirror the base multiset, so the tuple must exist there too.
        AIDX_DCHECK(removed);
        (void)removed;
      });
    }
    ForEachSidewaysOf(t->name(), [&](std::string_view head,
                                     SidewaysCracker<std::int64_t>& cracker) {
      const std::size_t head_index = IndexOf(names, head);
      AIDX_CHECK(head_index < names.size());
      cracker.ApplyDelete(row_ids[pos], row[head_index]);
    });
  }
  AIDX_CHECK_OK(t->EraseRows(positions));
}

Result<AccessPath<std::int64_t>*> Database::PathFor(std::string_view table,
                                                    std::string_view column,
                                                    const StrategyConfig& config) {
  internal::PathKey key{std::string(table), std::string(column), config};
  const auto it = paths_.find(key);
  if (it != paths_.end()) return it->second.get();
  AIDX_ASSIGN_OR_RETURN(const auto span, ColumnSpan(table, column));
  auto path = MakeAccessPath<std::int64_t>(span, config);
  AccessPath<std::int64_t>* raw = path.get();
  paths_.emplace(std::move(key), std::move(path));
  return raw;
}

Result<std::size_t> Database::Count(const QueryRequest& req) {
  AIDX_ASSIGN_OR_RETURN(AccessPath<std::int64_t> * path,
                        PathFor(req.table, req.column, req.strategy));
  if (!req.context.has_value()) return path->Count(req.predicate);
  return path->Count(req.predicate, *req.context);
}

Result<double> Database::Sum(const QueryRequest& req) {
  AIDX_ASSIGN_OR_RETURN(const SumAcc<std::int64_t> sum, SumPartial(req));
  return static_cast<double>(RoundSum<std::int64_t>(sum));
}

Result<SumAcc<std::int64_t>> Database::SumPartial(const QueryRequest& req) {
  AIDX_ASSIGN_OR_RETURN(AccessPath<std::int64_t> * path,
                        PathFor(req.table, req.column, req.strategy));
  if (!req.context.has_value()) return path->SumPartial(req.predicate);
  return path->SumPartial(req.predicate, *req.context);
}

Result<SidewaysCracker<std::int64_t>*> Database::SidewaysFor(std::string_view table,
                                                             std::string_view head) {
  std::string key;
  key.reserve(table.size() + head.size() + 1);
  key.append(table);
  key.push_back('.');
  key.append(head);
  const auto it = sideways_.find(key);
  if (it != sideways_.end()) return it->second.get();

  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_RETURN_NOT_OK(t->GetTypedColumn<std::int64_t>(head).status());
  // Spans are fetched per access and DML feeds the cracker's operation
  // log, so maps survive writes.
  auto cracker = std::make_unique<SidewaysCracker<std::int64_t>>(
      t, std::string(head));
  // Register every other int64 column of the table as a potential tail.
  for (const std::string& name : t->column_names()) {
    if (name == head) continue;
    AIDX_ASSIGN_OR_RETURN(Column * col, t->GetColumn(name));
    if (col->type() != DataType::kInt64) continue;
    AIDX_RETURN_NOT_OK(cracker->AddTailColumn(name));
  }
  SidewaysCracker<std::int64_t>* raw = cracker.get();
  sideways_.emplace(std::move(key), std::move(cracker));
  return raw;
}

Result<ProjectionResult<std::int64_t>> Database::SelectProject(
    const QueryRequest& req) {
  const std::string_view table = req.table;
  const std::string_view head = req.column;
  const RangePredicate<std::int64_t>& pred = req.predicate;
  const std::vector<std::string>& tails = req.tails;
  AIDX_ASSIGN_OR_RETURN(SidewaysCracker<std::int64_t> * cracker,
                        SidewaysFor(table, head));
  // Soft-budget admission over the map bytes this query would newly pin.
  // Denial degrades, never fails: first shed cold sideways state, then —
  // if the incoming maps still do not fit — answer at scan speed without
  // materializing anything (scan-plus-crack-later); investment resumes
  // once pressure clears.
  std::size_t incoming = 0;
  for (const std::string& tail : tails) {
    if (cracker->PeekMap(tail) == nullptr) incoming += cracker->per_map_bytes();
  }
  SyncResourceGauges();
  if (!governor_->Admit(incoming)) {
    std::string keep;
    keep.reserve(table.size() + head.size() + 1);
    keep.append(table);
    keep.push_back('.');
    keep.append(head);
    governor_->SetPressureCallback([this, &keep] { ShedSidewaysExcept(keep); });
    governor_->MaybeShed(incoming);
    governor_->SetPressureCallback(nullptr);
    SyncResourceGauges();
    if (!governor_->Admit(incoming)) {
      return ScanProject(table, head, pred, tails);
    }
  }
  auto result = cracker->SelectProject(pred, tails);
  SyncResourceGauges();
  return result;
}

Result<ProjectionResult<std::int64_t>> Database::ScanProject(
    std::string_view table, std::string_view head,
    const RangePredicate<std::int64_t>& pred,
    const std::vector<std::string>& tails) const {
  if (tails.empty()) {
    return Status::InvalidArgument("select-project needs at least one tail column");
  }
  AIDX_ASSIGN_OR_RETURN(const auto head_span, ColumnSpan(table, head));
  std::vector<std::span<const std::int64_t>> tail_spans;
  tail_spans.reserve(tails.size());
  for (const std::string& tail : tails) {
    AIDX_ASSIGN_OR_RETURN(const auto span, ColumnSpan(table, tail));
    tail_spans.push_back(span);
  }
  ProjectionResult<std::int64_t> out;
  out.column_names = tails;
  out.columns.resize(tails.size());
  for (std::size_t i = 0; i < head_span.size(); ++i) {
    if (!pred.Matches(head_span[i])) continue;
    for (std::size_t c = 0; c < tail_spans.size(); ++c) {
      out.columns[c].push_back(tail_spans[c][i]);
    }
    ++out.num_rows;
  }
  return out;
}

void Database::ShedSidewaysExcept(const std::string& keep) {
  for (auto it = sideways_.begin(); it != sideways_.end();) {
    if (it->first != keep) {
      it = sideways_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t Database::SidewaysBytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, cracker] : sideways_) bytes += cracker->MemoryUsageBytes();
  return bytes;
}

std::size_t Database::PendingBytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, path] : paths_) bytes += path->approx_pending_bytes();
  return bytes;
}

void Database::SyncResourceGauges() {
  governor_->SetUsage(ResourceComponent::kSidewaysMaps, SidewaysBytes());
  governor_->SetUsage(ResourceComponent::kPendingUpdates, PendingBytes());
}

Result<const SidewaysCracker<std::int64_t>*> Database::SidewaysState(
    std::string_view table, std::string_view head) const {
  std::string key;
  key.reserve(table.size() + head.size() + 1);
  key.append(table);
  key.push_back('.');
  key.append(head);
  const auto it = sideways_.find(key);
  if (it == sideways_.end()) {
    return Status::NotFound("no cached sideways cracker for '" + key + "'");
  }
  return static_cast<const SidewaysCracker<std::int64_t>*>(it->second.get());
}

void Database::ResetAdaptiveState() {
  paths_.clear();
  sideways_.clear();
}

DatabaseStats Database::Stats() const {
  DatabaseStats out;
  out.tables = catalog_.size();
  for (const std::string& name : catalog_.TableNames()) {
    const auto table = catalog_.GetTable(name);
    if (table.ok()) out.rows += (*table)->num_rows();
  }
  out.cached_paths = paths_.size();
  out.cached_sideways = sideways_.size();
  out.pending_update_bytes = PendingBytes();
  // Fresh totals, not the governor's gauges: those are synced only by
  // SelectProject's admission, and any DML since then has moved them.
  out.under_pressure =
      governor_->OverBudget(SidewaysBytes() + out.pending_update_bytes);
  for (const auto& [key, path] : paths_) {
    out.cracked_pieces += path->num_cracked_pieces();
    const CrackerStats s = path->crack_stats();
    out.crack.num_selects += s.num_selects;
    out.crack.num_crack_in_two += s.num_crack_in_two;
    out.crack.num_crack_in_three += s.num_crack_in_three;
    out.crack.num_stochastic_cracks += s.num_stochastic_cracks;
    out.crack.values_touched += s.values_touched;
  }
  return out;
}

Result<std::vector<ColumnCutExport>> Database::ExportColumnCuts(
    std::string_view table, std::string_view column, std::int64_t lo,
    std::int64_t hi) const {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_RETURN_NOT_OK(t->GetTypedColumn<std::int64_t>(column).status());
  std::vector<ColumnCutExport> out;
  for (const auto& [key, path] : paths_) {
    if (key.table != table || key.column != column) continue;
    ColumnCutExport entry;
    entry.config = key.config;
    path->ExportCuts(lo, hi, &entry.bundle);
    if (!entry.bundle.empty()) out.push_back(std::move(entry));
  }
  return out;
}

Status Database::ReplayColumnCuts(std::string_view table,
                                  std::string_view column,
                                  const std::vector<ColumnCutExport>& exports) {
  for (const ColumnCutExport& entry : exports) {
    AIDX_ASSIGN_OR_RETURN(AccessPath<std::int64_t> * path,
                          PathFor(table, column, entry.config));
    path->ReplayCuts(entry.bundle.cuts);
  }
  return Status::OK();
}

}  // namespace aidx
