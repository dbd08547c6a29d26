#include "exec/engine.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "util/failpoint.h"

namespace aidx {

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
    : thread_pool_(options.thread_pool), governor_(options.memory_budget) {}

Status Database::CreateTable(std::string name) {
  return catalog_.CreateTable(std::move(name)).status();
}

Status Database::AddColumn(std::string_view table, std::string column,
                           std::vector<std::int64_t> values) {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_RETURN_NOT_OK(t->AddColumn<std::int64_t>(std::move(column), std::move(values)));
  // Schema change: cached sideways crackers registered their tails at
  // creation and would not know the new column; rebuild on next use.
  for (const std::string& name : t->column_names()) {
    if (ColumnState* state = StateOf(*t->GetColumn(name))) state->sideways.reset();
  }
  return Status::OK();
}

Result<const TypedColumn<std::int64_t>*> Database::Int64Column(
    std::string_view table, std::string_view column) const {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  return t->GetTypedColumn<std::int64_t>(column);
}

Database::ColumnState* Database::StateOf(const Column* column) {
  const auto it = columns_.find(column);
  return it == columns_.end() ? nullptr : &it->second;
}

const Database::ColumnState* Database::StateOf(const Column* column) const {
  const auto it = columns_.find(column);
  return it == columns_.end() ? nullptr : &it->second;
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

std::vector<Database::ColumnState*> Database::StatesOf(
    const std::vector<TypedColumn<std::int64_t>*>& cols) {
  std::vector<ColumnState*> states(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) states[i] = StateOf(cols[i]);
  return states;
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
  // Cached state first: paths that have not materialized yet snapshot the
  // base span now, while it is still untouched.
  const std::vector<ColumnState*> states = StatesOf(cols);
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (states[i] == nullptr) continue;
    for (auto& [config, path] : states[i]->paths) path->Insert(row[i]);
    if (states[i]->sideways) {
      LogSidewaysInsert(*states[i]->sideways, names[i], names, row, rid);
    }
  }
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
  const std::vector<ColumnState*> states = StatesOf(cols);
  std::vector<std::int64_t> column_values(num_rows);
  for (std::size_t c = 0; c < width; ++c) {
    if (states[c] == nullptr || states[c]->paths.empty()) continue;
    for (std::size_t r = 0; r < num_rows; ++r) {
      column_values[r] = rows[r * width + c];
    }
    for (auto& [config, path] : states[c]->paths) path->InsertBatch(column_values);
  }
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::span<const std::int64_t> row = rows.subspan(r * width, width);
    const row_id_t rid = t->AllocateRowId();
    for (std::size_t c = 0; c < width; ++c) {
      if (states[c] != nullptr && states[c]->sideways) {
        LogSidewaysInsert(*states[c]->sideways, names[c], names, row, rid);
      }
    }
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
  // How many rows hold `value`: the key column's first cached path answers
  // the [value, value] count from the index reads built (and refines it, as
  // any read would), which bounds the base scan below. With no cached path
  // the scan reads the whole column.
  std::size_t matches = std::numeric_limits<std::size_t>::max();
  if (const ColumnState* state = StateOf(cols[key]);
      state != nullptr && !state->paths.empty()) {
    matches = state->paths.front().second->Count(
        RangePredicate<std::int64_t>::Between(value, value));
    if (matches == 0) return false;  // no row matches: no-op
  }
  const auto key_values = cols[key]->Values();
  const auto row_ids = t->row_ids();
  const std::size_t pos = LowestRidPosition<std::int64_t>(key_values, row_ids, value, matches);
  AIDX_DCHECK(pos == LowestRidPosition<std::int64_t>(key_values, row_ids, value))
      << "the path's count of " << value << " disagrees with the base";
  if (pos == key_values.size()) return false;  // no row matches: no-op
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
  const auto row_ids = t->row_ids();
  const std::vector<ColumnState*> states = StatesOf(cols);
  for (const std::size_t pos : positions) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (states[i] == nullptr) continue;
      const std::int64_t value = cols[i]->Values()[pos];
      for (auto& [config, path] : states[i]->paths) {
        const bool removed = path->Delete(value);
        // Paths mirror the base multiset, so the tuple must exist there too.
        AIDX_DCHECK(removed);
        (void)removed;
      }
      if (states[i]->sideways) states[i]->sideways->ApplyDelete(row_ids[pos], value);
    }
  }
  AIDX_CHECK_OK(t->EraseRows(positions));
}

Result<AccessPath<std::int64_t>*> Database::PathFor(std::string_view table,
                                                    std::string_view column,
                                                    const StrategyConfig& config) {
  AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* col,
                        Int64Column(table, column));
  auto& paths = columns_[col].paths;
  for (auto& [cached, path] : paths) {
    if (cached == config) return path.get();
  }
  paths.emplace_back(config, MakeAccessPath<std::int64_t>(col->Values(), config));
  return paths.back().second.get();
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
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* col,
                        t->GetTypedColumn<std::int64_t>(head));
  std::unique_ptr<SidewaysCracker<std::int64_t>>& slot = columns_[col].sideways;
  if (slot) return slot.get();
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
  slot = std::move(cracker);
  return slot.get();
}

Result<ProjectionResult<std::int64_t>> Database::SelectProject(
    const QueryRequest& req) {
  const std::string_view table = req.table;
  const std::string_view head = req.column;
  const RangePredicate<std::int64_t>& pred = req.predicate;
  const std::vector<std::string>& tails = req.tails;
  AIDX_ASSIGN_OR_RETURN(SidewaysCracker<std::int64_t> * cracker,
                        SidewaysFor(table, head));
  // Soft-budget admission over the map bytes this query would newly pin,
  // on top of the governed bytes summed fresh. Denial degrades, never
  // fails: first shed cold sideways state, then — if the incoming maps
  // still do not fit — answer at scan speed without materializing anything
  // (scan-plus-crack-later); investment resumes once pressure clears.
  if (!governor_.unlimited()) {
    std::size_t incoming = 0;
    for (const std::string& tail : tails) {
      if (cracker->PeekMap(tail) == nullptr) incoming += cracker->per_map_bytes();
    }
    if (!governor_.Admit(SidewaysBytes() + PendingBytes(), incoming)) {
      ShedSidewaysExcept(cracker);
      governor_.CountShed();
      if (!governor_.Admit(SidewaysBytes() + PendingBytes(), incoming)) {
        return ScanProject(table, head, pred, tails);
      }
    }
  }
  return cracker->SelectProject(pred, tails);
}

Result<ProjectionResult<std::int64_t>> Database::ScanProject(
    std::string_view table, std::string_view head,
    const RangePredicate<std::int64_t>& pred,
    const std::vector<std::string>& tails) const {
  if (tails.empty()) {
    return Status::InvalidArgument("select-project needs at least one tail column");
  }
  AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* head_col,
                        Int64Column(table, head));
  const auto head_span = head_col->Values();
  std::vector<std::span<const std::int64_t>> tail_spans;
  tail_spans.reserve(tails.size());
  for (const std::string& tail : tails) {
    AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* col, Int64Column(table, tail));
    tail_spans.push_back(col->Values());
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

void Database::ShedSidewaysExcept(const SidewaysCracker<std::int64_t>* keep) {
  for (auto& [col, state] : columns_) {
    if (state.sideways.get() != keep) state.sideways.reset();
  }
}

std::size_t Database::SidewaysBytes() const {
  std::size_t bytes = 0;
  for (const auto& [col, state] : columns_) {
    if (state.sideways) bytes += state.sideways->MemoryUsageBytes();
  }
  return bytes;
}

std::size_t Database::PendingBytes() const {
  std::size_t bytes = 0;
  for (const auto& [col, state] : columns_) {
    for (const auto& [config, path] : state.paths) bytes += path->approx_pending_bytes();
  }
  return bytes;
}

Result<const SidewaysCracker<std::int64_t>*> Database::SidewaysState(
    std::string_view table, std::string_view head) const {
  AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* col, Int64Column(table, head));
  const ColumnState* state = StateOf(col);
  if (state == nullptr || !state->sideways) {
    return Status::NotFound("no cached sideways cracker for '" + std::string(table) +
                            "." + std::string(head) + "'");
  }
  return static_cast<const SidewaysCracker<std::int64_t>*>(state->sideways.get());
}

void Database::ResetAdaptiveState() { columns_.clear(); }

std::size_t Database::num_cached_paths() const {
  std::size_t n = 0;
  for (const auto& [col, state] : columns_) n += state.paths.size();
  return n;
}

std::size_t Database::num_cached_sideways() const {
  std::size_t n = 0;
  for (const auto& [col, state] : columns_) n += state.sideways ? 1 : 0;
  return n;
}

DatabaseStats Database::Stats() const {
  DatabaseStats out;
  out.tables = catalog_.size();
  for (const std::string& name : catalog_.TableNames()) {
    const auto table = catalog_.GetTable(name);
    if (table.ok()) out.rows += (*table)->num_rows();
  }
  out.cached_paths = num_cached_paths();
  out.cached_sideways = num_cached_sideways();
  out.pending_update_bytes = PendingBytes();
  out.under_pressure =
      governor_.OverBudget(SidewaysBytes() + out.pending_update_bytes);
  out.admission_denials = governor_.admission_denials();
  out.sheds = governor_.sheds();
  for (const auto& [col, state] : columns_) {
    for (const auto& [config, path] : state.paths) {
      out.cracked_pieces += path->num_cracked_pieces();
      out.crack += path->crack_stats();
    }
  }
  return out;
}

Result<std::vector<ColumnCutExport>> Database::ExportColumnCuts(
    std::string_view table, std::string_view column, std::int64_t lo,
    std::int64_t hi) const {
  AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* col, Int64Column(table, column));
  std::vector<ColumnCutExport> out;
  const ColumnState* state = StateOf(col);
  if (state == nullptr) return out;
  for (const auto& [config, path] : state->paths) {
    ColumnCutExport entry;
    entry.config = config;
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
