#include "storage/table.h"

#include "util/failpoint.h"
#include "util/logging.h"

namespace aidx {

Status Table::AddColumn(std::unique_ptr<Column> column) {
  // Entry gate, before any validation state is read: an injected failure
  // leaves the table untouched (schema changes are validate-then-mutate).
  AIDX_RETURN_NOT_OK(failpoints::storage_add_column.Inject());
  if (column == nullptr) {
    return Status::InvalidArgument("cannot add null column to table '" + name_ + "'");
  }
  const std::string& col_name = column->name();
  if (col_name.empty()) {
    return Status::InvalidArgument("column name must be non-empty");
  }
  if (columns_.contains(col_name)) {
    return Status::AlreadyExists("column '" + col_name + "' already exists in table '" +
                                 name_ + "'");
  }
  if (!columns_.empty() && column->size() != num_rows()) {
    return Status::InvalidArgument(
        "column '" + col_name + "' has " + std::to_string(column->size()) +
        " rows; table '" + name_ + "' has " + std::to_string(num_rows()));
  }
  const bool first_column = columns_.empty();
  order_.push_back(col_name);
  columns_.emplace(col_name, std::move(column));
  // The first column defines the row count; identity assigned before it
  // existed (an empty table) is stale, so let it re-initialize on demand.
  if (first_column) {
    row_ids_.clear();
    row_ids_initialized_ = false;
  }
  return Status::OK();
}

void Table::EnsureRowIds() {
  if (row_ids_initialized_) return;
  const std::size_t n = num_rows();
  row_ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) row_ids_[i] = static_cast<row_id_t>(i);
  if (next_row_id_ < n) next_row_id_ = static_cast<row_id_t>(n);
  row_ids_initialized_ = true;
}

std::span<const row_id_t> Table::row_ids() {
  EnsureRowIds();
  return row_ids_;
}

row_id_t Table::AllocateRowId() {
  EnsureRowIds();
  return next_row_id_++;
}

void Table::CommitAppendedRow(row_id_t rid) {
  // Delay-only point: commit sits inside the cannot-fail apply phase of
  // row-atomic DML, so errors have nowhere to surface — but a delay here
  // widens races for the concurrency harnesses.
  (void)failpoints::storage_commit_row.Inject();
  AIDX_DCHECK(row_ids_initialized_);
  AIDX_DCHECK(row_ids_.size() + 1 == num_rows())
      << "CommitAppendedRow before every column appended the row";
  row_ids_.push_back(rid);
}

Status Table::EraseRows(std::span<const std::size_t> sorted_positions) {
  if (sorted_positions.empty()) return Status::OK();
  for (std::size_t i = 0; i < sorted_positions.size(); ++i) {
    if (sorted_positions[i] >= num_rows()) {
      return Status::OutOfRange("row " + std::to_string(sorted_positions[i]) +
                                " out of range; table '" + name_ + "' has " +
                                std::to_string(num_rows()) + " rows");
    }
    if (i > 0 && sorted_positions[i] <= sorted_positions[i - 1]) {
      return Status::InvalidArgument(
          "EraseRows positions must be strictly ascending");
    }
  }
  EnsureRowIds();
  for (auto& [_, col] : columns_) {
    for (auto it = sorted_positions.rbegin(); it != sorted_positions.rend(); ++it) {
      col->SwapRemove(*it);
    }
  }
  for (auto it = sorted_positions.rbegin(); it != sorted_positions.rend(); ++it) {
    row_ids_[*it] = row_ids_.back();
    row_ids_.pop_back();
  }
  return Status::OK();
}

Result<Column*> Table::GetColumn(std::string_view column_name) const {
  const auto it = columns_.find(column_name);
  if (it == columns_.end()) {
    return Status::NotFound("no column '" + std::string(column_name) + "' in table '" +
                            name_ + "'");
  }
  return it->second.get();
}

std::size_t Table::MemoryUsageBytes() const {
  std::size_t total = 0;
  for (const auto& [_, col] : columns_) total += col->MemoryUsageBytes();
  return total;
}

}  // namespace aidx
