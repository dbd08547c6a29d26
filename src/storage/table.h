// Tables: named collections of equal-length columns.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/column.h"
#include "storage/types.h"
#include "util/result.h"
#include "util/status.h"

namespace aidx {

/// Transparent hash for name-keyed maps: with std::equal_to<> it lets
/// find() take a string_view without building a std::string.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const {
    return std::hash<std::string_view>{}(name);
  }
};

/// A table is a bag of equal-length columns addressed by name, plus one row
/// identity per position. Positions shift as rows are erased; row ids are
/// stable for a row's lifetime and unique for the table's — they are what
/// lets cached structures (sideways cracker maps) address tuples across
/// base reorganizations. The table allocates ids; the Database facade is
/// the single writer that keeps columns, ids, and cached structures in a
/// row-atomic lock step (docs/UPDATES.md §5).
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  AIDX_DEFAULT_MOVE_ONLY(Table);

  const std::string& name() const { return name_; }
  std::size_t num_columns() const { return columns_.size(); }
  /// Number of rows; 0 for a table with no columns.
  std::size_t num_rows() const {
    return columns_.empty() ? 0 : columns_.begin()->second->size();
  }

  /// Adds a column; fails if the name exists or the length disagrees with
  /// the table's current row count (unless the table is empty).
  Status AddColumn(std::unique_ptr<Column> column);

  /// Typed helper: builds and adds a column from a vector in one step.
  template <ColumnValue T>
  Status AddColumn(std::string column_name, std::vector<T> values) {
    return AddColumn(MakeColumn<T>(std::move(column_name), std::move(values)));
  }

  /// Looks a column up by name.
  Result<Column*> GetColumn(std::string_view column_name) const;

  /// Typed lookup combining GetColumn and Column::As<T>.
  template <ColumnValue T>
  Result<const TypedColumn<T>*> GetTypedColumn(std::string_view column_name) const {
    AIDX_ASSIGN_OR_RETURN(Column * col, GetColumn(column_name));
    return static_cast<const Column*>(col)->As<T>();
  }

  /// Column names in insertion order.
  const std::vector<std::string>& column_names() const { return order_; }

  /// Row ids by position (lazily initialized to 0..num_rows-1 the first
  /// time row identity is needed). Invalidated by the next DML call.
  std::span<const row_id_t> row_ids();

  /// Hands out the next fresh row id (one allocation per row, shared by
  /// every column and cached structure of that row).
  row_id_t AllocateRowId();

  /// Records the id of a row whose values have just been appended to every
  /// column. Call exactly once per row, after the appends.
  void CommitAppendedRow(row_id_t rid);

  /// Erases the row at `pos` from every column (order-preserving) and
  /// retires its id.
  Status EraseRow(std::size_t pos) {
    return EraseRows(std::span<const std::size_t>(&pos, 1));
  }

  /// Erases the rows at `sorted_positions` (strictly ascending) from every
  /// column in one compaction pass each, retiring their ids — the bulk
  /// form shard rebalance uses to evacuate a migrated key range.
  Status EraseRows(std::span<const std::size_t> sorted_positions);

  /// Total payload bytes across columns.
  std::size_t MemoryUsageBytes() const;

 private:
  void EnsureRowIds();

  std::string name_;
  std::vector<std::string> order_;
  std::unordered_map<std::string, std::unique_ptr<Column>, NameHash, std::equal_to<>>
      columns_;
  std::vector<row_id_t> row_ids_;
  row_id_t next_row_id_ = 0;
  bool row_ids_initialized_ = false;
};

}  // namespace aidx
