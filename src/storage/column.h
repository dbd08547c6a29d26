// Columns: fixed-width dense arrays, the storage unit of the substrate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/status.h"

namespace aidx {

template <ColumnValue T>
class TypedColumn;

/// Order-preserving erase of `sorted_positions` (strictly ascending, in
/// range) from `values`: one block move per surviving run, so erasing one
/// position costs what vector::erase does and erasing many is one pass.
template <typename V>
void EraseSortedPositions(std::vector<V>* values,
                          std::span<const std::size_t> sorted_positions) {
  if (sorted_positions.empty()) return;
  const auto at = [values](std::size_t pos) {
    return values->begin() + static_cast<std::ptrdiff_t>(pos);
  };
  auto write = at(sorted_positions.front());
  for (std::size_t v = 0; v < sorted_positions.size(); ++v) {
    const auto run_end = v + 1 < sorted_positions.size()
                             ? at(sorted_positions[v + 1])
                             : values->end();
    write = std::copy(at(sorted_positions[v] + 1), run_end, write);
  }
  values->erase(write, values->end());
}

/// Type-erased handle to a column. Concrete storage lives in TypedColumn<T>.
class Column {
 public:
  virtual ~Column() = default;

  virtual DataType type() const = 0;
  virtual std::size_t size() const = 0;
  virtual const std::string& name() const = 0;

  /// Bytes of value payload held by this column.
  virtual std::size_t MemoryUsageBytes() const = 0;

  /// Erases the values at `sorted_positions` (strictly ascending, in
  /// range), order-preserving. Type-erased so Table::EraseRows can remove
  /// rows across heterogeneous columns in lock step (row-atomic DML), in one
  /// compaction pass — the bulk primitive shard rebalance uses to evacuate
  /// a key range in O(n) instead of O(rows_moved * n).
  virtual void EraseRows(std::span<const std::size_t> sorted_positions) = 0;

  /// Down-casts to the typed column; returns an error on a type mismatch.
  template <ColumnValue T>
  Result<TypedColumn<T>*> As() {
    if (type() != TypeTraits<T>::kType) {
      return Status::InvalidArgument("column '" + name() + "' is " +
                                     std::string(DataTypeToString(type())) +
                                     ", requested " + std::string(TypeTraits<T>::kName));
    }
    return static_cast<TypedColumn<T>*>(this);
  }
  template <ColumnValue T>
  Result<const TypedColumn<T>*> As() const {
    if (type() != TypeTraits<T>::kType) {
      return Status::InvalidArgument("column '" + name() + "' is " +
                                     std::string(DataTypeToString(type())) +
                                     ", requested " + std::string(TypeTraits<T>::kName));
    }
    return static_cast<const TypedColumn<T>*>(this);
  }
};

/// Concrete column: a dense std::vector<T> plus a name.
template <ColumnValue T>
class TypedColumn final : public Column {
 public:
  explicit TypedColumn(std::string name) : name_(std::move(name)) {}
  TypedColumn(std::string name, std::vector<T> values)
      : name_(std::move(name)), values_(std::move(values)) {}

  AIDX_DEFAULT_MOVE_ONLY(TypedColumn);

  DataType type() const override { return TypeTraits<T>::kType; }
  std::size_t size() const override { return values_.size(); }
  const std::string& name() const override { return name_; }
  std::size_t MemoryUsageBytes() const override { return values_.capacity() * sizeof(T); }

  void Reserve(std::size_t n) { values_.reserve(n); }
  void Append(T value) { values_.push_back(value); }
  void AppendMany(std::span<const T> values) {
    values_.insert(values_.end(), values.begin(), values.end());
  }
  void EraseRows(std::span<const std::size_t> sorted_positions) override {
    EraseSortedPositions(&values_, sorted_positions);
  }

  /// Unchecked element access (hot paths); bounds are the caller's contract.
  T Get(std::size_t i) const {
    AIDX_DCHECK(i < values_.size());
    return values_[i];
  }

  std::span<const T> Values() const { return values_; }
  /// Mutable view; used by bulk loaders and the update pipeline.
  std::vector<T>& MutableValues() { return values_; }

 private:
  std::string name_;
  std::vector<T> values_;
};

/// Convenience factory: wraps a vector into a heap-allocated typed column.
template <ColumnValue T>
std::unique_ptr<TypedColumn<T>> MakeColumn(std::string name, std::vector<T> values) {
  return std::make_unique<TypedColumn<T>>(std::move(name), std::move(values));
}

}  // namespace aidx
