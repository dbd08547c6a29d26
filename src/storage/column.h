// Columns: fixed-width dense arrays, the storage unit of the substrate.
#pragma once

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

/// Type-erased handle to a column. Concrete storage lives in TypedColumn<T>.
class Column {
 public:
  virtual ~Column() = default;

  virtual DataType type() const = 0;
  virtual std::size_t size() const = 0;
  virtual const std::string& name() const = 0;

  /// Bytes of value payload held by this column.
  virtual std::size_t MemoryUsageBytes() const = 0;

  /// Removes the value at `pos` (in range) by moving the last value into
  /// its slot: O(1), not order-preserving. Type-erased so Table::EraseRows
  /// can remove rows across heterogeneous columns in lock step (row-atomic
  /// DML).
  virtual void SwapRemove(std::size_t pos) = 0;

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
  void SwapRemove(std::size_t pos) override {
    AIDX_DCHECK(pos < values_.size());
    values_[pos] = values_.back();
    values_.pop_back();
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
