// Range predicates: the selection vocabulary shared by all access paths.
//
// Every adaptive-indexing operator in this library answers predicates of the
// form  low (<|<=) x (<|<=) high , possibly unbounded on either side — the
// query class all the surveyed cracking work evaluates.
#pragma once

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "storage/types.h"

namespace aidx {

/// How a range endpoint participates in the predicate.
enum class BoundKind : char {
  kInclusive,
  kExclusive,
  kUnbounded,
};

/// A one-dimensional range predicate over a column of T.
template <ColumnValue T>
struct RangePredicate {
  T low{};
  BoundKind low_kind = BoundKind::kUnbounded;
  T high{};
  BoundKind high_kind = BoundKind::kUnbounded;

  /// low <= x <= high
  static RangePredicate Between(T low, T high) {
    return {low, BoundKind::kInclusive, high, BoundKind::kInclusive};
  }
  /// low <= x < high  (the convention of the cracking papers' examples)
  static RangePredicate HalfOpen(T low, T high) {
    return {low, BoundKind::kInclusive, high, BoundKind::kExclusive};
  }
  /// x < high
  static RangePredicate LessThan(T high) {
    return {T{}, BoundKind::kUnbounded, high, BoundKind::kExclusive};
  }
  /// x <= high
  static RangePredicate AtMost(T high) {
    return {T{}, BoundKind::kUnbounded, high, BoundKind::kInclusive};
  }
  /// x > low
  static RangePredicate GreaterThan(T low) {
    return {low, BoundKind::kExclusive, T{}, BoundKind::kUnbounded};
  }
  /// x >= low
  static RangePredicate AtLeast(T low) {
    return {low, BoundKind::kInclusive, T{}, BoundKind::kUnbounded};
  }
  /// Matches every value.
  static RangePredicate All() { return {}; }

  bool Matches(T v) const {
    if constexpr (std::is_floating_point_v<T>) {
      if (HasNanBound()) return false;
    }
    switch (low_kind) {
      case BoundKind::kInclusive:
        if (v < low) return false;
        break;
      case BoundKind::kExclusive:
        if (v <= low) return false;
        break;
      case BoundKind::kUnbounded:
        break;
    }
    switch (high_kind) {
      case BoundKind::kInclusive:
        if (v > high) return false;
        break;
      case BoundKind::kExclusive:
        if (v >= high) return false;
        break;
      case BoundKind::kUnbounded:
        break;
    }
    return true;
  }

  /// True when no value can satisfy the predicate (conservative syntactic
  /// check; used for early-outs, not required for correctness).
  bool DefinitelyEmpty() const {
    if constexpr (std::is_floating_point_v<T>) {
      if (HasNanBound()) return true;
    }
    if (low_kind == BoundKind::kUnbounded || high_kind == BoundKind::kUnbounded) {
      return false;
    }
    if (low > high) return true;
    if (low == high) {
      return low_kind == BoundKind::kExclusive || high_kind == BoundKind::kExclusive;
    }
    return false;
  }

  /// A NaN bound orders against no value, so it matches none (and as a
  /// cut it would fall outside the cracker index's total order).
  bool HasNanBound() const {
    return (low_kind != BoundKind::kUnbounded && std::isnan(low)) ||
           (high_kind != BoundKind::kUnbounded && std::isnan(high));
  }

  std::string ToString() const {
    std::ostringstream os;
    switch (low_kind) {
      case BoundKind::kInclusive:
        os << low << " <= ";
        break;
      case BoundKind::kExclusive:
        os << low << " < ";
        break;
      case BoundKind::kUnbounded:
        break;
    }
    os << "x";
    switch (high_kind) {
      case BoundKind::kInclusive:
        os << " <= " << high;
        break;
      case BoundKind::kExclusive:
        os << " < " << high;
        break;
      case BoundKind::kUnbounded:
        break;
    }
    return os.str();
  }
};

/// A contiguous run of positions [begin, end) in some array.
struct PositionRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }

  bool operator==(const PositionRange&) const = default;
};

}  // namespace aidx
