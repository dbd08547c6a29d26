// FullSortIndex: the "build the full index up front" baseline.
//
// Models offline indexing: the first access pays a complete sort (the
// a-priori index build); every later query is two binary searches. This is
// the convergence target adaptive indexing is measured against.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "index/scan.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/logging.h"

namespace aidx {

/// Fully sorted copy of a column (optionally carrying row ids), answering
/// range predicates with binary search.
template <ColumnValue T>
class FullSortIndex {
 public:
  struct Options {
    /// Keep the base row id of every value so results can project other
    /// columns. Costs one row_id_t per value and a pair-sort at build.
    bool with_row_ids = false;
  };

  FullSortIndex(std::span<const T> base, Options options = {}) {
    values_.assign(base.begin(), base.end());
    if (options.with_row_ids) {
      row_ids_.resize(base.size());
      std::iota(row_ids_.begin(), row_ids_.end(), row_id_t{0});
      // Argsort, then apply the permutation to both arrays.
      std::vector<row_id_t> perm = row_ids_;
      std::sort(perm.begin(), perm.end(),
                [&](row_id_t a, row_id_t b) { return base[a] < base[b]; });
      std::vector<T> sorted_values(base.size());
      for (std::size_t i = 0; i < perm.size(); ++i) sorted_values[i] = base[perm[i]];
      values_ = std::move(sorted_values);
      row_ids_ = std::move(perm);
    } else {
      std::sort(values_.begin(), values_.end());
    }
  }

  /// Positions (into the *sorted* array) matching the predicate; always one
  /// contiguous range because the data is fully ordered.
  PositionRange SelectRange(const RangePredicate<T>& pred) const {
    if (pred.DefinitelyEmpty()) return {};
    std::size_t lo = 0;
    std::size_t hi = values_.size();
    switch (pred.low_kind) {
      case BoundKind::kInclusive:
        lo = LowerBound(pred.low);
        break;
      case BoundKind::kExclusive:
        lo = UpperBound(pred.low);
        break;
      case BoundKind::kUnbounded:
        break;
    }
    switch (pred.high_kind) {
      case BoundKind::kInclusive:
        hi = UpperBound(pred.high);
        break;
      case BoundKind::kExclusive:
        hi = LowerBound(pred.high);
        break;
      case BoundKind::kUnbounded:
        break;
    }
    if (hi < lo) hi = lo;
    return {lo, hi};
  }

  /// Folds an ascending-sorted batch into the index (one inplace_merge
  /// pass) — the delta-merge step of the sorted write path, which calls
  /// BPlusTree's method of the same name for the btree strategy. Only
  /// supported without row ids (fresh tuples have no base offset to carry).
  void InsertSortedBatch(std::span<const T> sorted_delta) {
    AIDX_CHECK(row_ids_.empty()) << "delta merge unsupported with row ids";
    AIDX_DCHECK(std::is_sorted(sorted_delta.begin(), sorted_delta.end()));
    const auto mid = static_cast<std::ptrdiff_t>(values_.size());
    values_.insert(values_.end(), sorted_delta.begin(), sorted_delta.end());
    std::inplace_merge(values_.begin(), values_.begin() + mid, values_.end());
  }

  /// Removes one occurrence of `v`; returns false when absent.
  bool EraseOne(T v) {
    const auto it = std::lower_bound(values_.begin(), values_.end(), v);
    if (it == values_.end() || *it != v) return false;
    if (!row_ids_.empty()) {
      row_ids_.erase(row_ids_.begin() + (it - values_.begin()));
    }
    values_.erase(it);
    return true;
  }

  std::size_t CountRange(const RangePredicate<T>& pred) const {
    return SelectRange(pred).size();
  }

  long double SumRange(const RangePredicate<T>& pred) const {
    return RoundSum<T>(SumRangePartial(pred));
  }

  /// SumRange before its one rounding step (SumAcc, index/scan.h).
  SumAcc<T> SumRangePartial(const RangePredicate<T>& pred) const {
    const PositionRange r = SelectRange(pred);
    return SumValues<T>(values().subspan(r.begin, r.size()));
  }

  std::span<const T> values() const { return values_; }
  /// Row ids aligned with values(); empty unless built with_row_ids.
  std::span<const row_id_t> row_ids() const { return row_ids_; }
  std::size_t size() const { return values_.size(); }

 private:
  std::size_t LowerBound(T v) const {
    return static_cast<std::size_t>(
        std::lower_bound(values_.begin(), values_.end(), v) - values_.begin());
  }
  std::size_t UpperBound(T v) const {
    return static_cast<std::size_t>(
        std::upper_bound(values_.begin(), values_.end(), v) - values_.begin());
  }

  std::vector<T> values_;
  std::vector<row_id_t> row_ids_;
};

}  // namespace aidx
