// Quiescent views of a PartitionedCrackerColumn for tests: FlushPending
// folds every buffered and pending update, then each partition's cracked
// array is read with the predicate applied. The results are sorted, so a
// caller compares multisets with ==. Checks taken while updates are still
// pending use Count/Sum instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "parallel/partitioned_cracker_column.h"

namespace aidx {

template <ColumnValue T>
std::vector<T> FlushedValues(PartitionedCrackerColumn<T>& col,
                             const RangePredicate<T>& pred) {
  col.FlushPending();
  std::vector<T> out;
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    for (const T v : col.partition(p).values()) {
      if (pred.Matches(v)) out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Needs a column built with row ids.
template <ColumnValue T>
std::vector<row_id_t> FlushedRowIds(PartitionedCrackerColumn<T>& col,
                                    const RangePredicate<T>& pred) {
  col.FlushPending();
  std::vector<row_id_t> out;
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    const std::span<const T> values = col.partition(p).values();
    const std::span<const row_id_t> rids = col.partition(p).row_ids();
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (pred.Matches(values[i])) out.push_back(rids[i]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace aidx
