// Bulk operators used for tuple reconstruction baselines and examples.
//
// These are the column-store "late materialization" primitives sideways
// cracking competes against: a select yields row ids, and every projected
// column is fetched with a gather (one random access per row).
#pragma once

#include <span>
#include <vector>

#include "index/scan.h"
#include "storage/types.h"
#include "util/logging.h"

namespace aidx {

/// out[i] = values[row_ids[i]] — the positional fetch of late
/// materialization (random access per element).
template <ColumnValue T>
void Gather(std::span<const T> values, std::span<const row_id_t> row_ids,
            std::vector<T>* out) {
  out->reserve(out->size() + row_ids.size());
  for (const row_id_t rid : row_ids) {
    AIDX_DCHECK(rid < values.size());
    out->push_back(values[rid]);
  }
}

/// Sum of gathered values without materializing them.
template <ColumnValue T>
long double GatherSum(std::span<const T> values, std::span<const row_id_t> row_ids) {
  return RoundSum<T>(SumEach<T>(row_ids.size(), [&](std::size_t i) {
    AIDX_DCHECK(row_ids[i] < values.size());
    return values[row_ids[i]];
  }));
}

/// Applies a permutation to a whole column: out[i] = values[perm[i]].
/// Used to build the offline-clustered baseline (all columns re-ordered by
/// the selection attribute up front).
template <ColumnValue T>
std::vector<T> ApplyPermutation(std::span<const T> values,
                                std::span<const row_id_t> perm) {
  AIDX_CHECK(values.size() == perm.size());
  std::vector<T> out(values.size());
  for (std::size_t i = 0; i < perm.size(); ++i) out[i] = values[perm[i]];
  return out;
}

}  // namespace aidx
