// CrackerColumn: selection cracking (CIDR 2007) plus the stochastic
// auxiliary-crack extension the tutorial's "improving convergence speed"
// topic refers to (Halim et al.'s DDC/MDD1R family).
//
// The column holds a cracked copy of the base data; every Select physically
// reorganizes at most the pieces its bounds fall into and registers the new
// cuts in the cracker index (the walk itself is core/crack_walk.h, shared
// with sideways maps and the partitioned column). Construction performs the
// base-column copy, so callers that model "first query pays the copy" (all
// benches here) simply construct lazily on first use.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/crack_walk.h"
#include "core/cracker_index.h"
#include "core/cut.h"
#include "index/scan.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/rng.h"

namespace aidx {

template <ColumnValue T>
class SegmentOrganizer;  // core/organizer.h; friend of CrackerColumn

/// Integer Sums whose core holds at least this many values read the
/// index's piece sums (SumIndexed); shorter cores stream (SumFrom). The
/// index already wins bench_e12's converged_sum at 1,835 values
/// (docs/BENCHMARKS.md), but a threshold of 512 cost engine_bench's
/// write_mix 11% of ops_per_s (ROADMAP.md, "Measured, don't").
inline constexpr std::size_t kIndexedSumMinCore = 4096;

template <ColumnValue T>
class CrackerColumn {
 public:
  explicit CrackerColumn(std::span<const T> base, CrackerColumnOptions options = {})
      : options_(options),
        values_(base.begin(), base.end()),
        index_(base.size()),
        rng_(options.stochastic_seed) {
    if (options_.with_row_ids) {
      row_ids_.resize(values_.size());
      std::iota(row_ids_.begin(), row_ids_.end(), row_id_t{0});
    }
  }

  /// Adopts pre-existing arrays without copying (hybrid partitions hand
  /// their slices over this way). When `row_ids` is empty but the options
  /// ask for row ids, a 0..n-1 identity is generated.
  CrackerColumn(std::vector<T> values, std::vector<row_id_t> row_ids,
                CrackerColumnOptions options)
      : options_(options),
        values_(std::move(values)),
        row_ids_(std::move(row_ids)),
        index_(values_.size()),
        rng_(options.stochastic_seed) {
    if (options_.with_row_ids && row_ids_.empty()) {
      row_ids_.resize(values_.size());
      std::iota(row_ids_.begin(), row_ids_.end(), row_id_t{0});
    }
    AIDX_CHECK(!options_.with_row_ids || row_ids_.size() == values_.size())
        << "row-id array length mismatch";
  }

  AIDX_DEFAULT_MOVE_ONLY(CrackerColumn);

  /// Pre-seeds the column with 2^bits radix-cluster cuts: one counting-sort
  /// pass groups values by their position in [min, max], and every cluster
  /// boundary becomes a realized cut. This is the "radix" organization of
  /// the hybrid algorithms (PVLDB 2011): more active than a single crack,
  /// far cheaper than a full sort. Only valid on a fresh (uncracked) column.
  void SeedRadixClusters(int bits) {
    AIDX_CHECK(index_.num_cuts() == 0) << "radix seeding requires a fresh column";
    const std::size_t n = values_.size();
    if (n == 0 || bits <= 0) return;
    const std::size_t k = std::size_t{1} << bits;
    const auto [mn_it, mx_it] = std::minmax_element(values_.begin(), values_.end());
    const long double mn = static_cast<long double>(*mn_it);
    const long double mx = static_cast<long double>(*mx_it);
    if (!(mn < mx)) return;  // single distinct value: nothing to cluster
    index_.InvalidateSums();
    const long double span = mx - mn;
    const auto bucket_of = [&](T v) {
      const auto b = static_cast<std::size_t>(
          (static_cast<long double>(v) - mn) / span * static_cast<long double>(k));
      return b >= k ? k - 1 : b;
    };
    std::vector<std::size_t> offsets(k + 1, 0);
    for (const T v : values_) ++offsets[bucket_of(v) + 1];
    for (std::size_t b = 0; b < k; ++b) offsets[b + 1] += offsets[b];
    std::vector<T> tmp(n);
    std::vector<row_id_t> tmp_rids(options_.with_row_ids ? n : 0);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    std::vector<T> bucket_min(k, T{});
    std::vector<bool> bucket_seen(k, false);
    for (std::size_t i = 0; i < n; ++i) {
      const T v = values_[i];
      const std::size_t b = bucket_of(v);
      tmp[cursor[b]] = v;
      if (options_.with_row_ids) tmp_rids[cursor[b]] = row_ids_[i];
      ++cursor[b];
      if (!bucket_seen[b] || v < bucket_min[b]) {
        bucket_min[b] = v;
        bucket_seen[b] = true;
      }
    }
    values_.swap(tmp);
    if (options_.with_row_ids) row_ids_.swap(tmp_rids);
    for (std::size_t b = 1; b < k; ++b) {
      if (!bucket_seen[b] || offsets[b] == 0) continue;
      index_.AddCut({bucket_min[b], CutKind::kLess}, offsets[b]);
    }
    stats_.values_touched += 2 * n;  // count pass + scatter pass
  }

  /// Frees the payload arrays (a hybrid partition whose every value has
  /// migrated to the final store calls this). The column must not be used
  /// afterwards except for destruction.
  void Release() {
    values_.clear();
    values_.shrink_to_fit();
    row_ids_.clear();
    row_ids_.shrink_to_fit();
    index_.Clear();
    index_.set_column_size(0);
  }

  /// Answers a range predicate, cracking the touched pieces as a side
  /// effect (the adaptive-indexing move). O(piece sizes touched).
  CrackSelect Select(const RangePredicate<T>& pred) {
    Status ignored;  // no context: the piece gate cannot fire errors
    return SelectLatched(pred, NoPieceLatch{}, nullptr, &ignored);
  }

  /// Deadline/cancellation-aware Select: the context is checked once per
  /// piece-level crack. On expiry the walk stops BEFORE the next physical
  /// crack, so the index stays valid and every crack already performed is
  /// kept (incremental investment, never rolled back).
  Result<CrackSelect> Select(const RangePredicate<T>& pred, const QueryContext& ctx) {
    Status abort;
    CrackSelect out = SelectLatched(pred, NoPieceLatch{}, &ctx, &abort);
    if (!abort.ok()) return abort;
    return out;
  }

  /// The crack walk (core/crack_walk.h) under a piece-latch policy, for a
  /// caller that shares this column between threads and serializes the
  /// walk's piece, index, pivot and stats accesses through `latch` (the
  /// partitioned column's shared path, docs/CONCURRENCY.md §4). `ctx` may
  /// be null; on a gate failure `*abort` is set as in Select(pred, ctx).
  template <typename Latch>
  CrackSelect SelectLatched(const RangePredicate<T>& pred, Latch latch,
                            const QueryContext* ctx, Status* abort) {
    return CrackWalk<T, row_id_t, Latch>{
        values_,
        options_.with_row_ids ? std::span<row_id_t>(row_ids_) : std::span<row_id_t>(),
        index_, options_, &rng_, stats_, std::move(latch), ctx, abort}
        .Select(pred);
  }

  /// Count matching rows (cracks as a side effect).
  std::size_t Count(const RangePredicate<T>& pred) {
    return CountFrom(Select(pred), pred);
  }

  Result<std::size_t> Count(const RangePredicate<T>& pred, const QueryContext& ctx) {
    AIDX_ASSIGN_OR_RETURN(const CrackSelect sel, Select(pred, ctx));
    return CountFrom(sel, pred);
  }

  /// Sum of matching values (cracks as a side effect).
  long double Sum(const RangePredicate<T>& pred) {
    return RoundSum<T>(SumPartial(pred));
  }

  /// Sum before its one rounding step, for callers that combine partials
  /// (SumAcc, index/scan.h). A long integer core is summed from the index
  /// (SumIndexed), anything else streams (SumFrom).
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) {
    return SumSelected(Select(pred), pred);
  }

  Result<SumAcc<T>> SumPartial(const RangePredicate<T>& pred, const QueryContext& ctx) {
    AIDX_ASSIGN_OR_RETURN(const CrackSelect sel, Select(pred, ctx));
    return SumSelected(sel, pred);
  }

  /// Count of a resolved select: the core, plus each edge's matches.
  std::size_t CountFrom(const CrackSelect& sel, const RangePredicate<T>& pred) const {
    std::size_t count = sel.core.size();
    for (int i = 0; i < sel.num_edges; ++i) {
      count += ScanCount<T>(ValuesIn(sel.edges[i]), pred);
    }
    return count;
  }

  /// Sum of a resolved select: the core range in one kernel pass, each
  /// edge piece through the masked kernel. A pure read of the array.
  SumAcc<T> SumFrom(const CrackSelect& sel, const RangePredicate<T>& pred) const {
    SumAcc<T> sum = SumValues<T>(ValuesIn(sel.core));
    for (int i = 0; i < sel.num_edges; ++i) {
      sum += SumValues<T>(ValuesIn(sel.edges[i]), pred);
    }
    return sum;
  }

  /// SumFrom, but the core's whole pieces are added from the index's
  /// cached piece sums, filling those not yet known (CrackerIndex::
  /// SumPieces). Writes the cache, so it needs the column to itself.
  SumAcc<T> SumIndexed(const CrackSelect& sel, const RangePredicate<T>& pred)
    requires std::is_integral_v<T>
  {
    const SumAcc<T> core = index_.SumPieces(sel.core, values_);
    AIDX_DCHECK(core == SumValues<T>(ValuesIn(sel.core))) << "index sum != stream";
    CrackSelect edges = sel;
    edges.core = {};
    return core + SumFrom(edges, pred);
  }

  /// Appends matching values to `out` in storage order.
  void MaterializeValues(const CrackSelect& sel, const RangePredicate<T>& pred,
                         std::vector<T>* out) const {
    out->insert(out->end(), values_.begin() + static_cast<std::ptrdiff_t>(sel.core.begin),
                values_.begin() + static_cast<std::ptrdiff_t>(sel.core.end));
    for (int i = 0; i < sel.num_edges; ++i) {
      ScanValues<T>(ValuesIn(sel.edges[i]), pred, out);
    }
  }

  /// Appends the row ids of matching values to `out`.
  void MaterializeRowIds(const CrackSelect& sel, const RangePredicate<T>& pred,
                         std::vector<row_id_t>* out) const {
    AIDX_CHECK(options_.with_row_ids) << "column built without row ids";
    out->insert(out->end(),
                row_ids_.begin() + static_cast<std::ptrdiff_t>(sel.core.begin),
                row_ids_.begin() + static_cast<std::ptrdiff_t>(sel.core.end));
    for (int i = 0; i < sel.num_edges; ++i) {
      const PositionRange e = sel.edges[i];
      for (std::size_t p = e.begin; p < e.end; ++p) {
        if (pred.Matches(values_[p])) out->push_back(row_ids_[p]);
      }
    }
  }

  std::span<const T> values() const { return values_; }
  std::span<const row_id_t> row_ids() const { return row_ids_; }
  std::size_t size() const { return values_.size(); }
  const CrackerIndex<T>& index() const { return index_; }
  const CrackerStats& stats() const { return stats_; }
  const CrackerColumnOptions& options() const { return options_; }

  /// Full invariant sweep: every piece's values satisfy its bound cuts and
  /// the index itself validates. O(n); tests only.
  bool ValidatePieces() const { return index_.ValidateOver(values_); }

 protected:
  // The update pipeline (update/updatable_column.h) and the segment
  // organizer (core/organizer.h) manipulate the raw arrays and index
  // directly; nobody else should.
  template <ColumnValue U>
  friend class SegmentOrganizer;

  std::vector<T>& mutable_values() { return values_; }
  std::vector<row_id_t>& mutable_row_ids() { return row_ids_; }
  CrackerIndex<T>& mutable_index() { return index_; }

 private:
  std::span<const T> ValuesIn(PositionRange r) const {
    return std::span<const T>(values_).subspan(r.begin, r.end - r.begin);
  }

  SumAcc<T> SumSelected(const CrackSelect& sel, const RangePredicate<T>& pred) {
    if constexpr (std::is_integral_v<T>) {
      if (sel.core.size() >= kIndexedSumMinCore) return SumIndexed(sel, pred);
    }
    return SumFrom(sel, pred);
  }

  CrackerColumnOptions options_;
  std::vector<T> values_;
  std::vector<row_id_t> row_ids_;
  CrackerIndex<T> index_;
  CrackerStats stats_;
  Rng rng_;
};

}  // namespace aidx
