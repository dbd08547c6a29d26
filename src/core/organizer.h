// SegmentOrganizer: one physical-organization policy applied to one data
// segment — the building block of the hybrid adaptive indexing space
// (PVLDB 2011). A segment is organized by exactly one of:
//
//   kCrack : lazy — cracked incrementally by the queries that touch it;
//   kSort  : eager — fully sorted on first touch, then binary searched;
//   kRadix : middle ground — radix-clustered on first touch (one counting
//            pass), then cracked within clusters.
//
// Hybrid algorithm XY (X, Y in {C, S, R}) applies policy X to the initial
// partitions and policy Y to the final-store segments.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/cracker_column.h"
#include "core/cut.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// Physical organization policy for a segment.
enum class OrganizeMode : char {
  kCrack = 'C',
  kSort = 'S',
  kRadix = 'R',
};

inline char OrganizeModeLetter(OrganizeMode mode) { return static_cast<char>(mode); }

template <ColumnValue T>
class SegmentOrganizer {
 public:
  struct Options {
    OrganizeMode mode = OrganizeMode::kCrack;
    int radix_bits = 6;
    bool with_row_ids = true;
    /// Crack kernel for the lazily organized policies (kCrack / kRadix's
    /// intra-cluster cracks); kSort never cracks.
    CrackKernel kernel = CrackKernel::kAuto;
  };

  /// Adopts the segment's arrays. `row_ids` may be empty when
  /// options.with_row_ids is false.
  SegmentOrganizer(std::vector<T> values, std::vector<row_id_t> row_ids,
                   Options options)
      : options_(options),
        crack_(std::move(values), std::move(row_ids),
               CrackerColumnOptions{.with_row_ids = options.with_row_ids,
                                    .kernel = options.kernel}) {}

  AIDX_DEFAULT_MOVE_ONLY(SegmentOrganizer);

  /// Applies the eager part of the policy (sort / radix-cluster). Idempotent;
  /// kCrack is fully lazy so this is a no-op for it. Returns the number of
  /// values touched (the organization work performed).
  std::size_t EnsureOrganized() {
    if (organized_) return 0;
    (void)failpoints::organizer_step.Inject();  // delay-only merge-step point
    organized_ = true;
    switch (options_.mode) {
      case OrganizeMode::kCrack:
        return 0;
      case OrganizeMode::kSort:
        SortAll();
        return size();
      case OrganizeMode::kRadix:
        crack_.SeedRadixClusters(options_.radix_bits);
        return size();
    }
    return 0;
  }

  /// Contiguous positions of values matching `pred`, organizing as needed.
  PositionRange Resolve(const RangePredicate<T>& pred) {
    EnsureOrganized();
    if (options_.mode == OrganizeMode::kSort) {
      return ResolveSorted(pred);
    }
    const CrackSelect sel = crack_.Select(pred);
    AIDX_DCHECK(sel.num_edges == 0);  // min_piece_size == 0 => pure ranges
    return sel.core;
  }

  std::span<const T> values() const { return crack_.values(); }
  std::span<const row_id_t> row_ids() const { return crack_.row_ids(); }
  std::size_t size() const { return crack_.size(); }
  OrganizeMode mode() const { return options_.mode; }
  bool organized() const { return organized_; }

  /// Work counters from the underlying cracked representation.
  const CrackerStats& crack_stats() const { return crack_.stats(); }

  /// Frees payload memory once the segment's data has fully migrated.
  void Release() { crack_.Release(); }

  /// Appends fresh tuples to the segment. A sorted organized segment
  /// absorbs them by sorted insertion (organization preserved — no
  /// re-sort on the next query); otherwise any prior organization is
  /// discarded (cuts cleared, organized flag reset) and the next query
  /// re-organizes under the segment's policy, the lazy bargain the rest
  /// of the system already makes. `rids` must align with `values` when
  /// row ids are enabled and may be empty otherwise.
  void Append(std::span<const T> values, std::span<const row_id_t> rids) {
    AIDX_CHECK(!options_.with_row_ids || rids.size() == values.size());
    (void)failpoints::organizer_step.Inject();  // delay-only merge-step point
    auto& vals = MutableValues();
    if (options_.mode == OrganizeMode::kSort && organized_) {
      for (std::size_t i = 0; i < values.size(); ++i) {
        const auto at = std::upper_bound(vals.begin(), vals.end(), values[i]);
        const auto pos = at - vals.begin();
        vals.insert(at, values[i]);
        if (options_.with_row_ids) {
          auto& stored = MutableRowIds();
          stored.insert(stored.begin() + pos, rids[i]);
        }
      }
      crack_.mutable_index().set_column_size(vals.size());
      return;
    }
    vals.insert(vals.end(), values.begin(), values.end());
    if (options_.with_row_ids) {
      auto& stored = MutableRowIds();
      stored.insert(stored.end(), rids.begin(), rids.end());
    }
    ResetOrganization();
  }

  /// Removes one occurrence of `v`; false when absent. A sorted organized
  /// segment erases in place (order preserved); otherwise the victim is
  /// swap-removed and the organization reset.
  bool EraseOne(T v) {
    auto& vals = MutableValues();
    if (options_.mode == OrganizeMode::kSort && organized_) {
      const auto it = std::lower_bound(vals.begin(), vals.end(), v);
      if (it == vals.end() || *it != v) return false;
      if (options_.with_row_ids) {
        auto& rids = MutableRowIds();
        rids.erase(rids.begin() + (it - vals.begin()));
      }
      vals.erase(it);
      crack_.mutable_index().set_column_size(vals.size());
      return true;
    }
    const auto it = std::find(vals.begin(), vals.end(), v);
    if (it == vals.end()) return false;
    const std::size_t at = static_cast<std::size_t>(it - vals.begin());
    vals[at] = vals.back();
    vals.pop_back();
    if (options_.with_row_ids) {
      auto& rids = MutableRowIds();
      rids[at] = rids.back();
      rids.pop_back();
    }
    ResetOrganization();
    return true;
  }

  bool Validate() const {
    if (options_.mode == OrganizeMode::kSort && organized_) {
      return std::is_sorted(values().begin(), values().end());
    }
    return crack_.ValidatePieces();
  }

 private:
  void SortAll() {
    // Sort through the cracker column's storage; with row ids this is an
    // argsort so the pairs stay aligned.
    auto& vals = MutableValues();
    if (!options_.with_row_ids) {
      std::sort(vals.begin(), vals.end());
      return;
    }
    auto& rids = MutableRowIds();
    const std::size_t n = vals.size();
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::sort(perm.begin(), perm.end(),
              [&](std::size_t a, std::size_t b) { return vals[a] < vals[b]; });
    std::vector<T> sorted_vals(n);
    std::vector<row_id_t> sorted_rids(n);
    for (std::size_t i = 0; i < n; ++i) {
      sorted_vals[i] = vals[perm[i]];
      sorted_rids[i] = rids[perm[i]];
    }
    vals = std::move(sorted_vals);
    rids = std::move(sorted_rids);
  }

  PositionRange ResolveSorted(const RangePredicate<T>& pred) const {
    const auto vals = values();
    std::size_t lo = 0;
    std::size_t hi = vals.size();
    switch (pred.low_kind) {
      case BoundKind::kInclusive:
        lo = static_cast<std::size_t>(
            std::lower_bound(vals.begin(), vals.end(), pred.low) - vals.begin());
        break;
      case BoundKind::kExclusive:
        lo = static_cast<std::size_t>(
            std::upper_bound(vals.begin(), vals.end(), pred.low) - vals.begin());
        break;
      case BoundKind::kUnbounded:
        break;
    }
    switch (pred.high_kind) {
      case BoundKind::kInclusive:
        hi = static_cast<std::size_t>(
            std::upper_bound(vals.begin(), vals.end(), pred.high) - vals.begin());
        break;
      case BoundKind::kExclusive:
        hi = static_cast<std::size_t>(
            std::lower_bound(vals.begin(), vals.end(), pred.high) - vals.begin());
        break;
      case BoundKind::kUnbounded:
        break;
    }
    if (hi < lo) hi = lo;
    return {lo, hi};
  }

  // SortAll rearranges the cracker column's raw storage; SegmentOrganizer
  // is a friend of CrackerColumn for exactly this.
  std::vector<T>& MutableValues() { return crack_.mutable_values(); }
  std::vector<row_id_t>& MutableRowIds() { return crack_.mutable_row_ids(); }

  /// Drops accumulated cuts and the organized flag after a raw-array edit.
  void ResetOrganization() {
    crack_.mutable_index().Clear();
    crack_.mutable_index().set_column_size(crack_.size());
    organized_ = false;
  }

  Options options_;
  CrackerColumn<T> crack_;
  bool organized_ = false;
};

}  // namespace aidx
