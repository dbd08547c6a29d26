// Adaptive merging (Graefe & Kuno, SMDB/EDBT 2010).
//
// Index construction as a side effect of queries, like cracking — but with
// an *active* first step and an eager merge policy:
//   * the first access partitions the column into sorted runs (the size of
//     one run models the in-memory sort workspace of the original's
//     external-sort run generation);
//   * every query locates its qualifying key range in each run by binary
//     search, extracts it, and bulk-inserts it into a final B+ tree (the
//     "final partition" of the original's partitioned B-tree);
//   * a cut-interval set records fully merged key ranges, so queries over
//     merged ranges touch only the B+ tree — the converged fast path.
//
// Compared with cracking this pays more per early query (binary searches,
// data movement into the tree) but converges in far fewer queries — the
// trade-off the tutorial's hybrid discussion centres on.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "core/cut.h"
#include "core/cut_interval_set.h"
#include "index/btree.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// Adaptation counters for the benchmark harness.
struct AdaptiveMergingStats {
  std::size_t num_queries = 0;
  std::size_t values_merged = 0;       // migrated into the final B+ tree
  std::size_t runs_exhausted = 0;      // runs whose data fully migrated
  std::size_t merge_queries = 0;       // queries that had to touch runs
  std::size_t inserts_queued = 0;      // Insert calls accepted
  std::size_t inserts_absorbed = 0;    // pending tuples turned into runs/tree
  std::size_t inserts_cancelled = 0;   // pending tuples annihilated by deletes
  std::size_t values_deleted = 0;      // tuples erased from the final tree
};

template <ColumnValue T>
class AdaptiveMergingIndex {
 public:
  struct Options {
    /// Values per sorted run (the sort workspace). The default models a
    /// 16-run initial partitioning of a 4M-value column.
    std::size_t run_size = 1 << 18;
    bool with_row_ids = true;
    std::size_t tree_leaf_capacity = 256;
    std::size_t tree_internal_fanout = 64;
  };

  /// Builds the sorted runs. As with CrackerColumn, construction is the
  /// first-query initialization step; benches construct lazily on first use.
  explicit AdaptiveMergingIndex(std::span<const T> base, Options options = {})
      : options_(options),
        total_size_(base.size()),
        next_rid_(static_cast<row_id_t>(base.size())),
        final_tree_({.leaf_capacity = options.tree_leaf_capacity,
                     .internal_fanout = options.tree_internal_fanout,
                     .with_row_ids = options.with_row_ids}) {
    AIDX_CHECK(options_.run_size >= 1);
    runs_.reserve(base.size() / options_.run_size + 1);
    for (std::size_t at = 0; at < base.size(); at += options_.run_size) {
      const std::size_t n = std::min(options_.run_size, base.size() - at);
      Run run;
      run.values.assign(base.begin() + static_cast<std::ptrdiff_t>(at),
                        base.begin() + static_cast<std::ptrdiff_t>(at + n));
      if (options_.with_row_ids) {
        // Argsort so row ids travel with their values.
        std::vector<row_id_t> perm(n);
        std::iota(perm.begin(), perm.end(), row_id_t{0});
        std::sort(perm.begin(), perm.end(), [&](row_id_t a, row_id_t b) {
          return run.values[a] < run.values[b];
        });
        std::vector<T> sorted(n);
        run.rids.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          sorted[i] = run.values[perm[i]];
          run.rids[i] = static_cast<row_id_t>(at + perm[i]);
        }
        run.values = std::move(sorted);
      } else {
        std::sort(run.values.begin(), run.values.end());
      }
      run.live_count = n;
      run.live.push_back({0, n});
      runs_.push_back(std::move(run));
    }
  }

  AIDX_DEFAULT_MOVE_ONLY(AdaptiveMergingIndex);

  /// Queues an insert; the next query absorbs all pending inserts as one
  /// fresh sorted run (the "pending run" treatment of adaptive merging).
  /// Returns the fresh tuple's row id.
  row_id_t Insert(T value) {
    pending_.push_back({value, next_rid_});
    ++stats_.inserts_queued;
    return next_rid_++;
  }

  /// Deletes one tuple equal to `value`: cancels a pending insert when one
  /// matches, otherwise forces the [value, value] key range to merge (a
  /// delete is a query) and erases from the final tree. False when absent.
  bool Delete(T value) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].value == value) {
        pending_[i] = pending_.back();
        pending_.pop_back();
        ++stats_.inserts_cancelled;
        return true;
      }
    }
    EnsureMerged(CutRangeForPredicate(RangePredicate<T>::Between(value, value)));
    if (!final_tree_.EraseOne(value)) return false;
    ++stats_.values_deleted;
    return true;
  }

  /// Rows matching the predicate; merges missing key ranges as a side effect.
  std::size_t Count(const RangePredicate<T>& pred) {
    ++stats_.num_queries;
    if (pred.DefinitelyEmpty()) return 0;
    AbsorbPending();
    EnsureMerged(CutRangeForPredicate(pred));
    return final_tree_.CountRange(pred);
  }

  /// Sum of matching values; merges as a side effect.
  long double Sum(const RangePredicate<T>& pred) {
    return RoundSum<T>(SumPartial(pred));
  }

  /// Sum before its one rounding step (SumAcc, index/scan.h).
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) {
    ++stats_.num_queries;
    if (pred.DefinitelyEmpty()) return {};
    AbsorbPending();
    EnsureMerged(CutRangeForPredicate(pred));
    return final_tree_.SumRangePartial(pred);
  }

  /// Materializes matching (value, row-id) pairs in key order.
  void Materialize(const RangePredicate<T>& pred, std::vector<T>* values,
                   std::vector<row_id_t>* rids) {
    ++stats_.num_queries;
    if (pred.DefinitelyEmpty()) return;
    AbsorbPending();
    EnsureMerged(CutRangeForPredicate(pred));
    final_tree_.VisitRange(pred, [&](T v, row_id_t r) {
      values->push_back(v);
      if (rids != nullptr) rids->push_back(r);
    });
  }

  const AdaptiveMergingStats& stats() const { return stats_; }
  std::size_t num_runs() const { return runs_.size(); }
  std::size_t num_pending_inserts() const { return pending_.size(); }
  /// True once every live value has migrated into the final B+ tree.
  bool fully_merged() const {
    if (!pending_.empty()) return false;
    for (const Run& run : runs_) {
      if (run.live_count > 0) return false;
    }
    return true;
  }
  const BPlusTree<T>& final_tree() const { return final_tree_; }

  /// Structural invariants: run ordering, live-interval accounting, and
  /// global conservation (live values + merged values == initial size plus
  /// absorbed inserts; the tree holds merged minus deleted values).
  bool Validate() const {
    if (!final_tree_.Validate()) return false;
    std::size_t live_total = 0;
    for (const Run& run : runs_) {
      if (!std::is_sorted(run.values.begin(), run.values.end())) return false;
      std::size_t live_in_run = 0;
      std::size_t prev_end = 0;
      bool first = true;
      for (const PositionRange& r : run.live) {
        if (r.empty() || r.end > run.values.size()) return false;
        if (!first && r.begin <= prev_end) return false;  // must be disjoint, ordered
        prev_end = r.end;
        first = false;
        live_in_run += r.size();
      }
      if (live_in_run != run.live_count) return false;
      live_total += live_in_run;
    }
    if (live_total + stats_.values_merged != total_size_ + stats_.inserts_absorbed) {
      return false;
    }
    if (final_tree_.size() != stats_.values_merged - stats_.values_deleted) {
      return false;
    }
    return merged_.Validate();
  }

 private:
  struct Run {
    std::vector<T> values;        // sorted ascending
    std::vector<row_id_t> rids;   // aligned with values (optional)
    std::vector<PositionRange> live;  // not-yet-extracted position intervals
    std::size_t live_count = 0;
  };
  struct PendingTuple {
    T value;
    row_id_t rid;
  };

  /// Turns the pending inserts into one fresh sorted run. Sub-ranges whose
  /// keys already migrated are extracted into the final tree on the spot
  /// (they would otherwise hide behind the merged-range bookkeeping); the
  /// rest stays live in the run and merges adaptively like initial data.
  void AbsorbPending() {
    if (pending_.empty()) return;
    const std::size_t n = pending_.size();
    std::sort(pending_.begin(), pending_.end(),
              [](const PendingTuple& a, const PendingTuple& b) {
                return a.value < b.value;
              });
    Run run;
    run.values.reserve(n);
    if (options_.with_row_ids) run.rids.reserve(n);
    for (const PendingTuple& t : pending_) {
      run.values.push_back(t.value);
      if (options_.with_row_ids) run.rids.push_back(t.rid);
    }
    pending_.clear();
    stats_.inserts_absorbed += n;

    std::vector<PositionRange> dead;  // positions in already-merged ranges
    merged_.VisitRanges([&](const CutRange<T>& r) {
      const std::size_t lo = PositionOfCut(run.values, r.lo);
      const std::size_t hi = PositionOfCut(run.values, r.hi);
      if (hi > lo) dead.push_back({lo, hi});
    });
    std::size_t cursor = 0;
    for (const PositionRange& d : dead) {
      if (cursor < d.begin) {
        run.live.push_back({cursor, d.begin});
        run.live_count += d.begin - cursor;
      }
      final_tree_.InsertSortedBatch(
          std::span<const T>(run.values).subspan(d.begin, d.size()),
          options_.with_row_ids
              ? std::span<const row_id_t>(run.rids).subspan(d.begin, d.size())
              : std::span<const row_id_t>{});
      stats_.values_merged += d.size();
      cursor = d.end;
    }
    if (cursor < n) {
      run.live.push_back({cursor, n});
      run.live_count += n - cursor;
    }
    if (run.live_count > 0) runs_.push_back(std::move(run));
  }

  /// Position of a cut in a sorted array: the count of values Below(cut).
  static std::size_t PositionOfCut(const std::vector<T>& sorted, const Cut<T>& cut) {
    if (cut.kind == CutKind::kLess) {
      return static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), cut.value) - sorted.begin());
    }
    return static_cast<std::size_t>(
        std::upper_bound(sorted.begin(), sorted.end(), cut.value) - sorted.begin());
  }

  /// Extracts every still-missing sub-range of `target` from the runs into
  /// the final tree and marks it merged.
  void EnsureMerged(const CutRange<T>& target) {
    const auto missing = merged_.Missing(target);
    if (missing.empty()) return;
    ++stats_.merge_queries;
    for (const CutRange<T>& gap : missing) {
      for (Run& run : runs_) {
        if (run.live_count == 0) continue;
        const std::size_t lo = PositionOfCut(run.values, gap.lo);
        const std::size_t hi = PositionOfCut(run.values, gap.hi);
        if (hi <= lo) continue;
        final_tree_.InsertSortedBatch(
            std::span<const T>(run.values).subspan(lo, hi - lo),
            options_.with_row_ids
                ? std::span<const row_id_t>(run.rids).subspan(lo, hi - lo)
                : std::span<const row_id_t>{});
        RemoveFromLive(&run, {lo, hi});
        stats_.values_merged += hi - lo;
        if (run.live_count == 0) {
          ++stats_.runs_exhausted;
          run.values.clear();
          run.values.shrink_to_fit();
          run.rids.clear();
          run.rids.shrink_to_fit();
          run.live.clear();
        }
      }
      merged_.Add(gap);
    }
  }

  /// Removes `gone` from the run's live intervals. Because extraction is
  /// always a whole value range, `gone` never partially overlaps a previous
  /// extraction — it can only split, trim, or consume live intervals.
  static void RemoveFromLive(Run* run, PositionRange gone) {
    std::vector<PositionRange> next;
    next.reserve(run->live.size() + 1);
    for (const PositionRange& r : run->live) {
      if (gone.end <= r.begin || r.end <= gone.begin) {
        next.push_back(r);  // no overlap
        continue;
      }
      if (r.begin < gone.begin) next.push_back({r.begin, gone.begin});
      if (gone.end < r.end) next.push_back({gone.end, r.end});
      run->live_count -= std::min(r.end, gone.end) - std::max(r.begin, gone.begin);
    }
    run->live = std::move(next);
  }

  Options options_;
  std::size_t total_size_;
  std::vector<Run> runs_;
  std::vector<PendingTuple> pending_;  // inserts awaiting absorption
  row_id_t next_rid_ = 0;              // fresh row ids continue past the base
  BPlusTree<T> final_tree_;
  CutIntervalSet<T> merged_;
  AdaptiveMergingStats stats_;
};

}  // namespace aidx
