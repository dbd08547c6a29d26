// Hybrid adaptive indexing (Idreos, Manegold, Kuno, Graefe — PVLDB 2011,
// "Merging What's Cracked, Cracking What's Merged").
//
// The hybrid space crosses two policy choices:
//   initial partitions organized by {Crack, Sort, Radix}  ×
//   final store segments organized by {Crack, Sort, Radix}
// giving HCC, HCS, HCR, HSS, HSR, HRR, ... Pure database cracking is the
// degenerate "one partition, never move anything" point; classic adaptive
// merging is essentially HSS.
//
// Mechanics per query:
//  1. the missing (never-yet-queried) sub-ranges of the predicate are
//     computed from a cut-interval set;
//  2. each live initial partition resolves those sub-ranges under its
//     organization policy and the qualifying values migrate into a new
//     final-store segment (whose policy may eagerly sort/cluster it);
//  3. the answer is assembled from final-store segments only — fully
//     covered segments contribute wholesale, boundary segments resolve
//     under their own policy.
//
// Because migration always moves whole value ranges simultaneously from
// every partition, the "holes" left behind are value-aligned dead pieces
// that no later query can touch: correctness needs no tombstones.
//
// Ownership: construction copies the base span into initial partitions
// (the only full-column copy the structure ever makes); the base data is
// not referenced afterwards. All partitions, final-store segments, and the
// merged-range set are owned by the HybridIndex; exhausted partitions
// release their storage eagerly. Move-only, not thread-safe — every query
// is also a write (see exec/serialized_path.h for the latched wrapper).
//
// Usage: construct with an Options naming the initial/final OrganizeMode
// pair (HCS = {kCrack, kSort}, etc. — StrategyConfig::Hybrid does this for
// you behind AccessPath), then call Count/Sum/Materialize with range
// predicates; each call migrates the predicate's still-missing value
// ranges as a side effect. stats() and fully_merged() expose adaptation
// progress; Validate() is the O(n) test-only invariant sweep.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cut.h"
#include "core/cut_interval_set.h"
#include "core/organizer.h"
#include "index/scan.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// Adaptation counters for the benchmark harness.
struct HybridStats {
  std::size_t num_queries = 0;
  std::size_t values_merged = 0;
  std::size_t partitions_exhausted = 0;
  std::size_t final_segments = 0;
  std::size_t merge_queries = 0;
  std::size_t inserts_queued = 0;    // Insert calls accepted
  std::size_t inserts_absorbed = 0;  // pending tuples placed in the index
  std::size_t inserts_cancelled = 0; // pending tuples annihilated by deletes
  std::size_t values_deleted = 0;    // tuples erased from final segments
};

template <ColumnValue T>
class HybridIndex {
 public:
  struct Options {
    /// Values per initial partition (the workspace knob of PVLDB'11 §6).
    std::size_t partition_size = 1 << 18;
    OrganizeMode initial_mode = OrganizeMode::kCrack;
    OrganizeMode final_mode = OrganizeMode::kCrack;
    int radix_bits = 6;
    bool with_row_ids = true;
    /// Crack kernel applied by every cracked segment (core/crack_ops.h).
    CrackKernel kernel = CrackKernel::kAuto;
  };

  /// "HCC", "HCS", ... — the paper's naming for a policy pair.
  static std::string NameOf(OrganizeMode initial, OrganizeMode final_mode) {
    return std::string("H") + OrganizeModeLetter(initial) +
           OrganizeModeLetter(final_mode);
  }

  /// Splits the base column into unorganized initial partitions. Cheap
  /// (one copy); the per-policy organization happens lazily on first touch.
  explicit HybridIndex(std::span<const T> base, Options options = {})
      : options_(options),
        total_size_(base.size()),
        next_rid_(static_cast<row_id_t>(base.size())) {
    AIDX_CHECK(options_.partition_size >= 1);
    for (std::size_t at = 0; at < base.size(); at += options_.partition_size) {
      const std::size_t n = std::min(options_.partition_size, base.size() - at);
      std::vector<T> values(base.begin() + static_cast<std::ptrdiff_t>(at),
                            base.begin() + static_cast<std::ptrdiff_t>(at + n));
      std::vector<row_id_t> rids;
      if (options_.with_row_ids) {
        rids.resize(n);
        for (std::size_t i = 0; i < n; ++i) rids[i] = static_cast<row_id_t>(at + i);
      }
      partitions_.push_back(Partition{
          SegmentOrganizer<T>(std::move(values), std::move(rids),
                              SegmentOptions(options_.initial_mode)),
          n});
    }
  }

  AIDX_DEFAULT_MOVE_ONLY(HybridIndex);

  std::string name() const {
    return NameOf(options_.initial_mode, options_.final_mode);
  }

  /// Queues an insert; the next query absorbs all pending inserts — values
  /// whose key range already migrated go straight into the covering final
  /// segment, the rest forms a fresh initial partition (the PVLDB'11
  /// natural fit: new data is just another partition to merge from).
  /// Returns the fresh tuple's row id.
  row_id_t Insert(T value) {
    pending_.push_back({value, next_rid_});
    ++stats_.inserts_queued;
    return next_rid_++;
  }

  /// Deletes one tuple equal to `value`: cancels a pending insert when one
  /// matches, otherwise forces the [value, value] range to migrate and
  /// erases from the covering final segment. False when absent.
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
    FinalSegment* seg = SegmentContaining(value);
    if (seg == nullptr || !seg->org.EraseOne(value)) return false;
    ++stats_.values_deleted;
    return true;
  }

  /// Rows matching the predicate; migrates missing ranges as a side effect.
  std::size_t Count(const RangePredicate<T>& pred) {
    ++stats_.num_queries;
    if (pred.DefinitelyEmpty()) return 0;
    AbsorbPending();
    const CutRange<T> target = CutRangeForPredicate(pred);
    EnsureMerged(target);
    std::size_t count = 0;
    ForEachAnswerRange(target, pred, [&](const FinalSegment& seg, PositionRange r) {
      (void)seg;
      count += r.size();
    });
    return count;
  }

  /// Sum of matching values; migrates as a side effect.
  long double Sum(const RangePredicate<T>& pred) {
    return RoundSum<T>(SumPartial(pred));
  }

  /// Sum before its one rounding step (SumAcc, index/scan.h).
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) {
    ++stats_.num_queries;
    if (pred.DefinitelyEmpty()) return {};
    AbsorbPending();
    const CutRange<T> target = CutRangeForPredicate(pred);
    EnsureMerged(target);
    SumAcc<T> sum{};
    ForEachAnswerRange(target, pred, [&](const FinalSegment& seg, PositionRange r) {
      sum = SumValues<T>(seg.org.values().subspan(r.begin, r.size()), sum);
    });
    return sum;
  }

  /// Materializes matching values (and row ids when enabled). Order is
  /// segment-internal storage order, not global key order.
  void Materialize(const RangePredicate<T>& pred, std::vector<T>* values,
                   std::vector<row_id_t>* rids) {
    ++stats_.num_queries;
    if (pred.DefinitelyEmpty()) return;
    AbsorbPending();
    const CutRange<T> target = CutRangeForPredicate(pred);
    EnsureMerged(target);
    ForEachAnswerRange(target, pred, [&](const FinalSegment& seg, PositionRange r) {
      const auto vals = seg.org.values();
      values->insert(values->end(), vals.begin() + static_cast<std::ptrdiff_t>(r.begin),
                     vals.begin() + static_cast<std::ptrdiff_t>(r.end));
      if (rids != nullptr && options_.with_row_ids) {
        const auto seg_rids = seg.org.row_ids();
        rids->insert(rids->end(),
                     seg_rids.begin() + static_cast<std::ptrdiff_t>(r.begin),
                     seg_rids.begin() + static_cast<std::ptrdiff_t>(r.end));
      }
    });
  }

  const HybridStats& stats() const { return stats_; }
  std::size_t num_partitions() const { return partitions_.size(); }
  std::size_t num_final_segments() const { return finals_.size(); }
  std::size_t num_pending_inserts() const { return pending_.size(); }
  bool fully_merged() const {
    if (!pending_.empty()) return false;
    for (const Partition& p : partitions_) {
      if (p.live > 0) return false;
    }
    return true;
  }

  /// Conservation + per-segment structural invariants. O(n); tests only.
  bool Validate() const {
    std::size_t live = 0;
    for (const Partition& p : partitions_) {
      live += p.live;
      if (p.live > 0 && !p.org.Validate()) return false;
    }
    if (live + stats_.values_merged != total_size_ + stats_.inserts_absorbed) {
      return false;
    }
    std::size_t in_finals = 0;
    for (const FinalSegment& seg : finals_) {
      in_finals += seg.org.size();
      if (!seg.org.Validate()) return false;
      // Every value must lie inside the segment's declared bounds.
      for (const T v : seg.org.values()) {
        if (!seg.bounds.Contains(v)) return false;
      }
    }
    if (in_finals != stats_.values_merged - stats_.values_deleted) return false;
    return merged_.Validate();
  }

 private:
  struct Partition {
    SegmentOrganizer<T> org;
    std::size_t live;
  };
  struct FinalSegment {
    SegmentOrganizer<T> org;
    CutRange<T> bounds;
  };
  struct PendingTuple {
    T value;
    row_id_t rid;
  };

  /// Options for a segment organized under `mode`; every other knob is the
  /// index's own.
  typename SegmentOrganizer<T>::Options SegmentOptions(OrganizeMode mode) const {
    return {.mode = mode,
            .radix_bits = options_.radix_bits,
            .with_row_ids = options_.with_row_ids,
            .kernel = options_.kernel};
  }

  /// The final segment whose bounds contain `value`, or nullptr. Segments
  /// have pairwise-disjoint bounds sorted by lower cut, so at most one can.
  /// The probe is (value, kLess): a bound lo is above `value` exactly when
  /// lo > (value, kLess) in cut order, so the predecessor of the first
  /// such segment is the only containment candidate.
  FinalSegment* SegmentContaining(T value) {
    const Cut<T> probe{value, CutKind::kLess};
    auto it = std::upper_bound(
        finals_.begin(), finals_.end(), probe,
        [](const Cut<T>& c, const FinalSegment& s) { return c < s.bounds.lo; });
    if (it == finals_.begin()) return nullptr;
    FinalSegment& candidate = *std::prev(it);
    return candidate.bounds.Contains(value) ? &candidate : nullptr;
  }

  /// Places the pending inserts: tuples inside an already-migrated range
  /// join the final store directly (appending to the covering segment, or
  /// founding a segment for the segment-free stretch of the merged range
  /// around them); the remainder becomes a fresh initial partition.
  void AbsorbPending() {
    if (pending_.empty()) return;
    std::vector<T> fresh_values;
    std::vector<row_id_t> fresh_rids;
    for (const PendingTuple& t : pending_) {
      const auto merged_range = merged_.FindContaining(t.value);
      if (!merged_range.has_value()) {
        fresh_values.push_back(t.value);
        if (options_.with_row_ids) fresh_rids.push_back(t.rid);
        continue;
      }
      PlaceInFinals(t, *merged_range);
      ++stats_.values_merged;
    }
    stats_.inserts_absorbed += pending_.size();
    pending_.clear();
    if (fresh_values.empty()) return;
    const std::size_t n = fresh_values.size();
    partitions_.push_back(Partition{
        SegmentOrganizer<T>(std::move(fresh_values), std::move(fresh_rids),
                            SegmentOptions(options_.initial_mode)),
        n});
  }

  /// Appends one already-merged tuple to the covering final segment; when
  /// none covers it, founds a new segment over the widest stretch of
  /// `merged_range` that no existing segment claims (keeping the directory
  /// disjoint so later inserts nearby reuse it).
  void PlaceInFinals(const PendingTuple& t, const CutRange<T>& merged_range) {
    if (FinalSegment* seg = SegmentContaining(t.value); seg != nullptr) {
      seg->org.Append(std::span<const T>(&t.value, 1),
                      options_.with_row_ids
                          ? std::span<const row_id_t>(&t.rid, 1)
                          : std::span<const row_id_t>{});
      return;
    }
    // First segment entirely above the value (see SegmentContaining on the
    // probe kind); its predecessor, if any, is entirely below.
    const Cut<T> probe{t.value, CutKind::kLess};
    auto it = std::upper_bound(
        finals_.begin(), finals_.end(), probe,
        [](const Cut<T>& c, const FinalSegment& s) { return c < s.bounds.lo; });
    CutRange<T> bounds = merged_range;
    if (it != finals_.begin()) {
      const auto prev = std::prev(it);
      if (bounds.lo < prev->bounds.hi) bounds.lo = prev->bounds.hi;
    }
    if (it != finals_.end() && it->bounds.lo < bounds.hi) bounds.hi = it->bounds.lo;
    std::vector<T> values{t.value};
    std::vector<row_id_t> rids;
    if (options_.with_row_ids) rids.push_back(t.rid);
    finals_.insert(it, FinalSegment{
                           SegmentOrganizer<T>(std::move(values), std::move(rids),
                                               SegmentOptions(options_.final_mode)),
                           bounds});
    ++stats_.final_segments;
  }

  void EnsureMerged(const CutRange<T>& target) {
    const auto missing = merged_.Missing(target);
    if (missing.empty()) return;
    ++stats_.merge_queries;
    for (const CutRange<T>& gap : missing) {
      const RangePredicate<T> gap_pred = PredicateForCutRange(gap);
      std::vector<T> staging;
      std::vector<row_id_t> staging_rids;
      for (Partition& p : partitions_) {
        if (p.live == 0) continue;
        const PositionRange r = p.org.Resolve(gap_pred);
        if (r.empty()) continue;
        const auto vals = p.org.values();
        staging.insert(staging.end(),
                       vals.begin() + static_cast<std::ptrdiff_t>(r.begin),
                       vals.begin() + static_cast<std::ptrdiff_t>(r.end));
        if (options_.with_row_ids) {
          const auto rids = p.org.row_ids();
          staging_rids.insert(staging_rids.end(),
                              rids.begin() + static_cast<std::ptrdiff_t>(r.begin),
                              rids.begin() + static_cast<std::ptrdiff_t>(r.end));
        }
        p.live -= r.size();
        if (p.live == 0) {
          p.org.Release();
          ++stats_.partitions_exhausted;
        }
      }
      merged_.Add(gap);
      if (staging.empty()) continue;
      stats_.values_merged += staging.size();
      FinalSegment seg{SegmentOrganizer<T>(std::move(staging), std::move(staging_rids),
                                           SegmentOptions(options_.final_mode)),
                       gap};
      // Eager policies (sort/radix) pay their organization cost at merge
      // time — the "what's merged gets organized" half of the hybrid idea.
      if (options_.final_mode != OrganizeMode::kCrack) seg.org.EnsureOrganized();
      // Segment bounds are pairwise disjoint (each is a freshly merged
      // range), so the directory stays sorted by lower bound; insert in
      // place so answer lookups stay logarithmic.
      const auto at = std::lower_bound(
          finals_.begin(), finals_.end(), seg.bounds.lo,
          [](const FinalSegment& s, const Cut<T>& lo) { return s.bounds.lo < lo; });
      finals_.insert(at, std::move(seg));
      ++stats_.final_segments;
    }
  }

  /// Invokes `fn(segment, positions)` for every final-store range that
  /// belongs to the answer of `pred`. Binary-searches the sorted segment
  /// directory, so converged queries cost O(log segments + overlap width).
  template <typename Fn>
  void ForEachAnswerRange(const CutRange<T>& target, const RangePredicate<T>& pred,
                          Fn&& fn) {
    // First segment with lower bound >= target.lo; its predecessor may
    // still straddle target.lo.
    auto it = std::lower_bound(
        finals_.begin(), finals_.end(), target.lo,
        [](const FinalSegment& s, const Cut<T>& lo) { return s.bounds.lo < lo; });
    if (it != finals_.begin()) {
      const auto prev = std::prev(it);
      if (target.lo < prev->bounds.hi) it = prev;
    }
    for (; it != finals_.end() && it->bounds.lo < target.hi; ++it) {
      FinalSegment& seg = *it;
      if (!(target.lo < seg.bounds.hi)) continue;  // zero-overlap guard
      // Covered: target.lo <= seg.lo and seg.hi <= target.hi.
      const bool covered =
          !(seg.bounds.lo < target.lo || target.hi < seg.bounds.hi);
      if (covered) {
        fn(seg, PositionRange{0, seg.org.size()});
      } else {
        fn(seg, seg.org.Resolve(pred));
      }
    }
  }

  Options options_;
  std::size_t total_size_;
  std::vector<Partition> partitions_;
  std::vector<FinalSegment> finals_;
  std::vector<PendingTuple> pending_;  // inserts awaiting absorption
  row_id_t next_rid_ = 0;              // fresh row ids continue past the base
  CutIntervalSet<T> merged_;
  HybridStats stats_;
};

}  // namespace aidx
