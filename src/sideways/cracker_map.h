// Cracker maps: the unit of sideways cracking (SIGMOD 2009,
// "Self-organizing Tuple Reconstruction in Column-Stores").
//
// A map M_{A,B} holds (head, tail) pairs — selection attribute A and
// projected attribute B — physically reorganized *together* by cracks on A.
// After a select on A the qualifying tuples' B values are one contiguous
// slice: tuple reconstruction becomes a sequential copy instead of the
// random-access gathers that late materialization pays per row.
//
// Every pair additionally carries its row id. Rids are what make maps
// *updatable*: a delete addressed by rid picks the same physical victim in
// every map of a cohort (value-addressed victim search would not, once
// duplicate head values carry different tails), and an eviction-rebuilt map
// can regather tails from the base by rid. RippleInsert / RippleDelete are
// the SIGMOD 2007 ripple moves extended to tandem pairs: O(#pieces) element
// moves per tuple, cuts shifted in lock step.
//
// Maps of the same head stay *aligned* by replaying a shared operation log
// (see sideways.h); CrackerMap itself is the single-map mechanism.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/crack_ops.h"
#include "core/cracker_index.h"
#include "core/cut.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// Adaptation counters for one cracker map.
struct CrackerMapStats {
  std::size_t num_selects = 0;
  std::size_t num_cracks = 0;
  std::size_t values_touched = 0;
  std::size_t inserts_applied = 0;
  std::size_t deletes_applied = 0;
  std::size_t ripple_element_moves = 0;
};

template <ColumnValue T, ColumnValue TailT = T>
class CrackerMap {
 public:
  /// What travels in tandem with each head value. The struct is the kernel
  /// payload, so head, tail, and rid reorganize in one pass.
  struct Entry {
    TailT tail;
    row_id_t rid;
  };

  /// Bytes one row pins in a map (the unit of the storage budget).
  static constexpr std::size_t kBytesPerRow = sizeof(T) + sizeof(Entry);

  /// Materializes the map from base columns (both copied), rids 0..n-1.
  /// Creation cost is part of the first query that needs this map — callers
  /// create lazily. `kernel` selects the partitioning loops
  /// (core/crack_ops.h); the entries ride as the tandem payload through
  /// every kernel.
  CrackerMap(std::span<const T> head, std::span<const TailT> tail,
             CrackKernel kernel = CrackKernel::kAuto)
      : CrackerMap(head, tail, std::span<const row_id_t>{}, kernel) {}

  /// Materialization with explicit row ids (tables whose rid sequence has
  /// diverged from position under DML). Empty `rids` means identity.
  CrackerMap(std::span<const T> head, std::span<const TailT> tail,
             std::span<const row_id_t> rids,
             CrackKernel kernel = CrackKernel::kAuto)
      : kernel_(kernel),
        head_(head.begin(), head.end()),
        index_(head.size()) {
    AIDX_CHECK(head.size() == tail.size())
        << "head/tail length mismatch: " << head.size() << " vs " << tail.size();
    AIDX_CHECK(rids.empty() || rids.size() == head.size())
        << "head/rid length mismatch: " << head.size() << " vs " << rids.size();
    entries_.reserve(head.size());
    for (std::size_t i = 0; i < head.size(); ++i) {
      entries_.push_back(
          {tail[i], rids.empty() ? static_cast<row_id_t>(i) : rids[i]});
    }
  }

  /// Clones `layout_source`'s physical layout — head order, rids, *and*
  /// realized cuts — substituting this map's tail values (given in layout
  /// order). This is how a map joins a cohort whose layout history includes
  /// updates: replaying from base cannot reproduce an interleaved
  /// crack/ripple history, but copying a fully-aligned sibling can.
  CrackerMap(const CrackerMap& layout_source, std::vector<TailT> tail)
      : kernel_(layout_source.kernel_),
        head_(layout_source.head_),
        index_(layout_source.index_.Clone()) {
    AIDX_CHECK(tail.size() == head_.size())
        << "clone tail length mismatch: " << tail.size() << " vs " << head_.size();
    entries_.reserve(head_.size());
    for (std::size_t i = 0; i < head_.size(); ++i) {
      entries_.push_back({tail[i], layout_source.entries_[i].rid});
    }
  }

  AIDX_DEFAULT_MOVE_ONLY(CrackerMap);

  /// Cracks on the predicate's bounds and returns the contiguous position
  /// range of qualifying tuples. Deterministic: two maps with identical
  /// initial content that apply the same operation sequence have identical
  /// layouts (the property alignment relies on).
  PositionRange Select(const RangePredicate<T>& pred) {
    ++stats_.num_selects;
    if (pred.DefinitelyEmpty()) return {0, 0};
    const PredicateCuts<T> cuts = CutsForPredicate(pred);
    std::size_t begin = 0;
    std::size_t end = head_.size();
    if (cuts.has_lower && cuts.has_upper) {
      const CutLookup<T> lo = index_.Lookup(cuts.lower);
      const CutLookup<T> hi = index_.Lookup(cuts.upper);
      if (!lo.exact && !hi.exact && lo.piece.begin == hi.piece.begin &&
          lo.piece.end == hi.piece.end && !(cuts.upper < cuts.lower) &&
          !(cuts.lower == cuts.upper)) {
        const auto& piece = lo.piece;
        const ThreeWaySplit split = CrackInThree<T, Entry>(
            HeadIn(piece.begin, piece.end), EntriesIn(piece.begin, piece.end),
            cuts.lower, cuts.upper, kernel_);
        ++stats_.num_cracks;
        stats_.values_touched +=
            CrackInThreeValuesTouched(piece.end - piece.begin);
        index_.AddCut(cuts.lower, piece.begin + split.lower_end);
        index_.AddCut(cuts.upper, piece.begin + split.middle_end);
        return {piece.begin + split.lower_end, piece.begin + split.middle_end};
      }
    }
    if (cuts.has_lower) begin = ResolveCut(cuts.lower);
    if (cuts.has_upper) end = ResolveCut(cuts.upper);
    if (end < begin) end = begin;
    return {begin, end};
  }

  /// Inserts (head, tail, rid) into the piece its head value belongs to,
  /// cascading one element per downstream piece boundary into the slot
  /// freed by its right neighbour (SIGMOD'07 ripple insert, tandem form).
  void RippleInsert(T head, TailT tail, row_id_t rid) {
    const std::size_t old_size = head_.size();
    const PieceInfo<T> piece = index_.PieceForValue(head);
    std::vector<std::size_t> boundaries;
    if (piece.upper.has_value()) {
      index_.VisitCutsFrom(*piece.upper, [&](const Cut<T>&, std::size_t& pos) {
        boundaries.push_back(pos);
      });
    }
    head_.push_back(head);  // placeholder; overwritten unless no cascade
    entries_.push_back({tail, rid});
    std::size_t hole = old_size;
    for (auto it = boundaries.rbegin(); it != boundaries.rend(); ++it) {
      const std::size_t b = *it;
      if (hole != b) {
        head_[hole] = head_[b];
        entries_[hole] = entries_[b];
        ++stats_.ripple_element_moves;
      }
      hole = b;
    }
    head_[hole] = head;
    entries_[hole] = {tail, rid};
    if (piece.upper.has_value()) {
      index_.VisitCutsFrom(*piece.upper,
                           [](const Cut<T>&, std::size_t& pos) { ++pos; });
    }
    index_.set_column_size(old_size + 1);
    ++stats_.inserts_applied;
  }

  /// Removes the tuple with row id `rid` (whose head value is `head` — the
  /// piece lookup key) by cascading the last element of each downstream
  /// piece into the hole, shrinking the map by one. Returns false when no
  /// tuple in the head value's piece carries the rid.
  bool RippleDelete(T head, row_id_t rid) {
    const std::size_t old_size = head_.size();
    const PieceInfo<T> piece = index_.PieceForValue(head);
    std::size_t pos = piece.end;
    for (std::size_t i = piece.begin; i < piece.end; ++i) {
      if (entries_[i].rid != rid) continue;
      AIDX_DCHECK(head_[i] == head);
      pos = i;
      break;
    }
    if (pos == piece.end) return false;

    std::vector<std::size_t> boundaries;
    if (piece.upper.has_value()) {
      index_.VisitCutsFrom(*piece.upper, [&](const Cut<T>&, std::size_t& p) {
        boundaries.push_back(p);
      });
    }
    std::size_t hole = pos;
    const auto move_last = [&](std::size_t end) {
      if (hole != end - 1) {
        head_[hole] = head_[end - 1];
        entries_[hole] = entries_[end - 1];
        ++stats_.ripple_element_moves;
      }
      hole = end - 1;
    };
    move_last(boundaries.empty() ? old_size : boundaries.front());
    for (std::size_t j = 0; j < boundaries.size(); ++j) {
      move_last(j + 1 < boundaries.size() ? boundaries[j + 1] : old_size);
    }
    AIDX_DCHECK(hole == old_size - 1);
    head_.pop_back();
    entries_.pop_back();
    if (piece.upper.has_value()) {
      index_.VisitCutsFrom(*piece.upper,
                           [](const Cut<T>&, std::size_t& p) { --p; });
    }
    index_.set_column_size(old_size - 1);
    ++stats_.deletes_applied;
    return true;
  }

  std::span<const T> head() const { return head_; }
  TailT tail_at(std::size_t i) const {
    AIDX_DCHECK(i < entries_.size());
    return entries_[i].tail;
  }
  row_id_t rid_at(std::size_t i) const {
    AIDX_DCHECK(i < entries_.size());
    return entries_[i].rid;
  }
  std::size_t size() const { return head_.size(); }
  const CrackerIndex<T>& index() const { return index_; }
  const CrackerMapStats& stats() const { return stats_; }

  /// Payload bytes this map pins (the unit of the storage budget).
  std::size_t MemoryUsageBytes() const {
    return head_.capacity() * sizeof(T) + entries_.capacity() * sizeof(Entry);
  }

  /// Piece invariants over the head column. O(n); tests only.
  bool Validate() const {
    if (!index_.Validate() || index_.column_size() != head_.size()) return false;
    if (entries_.size() != head_.size()) return false;
    bool ok = true;
    index_.VisitPieces([&](const PieceInfo<T>& piece) {
      for (std::size_t i = piece.begin; i < piece.end && ok; ++i) {
        if (piece.lower && piece.lower->Below(head_[i])) ok = false;
        if (piece.upper && !piece.upper->Below(head_[i])) ok = false;
      }
    });
    return ok;
  }

 private:
  std::span<T> HeadIn(std::size_t b, std::size_t e) {
    return std::span<T>(head_).subspan(b, e - b);
  }
  std::span<Entry> EntriesIn(std::size_t b, std::size_t e) {
    return std::span<Entry>(entries_).subspan(b, e - b);
  }

  std::size_t ResolveCut(const Cut<T>& cut) {
    const CutLookup<T> look = index_.Lookup(cut);
    if (look.exact) return look.position;
    const auto& piece = look.piece;
    const std::size_t split =
        piece.begin + CrackInTwo<T, Entry>(HeadIn(piece.begin, piece.end),
                                           EntriesIn(piece.begin, piece.end),
                                           cut, kernel_);
    ++stats_.num_cracks;
    stats_.values_touched += piece.end - piece.begin;
    index_.AddCut(cut, split);
    return split;
  }

  CrackKernel kernel_ = CrackKernel::kAuto;
  std::vector<T> head_;
  std::vector<Entry> entries_;
  CrackerIndex<T> index_;
  CrackerMapStats stats_;
};

}  // namespace aidx
