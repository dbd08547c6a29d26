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
// can regather tails from the base by rid. RippleInsert / RippleDelete run
// the SIGMOD 2007 ripple cascade (core/crack_walk.h) with (tail, rid) as
// the tandem payload: O(#pieces) element moves per tuple, cuts shifted in
// lock step. Only the victim search — by rid — is the map's own.
//
// Maps of the same head stay *aligned* by replaying a shared operation log
// (see sideways.h); CrackerMap itself is the single-map mechanism.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/crack_ops.h"
#include "core/crack_walk.h"
#include "core/cracker_index.h"
#include "core/cut.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// Adaptation counters for one cracker map: the crack walk's, plus DML.
struct CrackerMapStats : CrackerStats {
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
      : options_{.kernel = kernel},
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
      : options_(layout_source.options_),
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
  /// range of qualifying tuples: the column's crack walk (core/crack_walk.h)
  /// over the (head, Entry) arrays. Deterministic: two maps with identical
  /// initial content that apply the same operation sequence have identical
  /// layouts (the property alignment relies on).
  PositionRange Select(const RangePredicate<T>& pred) {
    Status ignored;  // no context: the piece gate cannot fire errors
    return CrackWalk<T, Entry, NoPieceLatch>{head_, entries_, index_, options_,
                                             /*rng=*/nullptr, stats_, {},
                                             /*ctx=*/nullptr, &ignored}
        .Select(pred)
        .core;
  }

  /// Inserts (head, tail, rid) into the piece its head value belongs to by
  /// the ripple cascade (core/crack_walk.h), tail and rid in tandem.
  void RippleInsert(T head, TailT tail, row_id_t rid) {
    stats_.ripple_element_moves +=
        aidx::RippleInsert(head_, &entries_, index_, head, Entry{tail, rid});
    ++stats_.inserts_applied;
  }

  /// Removes the tuple with row id `rid` (whose head value is `head` — the
  /// piece lookup key) by the ripple cascade, shrinking the map by one.
  /// Returns false when no tuple in the head value's piece carries the rid.
  bool RippleDelete(T head, row_id_t rid) {
    const PieceInfo<T> piece = index_.PieceForValue(head);
    for (std::size_t i = piece.begin; i < piece.end; ++i) {
      if (entries_[i].rid != rid) continue;
      AIDX_DCHECK(head_[i] == head);
      stats_.ripple_element_moves +=
          aidx::RippleDelete(head_, &entries_, index_, piece, i);
      ++stats_.deletes_applied;
      return true;
    }
    return false;
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
    return entries_.size() == head_.size() && index_.ValidateOver(head_);
  }

 private:
  CrackerColumnOptions options_;  // only `kernel` is ever set
  std::vector<T> head_;
  std::vector<Entry> entries_;
  CrackerIndex<T> index_;
  CrackerMapStats stats_;
};

}  // namespace aidx
