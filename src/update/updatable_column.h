// Cracking under updates (Idreos, Kersten, Manegold — SIGMOD 2007,
// "Updating a Cracked Database").
//
// Updates are queued in pending stores and folded into the cracked array
// *adaptively, during query processing* — the same philosophy as cracking
// itself: the query that needs a key range pays (only) for bringing that
// range up to date. Three merge policies are reproduced:
//
//   kComplete (MCI): the first query after updates merges the entire
//       pending set — simple, but spikes that query's latency;
//   kGradual (MGI): merges what the query needs plus a fixed budget of
//       additional pending tuples, draining the queue over several queries;
//   kRipple (MRI): merges exactly the pending tuples the query's range
//       needs, using ripple moves: inserting a value into piece k shifts
//       one element per downstream piece boundary instead of shifting the
//       whole array tail — O(#pieces) element moves per tuple.
//
// All three policies use the ripple mechanism for the physical move; they
// differ in *when* and *how much* they merge, which is what the SIGMOD'07
// experiments (and bench_e4_updates) compare.
//
// Deletes come in two addressing modes: by (value, row id) — the SIGMOD'07
// tuple-precise form — and by value alone (DeleteValue), which removes an
// arbitrary occurrence and is what the engine's multiset-semantics DML
// surface uses. Row ids are optional; value-addressed updates work without
// them, rid-addressed deletes require them.
//
// The ripple cascade itself lives once, in core/crack_walk.h, generic over
// the tandem payload: sideways cracker maps (sideways/cracker_map.h) run
// the same moves with the projected tail value and rid riding along, which
// is what keeps maps maintainable under row-atomic DML instead of being
// dropped on every write. This column keeps only its victim search.
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/cracker_column.h"
#include "core/cut_interval_set.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// When pending updates get folded into the cracked array.
enum class MergePolicy : char {
  kComplete,  // MCI: everything at the next query
  kGradual,   // MGI: query's range + a fixed extra budget per query
  kRipple,    // MRI: exactly the query's range
};

inline const char* MergePolicyName(MergePolicy policy) {
  switch (policy) {
    case MergePolicy::kComplete:
      return "MCI";
    case MergePolicy::kGradual:
      return "MGI";
    case MergePolicy::kRipple:
      return "MRI";
  }
  return "?";
}

/// Update-merge counters for the benchmark harness.
struct UpdateStats {
  std::size_t inserts_queued = 0;
  std::size_t deletes_queued = 0;
  std::size_t deletes_cancelled = 0;  // delete hit a still-pending insert
  std::size_t inserts_merged = 0;
  std::size_t deletes_merged = 0;
  std::size_t ripple_element_moves = 0;

  UpdateStats& operator+=(const UpdateStats& o) {
    inserts_queued += o.inserts_queued;
    deletes_queued += o.deletes_queued;
    deletes_cancelled += o.deletes_cancelled;
    inserts_merged += o.inserts_merged;
    deletes_merged += o.deletes_merged;
    ripple_element_moves += o.ripple_element_moves;
    return *this;
  }
};

/// Sentinel row id marking a pending delete addressed by value only.
inline constexpr row_id_t kPendingNoRid = std::numeric_limits<row_id_t>::max();

/// A cracker column that additionally accepts inserts and deletes.
///
/// Fresh inserts receive monotonically increasing row ids (tracked even
/// when row-id storage is disabled, so callers can use the returned ids as
/// stable handles only when row ids are on).
template <ColumnValue T>
class UpdatableCrackerColumn : public CrackerColumn<T> {
 public:
  struct Options {
    MergePolicy policy = MergePolicy::kRipple;
    /// Extra pending tuples merged per query under kGradual.
    std::size_t gradual_budget = 64;
    CrackerColumnOptions crack{};
  };

  explicit UpdatableCrackerColumn(std::span<const T> base, Options options = {})
      : CrackerColumn<T>(base, options.crack),
        options_(options),
        next_row_id_(static_cast<row_id_t>(base.size())) {}

  /// Adopts pre-existing arrays without copying (partitioned columns hand
  /// their shards over this way). Fresh inserts are assigned row ids from
  /// `first_fresh_rid` unless the caller supplies explicit ids.
  UpdatableCrackerColumn(std::vector<T> values, std::vector<row_id_t> row_ids,
                         Options options, row_id_t first_fresh_rid)
      : CrackerColumn<T>(std::move(values), std::move(row_ids), options.crack),
        options_(options),
        next_row_id_(first_fresh_rid) {}

  /// Queues an insert; returns the new tuple's row id.
  row_id_t Insert(T value) {
    const row_id_t rid = next_row_id_++;
    pending_inserts_.push_back({value, rid});
    ++stats_.inserts_queued;
    return rid;
  }

  /// Queues a delete of the tuple (value, rid). If the tuple is still a
  /// pending insert the two cancel immediately. Returns false when the
  /// tuple was already queued for deletion (double delete). Requires row
  /// ids; use DeleteValue on columns built without them.
  bool Delete(T value, row_id_t rid) {
    AIDX_CHECK(this->options().with_row_ids) << "rid deletes need row ids";
    if (CancelPendingInsert([&](const PendingTuple& t) {
          AIDX_DCHECK(t.rid != rid || t.value == value);
          return t.rid == rid;
        })) {
      return true;
    }
    for (const PendingTuple& d : pending_deletes_) {
      if (d.rid == rid) return false;
    }
    pending_deletes_.push_back({value, rid});
    ++stats_.deletes_queued;
    return true;
  }

  /// Queues a delete of one (arbitrary) live tuple equal to `value`:
  /// cancels a pending insert when one matches, otherwise verifies a live
  /// occurrence exists in the cracked array (cracking on [value, value] as
  /// a side effect — a delete is a query here too) before queueing.
  /// Returns false when no live tuple carries the value.
  bool DeleteValue(T value) {
    if (CancelPendingInsert([&](const PendingTuple& t) { return t.value == value; })) {
      return true;
    }
    const auto point = RangePredicate<T>::Between(value, value);
    const CrackSelect sel = CrackerColumn<T>::Select(point);
    std::vector<std::size_t> positions;  // live occurrences of `value`
    for (std::size_t p = sel.core.begin; p < sel.core.end; ++p) {
      positions.push_back(p);
    }
    for (int e = 0; e < sel.num_edges; ++e) {
      for (std::size_t p = sel.edges[e].begin; p < sel.edges[e].end; ++p) {
        if (this->values()[p] == value) positions.push_back(p);
      }
    }
    // Count queued deletes that can actually claim one of those tuples:
    // value-addressed ones always can; rid-addressed ones only when their
    // rid is present (a rid-delete of a nonexistent tuple — dropped
    // silently at merge time — must not block a real delete).
    std::size_t already_claimed = 0;
    for (const PendingTuple& d : pending_deletes_) {
      if (d.value != value) continue;
      if (d.rid == kPendingNoRid) {
        ++already_claimed;
        continue;
      }
      for (const std::size_t p : positions) {
        if (this->row_ids()[p] == d.rid) {
          ++already_claimed;
          break;
        }
      }
    }
    if (positions.size() <= already_claimed) return false;
    pending_deletes_.push_back({value, kPendingNoRid});
    ++stats_.deletes_queued;
    return true;
  }

  /// Rows matching the predicate, after adaptively merging the pending
  /// updates the predicate's range requires.
  std::size_t Count(const RangePredicate<T>& pred) {
    MergeForQuery(pred);
    return CrackerColumn<T>::Count(pred);
  }

  /// Sum of matching values, after adaptive update merging.
  long double Sum(const RangePredicate<T>& pred) {
    return RoundSum<T>(SumPartial(pred));
  }

  /// Unrounded Sum (SumAcc), after adaptive update merging.
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) {
    MergeForQuery(pred);
    return CrackerColumn<T>::SumPartial(pred);
  }

  /// Deadline/cancellation-aware variants. The context gates the entry and
  /// the piece-level crack loop; the pending-update merge itself always
  /// rolls forward once started — a merge is row-atomic investment, so an
  /// expiring query parks AFTER it, never inside it.
  Result<std::size_t> Count(const RangePredicate<T>& pred, const QueryContext& ctx) {
    AIDX_RETURN_NOT_OK(ctx.Check());
    MergeForQuery(pred);
    return CrackerColumn<T>::Count(pred, ctx);
  }

  Result<SumAcc<T>> SumPartial(const RangePredicate<T>& pred, const QueryContext& ctx) {
    AIDX_RETURN_NOT_OK(ctx.Check());
    MergeForQuery(pred);
    return CrackerColumn<T>::SumPartial(pred, ctx);
  }

  /// Folds the pending updates the predicate's range requires (policy-
  /// dependent) without answering a query. Callers that take raw cracked
  /// positions (Select / Materialize pipelines) use this first so the
  /// positions reflect every update the predicate must observe.
  void MergePendingFor(const RangePredicate<T>& pred) { MergeForQuery(pred); }

  bool has_pending() const {
    return !pending_inserts_.empty() || !pending_deletes_.empty();
  }

  /// Read-only enumeration of the pending stores, for the striped write
  /// path's overlay reads and existence probes (which may only hold the
  /// shard's structural latch shared — the stores mutate only under
  /// structural exclusive). `fn(value, rid)` per tuple.
  template <typename Fn>
  void ForEachPendingInsert(Fn&& fn) const {
    for (const PendingTuple& t : pending_inserts_) fn(t.value, t.rid);
  }
  template <typename Fn>
  void ForEachPendingDelete(Fn&& fn) const {
    for (const PendingTuple& t : pending_deletes_) fn(t.value, t.rid);
  }

  /// Adopts an insert that was already counted as queued by an outer
  /// buffer (the partitioned column's striped write buckets), carrying the
  /// row id the outer layer allocated. Skips the inserts_queued bump, so
  /// draining a buffer never double-counts.
  void AdoptPendingInsert(T value, row_id_t rid) {
    if (rid != kPendingNoRid && rid >= next_row_id_) next_row_id_ = rid + 1;
    pending_inserts_.push_back({value, rid});
  }

  /// Adopts a value-addressed delete that was already counted as queued by
  /// an outer buffer. Cancels a matching pending insert when one exists
  /// (counted as a cancellation — the claimed tuple never reaches the
  /// array), otherwise queues the delete without re-counting it. The outer
  /// buffer verified a live occurrence at enqueue time.
  void AdoptPendingDeleteValue(T value) {
    if (!CancelPendingInsert([&](const PendingTuple& t) { return t.value == value; })) {
      pending_deletes_.push_back({value, kPendingNoRid});
    }
  }

  /// Merges up to `max_tuples` pending updates (oldest-first, deletes
  /// before inserts) regardless of any predicate — the chunk primitive a
  /// background merge runs between latch releases so readers never wait
  /// behind one long exclusive hold.
  void MergePendingBudget(std::size_t max_tuples) {
    if (max_tuples == 0) return;
    MergeMatching([](const PendingTuple&) { return false; }, max_tuples);
  }

  std::size_t num_pending_inserts() const { return pending_inserts_.size(); }
  std::size_t num_pending_deletes() const { return pending_deletes_.size(); }
  /// Logical tuple count: merged array plus pending inserts minus pending
  /// (still physically present) deletes.
  std::size_t live_size() const {
    return this->size() + pending_inserts_.size() - pending_deletes_.size();
  }
  const UpdateStats& update_stats() const { return stats_; }
  MergePolicy policy() const { return options_.policy; }

  /// Piece invariants plus pending-store sanity.
  bool Validate() const {
    if (!this->ValidatePieces()) return false;
    for (const PendingTuple& t : pending_inserts_) {
      if (t.rid != kPendingNoRid && t.rid >= next_row_id_) return false;
    }
    return true;
  }

 private:
  struct PendingTuple {
    T value;
    row_id_t rid;
  };

  /// Swap-removes the first pending insert `is_victim` accepts, counting
  /// the delete that claimed it as cancelled; false when none qualifies.
  template <typename Fn>
  bool CancelPendingInsert(Fn&& is_victim) {
    for (std::size_t i = 0; i < pending_inserts_.size(); ++i) {
      if (!is_victim(pending_inserts_[i])) continue;
      pending_inserts_[i] = pending_inserts_.back();
      pending_inserts_.pop_back();
      ++stats_.deletes_cancelled;
      return true;
    }
    return false;
  }

  void MergeForQuery(const RangePredicate<T>& pred) {
    if (pending_inserts_.empty() && pending_deletes_.empty()) return;
    switch (options_.policy) {
      case MergePolicy::kComplete:
        MergeMatching([](const PendingTuple&) { return true; }, 0);
        break;
      case MergePolicy::kGradual:
        MergeMatching([&](const PendingTuple& t) { return pred.Matches(t.value); },
                      options_.gradual_budget);
        break;
      case MergePolicy::kRipple:
        MergeMatching([&](const PendingTuple& t) { return pred.Matches(t.value); }, 0);
        break;
    }
  }

  /// Merges every pending tuple satisfying `needed`, plus up to `extra`
  /// additional tuples (oldest first) to drain the queue.
  template <typename NeedFn>
  void MergeMatching(NeedFn&& needed, std::size_t extra) {
    // Deletes first: a delete can only address an already-merged tuple
    // (insert/delete pairs cancelled at queue time).
    std::size_t extra_left = extra;
    for (std::size_t i = 0; i < pending_deletes_.size();) {
      const bool take = needed(pending_deletes_[i]) ||
                        (extra_left > 0 && (--extra_left, true));
      if (!take) {
        ++i;
        continue;
      }
      RippleDelete(pending_deletes_[i].value, pending_deletes_[i].rid);
      pending_deletes_[i] = pending_deletes_.back();
      pending_deletes_.pop_back();
      ++stats_.deletes_merged;
    }
    for (std::size_t i = 0; i < pending_inserts_.size();) {
      const bool take = needed(pending_inserts_[i]) ||
                        (extra_left > 0 && (--extra_left, true));
      if (!take) {
        ++i;
        continue;
      }
      RippleInsert(pending_inserts_[i].value, pending_inserts_[i].rid);
      pending_inserts_[i] = pending_inserts_.back();
      pending_inserts_.pop_back();
      ++stats_.inserts_merged;
    }
  }

  std::vector<row_id_t>* TandemRowIds() {
    return this->options().with_row_ids ? &this->mutable_row_ids() : nullptr;
  }

  /// Inserts (value, rid) into its piece by the ripple cascade
  /// (core/crack_walk.h).
  void RippleInsert(T value, row_id_t rid) {
    stats_.ripple_element_moves += aidx::RippleInsert(
        this->mutable_values(), TandemRowIds(), this->mutable_index(), value, rid);
  }

  /// True when some pending rid-addressed delete targets row id `rid`
  /// (value-addressed deletes must not steal such a tuple).
  bool RidPendingDelete(row_id_t rid) const {
    for (const PendingTuple& d : pending_deletes_) {
      if (d.rid == rid) return true;
    }
    return false;
  }

  /// Removes the tuple (value, rid) — or, when rid is kPendingNoRid, an
  /// arbitrary tuple equal to `value` — by the ripple cascade. Only the
  /// victim search is the column's own.
  void RippleDelete(T value, row_id_t rid) {
    const std::span<const T> values = this->values();
    const std::span<const row_id_t> rids = this->row_ids();
    const bool with_rids = this->options().with_row_ids;
    const PieceInfo<T> piece = this->index().PieceForValue(value);
    // Locate the victim inside its piece. Value-addressed deletes skip
    // tuples claimed by a still-pending rid-addressed delete so the two
    // forms never race for the same physical tuple.
    for (std::size_t i = piece.begin; i < piece.end; ++i) {
      if (rid != kPendingNoRid) {
        if (rids[i] != rid) continue;
        AIDX_DCHECK(values[i] == value);
      } else {
        if (values[i] != value) continue;
        if (with_rids && RidPendingDelete(rids[i])) continue;
      }
      stats_.ripple_element_moves += aidx::RippleDelete(
          this->mutable_values(), TandemRowIds(), this->mutable_index(), piece, i);
      return;
    }
    // Unknown tuple: dropped silently (see tests).
  }

  Options options_;
  std::vector<PendingTuple> pending_inserts_;
  std::vector<PendingTuple> pending_deletes_;
  UpdateStats stats_;
  row_id_t next_row_id_;
};

}  // namespace aidx
