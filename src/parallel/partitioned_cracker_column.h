// PartitionedCrackerColumn: parallel adaptive indexing by range partitioning.
//
// The design follows the two multi-core follow-ups to the EDBT 2012
// tutorial (see docs/CONCURRENCY.md for the full model):
//
//  - Alvarez et al., "Main Memory Adaptive Indexing for Multi-core
//    Systems": range-partition the base column into K partitions by value
//    and crack each partition independently — cracks in one partition never
//    move tuples in another, so disjoint partitions need no coordination.
//  - Graefe et al., "Concurrency Control for Adaptive Indexing": every
//    adaptive query is also a writer, so latch at the granularity of the
//    structure actually reorganized — individual pieces, coordinated
//    through a short-duration latch on the cracker index.
//
// The latch protocol is the Graefe-style piece protocol, wrapped as a
// latch policy around each partition's own crack walk (core/crack_walk.h).
// Each partition carries a table of reader-writer stripe latches over
// *position blocks* (a piece's stripe set is the hash of every block its
// position range overlaps; the table size is fixed at construction), a
// reader-writer `structural` latch, and a reader-writer latch on the
// cracker index. A select takes shared latches on what it only reads and
// exclusive stripe latches on the (<= 2, plus stochastic pre-cracks)
// pieces it cracks, so two selects into the same partition overlap
// whenever they crack disjoint pieces. The full protocol, its acquisition
// order, and the correctness argument live in docs/CONCURRENCY.md §4.
//
// Ownership: a PartitionedCrackerColumn owns its K shards (each an
// independent UpdatableCrackerColumn plus its latches) and its splitter
// table; it *borrows* an optional ThreadPool for intra-query fan-out and
// never owns it — one pool typically serves many columns. The base span is
// copied at construction (same contract as CrackerColumn).
//
// Thread safety: Count, Sum, Insert, Delete, InsertBatch, DeleteBatch,
// AggregatedStats, AggregatedUpdateStats, and ValidatePieces are safe to
// call from any number of threads concurrently. Select (which returns raw
// per-partition position ranges) is the exception: positions are only
// stable while no other thread cracks the same partition, so it is for
// externally synchronized use — tests, single-threaded tools.
//
// Writes route to the single partition owning their value (the splitter
// table is immutable, so routing needs no latch). There they take
// `structural` shared, route to the owning *piece* under that piece's
// exclusive stripe latches, and land in a per-shard table of
// mutex-guarded write buckets keyed by value hash; a later exclusive hold
// drains the buckets into the shard's pending stores. Pending updates fold
// only on the query path, as in the single-threaded pipeline: a query
// whose range overlaps buffered or pending tuples takes the coarse path
// under `structural` exclusive, which drains the buckets and merges by the
// shard's merge policy; every other query stays on the shared fast path
// (docs/CONCURRENCY.md §4).
//
// Fresh row ids come from one atomic counter so they stay globally unique
// across partitions; the live tuple count is likewise an atomic,
// maintained outside any latch (docs/CONCURRENCY.md §3).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/cut.h"
#include "index/scan.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "update/updatable_column.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace aidx {

/// Striped read-path routing counters: how many per-shard reads answered
/// from the shared fast path (no pending overlap) or the coarse exclusive
/// path (which folds the overlapping pending updates first).
struct StripedReadPathStats {
  std::size_t fast_reads = 0;
  std::size_t coarse_reads = 0;
};

/// Tuning knobs for a partitioned cracker column.
struct PartitionedCrackerOptions {
  /// Requested partition count K. The effective count can be lower when the
  /// data has fewer distinct values than K (duplicate splitters collapse).
  std::size_t num_partitions = 8;
  /// Applied to every per-partition CrackerColumn; the stochastic seed is
  /// perturbed per partition so partitions do not pick identical pivots.
  CrackerColumnOptions column_options = {};
  std::uint64_t splitter_seed = 0xA24BAED4963EE407ULL;
  /// Update-merge policy applied by every partition's update pipeline.
  MergePolicy merge_policy = MergePolicy::kRipple;
  std::size_t gradual_budget = 64;
  /// Stripe-latch table size per partition, clamped to [1, 64] and fixed
  /// at construction. More stripes = fewer false conflicts between
  /// disjoint pieces, at a few hundred bytes per partition.
  std::size_t latch_stripes = 16;
};

/// One partition's share of a fanned-out Select.
struct PartitionSelect {
  std::size_t partition = 0;
  CrackSelect sel = {};
};

/// Per-partition results of PartitionedCrackerColumn::Select, in ascending
/// partition order. Positions are local to each partition's cracked array.
struct ParallelSelect {
  std::vector<PartitionSelect> partitions;
};

template <ColumnValue T>
class PartitionedCrackerColumn {
 public:
  /// Copies and scatters `base` into K value-range partitions. Row ids (when
  /// enabled in the options) are global base-column offsets, so projections
  /// compose with the rest of the system unchanged. `pool` is borrowed for
  /// intra-query fan-out; nullptr runs partition work inline.
  explicit PartitionedCrackerColumn(std::span<const T> base,
                                    PartitionedCrackerOptions options = {},
                                    ThreadPool* pool = nullptr)
      : options_(options), pool_(pool) {
    AIDX_CHECK(options_.num_partitions > 0);
    splitters_ = PickSplitters(base);
    const std::size_t k = splitters_.size() + 1;
    std::vector<std::vector<T>> values(k);
    std::vector<std::vector<row_id_t>> row_ids(k);
    const bool with_rids = options_.column_options.with_row_ids;
    for (auto& v : values) v.reserve(base.size() / k + 1);
    if (with_rids) {
      for (auto& r : row_ids) r.reserve(base.size() / k + 1);
    }
    for (std::size_t i = 0; i < base.size(); ++i) {
      const std::size_t p = PartitionOf(base[i]);
      values[p].push_back(base[i]);
      if (with_rids) row_ids[p].push_back(static_cast<row_id_t>(i));
    }
    shards_.reserve(k);
    for (std::size_t p = 0; p < k; ++p) {
      CrackerColumnOptions per_shard = options_.column_options;
      per_shard.stochastic_seed += p;  // decorrelate stochastic pivots
      shards_.push_back(std::make_unique<Shard>(std::move(values[p]),
                                                std::move(row_ids[p]), per_shard,
                                                options_));
    }
    next_rid_.store(static_cast<row_id_t>(base.size()), std::memory_order_relaxed);
    live_size_.store(base.size(), std::memory_order_relaxed);
  }

  AIDX_DISALLOW_COPY_AND_ASSIGN(PartitionedCrackerColumn);

  /// Queues an insert in the partition owning `value` and returns the
  /// globally unique row id assigned to the fresh tuple. The insert routes
  /// to the owning piece under `structural` shared plus that piece's
  /// exclusive stripes and buffers in a write bucket; the tuple merges into
  /// the cracked array when a later query needs its range — the same
  /// adaptive bargain as the single-threaded pipeline.
  /// Thread-safe.
  row_id_t Insert(T value) {
    const row_id_t rid = next_rid_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard = *shards_[PartitionOf(value)];
    {
      const std::shared_lock<std::shared_mutex> structural(shard.structural);
      StripedEnqueueInsertLocked(shard, value, rid);
    }
    live_size_.fetch_add(1, std::memory_order_relaxed);
    return rid;
  }

  /// Queues inserts for a batch of values, grouped by owning partition so
  /// each partition's `structural` latch is taken once per batch instead of
  /// once per tuple. Row ids for the whole batch are reserved with one
  /// atomic bump and assigned in batch order, so the result is
  /// indistinguishable from the equivalent Insert loop. Latches are taken
  /// one partition at a time in ascending order — the standard latch
  /// protocol, so batch writers compose with everything else. Thread-safe.
  void InsertBatch(std::span<const T> batch) {
    if (batch.empty()) return;
    const row_id_t first_rid =
        next_rid_.fetch_add(static_cast<row_id_t>(batch.size()),
                            std::memory_order_relaxed);
    const std::vector<std::vector<std::size_t>> groups = GroupByPartition(batch);
    for (std::size_t p = 0; p < groups.size(); ++p) {
      if (groups[p].empty()) continue;
      Shard& shard = *shards_[p];
      const std::shared_lock<std::shared_mutex> structural(shard.structural);
      for (const std::size_t i : groups[p]) {
        StripedEnqueueInsertLocked(shard, batch[i],
                                   first_rid + static_cast<row_id_t>(i));
      }
    }
    live_size_.fetch_add(batch.size(), std::memory_order_relaxed);
  }

  /// Deletes one live tuple equal to `value` from its owning partition;
  /// false when absent. The existence probe (a point resolve, which cracks
  /// — a delete is a query here too) runs under `structural` shared, and
  /// the surviving delete buffers in a write bucket. Thread-safe.
  bool Delete(T value) {
    Shard& shard = *shards_[PartitionOf(value)];
    bool deleted;
    {
      const std::shared_lock<std::shared_mutex> structural(shard.structural);
      deleted = StripedDeleteLocked(shard, value);
    }
    if (deleted) live_size_.fetch_sub(1, std::memory_order_relaxed);
    return deleted;
  }

  /// Deletes one live tuple per batch entry (multiset semantics, same as a
  /// Delete loop) with one `structural` acquisition per touched partition.
  /// Returns how many tuples were actually deleted. Thread-safe.
  std::size_t DeleteBatch(std::span<const T> batch) {
    if (batch.empty()) return 0;
    const std::vector<std::vector<std::size_t>> groups = GroupByPartition(batch);
    std::size_t deleted = 0;
    for (std::size_t p = 0; p < groups.size(); ++p) {
      if (groups[p].empty()) continue;
      Shard& shard = *shards_[p];
      const std::shared_lock<std::shared_mutex> structural(shard.structural);
      for (const std::size_t i : groups[p]) {
        deleted += StripedDeleteLocked(shard, batch[i]) ? 1 : 0;
      }
    }
    live_size_.fetch_sub(deleted, std::memory_order_relaxed);
    return deleted;
  }

  /// Rows matching `pred` across all partitions (cracks as a side effect).
  /// Thread-safe.
  std::size_t Count(const RangePredicate<T>& pred) {
    return FanOut(pred, nullptr, &PartitionedCrackerColumn::CountShard).value();
  }

  /// SUM of matching values across all partitions (cracks as a side
  /// effect). Thread-safe.
  long double Sum(const RangePredicate<T>& pred) {
    return RoundSum<T>(SumPartial(pred));
  }

  /// Sum before its one rounding step (SumAcc, index/scan.h). Thread-safe.
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) {
    return FanOut(pred, nullptr, &PartitionedCrackerColumn::SumShard).value();
  }

  /// Deadline/cancellation-aware Count: the context gates each shard of
  /// the fan-out and, inside a shard, every piece-level crack of the walk
  /// (docs/ROBUSTNESS.md). Cracks already realized are kept — they are
  /// ordinary incremental indexing investment, and the column stays
  /// ValidatePieces-clean. Thread-safe.
  Result<std::size_t> Count(const RangePredicate<T>& pred,
                            const QueryContext& ctx) {
    return FanOut(pred, &ctx, &PartitionedCrackerColumn::CountShard);
  }

  /// Deadline/cancellation-aware Sum; same gating as the Count overload.
  /// Thread-safe.
  Result<SumAcc<T>> SumPartial(const RangePredicate<T>& pred,
                               const QueryContext& ctx) {
    return FanOut(pred, &ctx, &PartitionedCrackerColumn::SumShard);
  }

  /// Fans the predicate out across the overlapping partitions and returns
  /// the per-partition CrackSelect results. NOT safe under concurrent
  /// queries: the returned positions are stable only until the next crack
  /// of the same partition (see file comment). Prefer Count/Sum, which
  /// resolve positions under the latches.
  ParallelSelect Select(const RangePredicate<T>& pred) {
    ParallelSelect out;
    if (pred.DefinitelyEmpty()) return out;
    const auto [first, last] = OverlapRange(pred);
    out.partitions.resize(last - first + 1);
    ForEachOverlapping(first, last, [&](std::size_t p, std::size_t slot) {
      Shard& shard = *shards_[p];
      WithShardExclusive(shard, [&] {
        DrainStripedPending(shard);
        shard.column.MergePendingFor(pred);
        out.partitions[slot] = {p, shard.column.Select(pred)};
      });
    });
    return out;
  }

  /// Sum of all partitions' CrackerStats (the striped fast path bumps the
  /// same counters as the coarse path). Thread-safe, and stalls no reader:
  /// under `structural` shared the only concurrent writers are the fast
  /// path's relaxed atomic_ref bumps, so the counters are loaded the same
  /// way.
  CrackerStats AggregatedStats() const {
    CrackerStats total;
    for (const auto& shard : shards_) {
      const std::shared_lock<std::shared_mutex> structural(shard->structural);
      const CrackerStats& s = shard->column.stats();
      total += {.num_selects = RelaxedLoad(s.num_selects),
                .num_crack_in_two = RelaxedLoad(s.num_crack_in_two),
                .num_crack_in_three = RelaxedLoad(s.num_crack_in_three),
                .num_stochastic_cracks = RelaxedLoad(s.num_stochastic_cracks),
                .values_touched = RelaxedLoad(s.values_touched)};
    }
    return total;
  }

  /// Piece serialization (parallel/piece_transfer.h): visits every
  /// realized cut across partitions — partitions in value order, cuts
  /// ascending within each, so the walk is globally ascending — under
  /// whole-partition exclusion. `fn(const Cut<T>&)` per cut. Thread-safe.
  template <typename Fn>
  void VisitRealizedCuts(Fn&& fn) const {
    for (const auto& shard : shards_) {
      WithShardExclusive(*shard, [&] {
        shard->column.index().VisitCuts(
            [&](const Cut<T>& cut, const std::size_t&) { fn(cut); });
      });
    }
  }

  /// Realized piece count summed over partitions (a fresh partition is one
  /// piece). Thread-safe; reads each index under `index_latch` shared.
  std::size_t aggregated_num_pieces() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      const std::shared_lock<std::shared_mutex> structural(shard->structural);
      const std::shared_lock<std::shared_mutex> il(shard->index_latch);
      total += shard->column.index().num_pieces();
    }
    return total;
  }

  /// Sum of all partitions' update-pipeline counters, including writes
  /// still buffered in the striped write buckets (queue-side counters live
  /// in shard atomics; merge-side counters live in the inner columns, and
  /// adopting a bucket tuple into a pending store never re-counts it: a
  /// delete that cancels an adopted insert moves from queued to cancelled).
  /// Thread-safe: the inner counters change only under `structural`
  /// exclusive, so a shared hold reads them.
  UpdateStats AggregatedUpdateStats() const {
    UpdateStats total;
    for (const auto& shard : shards_) {
      {
        const std::shared_lock<std::shared_mutex> structural(shard->structural);
        total += shard->column.update_stats();
      }
      total.inserts_queued +=
          shard->striped_inserts_queued.load(std::memory_order_relaxed);
      total.deletes_queued +=
          shard->striped_deletes_queued.load(std::memory_order_relaxed);
      total.deletes_cancelled +=
          shard->striped_deletes_cancelled.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Sum of all partitions' striped read-path routing counters. Thread-safe
  /// (relaxed counter sums).
  StripedReadPathStats AggregatedReadPathStats() const {
    StripedReadPathStats total;
    for (const auto& shard : shards_) {
      total.fast_reads +=
          shard->fast_reads.load(std::memory_order_relaxed);
      total.coarse_reads +=
          shard->coarse_reads.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Folds every buffered and pending update of every partition, under
  /// each partition's `structural` exclusive in turn. Afterwards all
  /// pending stores are empty and queries take the fast path until the
  /// next write. Thread-safe.
  void FlushPending() {
    for (const auto& shard : shards_) {
      WithShardExclusive(*shard, [&] {
        DrainStripedPending(*shard);
        shard->column.MergePendingFor(RangePredicate<T>::All());
        AIDX_DCHECK(shard->column.Validate());
      });
    }
  }

  /// Updates not yet folded into any cracked array: striped write-bucket
  /// tuples plus the per-partition pending stores. Thread-safe, but exact
  /// only when no writer or query is concurrently in flight.
  std::size_t pending_update_count() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      {
        // Pending stores change only under `structural` exclusive.
        const std::shared_lock<std::shared_mutex> structural(shard->structural);
        total += shard->column.num_pending_inserts() +
                 shard->column.num_pending_deletes();
      }
      total += shard->buffered_writes.load(std::memory_order_acquire);
    }
    return total;
  }

  /// Current live tuple count (base minus deletes plus inserts, including
  /// still-pending ones). Thread-safe.
  std::size_t size() const { return live_size_.load(std::memory_order_relaxed); }
  std::size_t num_partitions() const { return shards_.size(); }
  /// Stripe-latch table size per partition (the clamped latch_stripes
  /// option).
  std::size_t latch_stripes() const { return shards_.front()->stripes.size(); }
  /// Partition p holds values v with splitters()[p-1] <= v < splitters()[p]
  /// (unbounded at the extremes). Immutable after construction.
  std::span<const T> splitters() const { return splitters_; }
  const PartitionedCrackerOptions& options() const { return options_; }

  /// Read access to one partition's column, for tests and tools. The
  /// reference is unsynchronized: callers must ensure no concurrent
  /// queries while holding it.
  const CrackerColumn<T>& partition(std::size_t p) const {
    AIDX_CHECK(p < shards_.size());
    return shards_[p]->column;
  }

  /// Full invariant sweep: every partition validates its own pieces, live
  /// sizes add up, and every partition's values respect the splitter
  /// bounds. O(n); tests only. Thread-safe, but the total-size check is
  /// meaningful only when no writer is concurrently in flight.
  bool ValidatePieces() const {
    std::size_t live_seen = 0;
    bool ok = true;
    for (std::size_t p = 0; p < shards_.size(); ++p) {
      WithShardExclusive(*shards_[p], [&] {
        Shard& shard = *shards_[p];
        const UpdatableCrackerColumn<T>& column = shard.column;
        if (!column.Validate()) {
          ok = false;
          return;
        }
        std::size_t shard_live = column.live_size();
        for (WriteBucket& bucket : shard.write_buckets) {
          const std::lock_guard<std::mutex> bl(bucket.mu);
          // Buffered deletes claim tuples that are still physically live
          // (in the array or a pending store), so this never underflows.
          shard_live += bucket.inserts.size();
          shard_live -= bucket.deletes.size();
          for (const StripedPendingTuple& t : bucket.inserts) {
            if (PartitionOf(t.value) != p) ok = false;
          }
          for (const StripedPendingTuple& t : bucket.deletes) {
            if (PartitionOf(t.value) != p) ok = false;
          }
        }
        live_seen += shard_live;
        for (const T v : column.values()) {
          if (p > 0 && v < splitters_[p - 1]) ok = false;
          if (p < splitters_.size() && !(v < splitters_[p])) ok = false;
        }
      });
      if (!ok) return false;
    }
    return live_seen == size();
  }

 private:
  /// Upper bound on the stripe table (stripe sets travel as 64-bit masks).
  static constexpr std::size_t kMaxLatchStripes = 64;
  /// Positions are hashed to stripes in blocks of 2^kStripeBlockShift, so
  /// pieces smaller than a block still get distinct stripes once they land
  /// in distinct blocks, while a huge early piece simply covers every
  /// stripe (equivalent to whole-partition exclusion — which it is).
  static constexpr std::size_t kStripeBlockShift = 8;
  /// Splitters are equi-depth quantiles of a value sample this large.
  static constexpr std::size_t kSplitterSampleSize = 1024;

  /// A buffered striped-path write (rid is kPendingNoRid for deletes).
  struct StripedPendingTuple {
    T value;
    row_id_t rid;
  };

  /// One mutex-guarded segment of a shard's striped write buffer. Writes
  /// hash to a bucket by *value*, so the bucket a tuple lands in is stable
  /// across piece subdivision and same-value insert/delete pairs always
  /// meet (and cancel) in the same bucket. Bucket mutexes are leaves of
  /// the latch order: acquired under `structural` (any polarity), possibly
  /// under stripe latches, and nothing is acquired while one is held.
  struct WriteBucket {
    mutable std::mutex mu;
    std::vector<StripedPendingTuple> inserts;
    std::vector<StripedPendingTuple> deletes;
  };

  struct Shard {
    Shard(std::vector<T> values, std::vector<row_id_t> row_ids,
          const CrackerColumnOptions& opts, const PartitionedCrackerOptions& parent)
        : stripes(std::clamp<std::size_t>(parent.latch_stripes, 1,
                                          kMaxLatchStripes)),
          write_buckets(stripes.size()),
          column(std::move(values), std::move(row_ids),
                 typename UpdatableCrackerColumn<T>::Options{
                     .policy = parent.merge_policy,
                     .gradual_budget = parent.gradual_budget,
                     .crack = opts},
                 /*first_fresh_rid=*/0) {}

    // The piece protocol (docs/CONCURRENCY.md §4). Latch order: structural ->
    // stripes (ascending) -> {index_latch | write-bucket mu | rng_latch},
    // the three leaves (nothing is acquired while holding any of them).
    //
    // `structural`: shared by every query that relies on realized cut
    // positions staying put and the arrays staying the same size, and by
    // striped writes (which mutate only the write buckets); exclusive by
    // everything that breaks those invariants — pending-update merges,
    // bucket drains, and the wholesale slow path.
    mutable std::shared_mutex structural;
    // One reader-writer latch per stripe; a piece holds the stripes its
    // position blocks hash to — shared to read values, exclusive to
    // permute them (reads) or to serialize piece-routed writes.
    mutable std::vector<std::shared_mutex> stripes;
    // Guards the cracker index: shared for lookups, exclusive to register
    // cuts.
    mutable std::shared_mutex index_latch;
    mutable std::mutex rng_latch;  // stochastic pivots on the fast path

    // -- Striped write path --------------------------------------------------
    mutable std::vector<WriteBucket> write_buckets;
    // Total tuples across this shard's buckets; a cheap zero probe for the
    // read path.
    std::atomic<std::size_t> buffered_writes{0};
    // Conservative value bounds over every buffered tuple (inserts and
    // queued deletes): widened before the buffered_writes bump at enqueue
    // (the bump's release publishes them), reset only when the buckets
    // drain under exclusion. Reads whose predicate misses [min, max]
    // dismiss the whole buffer with two relaxed loads instead of walking
    // every bucket mutex.
    std::atomic<T> buffered_min{std::numeric_limits<T>::max()};
    std::atomic<T> buffered_max{std::numeric_limits<T>::lowest()};
    // Queue-side update counters for buffered writes (the merge-side
    // counters accrue in `column` when the tuples are adopted and merged).
    std::atomic<std::size_t> striped_inserts_queued{0};
    std::atomic<std::size_t> striped_deletes_queued{0};
    std::atomic<std::size_t> striped_deletes_cancelled{0};
    // Read-path routing counters (docs/CONCURRENCY.md §4).
    std::atomic<std::size_t> fast_reads{0};
    std::atomic<std::size_t> coarse_reads{0};

    UpdatableCrackerColumn<T> column;
  };

  /// True when `pred` can match some value in [lo, hi] — the buffered-write
  /// bounds filter. Exact interval arithmetic, conservative only through
  /// its inputs (the bounds never shrink on cancellation).
  static bool PredicateTouchesRange(const RangePredicate<T>& pred, T lo, T hi) {
    if (lo > hi) return false;  // empty bounds: nothing buffered since reset
    if (pred.low_kind != BoundKind::kUnbounded &&
        (pred.low > hi ||
         (pred.low_kind == BoundKind::kExclusive && pred.low >= hi))) {
      return false;
    }
    if (pred.high_kind != BoundKind::kUnbounded &&
        (pred.high < lo ||
         (pred.high_kind == BoundKind::kExclusive && pred.high <= lo))) {
      return false;
    }
    return true;
  }

  /// Widens a shard's buffered-value bounds to cover `value`. Called before
  /// the buffered_writes bump whose release ordering publishes the widened
  /// bounds to any reader that observes the new count.
  static void WidenBufferedBounds(Shard& shard, T value) {
    T lo = shard.buffered_min.load(std::memory_order_relaxed);
    while (value < lo && !shard.buffered_min.compare_exchange_weak(
                             lo, value, std::memory_order_relaxed)) {
    }
    T hi = shard.buffered_max.load(std::memory_order_relaxed);
    while (value > hi && !shard.buffered_max.compare_exchange_weak(
                             hi, value, std::memory_order_relaxed)) {
    }
  }

  /// RAII over one ordered acquisition of a stripe mask. Bits are acquired
  /// in ascending stripe order — with at most one mask held per thread this
  /// makes stripe deadlock impossible (docs/CONCURRENCY.md §4).
  class StripeLockSet {
   public:
    StripeLockSet(std::vector<std::shared_mutex>* stripes, std::uint64_t mask,
                  bool exclusive)
        : stripes_(stripes), mask_(mask), exclusive_(exclusive) {
      for (std::size_t i = 0; i < stripes_->size(); ++i) {
        if (((mask_ >> i) & 1) == 0) continue;
        if (exclusive_) {
          (*stripes_)[i].lock();
        } else {
          (*stripes_)[i].lock_shared();
        }
      }
    }
    ~StripeLockSet() {
      for (std::size_t i = stripes_->size(); i-- > 0;) {
        if (((mask_ >> i) & 1) == 0) continue;
        if (exclusive_) {
          (*stripes_)[i].unlock();
        } else {
          (*stripes_)[i].unlock_shared();
        }
      }
    }
    AIDX_DISALLOW_COPY_AND_ASSIGN(StripeLockSet);

   private:
    std::vector<std::shared_mutex>* stripes_;
    std::uint64_t mask_;
    bool exclusive_;
  };

  /// Blocks hash into the whole stripe table, whose size is fixed at
  /// construction, so the block -> stripe mapping never changes.
  static std::size_t StripeOf(const Shard& shard, std::size_t block) {
    return static_cast<std::size_t>((block * 0x9E3779B97F4A7C15ULL) %
                                    shard.stripes.size());
  }

  /// Stripe mask covering the position range [begin, end): the hash of
  /// every overlapped block, or every stripe when the range spans at least
  /// one block per stripe.
  static std::uint64_t StripeMask(const Shard& shard, std::size_t begin,
                                  std::size_t end) {
    if (begin >= end) return 0;
    const std::size_t n = shard.stripes.size();
    const std::size_t first = begin >> kStripeBlockShift;
    const std::size_t last = (end - 1) >> kStripeBlockShift;
    if (last - first + 1 >= n) {
      return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
    }
    std::uint64_t mask = 0;
    for (std::size_t b = first; b <= last; ++b) {
      mask |= std::uint64_t{1} << StripeOf(shard, b);
    }
    return mask;
  }

  /// Shared stripe mask over what a resolved select reads: its edge pieces,
  /// and its core when `with_core`. A core bounded by realized cuts needs
  /// no stripes for membership alone — concurrent cracks never move those
  /// cuts while `structural` is held shared.
  static std::uint64_t SelectMask(const Shard& shard, const CrackSelect& sel,
                                  bool with_core) {
    std::uint64_t mask =
        with_core ? StripeMask(shard, sel.core.begin, sel.core.end) : 0;
    for (int i = 0; i < sel.num_edges; ++i) {
      mask |= StripeMask(shard, sel.edges[i].begin, sel.edges[i].end);
    }
    return mask;
  }

  /// The crack walk's piece-latch policy on the shared path (core/
  /// crack_walk.h, docs/CONCURRENCY.md §4). The walker holds `structural`
  /// shared, so positions cannot shift. Index lookups take `index_latch`
  /// shared. A claimed piece holds its exclusive stripes; the walk then
  /// re-validates the piece and retries on a mismatch, and registers its
  /// cuts under `index_latch` exclusive. An empty piece is covered by no
  /// stripe, so its claim is one exclusive `index_latch` hold that both
  /// validates and registers. Pivots are drawn under `rng_latch`, and the
  /// inner column's stats are bumped with relaxed atomic_refs (the coarse
  /// path bumps them plainly, but only under `structural` exclusive).
  class StripedLatch {
   public:
    static constexpr bool kRevalidates = true;

    explicit StripedLatch(Shard& shard) : shard_(&shard) {}

    class Claim {
     public:
      Claim(StripedLatch& latch, const PieceInfo<T>& piece)
          : shard_(*latch.shard_),
            stripes_(&shard_.stripes, StripeMask(shard_, piece.begin, piece.end),
                     /*exclusive=*/true),
            index_(shard_.index_latch, std::defer_lock) {
        if (piece.begin == piece.end) index_.lock();
      }

      template <typename Fn>
      auto Read(Fn&& fn) const {
        if (index_.owns_lock()) return fn();
        const std::shared_lock<std::shared_mutex> il(shard_.index_latch);
        return fn();
      }

      template <typename Fn>
      void Publish(Fn&& fn) {
        std::unique_lock<std::shared_mutex> il(shard_.index_latch,
                                               std::defer_lock);
        if (!index_.owns_lock()) il.lock();
        fn();
      }

     private:
      Shard& shard_;
      StripeLockSet stripes_;
      std::unique_lock<std::shared_mutex> index_;
    };

    template <typename Fn>
    auto Read(Fn&& fn) const {
      const std::shared_lock<std::shared_mutex> il(shard_->index_latch);
      return fn();
    }
    std::size_t Pivot(Rng& rng, std::size_t n) const {
      const std::lock_guard<std::mutex> rl(shard_->rng_latch);
      return rng.NextBounded(n);
    }
    static void Add(std::size_t& counter, std::size_t n) {
      std::atomic_ref<std::size_t>(counter).fetch_add(n, std::memory_order_relaxed);
    }

   private:
    Shard* shard_;
  };

  /// Reads a stats counter that the shared path bumps through
  /// StripedLatch::Add (caller holds `structural` shared).
  static std::size_t RelaxedLoad(const std::size_t& counter) {
    return std::atomic_ref<std::size_t>(const_cast<std::size_t&>(counter))
        .load(std::memory_order_relaxed);
  }

  /// Runs fn under whole-partition exclusion (`structural` exclusive).
  /// Validation, cut export, FlushPending, and the raw Select path use this.
  template <typename Fn>
  decltype(auto) WithShardExclusive(const Shard& shard, Fn&& fn) const {
    const std::unique_lock<std::shared_mutex> guard(shard.structural);
    return fn();
  }

  /// True when some pending update matches `pred`: the shard's internal
  /// pending stores (stable under `structural` shared) or its write
  /// buckets, probed under their mutexes. Stops at the first match; a
  /// false answer is the gate to the shared fast path and the read's
  /// linearization point (writes landing later order after the query).
  /// Caller holds `structural` shared.
  bool HasMatchingPending(const Shard& shard,
                          const RangePredicate<T>& pred) const {
    if (shard.column.AnyPendingMatches(pred)) return true;
    if (shard.buffered_writes.load(std::memory_order_acquire) == 0) return false;
    // Range filter before any bucket mutex: the bounds were published by
    // the buffered_writes bump we just observed, and they only widen
    // between drains, so a miss here is definitive.
    if (!PredicateTouchesRange(
            pred, shard.buffered_min.load(std::memory_order_relaxed),
            shard.buffered_max.load(std::memory_order_relaxed))) {
      return false;
    }
    const auto matches = [&](const StripedPendingTuple& t) {
      return pred.Matches(t.value);
    };
    for (const WriteBucket& bucket : shard.write_buckets) {
      const std::lock_guard<std::mutex> bl(bucket.mu);
      if (std::any_of(bucket.inserts.begin(), bucket.inserts.end(), matches) ||
          std::any_of(bucket.deletes.begin(), bucket.deletes.end(), matches)) {
        return true;
      }
    }
    return false;
  }

  /// The striped read protocol's one skeleton, shared by Count and Sum.
  /// Under `structural` shared, when no pending update matches `pred`, run
  /// `fast(resolved range)` under the shared stripe masks of the edges —
  /// plus the core when `core_needs_values` (Count's core is
  /// membership-only: bounded by realized cuts, which concurrent cracks
  /// never move, so it needs no value reads and no stripes). Otherwise
  /// fall back to `coarse` under `structural` exclusive, which first drains
  /// the write buckets so the inner column's policy merge sees every
  /// buffered update.
  ///
  /// `fast` returns a value, `coarse` a Result of it. `ctx` (may be null)
  /// gates every crack of the walk on either path; on expiry the walk's
  /// Status is returned.
  template <typename FastFn, typename CoarseFn>
  auto StripedReadOrCoarse(Shard& shard, const RangePredicate<T>& pred,
                           const QueryContext* ctx, bool core_needs_values,
                           FastFn&& fast, CoarseFn&& coarse)
      -> decltype(coarse()) {
    {
      const std::shared_lock<std::shared_mutex> structural(shard.structural);
      if (!HasMatchingPending(shard, pred)) {
        shard.fast_reads.fetch_add(1, std::memory_order_relaxed);
        Status abort;
        const CrackSelect sel =
            shard.column.SelectLatched(pred, StripedLatch(shard), ctx, &abort);
        if (AIDX_PREDICT_FALSE(!abort.ok())) return abort;
        const StripeLockSet lock(&shard.stripes,
                                 SelectMask(shard, sel, core_needs_values),
                                 /*exclusive=*/false);
        return fast(sel);
      }
    }
    const std::unique_lock<std::shared_mutex> structural(shard.structural);
    shard.coarse_reads.fetch_add(1, std::memory_order_relaxed);
    DrainStripedPending(shard);
    return coarse();
  }

  Result<std::size_t> CountShard(Shard& shard, const RangePredicate<T>& pred,
                                 const QueryContext* ctx) {
    return StripedReadOrCoarse(
        shard, pred, ctx, /*core_needs_values=*/false,
        [&](const CrackSelect& sel) { return shard.column.CountFrom(sel, pred); },
        [&]() -> Result<std::size_t> {
          if (ctx != nullptr) return shard.column.Count(pred, *ctx);
          return shard.column.Count(pred);
        });
  }

  /// One partition's unrounded sum; partitions combine in SumAcc and the
  /// caller rounds once.
  Result<SumAcc<T>> SumShard(Shard& shard, const RangePredicate<T>& pred,
                             const QueryContext* ctx) {
    return StripedReadOrCoarse(
        shard, pred, ctx, /*core_needs_values=*/true,
        [&](const CrackSelect& sel) { return shard.column.SumFrom(sel, pred); },
        [&]() -> Result<SumAcc<T>> {
          if (ctx != nullptr) return shard.column.SumPartial(pred, *ctx);
          return shard.column.SumPartial(pred);
        });
  }

  /// Count and SumPartial share this fan-out: `shard_fn` (CountShard or
  /// SumShard) answers one partition. With a context, each partition is
  /// gated before it starts, and partitions not yet started when one
  /// fails are skipped.
  template <typename V>
  Result<V> FanOut(const RangePredicate<T>& pred, const QueryContext* ctx,
                   Result<V> (PartitionedCrackerColumn::*shard_fn)(
                       Shard&, const RangePredicate<T>&, const QueryContext*)) {
    if (ctx != nullptr) AIDX_RETURN_NOT_OK(ctx->Check());
    if (pred.DefinitelyEmpty()) return V{};
    const auto [first, last] = OverlapRange(pred);
    if (first == last) {  // common narrow-predicate case: no fan-out state
      return (this->*shard_fn)(*shards_[first], pred, ctx);
    }
    std::vector<V> partial(last - first + 1);
    std::mutex failure_mu;
    Status failure;  // the first partition failure, under failure_mu
    std::atomic<bool> failed{false};
    ForEachOverlapping(first, last, [&](std::size_t p, std::size_t slot) {
      if (failed.load(std::memory_order_relaxed)) return;
      Status status = ctx != nullptr ? ctx->Check() : Status::OK();
      if (status.ok()) {
        Result<V> answer = (this->*shard_fn)(*shards_[p], pred, ctx);
        if (answer.ok()) {
          partial[slot] = std::move(answer).value();
          return;
        }
        status = answer.status();
      }
      const std::lock_guard<std::mutex> lock(failure_mu);
      if (failure.ok()) failure = std::move(status);
      failed.store(true, std::memory_order_relaxed);
    });
    AIDX_RETURN_NOT_OK(failure);
    V total{};
    for (const V& v : partial) total += v;
    return total;
  }

  // -- The striped write path (docs/CONCURRENCY.md §4) ---------------------

  WriteBucket& BucketFor(const Shard& shard, T value) const {
    return shard.write_buckets[std::hash<T>{}(value) %
                               shard.write_buckets.size()];
  }

  /// Buffers an insert under the owning piece's exclusive stripes, with
  /// the same lookup -> latch shape as the read path. Unlike reads no
  /// re-validate retry is needed: a concurrent crack only shrinks the
  /// owning piece (pieces never grow under `structural` shared), so the
  /// new owning piece's blocks stay inside the looked-up range and the
  /// mask latched here still covers it exclusively. Caller holds
  /// `structural` shared.
  void StripedEnqueueInsertLocked(Shard& shard, T value, row_id_t rid) {
    const PieceInfo<T> piece = StripedLatch(shard).Read(
        [&] { return shard.column.index().PieceForValue(value); });
    // An empty piece maps to no stripe, and no crack can subdivide it: the
    // bucket mutex alone orders that append.
    const StripeLockSet lock(&shard.stripes,
                             StripeMask(shard, piece.begin, piece.end),
                             /*exclusive=*/true);
    WriteBucket& bucket = BucketFor(shard, value);
    const std::lock_guard<std::mutex> bl(bucket.mu);
    bucket.inserts.push_back({value, rid});
    WidenBufferedBounds(shard, value);
    shard.buffered_writes.fetch_add(1, std::memory_order_acq_rel);
    shard.striped_inserts_queued.fetch_add(1, std::memory_order_relaxed);
  }

  /// Buffers a delete of one live tuple equal to `value`, or cancels a
  /// buffered insert of it. The existence probe is a striped point
  /// resolve (it cracks and counts a select, mirroring the coarse
  /// DeleteValue which probes through Select) plus the pending stores:
  /// live occurrences not yet claimed by earlier deletes must outnumber
  /// zero for the delete to queue. Exact under concurrency: the array and
  /// internal stores are stable under `structural` shared (held by the
  /// caller), and same-value deletes serialize on the value's bucket
  /// mutex, where claims are re-counted.
  bool StripedDeleteLocked(Shard& shard, T value) {
    {
      WriteBucket& bucket = BucketFor(shard, value);
      const std::lock_guard<std::mutex> bl(bucket.mu);
      if (CancelBucketInsertLocked(shard, bucket, value)) return true;
    }
    const auto point = RangePredicate<T>::Between(value, value);
    Status ignored;  // no context: the piece gate cannot fire errors
    const CrackSelect sel =
        shard.column.SelectLatched(point, StripedLatch(shard), nullptr, &ignored);
    std::size_t live = 0;
    {
      const StripeLockSet lock(&shard.stripes,
                               SelectMask(shard, sel, /*with_core=*/false),
                               /*exclusive=*/false);
      live = shard.column.CountFrom(sel, point);
    }
    std::size_t pending_ins = 0;
    std::size_t pending_del = 0;
    shard.column.ForEachPendingInsert(
        [&](T v, row_id_t) { pending_ins += v == value ? 1 : 0; });
    shard.column.ForEachPendingDelete(
        [&](T v, row_id_t) { pending_del += v == value ? 1 : 0; });
    WriteBucket& bucket = BucketFor(shard, value);
    const std::lock_guard<std::mutex> bl(bucket.mu);
    // An insert of this value may have landed since the first check.
    if (CancelBucketInsertLocked(shard, bucket, value)) return true;
    std::size_t bucket_del = 0;
    for (const StripedPendingTuple& t : bucket.deletes) {
      bucket_del += t.value == value ? 1 : 0;
    }
    if (live + pending_ins <= pending_del + bucket_del) return false;
    bucket.deletes.push_back({value, kPendingNoRid});
    WidenBufferedBounds(shard, value);
    shard.buffered_writes.fetch_add(1, std::memory_order_acq_rel);
    shard.striped_deletes_queued.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Swap-removes one buffered insert of `value`; caller holds bucket.mu.
  bool CancelBucketInsertLocked(Shard& shard, WriteBucket& bucket, T value) {
    for (std::size_t i = 0; i < bucket.inserts.size(); ++i) {
      if (bucket.inserts[i].value != value) continue;
      bucket.inserts[i] = bucket.inserts.back();
      bucket.inserts.pop_back();
      shard.buffered_writes.fetch_sub(1, std::memory_order_acq_rel);
      shard.striped_deletes_cancelled.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Moves every buffered write into the inner column's pending stores.
  /// Caller holds whole-partition exclusion. Deletes adopt first, across
  /// all buckets: a buffered delete claims a tuple that existed before it
  /// was queued, never an insert buffered after it (same-value pairs in
  /// one bucket already cancelled at enqueue time, and same values always
  /// share a bucket).
  void DrainStripedPending(Shard& shard) const {
    if (shard.buffered_writes.load(std::memory_order_acquire) == 0) return;
    std::size_t drained = 0;
    for (WriteBucket& bucket : shard.write_buckets) {
      const std::lock_guard<std::mutex> bl(bucket.mu);
      for (const StripedPendingTuple& t : bucket.deletes) {
        // A delete that cancels an adopted insert counts once, as
        // cancelled (the inner column counts it), not also as queued.
        if (shard.column.AdoptPendingDeleteValue(t.value)) {
          shard.striped_deletes_queued.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      drained += bucket.deletes.size();
      bucket.deletes.clear();
    }
    for (WriteBucket& bucket : shard.write_buckets) {
      const std::lock_guard<std::mutex> bl(bucket.mu);
      for (const StripedPendingTuple& t : bucket.inserts) {
        shard.column.AdoptPendingInsert(t.value, t.rid);
      }
      drained += bucket.inserts.size();
      bucket.inserts.clear();
    }
    // Exclusion also keeps striped writers out, so the bounds reset cannot
    // race a concurrent widen.
    shard.buffered_min.store(std::numeric_limits<T>::max(),
                             std::memory_order_relaxed);
    shard.buffered_max.store(std::numeric_limits<T>::lowest(),
                             std::memory_order_relaxed);
    shard.buffered_writes.fetch_sub(drained, std::memory_order_acq_rel);
  }
  // ------------------------------------------------------------------------

  /// Equi-depth splitters from a value sample; sorted and distinct, so the
  /// effective partition count is splitters.size() + 1 <= num_partitions.
  std::vector<T> PickSplitters(std::span<const T> base) {
    const std::size_t k = options_.num_partitions;
    if (k <= 1 || base.size() < 2) return {};
    std::vector<T> sample;
    if (base.size() <= kSplitterSampleSize) {
      sample.assign(base.begin(), base.end());
    } else {
      Rng rng(options_.splitter_seed);
      sample.reserve(kSplitterSampleSize);
      for (std::size_t i = 0; i < kSplitterSampleSize; ++i) {
        sample.push_back(base[rng.NextBounded(base.size())]);
      }
    }
    std::sort(sample.begin(), sample.end());
    std::vector<T> splitters;
    splitters.reserve(k - 1);
    for (std::size_t s = 1; s < k; ++s) {
      const T candidate = sample[s * sample.size() / k];
      // Skipping candidates equal to the sample minimum avoids a
      // permanently empty partition 0; with a full sample this also caps
      // the partition count at the number of distinct values.
      if (candidate == sample.front()) continue;
      if (splitters.empty() || splitters.back() < candidate) {
        splitters.push_back(candidate);
      }
    }
    return splitters;
  }

  /// Buckets batch positions by owning partition (the splitter table is
  /// immutable, so routing needs no latch).
  std::vector<std::vector<std::size_t>> GroupByPartition(
      std::span<const T> batch) const {
    std::vector<std::vector<std::size_t>> groups(shards_.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      groups[PartitionOf(batch[i])].push_back(i);
    }
    return groups;
  }

  /// Index of the partition that stores value v.
  std::size_t PartitionOf(T v) const {
    // Number of splitters <= v (partition p starts at splitter p-1).
    return static_cast<std::size_t>(
        std::upper_bound(splitters_.begin(), splitters_.end(), v) -
        splitters_.begin());
  }

  /// [first, last] partition indices the predicate can match. Routing is
  /// exact for realized bound kinds: an exclusive upper bound equal to a
  /// splitter stops at the partition below it.
  std::pair<std::size_t, std::size_t> OverlapRange(
      const RangePredicate<T>& pred) const {
    std::size_t first = 0;
    std::size_t last = shards_.size() - 1;
    if (pred.low_kind != BoundKind::kUnbounded) first = PartitionOf(pred.low);
    if (pred.high_kind == BoundKind::kInclusive) {
      last = PartitionOf(pred.high);
    } else if (pred.high_kind == BoundKind::kExclusive) {
      // Values < high live below the first splitter >= high.
      last = static_cast<std::size_t>(
          std::lower_bound(splitters_.begin(), splitters_.end(), pred.high) -
          splitters_.begin());
    }
    // low <= high after the DefinitelyEmpty early-out, hence first <= last.
    AIDX_DCHECK(first <= last);
    return {first, last};
  }

  /// Runs fn(partition, slot) for every partition in [first, last], on the
  /// borrowed pool when one is present and the fan-out is wider than one.
  template <typename Fn>
  void ForEachOverlapping(std::size_t first, std::size_t last, Fn&& fn) {
    const std::size_t count = last - first + 1;
    if (pool_ != nullptr && count > 1) {
      pool_->ParallelFor(count,
                         [&](std::size_t slot) { fn(first + slot, slot); });
    } else {
      for (std::size_t slot = 0; slot < count; ++slot) fn(first + slot, slot);
    }
  }

  PartitionedCrackerOptions options_;
  ThreadPool* pool_;  // borrowed; may be null
  std::vector<T> splitters_;  // immutable after construction
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<row_id_t> next_rid_{0};   // globally unique fresh row ids
  std::atomic<std::size_t> live_size_{0};
};

}  // namespace aidx
