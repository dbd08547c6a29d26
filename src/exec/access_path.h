// Access paths: the uniform query *and update* interface over every
// indexing strategy this library reproduces. The benchmark harness, the
// engine facade, and the examples all talk to AccessPath so that
// strategies are swappable — the role the query optimizer plays in a full
// kernel (DESIGN.md §6).
//
// Construction is lazy: the underlying structure is built inside the first
// operation (query or write), so "the first query pays initialization" —
// the cost model every surveyed paper uses — holds by construction.
//
// Every strategy answers Insert/Delete with multiset semantics (Delete
// removes one arbitrary tuple equal to the value); how writes reach the
// physical structure is strategy-specific and documented per path class
// and in docs/UPDATES.md. A path snapshots the borrowed base span the
// first time it materializes its structure (or, for the scan path, on the
// first write); callers that mutate the underlying storage afterwards —
// the Database facade does — must route every write through the path
// *before* touching the base storage.
//
// A path serves exactly one column; it knows nothing about rows. Row
// atomicity across a multi-column table — every column's paths observing a
// row's values together or not at all — is the Database facade's contract
// (docs/UPDATES.md §5), built by fanning one validated row out to each
// column's paths before the base mutates.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/adaptive_merging.h"
#include "core/cracker_column.h"
#include "core/hybrid.h"
#include "core/organizer.h"
#include "index/btree.h"
#include "index/scan.h"
#include "index/sorted_index.h"
#include "parallel/partitioned_cracker_column.h"
#include "parallel/piece_transfer.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "update/updatable_column.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace aidx {

/// The strategy families the tutorial covers.
enum class StrategyKind : char {
  kFullScan,         // no index, ever
  kFullSort,         // offline indexing: sort everything on first query
  kBPlusTree,        // offline indexing: bulk-load a B+ tree on first query
  kCrack,            // database cracking (CIDR'07)
  kStochasticCrack,  // cracking + random pre-cracks (convergence extension)
  kAdaptiveMerge,    // adaptive merging (EDBT'10)
  kHybrid,           // hybrid family (PVLDB'11): initial/final modes below
  kParallelCrack,    // partitioned cracking with per-partition latches
};

/// A fully specified strategy: the kind plus its tuning knobs.
struct StrategyConfig {
  StrategyKind kind = StrategyKind::kCrack;
  // Cracking knobs.
  std::size_t min_piece_size = 0;
  std::size_t stochastic_threshold = 1 << 14;
  std::uint64_t seed = 0x9E3779B9ULL;
  // Adaptive merging / hybrid knobs.
  std::size_t run_size = 1 << 18;        // merge runs / hybrid partitions
  OrganizeMode hybrid_initial = OrganizeMode::kCrack;
  OrganizeMode hybrid_final = OrganizeMode::kCrack;
  // Parallel cracking knobs (kParallelCrack): value-range partition count
  // and the total threads fanning one query out (1 = no pool, run inline).
  std::size_t num_partitions = 8;
  std::size_t num_threads = 4;
  // Update-pipeline knobs (crack / stochastic / parallel-crack paths):
  // when pending updates fold into the cracked array (SIGMOD'07), and the
  // extra tuples merged per query under MergePolicy::kGradual.
  MergePolicy merge_policy = MergePolicy::kRipple;
  std::size_t gradual_budget = 64;
  // Carry row ids (needed only when results must project other columns).
  bool with_row_ids = false;
  // Partitioning kernel for every crack the strategy performs (crack /
  // stochastic / hybrid / parallel-crack; core/crack_ops.h). One switch
  // flips the innermost loops under all cracked structures. The kAuto
  // default resolves by a fixed rule at the dispatch point (kSimd with
  // AVX2/NEON, kPredicatedUnrolled without; ResolveCrackKernel); pin a
  // concrete kernel to override it, e.g. for differentials.
  CrackKernel crack_kernel = CrackKernel::kAuto;
  // kParallelCrack piece-latch table capacity per partition (clamped to
  // [1, 64]; docs/CONCURRENCY.md §4).
  std::size_t latch_stripes = 16;

  /// Structural equality over every knob — the Database path cache keys on
  /// this, so two configs collide only when they are truly identical.
  friend bool operator==(const StrategyConfig&, const StrategyConfig&) = default;

  static StrategyConfig FullScan() { return {.kind = StrategyKind::kFullScan}; }
  static StrategyConfig FullSort() { return {.kind = StrategyKind::kFullSort}; }
  static StrategyConfig BTree() { return {.kind = StrategyKind::kBPlusTree}; }
  static StrategyConfig Crack() { return {.kind = StrategyKind::kCrack}; }
  static StrategyConfig StochasticCrack(std::size_t threshold = 1 << 14) {
    return {.kind = StrategyKind::kStochasticCrack, .stochastic_threshold = threshold};
  }
  static StrategyConfig AdaptiveMerge(std::size_t run_size = 1 << 18) {
    return {.kind = StrategyKind::kAdaptiveMerge, .run_size = run_size};
  }
  static StrategyConfig Hybrid(OrganizeMode initial, OrganizeMode final_mode,
                               std::size_t partition_size = 1 << 18) {
    return {.kind = StrategyKind::kHybrid,
            .run_size = partition_size,
            .hybrid_initial = initial,
            .hybrid_final = final_mode};
  }
  static StrategyConfig ParallelCrack(std::size_t partitions = 8,
                                      std::size_t threads = 4,
                                      std::size_t stripes = 16) {
    return {.kind = StrategyKind::kParallelCrack,
            .num_partitions = partitions,
            .num_threads = threads,
            .latch_stripes = stripes};
  }

  /// Short display name used in figures and reports ("crack", "HCS", ...).
  /// Kernel-variant strategies carry a "+branchy"/"+vec"/"+simd" suffix so figures —
  /// and anything keyed on the name — can never alias kernel variants
  /// (the Database cache keys on the full config regardless).
  std::string DisplayName() const {
    // Non-branchy kernels change the physical behaviour of every strategy
    // that cracks; the pure offline/scan strategies never do, and neither
    // does a sort-only hybrid (HSS) — its segments never invoke a kernel.
    const bool cracks =
        kind == StrategyKind::kCrack || kind == StrategyKind::kStochasticCrack ||
        kind == StrategyKind::kParallelCrack ||
        (kind == StrategyKind::kHybrid && (hybrid_initial != OrganizeMode::kSort ||
                                           hybrid_final != OrganizeMode::kSort));
    const std::string kernel_suffix = cracks ? CrackKernelSuffix(crack_kernel) : "";
    switch (kind) {
      case StrategyKind::kFullScan:
        return "scan";
      case StrategyKind::kFullSort:
        return "sort";
      case StrategyKind::kBPlusTree:
        return "btree";
      case StrategyKind::kCrack:
        return (min_piece_size > 0 ? "crack(p" + std::to_string(min_piece_size) + ")"
                                   : "crack") +
               kernel_suffix;
      case StrategyKind::kStochasticCrack:
        return "stochastic" + kernel_suffix;
      case StrategyKind::kAdaptiveMerge:
        return "merge";
      case StrategyKind::kHybrid:
        return std::string("H") + OrganizeModeLetter(hybrid_initial) +
               OrganizeModeLetter(hybrid_final) + kernel_suffix;
      case StrategyKind::kParallelCrack: {
        // Shape-changing knobs stay in the name for figures and reports
        // (the Database cache keys on the full config, not this string).
        // Comma-free: the name lands unquoted in CSV headers
        // (workload/report.cc). The latch knob appears only off its
        // default, so the default keeps the historical name.
        std::string name = "pcrack(" + std::to_string(num_partitions) + "x" +
                           std::to_string(num_threads);
        if (latch_stripes != 16) name += "-s" + std::to_string(latch_stripes);
        if (min_piece_size > 0) name += "-p" + std::to_string(min_piece_size);
        return name + ")" + kernel_suffix;
      }
    }
    return "?";
  }
};

/// Uniform adaptive query + update interface. Count and Sum *may
/// reorganize data* — that is the point of adaptive indexing — and under
/// most strategies they also fold in pending updates the predicate must
/// observe. Paths are single-threaded unless noted; kParallelCrack's path
/// is internally synchronized and may be shared across query threads
/// (docs/CONCURRENCY.md).
template <ColumnValue T>
class AccessPath {
 public:
  virtual ~AccessPath() = default;
  virtual std::string name() const = 0;
  virtual std::size_t Count(const RangePredicate<T>& pred) = 0;
  /// SUM before its one rounding step (SumAcc, index/scan.h). Strategies
  /// implement this; callers that combine sums across paths or nodes (the
  /// dist gather) add partials and round once, so a split answer equals
  /// the unsplit one bit for bit.
  virtual SumAcc<T> SumPartial(const RangePredicate<T>& pred) = 0;
  long double Sum(const RangePredicate<T>& pred) {
    return RoundSum<T>(SumPartial(pred));
  }

  /// Deadline/cancellation-aware variants (docs/ROBUSTNESS.md). The
  /// default checks the context once at entry — coarse granularity, honest
  /// for the offline/scan strategies whose work is a single indivisible
  /// pass. Crack-based paths override these with piece-granularity checks.
  /// A query that finishes its work returns the answer even if the clock
  /// ran out meanwhile: expiry prevents *starting* more work, it never
  /// discards work already done.
  virtual Result<std::size_t> Count(const RangePredicate<T>& pred,
                                    const QueryContext& ctx) {
    AIDX_RETURN_NOT_OK(ctx.Check());
    return Count(pred);
  }
  virtual Result<SumAcc<T>> SumPartial(const RangePredicate<T>& pred,
                                       const QueryContext& ctx) {
    AIDX_RETURN_NOT_OK(ctx.Check());
    return SumPartial(pred);
  }
  Result<long double> Sum(const RangePredicate<T>& pred, const QueryContext& ctx) {
    AIDX_ASSIGN_OR_RETURN(const SumAcc<T> sum, SumPartial(pred, ctx));
    return RoundSum<T>(sum);
  }

  /// Accepts one fresh tuple and returns the row id assigned to it. When
  /// (and how) the value reaches the physical structure is the strategy's
  /// merge policy; a later Count/Sum observes it in every case.
  virtual row_id_t Insert(T value) = 0;

  /// Deletes one tuple equal to `value` (multiset semantics: an arbitrary
  /// matching occurrence). Returns false when no live tuple matches.
  virtual bool Delete(T value) = 0;

  /// Batch variants; the defaults loop the scalar forms, and structures
  /// with cheaper bulk moves override them.
  virtual void InsertBatch(std::span<const T> values) {
    for (const T v : values) Insert(v);
  }
  /// Returns how many tuples were actually deleted.
  virtual std::size_t DeleteBatch(std::span<const T> values) {
    std::size_t deleted = 0;
    for (const T v : values) deleted += Delete(v) ? 1 : 0;
    return deleted;
  }

  /// Probe for the update pipeline's counters (queued/merged/cancelled
  /// totals); strategies without a deferred pipeline report their eagerly
  /// applied writes in the same vocabulary.
  virtual UpdateStats update_stats() const = 0;

  /// Approximate bytes of deferred-update state this path holds — pending
  /// stores, delta buffers, pending merge runs, write buckets. The Database
  /// sums it into the governed total its memory budget admits against; a
  /// heuristic tuple-count estimate, not an allocator audit. Paths that
  /// apply writes eagerly report 0.
  virtual std::size_t approx_pending_bytes() const { return 0; }

  // -- Crack introspection + shard migration (src/dist/) -------------------
  //
  // The defaults are honest no-ops: strategies without a cracker index
  // have no piece structure to report or carry, and a rebalance over them
  // migrates rows only (the structure rebuilds adaptively on the target).
  // The crack-family paths override all four.

  /// Cumulative crack-work counters (cracker index mutations); zeroes for
  /// strategies that never crack. The rebalance differential pins "zero
  /// new cracks at carried boundaries" on these.
  virtual CrackerStats crack_stats() const { return {}; }

  /// Realized pieces in the underlying cracked structure; 0 when none has
  /// materialized (or the strategy has no pieces).
  virtual std::size_t num_cracked_pieces() const { return 0; }

  /// Appends every realized cut with value in [lo, hi] to `out`
  /// (parallel/piece_transfer.h) — the serialized index investment a
  /// rebalance carries alongside the rows.
  virtual void ExportCuts(T lo, T hi, PieceBundle<T>* out) const {
    (void)lo;
    (void)hi;
    (void)out;
  }

  /// Re-realizes carried cuts on this path (one bounding query per cut,
  /// cracking only the piece that contains it). Returns how many cuts were
  /// replayed; 0 for strategies with nothing to replay.
  virtual std::size_t ReplayCuts(std::span<const SerializedCut<T>> cuts) {
    (void)cuts;
    return 0;
  }
};

namespace internal {

// No index to maintain, so writes are applied immediately: the first
// write copies the borrowed base into owned storage (after which the base
// span is never read again), inserts append, deletes swap-remove — the
// degenerate case of append+tombstone where the tombstone is applied on
// the spot.
template <ColumnValue T>
class ScanPath final : public AccessPath<T> {
 public:
  explicit ScanPath(std::span<const T> base)
      : base_(base), next_rid_(static_cast<row_id_t>(base.size())) {}
  std::string name() const override { return "scan"; }
  std::size_t Count(const RangePredicate<T>& pred) override {
    return ScanCount<T>(Data(), pred);
  }
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) override {
    return SumValues<T>(Data(), pred);
  }
  row_id_t Insert(T value) override {
    EnsureOwned();
    owned_->push_back(value);
    ++stats_.inserts_queued;
    ++stats_.inserts_merged;
    return next_rid_++;
  }
  bool Delete(T value) override {
    // Probe before copying: a miss on a still-borrowed base must not pay
    // the copy-on-write.
    const auto data = Data();
    if (std::find(data.begin(), data.end(), value) == data.end()) return false;
    EnsureOwned();
    const auto it = std::find(owned_->begin(), owned_->end(), value);
    *it = owned_->back();
    owned_->pop_back();
    ++stats_.deletes_queued;
    ++stats_.deletes_merged;
    return true;
  }
  UpdateStats update_stats() const override { return stats_; }

 private:
  std::span<const T> Data() const {
    return owned_ ? std::span<const T>(*owned_) : base_;
  }
  void EnsureOwned() {
    if (!owned_) owned_.emplace(base_.begin(), base_.end());
  }
  std::span<const T> base_;
  std::optional<std::vector<T>> owned_;  // copy-on-first-write
  UpdateStats stats_;
  row_id_t next_rid_;
};

// The sort and B+-tree strategies share one write path. Inserts gather in
// a delta buffer that the next query sorts and folds into the index with
// one InsertSortedBatch (FullSortIndex: one inplace_merge pass; BPlusTree:
// an amortized sorted insert); deletes cancel a buffered insert or erase
// from the index directly.
template <ColumnValue T, typename Index>
class DeltaBufferPath final : public AccessPath<T> {
 public:
  explicit DeltaBufferPath(std::span<const T> base)
      : base_(base), next_rid_(static_cast<row_id_t>(base.size())) {}
  std::string name() const override { return kIsBTree ? "btree" : "sort"; }
  std::size_t Count(const RangePredicate<T>& pred) override {
    MergeDelta();
    return Materialized().CountRange(pred);
  }
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) override {
    MergeDelta();
    return Materialized().SumRangePartial(pred);
  }
  row_id_t Insert(T value) override {
    Materialized();  // build while the base span is still valid
    delta_.push_back(value);
    ++stats_.inserts_queued;
    return next_rid_++;
  }
  bool Delete(T value) override {
    Index& index = Materialized();
    for (std::size_t i = 0; i < delta_.size(); ++i) {
      if (delta_[i] == value) {
        delta_[i] = delta_.back();
        delta_.pop_back();
        ++stats_.deletes_cancelled;
        return true;
      }
    }
    if (!index.EraseOne(value)) return false;
    ++stats_.deletes_queued;
    ++stats_.deletes_merged;
    return true;
  }
  UpdateStats update_stats() const override { return stats_; }
  std::size_t approx_pending_bytes() const override {
    return delta_.size() * sizeof(T);
  }

 private:
  static constexpr bool kIsBTree = std::is_same_v<Index, BPlusTree<T>>;

  Index& Materialized() {
    if (!index_) {
      if constexpr (kIsBTree) {
        index_.emplace();
        FullSortIndex<T> sorted(base_);  // sort, then bulk-load
        index_->BulkLoadSorted(sorted.values());
      } else {
        index_.emplace(base_);
      }
    }
    return *index_;
  }
  void MergeDelta() {
    if (delta_.empty()) return;
    std::sort(delta_.begin(), delta_.end());
    Materialized().InsertSortedBatch(delta_);
    stats_.inserts_merged += delta_.size();
    delta_.clear();
  }
  std::span<const T> base_;
  std::optional<Index> index_;
  std::vector<T> delta_;  // unsorted until the merging query
  UpdateStats stats_;
  row_id_t next_rid_;
};

// The crack and stochastic-crack strategies delegate every write to the
// SIGMOD'07 update pipeline: inserts and deletes queue in pending stores
// and ripple into the cracked array when a query touches their range,
// under the merge policy (MCI/MGI/MRI) selected in the config.
template <ColumnValue T>
class CrackPath final : public AccessPath<T> {
 public:
  CrackPath(std::span<const T> base, const StrategyConfig& config)
      : base_(base), config_(config) {}
  std::string name() const override { return config_.DisplayName(); }
  std::size_t Count(const RangePredicate<T>& pred) override {
    return Column().Count(pred);
  }
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) override {
    return Column().SumPartial(pred);
  }
  // Piece-granularity deadline/cancellation: the context reaches the crack
  // loops inside UpdatableCrackerColumn.
  Result<std::size_t> Count(const RangePredicate<T>& pred,
                            const QueryContext& ctx) override {
    return Column().Count(pred, ctx);
  }
  Result<SumAcc<T>> SumPartial(const RangePredicate<T>& pred,
                               const QueryContext& ctx) override {
    return Column().SumPartial(pred, ctx);
  }
  row_id_t Insert(T value) override { return Column().Insert(value); }
  bool Delete(T value) override { return Column().DeleteValue(value); }
  UpdateStats update_stats() const override {
    return column_ ? column_->update_stats() : UpdateStats{};
  }
  std::size_t approx_pending_bytes() const override {
    if (!column_) return 0;
    return (column_->num_pending_inserts() + column_->num_pending_deletes()) *
           (sizeof(T) + sizeof(row_id_t));
  }
  CrackerStats crack_stats() const override {
    return column_ ? column_->stats() : CrackerStats{};
  }
  std::size_t num_cracked_pieces() const override {
    return column_ ? column_->index().num_pieces() : 0;
  }
  void ExportCuts(T lo, T hi, PieceBundle<T>* out) const override {
    if (!column_) return;  // never materialized: no investment to carry
    ExportCutsInRange(column_->index(), lo, hi, out);
  }
  std::size_t ReplayCuts(std::span<const SerializedCut<T>> cuts) override {
    for (const SerializedCut<T>& cut : cuts) {
      Column().Count(RealizingPredicate(cut));
    }
    return cuts.size();
  }

 private:
  UpdatableCrackerColumn<T>& Column() {
    if (!column_) {
      CrackerColumnOptions options;
      options.with_row_ids = config_.with_row_ids;
      options.min_piece_size = config_.min_piece_size;
      options.kernel = config_.crack_kernel;
      if (config_.kind == StrategyKind::kStochasticCrack) {
        options.stochastic_threshold = config_.stochastic_threshold;
        options.stochastic_seed = config_.seed;
      }
      column_.emplace(base_,
                      typename UpdatableCrackerColumn<T>::Options{
                          .policy = config_.merge_policy,
                          .gradual_budget = config_.gradual_budget,
                          .crack = options});
    }
    return *column_;
  }
  std::span<const T> base_;
  StrategyConfig config_;
  std::optional<UpdatableCrackerColumn<T>> column_;
};

// Adaptive merging and the hybrids share one write path, the deferred run:
// an insert becomes a fresh pending run (adaptive merging) or initial
// partition (hybrids) that the next query absorbs — a hybrid places one
// into an already-merged key range in its covering final segment directly
// — and a delete forces the value's range to migrate, then erases it from
// the final structure.
template <ColumnValue T, typename Index>
class DeferredRunPath final : public AccessPath<T> {
 public:
  DeferredRunPath(std::span<const T> base, const StrategyConfig& config)
      : base_(base), config_(config) {}
  std::string name() const override { return config_.DisplayName(); }
  std::size_t Count(const RangePredicate<T>& pred) override {
    return Materialized().Count(pred);
  }
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) override {
    return Materialized().SumPartial(pred);
  }
  row_id_t Insert(T value) override { return Materialized().Insert(value); }
  bool Delete(T value) override { return Materialized().Delete(value); }
  UpdateStats update_stats() const override {
    UpdateStats out;
    if (!index_) return out;
    const auto& s = index_->stats();
    out.inserts_queued = s.inserts_queued;
    out.inserts_merged = s.inserts_absorbed;
    out.deletes_cancelled = s.inserts_cancelled;
    out.deletes_queued = s.values_deleted;
    out.deletes_merged = s.values_deleted;
    return out;
  }
  std::size_t approx_pending_bytes() const override {
    if (!index_) return 0;
    return index_->num_pending_inserts() * (sizeof(T) + sizeof(row_id_t));
  }

 private:
  Index& Materialized() {
    if (!index_) {
      if constexpr (std::is_same_v<Index, AdaptiveMergingIndex<T>>) {
        index_.emplace(base_, typename Index::Options{
                                  .run_size = config_.run_size,
                                  .with_row_ids = config_.with_row_ids});
      } else {
        index_.emplace(base_, typename Index::Options{
                                  .partition_size = config_.run_size,
                                  .initial_mode = config_.hybrid_initial,
                                  .final_mode = config_.hybrid_final,
                                  .with_row_ids = config_.with_row_ids,
                                  .kernel = config_.crack_kernel});
      }
    }
    return *index_;
  }
  std::span<const T> base_;
  StrategyConfig config_;
  std::optional<Index> index_;
};

// Partitioned parallel cracking. Unlike the other paths this one is safe
// to share across threads: the column latches at piece granularity
// (striped rwlatches), and the lazy construction itself is guarded. The
// path owns the intra-query ThreadPool (num_threads - 1 workers; the
// querying thread participates as the last). Writes route to the piece
// owning the value and buffer under that piece's stripe latches
// (docs/CONCURRENCY.md §4), so concurrent writers to disjoint pieces
// proceed fully in parallel.
template <ColumnValue T>
class ParallelCrackPath final : public AccessPath<T> {
 public:
  ParallelCrackPath(std::span<const T> base, const StrategyConfig& config)
      : base_(base), config_(config) {}
  std::string name() const override { return config_.DisplayName(); }
  std::size_t Count(const RangePredicate<T>& pred) override {
    return Column().Count(pred);
  }
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) override {
    return Column().SumPartial(pred);
  }
  // Shard-granularity deadline/cancellation: the fan-out checks the
  // context before each shard's resolve (docs/ROBUSTNESS.md).
  Result<std::size_t> Count(const RangePredicate<T>& pred,
                            const QueryContext& ctx) override {
    return Column().Count(pred, ctx);
  }
  Result<SumAcc<T>> SumPartial(const RangePredicate<T>& pred,
                               const QueryContext& ctx) override {
    return Column().SumPartial(pred, ctx);
  }
  row_id_t Insert(T value) override { return Column().Insert(value); }
  bool Delete(T value) override { return Column().Delete(value); }
  void InsertBatch(std::span<const T> values) override {
    Column().InsertBatch(values);
  }
  std::size_t DeleteBatch(std::span<const T> values) override {
    return Column().DeleteBatch(values);
  }
  UpdateStats update_stats() const override {
    // Forces construction when probed first (thread-safe via call_once);
    // aggregation itself latches per partition.
    return const_cast<ParallelCrackPath*>(this)->Column().AggregatedUpdateStats();
  }
  std::size_t approx_pending_bytes() const override {
    return const_cast<ParallelCrackPath*>(this)->Column().pending_update_count() *
           (sizeof(T) + sizeof(row_id_t));
  }
  CrackerStats crack_stats() const override {
    return const_cast<ParallelCrackPath*>(this)->Column().AggregatedStats();
  }
  std::size_t num_cracked_pieces() const override {
    return const_cast<ParallelCrackPath*>(this)->Column().aggregated_num_pieces();
  }
  void ExportCuts(T lo, T hi, PieceBundle<T>* out) const override {
    const std::size_t before = out->cuts.size();
    const_cast<ParallelCrackPath*>(this)->Column().VisitRealizedCuts(
        [&](const Cut<T>& cut) {
          if (cut.value < lo || cut.value > hi) return;
          out->cuts.push_back({cut.value, cut.kind});
        });
    if (out->cuts.size() > before) {
      out->source_pieces += out->cuts.size() - before + 1;
    }
  }
  std::size_t ReplayCuts(std::span<const SerializedCut<T>> cuts) override {
    for (const SerializedCut<T>& cut : cuts) {
      Column().Count(RealizingPredicate(cut));
    }
    return cuts.size();
  }

 private:
  PartitionedCrackerColumn<T>& Column() {
    std::call_once(init_, [this] {
      if (config_.num_threads > 1) {
        pool_ = std::make_unique<ThreadPool>(config_.num_threads - 1);
      }
      PartitionedCrackerOptions options;
      options.num_partitions = config_.num_partitions;
      options.column_options.with_row_ids = config_.with_row_ids;
      options.column_options.min_piece_size = config_.min_piece_size;
      options.column_options.kernel = config_.crack_kernel;
      options.splitter_seed = config_.seed;
      options.merge_policy = config_.merge_policy;
      options.gradual_budget = config_.gradual_budget;
      options.latch_stripes = config_.latch_stripes;
      column_.emplace(base_, options, pool_.get());
    });
    return *column_;
  }
  std::span<const T> base_;
  StrategyConfig config_;
  std::once_flag init_;
  std::unique_ptr<ThreadPool> pool_;  // must outlive column_
  std::optional<PartitionedCrackerColumn<T>> column_;
};

}  // namespace internal

/// Builds an access path over a borrowed base column. The base span must
/// outlive the access path.
template <ColumnValue T>
std::unique_ptr<AccessPath<T>> MakeAccessPath(std::span<const T> base,
                                              const StrategyConfig& config) {
  switch (config.kind) {
    case StrategyKind::kFullScan:
      return std::make_unique<internal::ScanPath<T>>(base);
    case StrategyKind::kFullSort:
      return std::make_unique<
          internal::DeltaBufferPath<T, FullSortIndex<T>>>(base);
    case StrategyKind::kBPlusTree:
      return std::make_unique<internal::DeltaBufferPath<T, BPlusTree<T>>>(base);
    case StrategyKind::kCrack:
    case StrategyKind::kStochasticCrack:
      return std::make_unique<internal::CrackPath<T>>(base, config);
    case StrategyKind::kAdaptiveMerge:
      return std::make_unique<
          internal::DeferredRunPath<T, AdaptiveMergingIndex<T>>>(base, config);
    case StrategyKind::kHybrid:
      return std::make_unique<internal::DeferredRunPath<T, HybridIndex<T>>>(base,
                                                                           config);
    case StrategyKind::kParallelCrack:
      return std::make_unique<internal::ParallelCrackPath<T>>(base, config);
  }
  AIDX_LOG(Fatal) << "unknown strategy kind";
  return nullptr;
}

}  // namespace aidx
