// CrackerColumn: selection cracking (CIDR 2007) plus the stochastic
// auxiliary-crack extension the tutorial's "improving convergence speed"
// topic refers to (Halim et al.'s DDC/MDD1R family).
//
// The column holds a cracked copy of the base data; every Select physically
// reorganizes at most the pieces its bounds fall into and registers the new
// cuts in the cracker index. Construction performs the base-column copy, so
// callers that model "first query pays the copy" (all benches here) simply
// construct lazily on first use.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/crack_ops.h"
#include "core/cracker_index.h"
#include "core/cut.h"
#include "index/scan.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/rng.h"

namespace aidx {

template <ColumnValue T>
class SegmentOrganizer;  // core/organizer.h; friend of CrackerColumn

/// Tuning knobs for a cracker column.
struct CrackerColumnOptions {
  /// Maintain a row-id array in tandem so results can reconstruct tuples.
  bool with_row_ids = true;
  /// Pieces of at most this many values are not cracked further; their
  /// qualifying subset is filtered by scanning (returned as edge ranges).
  /// 0 reproduces the original always-crack behaviour.
  std::size_t min_piece_size = 0;
  /// Stochastic cracking: when a piece larger than this would be cracked,
  /// first split it at a data-driven random pivot. 0 disables.
  std::size_t stochastic_threshold = 0;
  std::uint64_t stochastic_seed = 0x5DEECE66DULL;
  /// Partitioning kernel used by every crack this column performs (see
  /// core/crack_ops.h; tiny pieces always fall back to the branchy sweep).
  /// kAuto resolves to the host-calibrated kernel at the dispatch point.
  CrackKernel kernel = CrackKernel::kAuto;
};

/// Result of a cracked select. `core` positions all qualify; `edges` (at
/// most two, produced only when min_piece_size > 0) still require predicate
/// filtering.
struct CrackSelect {
  PositionRange core;
  std::array<PositionRange, 2> edges{};
  int num_edges = 0;
};

/// Counters describing the adaptation work a column has performed.
struct CrackerStats {
  std::size_t num_selects = 0;
  std::size_t num_crack_in_two = 0;
  std::size_t num_crack_in_three = 0;
  std::size_t num_stochastic_cracks = 0;
  std::size_t values_touched = 0;  // elements visited by crack passes
};

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
    return SelectImpl(pred, nullptr, &ignored);
  }

  /// Deadline/cancellation-aware Select: the context is checked once per
  /// piece-level crack. On expiry the walk stops BEFORE the next physical
  /// crack, so the index stays valid and every crack already performed is
  /// kept (incremental investment, never rolled back).
  Result<CrackSelect> Select(const RangePredicate<T>& pred, const QueryContext& ctx) {
    Status abort;
    CrackSelect out = SelectImpl(pred, &ctx, &abort);
    if (!abort.ok()) return abort;
    return out;
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
  /// (SumAcc, index/scan.h).
  SumAcc<T> SumPartial(const RangePredicate<T>& pred) {
    return SumFrom(Select(pred), pred);
  }

  Result<SumAcc<T>> SumPartial(const RangePredicate<T>& pred, const QueryContext& ctx) {
    AIDX_ASSIGN_OR_RETURN(const CrackSelect sel, Select(pred, ctx));
    return SumFrom(sel, pred);
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

  // -- Parallel-layer primitives (striped piece latching) ------------------
  //
  // The partitioned column's piece-latch protocol (docs/CONCURRENCY.md §4)
  // drives cracking through these instead of Select so that the physical
  // permutation of one piece and the index mutation that publishes it can
  // be protected by different latches. They deliberately touch neither the
  // cracker index nor the stats: the caller owns exclusive access to the
  // piece's position range while permuting, serializes RegisterCut against
  // every other index access, and accounts the work itself.
  // src/parallel/partitioned_cracker_column.h is the only intended caller.

  /// Physically partitions [piece.begin, piece.end) around `cut` with the
  /// column's kernel and returns the absolute split position. Registers
  /// nothing: pair with RegisterCut.
  std::size_t CrackPieceAt(const PieceInfo<T>& piece, const Cut<T>& cut) {
    (void)failpoints::crack_piece.Inject();  // delay-only: no Status path here
    return piece.begin +
           CrackInTwo<T>(MutableValuesIn({piece.begin, piece.end}),
                         MutableRowIdsIn({piece.begin, piece.end}), cut,
                         options_.kernel);
  }

  /// Three-way variant: partitions the piece around both cuts at once and
  /// returns piece-relative split offsets (same contract as CrackInThree).
  ThreeWaySplit CrackPieceInThreeAt(const PieceInfo<T>& piece,
                                    const Cut<T>& lo_cut, const Cut<T>& hi_cut) {
    (void)failpoints::crack_piece.Inject();  // delay-only: no Status path here
    return CrackInThree<T>(MutableValuesIn({piece.begin, piece.end}),
                           MutableRowIdsIn({piece.begin, piece.end}), lo_cut,
                           hi_cut, options_.kernel);
  }

  /// Publishes a cut realized through CrackPieceAt/CrackPieceInThreeAt.
  void RegisterCut(const Cut<T>& cut, std::size_t position) {
    index_.AddCut(cut, position);
  }

  /// Occurrences of `value` inside [range.begin, range.end). The striped
  /// write path's delete probe counts live occurrences across the resolved
  /// core and edge pieces with this, under shared stripe latches only — it
  /// reads, never permutes.
  std::size_t CountEqualIn(PositionRange range, T value) const {
    std::size_t hits = 0;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      hits += values_[i] == value ? 1 : 0;
    }
    return hits;
  }
  // ------------------------------------------------------------------------

  std::span<const T> values() const { return values_; }
  std::span<const row_id_t> row_ids() const { return row_ids_; }
  std::size_t size() const { return values_.size(); }
  const CrackerIndex<T>& index() const { return index_; }
  const CrackerStats& stats() const { return stats_; }
  const CrackerColumnOptions& options() const { return options_; }

  /// Full invariant sweep: every piece's values satisfy its bound cuts and
  /// the index itself validates. O(n); tests only.
  bool ValidatePieces() const {
    if (!index_.Validate()) return false;
    if (index_.column_size() != values_.size()) return false;
    bool ok = true;
    index_.VisitPieces([&](const PieceInfo<T>& piece) {
      for (std::size_t i = piece.begin; i < piece.end && ok; ++i) {
        const T v = values_[i];
        if (piece.lower && piece.lower->Below(v)) ok = false;
        if (piece.upper && !piece.upper->Below(v)) ok = false;
      }
    });
    return ok;
  }

 protected:
  // The update pipeline (update/updatable_column.h) and the segment
  // organizer (core/organizer.h) manipulate the raw arrays and index
  // directly; nobody else should.
  template <ColumnValue U>
  friend class SegmentOrganizer;

  std::vector<T>& mutable_values() { return values_; }
  std::vector<row_id_t>& mutable_row_ids() { return row_ids_; }
  CrackerIndex<T>& mutable_index() { return index_; }
  CrackerStats& mutable_stats() { return stats_; }

 private:
  std::span<const T> ValuesIn(PositionRange r) const {
    return std::span<const T>(values_).subspan(r.begin, r.end - r.begin);
  }
  std::span<T> MutableValuesIn(PositionRange r) {
    return std::span<T>(values_).subspan(r.begin, r.end - r.begin);
  }
  std::span<row_id_t> MutableRowIdsIn(PositionRange r) {
    if (!options_.with_row_ids) return {};
    return std::span<row_id_t>(row_ids_).subspan(r.begin, r.end - r.begin);
  }

  bool PieceBelowThreshold(const PieceInfo<T>& piece) const {
    return options_.min_piece_size > 0 &&
           piece.end - piece.begin <= options_.min_piece_size;
  }

  /// Piece-granularity robustness gate, evaluated immediately before each
  /// physical crack: deadline/cancellation first (one relaxed load; a
  /// clock read only when a deadline is set), then the crack.piece
  /// failpoint. Injected errors surface only when a context is present —
  /// ctx-free callers cannot propagate Status, so for them the failpoint
  /// is delay-only.
  Status PieceGate(const QueryContext* ctx) {
    if (ctx != nullptr) AIDX_RETURN_NOT_OK(ctx->Check());
    Status injected = failpoints::crack_piece.Inject();
    if (AIDX_PREDICT_FALSE(!injected.ok()) && ctx != nullptr) return injected;
    return Status::OK();
  }

  /// Shared body of both Select overloads. On a gate failure `*abort` is
  /// set and the walk stops before the next physical crack; the partial
  /// CrackSelect returned is meaningless to the caller, but every crack
  /// already registered stays — the index remains ValidatePieces-clean.
  CrackSelect SelectImpl(const RangePredicate<T>& pred, const QueryContext* ctx,
                         Status* abort) {
    ++stats_.num_selects;
    CrackSelect out;
    if (pred.DefinitelyEmpty()) return out;

    const PredicateCuts<T> cuts = CutsForPredicate(pred);
    if (cuts.has_lower && cuts.has_upper) {
      // Both bounds: maybe a single crack-in-three when both cuts land in
      // one piece and neither is realized yet.
      const CutLookup<T> lo = index_.Lookup(cuts.lower);
      const CutLookup<T> hi = index_.Lookup(cuts.upper);
      // Oversized pieces skip this path so stochastic pre-cracking (which
      // lives in ResolveCut) can subdivide them per bound.
      const bool too_big_for_three =
          options_.stochastic_threshold != 0 &&
          lo.piece.end - lo.piece.begin > options_.stochastic_threshold;
      if (!lo.exact && !hi.exact && lo.piece.begin == hi.piece.begin &&
          lo.piece.end == hi.piece.end && !too_big_for_three &&
          !PieceBelowThreshold(lo.piece)) {
        ResolveBothInPiece(cuts.lower, cuts.upper, lo.piece, &out, ctx, abort);
        return out;
      }
    }
    std::size_t begin = 0;
    std::size_t end = values_.size();
    if (cuts.has_lower) {
      begin = ResolveCut(cuts.lower, /*is_lower=*/true, &out, ctx, abort);
      if (AIDX_PREDICT_FALSE(!abort->ok())) return out;
    }
    if (cuts.has_upper) {
      end = ResolveCut(cuts.upper, /*is_lower=*/false, &out, ctx, abort);
      if (AIDX_PREDICT_FALSE(!abort->ok())) return out;
    }
    if (end < begin) end = begin;
    out.core = {begin, end};
    DedupeEdges(&out);
    return out;
  }

  std::size_t CountFrom(const CrackSelect& sel, const RangePredicate<T>& pred) const {
    std::size_t count = sel.core.size();
    for (int i = 0; i < sel.num_edges; ++i) {
      count += ScanCount<T>(ValuesIn(sel.edges[i]), pred);
    }
    return count;
  }

  /// The core range in one kernel pass, each edge piece through the masked
  /// kernel.
  SumAcc<T> SumFrom(const CrackSelect& sel, const RangePredicate<T>& pred) const {
    SumAcc<T> sum = SumValues<T>(ValuesIn(sel.core));
    for (int i = 0; i < sel.num_edges; ++i) {
      sum += SumValues<T>(ValuesIn(sel.edges[i]), pred);
    }
    return sum;
  }

  /// Realizes `cut` (cracking if needed); returns its position. When the
  /// enclosing piece is below the crack threshold, records the piece as an
  /// edge instead and returns the conservative core boundary.
  std::size_t ResolveCut(const Cut<T>& cut, bool is_lower, CrackSelect* out,
                         const QueryContext* ctx, Status* abort) {
    CutLookup<T> look = index_.Lookup(cut);
    if (look.exact) return look.position;

    if (PieceBelowThreshold(look.piece)) {
      AddEdge(out, {look.piece.begin, look.piece.end});
      // Core excludes the whole undecided piece.
      return is_lower ? look.piece.end : look.piece.begin;
    }

    PieceInfo<T> piece = look.piece;
    MaybeStochasticPreCrack(cut, &piece, ctx, abort);
    if (AIDX_PREDICT_FALSE(!abort->ok())) {
      return is_lower ? piece.end : piece.begin;
    }
    if (Status gate = PieceGate(ctx); AIDX_PREDICT_FALSE(!gate.ok())) {
      *abort = std::move(gate);
      return is_lower ? piece.end : piece.begin;
    }

    const std::size_t split =
        piece.begin + CrackInTwo<T>(MutableValuesIn({piece.begin, piece.end}),
                                    MutableRowIdsIn({piece.begin, piece.end}), cut,
                                    options_.kernel);
    ++stats_.num_crack_in_two;
    stats_.values_touched += piece.end - piece.begin;
    index_.AddCut(cut, split);
    return split;
  }

  /// Crack-in-three fast path: both cuts in one unrealized piece.
  void ResolveBothInPiece(const Cut<T>& lo_cut, const Cut<T>& hi_cut,
                          const PieceInfo<T>& piece, CrackSelect* out,
                          const QueryContext* ctx, Status* abort) {
    if (lo_cut == hi_cut) {
      // Degenerate (e.g. a < x <= a): realize one cut, empty core.
      const std::size_t pos = ResolveCut(lo_cut, /*is_lower=*/true, out, ctx, abort);
      out->core = {pos, pos};
      return;
    }
    if (Status gate = PieceGate(ctx); AIDX_PREDICT_FALSE(!gate.ok())) {
      *abort = std::move(gate);
      return;
    }
    const ThreeWaySplit split =
        CrackInThree<T>(MutableValuesIn({piece.begin, piece.end}),
                        MutableRowIdsIn({piece.begin, piece.end}), lo_cut, hi_cut,
                        options_.kernel);
    ++stats_.num_crack_in_three;
    stats_.values_touched +=
        CrackInThreeValuesTouched(piece.end - piece.begin);
    const std::size_t lower_pos = piece.begin + split.lower_end;
    const std::size_t upper_pos = piece.begin + split.middle_end;
    index_.AddCut(lo_cut, lower_pos);
    index_.AddCut(hi_cut, upper_pos);
    out->core = {lower_pos, upper_pos};
  }

  /// Stochastic cracking: repeatedly split oversized pieces at a random
  /// data-driven pivot before the exact crack, so no query leaves a huge
  /// unorganized piece behind (fixes sequential-pattern degeneration).
  void MaybeStochasticPreCrack(const Cut<T>& target, PieceInfo<T>* piece,
                               const QueryContext* ctx, Status* abort) {
    if (options_.stochastic_threshold == 0) return;
    while (piece->end - piece->begin > options_.stochastic_threshold) {
      if (Status gate = PieceGate(ctx); AIDX_PREDICT_FALSE(!gate.ok())) {
        *abort = std::move(gate);
        return;
      }
      const std::size_t span_size = piece->end - piece->begin;
      const T pivot =
          values_[piece->begin + rng_.NextBounded(span_size)];
      const Cut<T> random_cut{pivot, CutKind::kLess};
      if (index_.Lookup(random_cut).exact || random_cut == target) break;
      const std::size_t split = piece->begin +
          CrackInTwo<T>(MutableValuesIn({piece->begin, piece->end}),
                        MutableRowIdsIn({piece->begin, piece->end}), random_cut,
                        options_.kernel);
      ++stats_.num_stochastic_cracks;
      stats_.values_touched += span_size;
      index_.AddCut(random_cut, split);
      // All-duplicates (or extreme-pivot) pieces make no progress; stop.
      const bool no_progress = split == piece->begin || split == piece->end;
      // Continue inside the half that still contains the target cut.
      if (random_cut < target) {
        piece->begin = split;
        piece->lower = random_cut;
      } else {
        piece->end = split;
        piece->upper = random_cut;
      }
      if (no_progress) break;
    }
  }

  void AddEdge(CrackSelect* out, PositionRange edge) {
    if (edge.empty()) return;
    AIDX_CHECK(out->num_edges < 2);
    out->edges[static_cast<std::size_t>(out->num_edges)] = edge;
    ++out->num_edges;
  }

  void DedupeEdges(CrackSelect* out) {
    if (out->num_edges == 2 && out->edges[0] == out->edges[1]) out->num_edges = 1;
  }

  CrackerColumnOptions options_;
  std::vector<T> values_;
  std::vector<row_id_t> row_ids_;
  CrackerIndex<T> index_;
  CrackerStats stats_;
  Rng rng_;
};

}  // namespace aidx
