// The two things the cracking kernel does to a cracked array: the select
// walk that turns a range predicate into cracks (CIDR 2007, plus Halim et
// al.'s stochastic pre-cracks), and the SIGMOD 2007 ripple cascade that
// folds one insert or delete into the pieces.
//
// Both run over a value array, an optional tandem payload array (row ids
// in a CrackerColumn, (tail, rid) entries in a sideways CrackerMap) and the
// array's CrackerIndex, and are written once for every owner.
//
// The walk is parameterized by a piece-latch policy, following Graefe et
// al. ("Concurrency Control for Adaptive Indexing"): latching is a
// protocol wrapped around an unchanged cracking algorithm.
//
//  - NoPieceLatch serves arrays with one user at a time (CrackerColumn,
//    UpdatableCrackerColumn, CrackerMap). Every hook is a direct call, so
//    the walk compiles to the plain single-threaded algorithm.
//  - PartitionedCrackerColumn's striped policy lets concurrent walks crack
//    disjoint pieces of one array (docs/CONCURRENCY.md §4).
//
// A policy provides:
//   kRevalidates          a claimed piece is looked up again, and the walk
//                         retries when another walk cracked it meanwhile;
//   Read(fn)              fn() under a shared hold of the index;
//   Claim(policy, piece)  RAII ownership of a piece about to be permuted,
//                         with Read(fn) and Publish(fn): fn() reading, or
//                         registering cuts in, the index while it is held;
//   Pivot(rng, n)         a stochastic pivot offset in [0, n);
//   Add(counter, n)       a stats bump.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
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
#include "util/rng.h"
#include "util/status.h"

namespace aidx {

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
  /// kAuto resolves by the fixed rule (ResolveCrackKernel) at the
  /// dispatch point.
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

  CrackerStats& operator+=(const CrackerStats& o) {
    num_selects += o.num_selects;
    num_crack_in_two += o.num_crack_in_two;
    num_crack_in_three += o.num_crack_in_three;
    num_stochastic_cracks += o.num_stochastic_cracks;
    values_touched += o.values_touched;
    return *this;
  }
};

/// The piece-latch policy of an array with one user at a time: no latches.
struct NoPieceLatch {
  static constexpr bool kRevalidates = false;
  struct Claim {
    template <ColumnValue T>
    Claim(NoPieceLatch&, const PieceInfo<T>&) {}
    template <typename Fn>
    auto Read(Fn&& fn) const {
      return fn();
    }
    template <typename Fn>
    void Publish(Fn&& fn) const {
      fn();
    }
  };
  template <typename Fn>
  auto Read(Fn&& fn) const {
    return fn();
  }
  std::size_t Pivot(Rng& rng, std::size_t n) const { return rng.NextBounded(n); }
  void Add(std::size_t& counter, std::size_t n) const { counter += n; }
};

/// One select over a cracked array: built per query, then Select().
/// `payloads` is empty or as long as `values`; `rng` is needed only when
/// stochastic_threshold > 0. `ctx` may be null.
template <ColumnValue T, typename Payload, typename Latch>
struct CrackWalk {
  std::span<T> values;
  std::span<Payload> payloads;
  CrackerIndex<T>& index;
  const CrackerColumnOptions& options;
  Rng* rng;
  CrackerStats& stats;
  Latch latch;
  const QueryContext* ctx;
  Status* abort;

  /// Answers `pred`, cracking at most the pieces its bounds fall into. On
  /// a PieceGate failure `*abort` is set and the walk stops before the next
  /// physical crack; the partial CrackSelect returned is meaningless to the
  /// caller, but every crack already registered stays, so the index remains
  /// ValidatePieces-clean.
  CrackSelect Select(const RangePredicate<T>& pred) {
    latch.Add(stats.num_selects, 1);
    CrackSelect out;
    if (pred.DefinitelyEmpty()) return out;
    const PredicateCuts<T> cuts = CutsForPredicate(pred);
    if (cuts.has_lower && cuts.has_upper &&
        TryCrackInThree(cuts.lower, cuts.upper, &out)) {
      return out;
    }
    std::size_t begin = 0;
    std::size_t end = values.size();
    if (cuts.has_lower) {
      begin = ResolveCut(cuts.lower, /*is_lower=*/true, &out);
      if (AIDX_PREDICT_FALSE(!abort->ok())) return out;
    }
    if (cuts.has_upper) {
      end = ResolveCut(cuts.upper, /*is_lower=*/false, &out);
      if (AIDX_PREDICT_FALSE(!abort->ok())) return out;
    }
    if (end < begin) end = begin;
    out.core = {begin, end};
    if (out.num_edges == 2 && out.edges[0] == out.edges[1]) out.num_edges = 1;
    return out;
  }

 private:
  using Claim = typename Latch::Claim;

  static bool SamePiece(const PieceInfo<T>& a, const PieceInfo<T>& b) {
    return a.begin == b.begin && a.end == b.end;
  }

  std::span<T> ValuesIn(const PieceInfo<T>& piece) const {
    return values.subspan(piece.begin, piece.end - piece.begin);
  }
  std::span<Payload> PayloadsIn(const PieceInfo<T>& piece) const {
    if (payloads.empty()) return {};
    return payloads.subspan(piece.begin, piece.end - piece.begin);
  }

  bool PieceBelowThreshold(const PieceInfo<T>& piece) const {
    return options.min_piece_size > 0 &&
           piece.end - piece.begin <= options.min_piece_size;
  }

  /// Piece-granularity robustness gate, evaluated immediately before each
  /// physical crack: deadline/cancellation first (one relaxed load; a
  /// clock read only when a deadline is set), then the crack.piece
  /// failpoint. Injected errors surface only when a context is present —
  /// ctx-free callers cannot propagate Status, so for them the failpoint
  /// is delay-only. False, with `*abort` set, when the walk must stop.
  bool PieceGate() {
    Status gate = ctx != nullptr ? ctx->Check() : Status::OK();
    if (AIDX_PREDICT_TRUE(gate.ok())) {
      Status injected = failpoints::crack_piece.Inject();
      if (AIDX_PREDICT_TRUE(injected.ok()) || ctx == nullptr) return true;
      gate = std::move(injected);
    }
    *abort = std::move(gate);
    return false;
  }

  /// Crack-in-three: both cuts unrealized in one piece that is neither at
  /// or below min_piece_size nor, with stochastic cracking on, oversized
  /// (stochastic pre-cracks subdivide those per bound). False when the
  /// piece does not qualify, or when a concurrent walk changed it before
  /// the claim; ResolveCut then realizes the bounds one at a time.
  bool TryCrackInThree(const Cut<T>& lo_cut, const Cut<T>& hi_cut,
                       CrackSelect* out) {
    PieceInfo<T> piece;
    Int128 piece_sum = kUnknownSum;
    const auto one_piece = [&] {
      const CutLookup<T> lo = index.Lookup(lo_cut);
      const CutLookup<T> hi = index.Lookup(hi_cut);
      piece = lo.piece;
      piece_sum = lo.piece_sum;
      return !lo.exact && !hi.exact && SamePiece(lo.piece, hi.piece);
    };
    if (!latch.Read(one_piece) || PieceBelowThreshold(piece)) return false;
    if (options.stochastic_threshold != 0 &&
        piece.end - piece.begin > options.stochastic_threshold) {
      return false;
    }
    Claim claim(latch, piece);
    if constexpr (Latch::kRevalidates) {
      const PieceInfo<T> claimed = piece;
      if (!claim.Read(one_piece) || !SamePiece(piece, claimed)) return false;
    }
    if (!PieceGate()) return true;
    const ThreeWaySplit split = CrackInThree<T, Payload>(
        ValuesIn(piece), PayloadsIn(piece), lo_cut, hi_cut, options.kernel);
    const std::size_t lower_pos = piece.begin + split.lower_end;
    const std::size_t upper_pos = piece.begin + split.middle_end;
    const auto sums =
        SplitSums<4>(piece_sum, {piece.begin, lower_pos, upper_pos, piece.end});
    // Above the first cut lie the last two pieces.
    const Int128 above_lo = sums[0] == kUnknownSum ? kUnknownSum : sums[1] + sums[2];
    claim.Publish([&] {
      index.AddCut(lo_cut, lower_pos, sums[0], above_lo);
      index.AddCut(hi_cut, upper_pos, sums[1], sums[2]);
    });
    latch.Add(stats.num_crack_in_three, 1);
    latch.Add(stats.values_touched,
               CrackInThreeValuesTouched(piece.end - piece.begin));
    out->core = {lower_pos, upper_pos};
    return true;
  }

  /// Realizes `cut` (cracking if needed); returns its position. When the
  /// enclosing piece is below the crack threshold, records the piece as an
  /// edge instead and returns the conservative core boundary.
  std::size_t ResolveCut(const Cut<T>& cut, bool is_lower, CrackSelect* out) {
    for (;;) {
      const CutLookup<T> look = latch.Read([&] { return index.Lookup(cut); });
      if (look.exact) return look.position;
      PieceInfo<T> piece = look.piece;
      Int128 piece_sum = look.piece_sum;
      if (PieceBelowThreshold(piece)) {
        AddEdge(out, {piece.begin, piece.end});
        // Core excludes the whole undecided piece.
        return is_lower ? piece.end : piece.begin;
      }
      Claim claim(latch, piece);
      if constexpr (Latch::kRevalidates) {
        // Terminates: a mismatch means the piece was subdivided, so the
        // candidate strictly shrinks every retry.
        const CutLookup<T> again =
            claim.Read([&] { return index.Lookup(cut); });
        if (again.exact) return again.position;
        if (!SamePiece(again.piece, piece)) continue;
        piece_sum = again.piece_sum;
      }
      if (!MaybeStochasticPreCrack(cut, &piece, &piece_sum, claim) ||
          !PieceGate()) {
        return is_lower ? piece.end : piece.begin;
      }
      const std::size_t split =
          piece.begin + CrackInTwo<T, Payload>(ValuesIn(piece), PayloadsIn(piece),
                                               cut, options.kernel);
      const auto sums = SplitSums<3>(piece_sum, {piece.begin, split, piece.end});
      claim.Publish([&] { index.AddCut(cut, split, sums[0], sums[1]); });
      latch.Add(stats.num_crack_in_two, 1);
      latch.Add(stats.values_touched, piece.end - piece.begin);
      return split;
    }
  }

  /// Stochastic cracking: repeatedly split oversized pieces at a random
  /// data-driven pivot before the exact crack, so no query leaves a huge
  /// unorganized piece behind (fixes sequential-pattern degeneration).
  /// Narrows `piece` and its sum `*piece_sum` to the half still holding
  /// `target`; the claim on the original piece covers every half it
  /// carves. False on a gate failure.
  bool MaybeStochasticPreCrack(const Cut<T>& target, PieceInfo<T>* piece,
                               Int128* piece_sum, Claim& claim) {
    if (options.stochastic_threshold == 0) return true;
    while (piece->end - piece->begin > options.stochastic_threshold) {
      if (!PieceGate()) return false;
      const std::size_t span_size = piece->end - piece->begin;
      const T pivot = values[piece->begin + latch.Pivot(*rng, span_size)];
      const Cut<T> random_cut{pivot, CutKind::kLess};
      if (random_cut == target ||
          claim.Read([&] { return index.Lookup(random_cut).exact; })) {
        break;
      }
      const std::size_t split =
          piece->begin + CrackInTwo<T, Payload>(ValuesIn(*piece), PayloadsIn(*piece),
                                                random_cut, options.kernel);
      const auto sums = SplitSums<3>(*piece_sum, {piece->begin, split, piece->end});
      claim.Publish([&] { index.AddCut(random_cut, split, sums[0], sums[1]); });
      latch.Add(stats.num_stochastic_cracks, 1);
      latch.Add(stats.values_touched, span_size);
      // All-duplicates (or extreme-pivot) pieces make no progress; stop.
      const bool no_progress = split == piece->begin || split == piece->end;
      if (random_cut < target) {
        piece->begin = split;
        piece->lower = random_cut;
        *piece_sum = sums[1];
      } else {
        piece->end = split;
        piece->upper = random_cut;
        *piece_sum = sums[0];
      }
      if (no_progress) break;
    }
    return true;
  }

  /// The sums of the pieces between consecutive `bounds`, which a crack
  /// of a piece with sum `whole` just made: when `whole` is known, every
  /// piece but the largest is streamed (the crack just rewrote it, so it
  /// is in cache) and the largest is the difference. All kUnknownSum
  /// otherwise, and always for double.
  template <std::size_t N>
  std::array<Int128, N - 1> SplitSums(Int128 whole,
                                      const std::array<std::size_t, N>& bounds) const {
    std::array<Int128, N - 1> sums;
    sums.fill(kUnknownSum);
    if constexpr (std::is_integral_v<T>) {
      if (whole == kUnknownSum) return sums;
      std::size_t largest = 0;
      for (std::size_t i = 1; i + 1 < N; ++i) {
        if (bounds[i + 1] - bounds[i] > bounds[largest + 1] - bounds[largest]) {
          largest = i;
        }
      }
      for (std::size_t i = 0; i + 1 < N; ++i) {
        if (i == largest) continue;
        sums[i] = SumValues<T>(values.subspan(bounds[i], bounds[i + 1] - bounds[i]));
        whole -= sums[i];
      }
      sums[largest] = whole;
    }
    return sums;
  }

  static void AddEdge(CrackSelect* out, PositionRange edge) {
    if (edge.empty()) return;
    AIDX_CHECK(out->num_edges < 2);
    out->edges[static_cast<std::size_t>(out->num_edges)] = edge;
    ++out->num_edges;
  }

};

// -- The ripple cascade (SIGMOD 2007) ----------------------------------------
//
// Inserting into piece k, or deleting from it, moves one element per
// downstream piece boundary instead of shifting the whole array tail, and
// shifts every later cut by one. One in-order walk over the later cuts does
// both: each visit moves the element at the cut's old position and then
// shifts the cut, so a tuple costs one tree walk and O(pieces) moves.
// `payloads` rides in tandem and may be null (a column kept without row
// ids). Both return the element moves made; an empty piece (two cuts at one
// position) moves nothing. Moved elements stay in their pieces, so only the
// landing piece's cached sum changes, by the tuple's value.

/// Inserts (value, payload) into the piece that admits `value`: the tuple
/// takes the first slot past that piece, and each downstream piece's
/// displaced first element takes the first slot past its own piece — the
/// last one a new slot at the end of the array.
template <ColumnValue T, typename Payload>
std::size_t RippleInsert(std::vector<T>& values, std::vector<Payload>* payloads,
                         CrackerIndex<T>& index, T value, const Payload& payload) {
  const std::size_t old_size = values.size();
  const PieceInfo<T> piece = index.PieceForValue(value);
  // The tuple in hand: first the new one, then each piece's displaced
  // first element, carried left to right into the next piece's slot.
  T carry = value;
  Payload carry_payload = payload;
  std::size_t moves = 0;
  std::optional<std::size_t> last;  // the slot written last
  const auto place = [&](std::size_t slot) {
    if (last == slot) return;  // an empty piece: its slot was just written
    std::swap(carry, values[slot]);
    if (payloads != nullptr) std::swap(carry_payload, (*payloads)[slot]);
    if (last.has_value()) ++moves;
    last = slot;
  };
  values.push_back(value);  // the new slot; overwritten by the last carry
  if (payloads != nullptr) payloads->push_back(payload);
  index.AdjustPieceSum(piece, value, +1);
  if (piece.upper.has_value()) {
    index.VisitCutsFrom(*piece.upper, [&](const Cut<T>&, std::size_t& pos) {
      place(pos);
      ++pos;
    });
  }
  place(old_size);
  index.set_column_size(old_size + 1);
  return moves;
}

/// Removes the element at `pos` of `piece` (the piece PieceForValue gave
/// for its value; the caller's victim search picked `pos`): the piece's
/// last element closes the hole, then each downstream piece donates its
/// last element to the position freed on its left, shrinking the array
/// by one.
template <ColumnValue T, typename Payload>
std::size_t RippleDelete(std::vector<T>& values, std::vector<Payload>* payloads,
                         CrackerIndex<T>& index, const PieceInfo<T>& piece,
                         std::size_t pos) {
  const std::size_t old_size = values.size();
  index.AdjustPieceSum(piece, values[pos], -1);
  std::size_t moves = 0;
  std::size_t hole = pos;
  // Moves the last element before `end` (a piece's end) into the hole.
  const auto move_last = [&](std::size_t end) {
    if (hole != end - 1) {
      values[hole] = values[end - 1];
      if (payloads != nullptr) (*payloads)[hole] = (*payloads)[end - 1];
      ++moves;
    }
    hole = end - 1;
  };
  if (piece.upper.has_value()) {
    index.VisitCutsFrom(*piece.upper, [&](const Cut<T>&, std::size_t& p) {
      move_last(p);
      --p;
    });
  }
  move_last(old_size);
  values.pop_back();
  if (payloads != nullptr) payloads->pop_back();
  index.set_column_size(old_size - 1);
  return moves;
}

}  // namespace aidx
