// The cracker index: an AVL tree of cuts over one cracked array.
//
// Pieces are the maximal runs between adjacent cut positions. The index
// answers "where is the piece a new cut must crack" (floor/ceiling search),
// records realized cuts, and supports the position-shifting walks the
// update algorithms (SIGMOD 2007) need.
//
// For integer columns it caches exact piece sums: SumPieces fills them,
// and a crack of a piece whose sum is known passes both halves' sums to
// AddCut, so cracking keeps them known.
//
// Ownership: a CrackerIndex stores only (cut, position) bookkeeping and
// those sums — it never owns or permutes the cracked array, and reads it
// only to fill sums. It is owned by exactly one physical container
// (CrackerColumn or CrackerMap), which is responsible for keeping it
// consistent with the array it manages: the contract is that
// AddCut(cut, p, ...) is called only after the owner has physically
// partitioned the enclosing piece at p, with sums that are exact or
// kUnknownSum; set_column_size, the mutable VisitCuts walks and
// AdjustPieceSum are reserved for the update pipeline that shifts
// positions in lock step with ripple moves; and any other edit of the
// array is followed by InvalidateSums (or Clear).
//
// Usage (the cracking inner loop):
//   CutLookup<T> look = index.Lookup(cut);
//   if (!look.exact) {                       // piece [begin, end) must crack
//     std::size_t p = /* CrackInTwo over look.piece */;
//     index.AddCut(cut, p);                  // or with both sides' sums when
//   }                                        // look.piece_sum is known
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>

#include "core/cut.h"
#include "index/avl_tree.h"
#include "index/scan.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// Bookkeeping for one piece of a cracked array.
template <ColumnValue T>
struct PieceInfo {
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Bound cuts; absent at the array's extremes.
  std::optional<Cut<T>> lower;  // values in the piece are !lower->Below(v)
  std::optional<Cut<T>> upper;  // values in the piece are  upper->Below(v)
};

/// The known bit of a cached sum, spelled as a value: -2^127, which no
/// sum of fewer than 2^64 int64 values reaches.
inline constexpr Int128 kUnknownSum =
    static_cast<Int128>(static_cast<unsigned __int128>(1) << 127);

/// Result of probing the index with a cut.
template <ColumnValue T>
struct CutLookup {
  /// True when the cut is already realized; `position` is then exact and
  /// `piece` and `piece_sum` are meaningless.
  bool exact = false;
  std::size_t position = 0;
  /// The piece that must be cracked to realize the cut.
  PieceInfo<T> piece;
  /// That piece's cached sum, or kUnknownSum (always for double).
  Int128 piece_sum = kUnknownSum;
};

template <ColumnValue T>
class CrackerIndex {
 public:
  explicit CrackerIndex(std::size_t column_size) : column_size_(column_size) {}

  AIDX_DEFAULT_MOVE_ONLY(CrackerIndex);

  std::size_t column_size() const { return column_size_; }
  /// Updates the logical array size (update pipeline grows/shrinks the
  /// cracked array); existing cut positions must already be consistent.
  void set_column_size(std::size_t n) { column_size_ = n; }

  std::size_t num_cuts() const { return tree_.size(); }
  std::size_t num_pieces() const { return tree_.size() + 1; }

  /// Probes for `cut` in one descent: either finds it realized or bounds the
  /// enclosing piece a crack would reorganize by the nearest cuts around it.
  CutLookup<T> Lookup(const Cut<T>& cut) const {
    CutLookup<T> out;
    const Node* below = nullptr;
    const Node* above = nullptr;
    const Node* n = tree_.Root();
    while (n != nullptr) {
      if (cut < n->key) {
        above = n;
        n = n->left;
      } else if (n->key < cut) {
        below = n;
        n = n->right;
      } else {
        out.exact = true;
        out.position = n->value.position;
        return out;
      }
    }
    out.piece = PieceBetween(below, above);
    out.piece_sum = above != nullptr ? Get(above, &Sums::piece) : tail_sum_;
    return out;
  }

  /// Records a realized cut. The position must lie inside the enclosing
  /// piece identified by Lookup (checked in debug builds). `below_sum` and
  /// `above_sum` are the sums of the two pieces it splits that piece into,
  /// each exact or kUnknownSum: the new cut's node takes the first, the
  /// split piece's upper cut (or the tail) the second, and the path's
  /// Recombine keeps every subtree sum above them exact.
  void AddCut(const Cut<T>& cut, std::size_t position,
              Int128 below_sum = kUnknownSum, Int128 above_sum = kUnknownSum) {
    AIDX_DCHECK(position <= column_size_);
    const auto seed_split = [&](Node* successor) {
      if (successor != nullptr) {
        Set(successor, &Sums::piece, above_sum);
      } else {
        tail_sum_ = above_sum;
      }
    };
    std::unique_ptr<Sums> sums;
    if (below_sum != kUnknownSum) {
      sums = std::make_unique<Sums>(Sums{below_sum, kUnknownSum});
    }
    const auto [node, inserted] =
        tree_.Insert(cut, CutSlot{position, std::move(sums)}, seed_split);
    AIDX_CHECK(inserted) << "cut " << cut.ToString() << " already realized";
    (void)node;
  }

  /// The piece whose value interval admits value `v` — where an insert of
  /// `v` must land. Boundary rule: v belongs below every cut c with
  /// c.Below(v) and at-or-above every cut with !c.Below(v).
  PieceInfo<T> PieceForValue(T v) const {
    // Cuts are ordered so that Below(v) is monotone: false...false,true...true.
    // The insert piece sits between the last false cut and the first true cut.
    // (v, kLessEq) is the greatest cut candidate with !Below(v) semantics
    // boundary: cut (v', k') has Below(v) false iff (v',k') <= (v, kLess) is
    // not quite right for duplicates, so search directly:
    const Node* last_false = nullptr;
    const Node* first_true = nullptr;
    const Node* n = tree_.Root();
    while (n != nullptr) {
      if (n->key.Below(v)) {
        first_true = n;
        n = n->left;
      } else {
        last_false = n;
        n = n->right;
      }
    }
    return PieceBetween(last_false, first_true);
  }

  /// Visits cuts in ascending order; `fn(const Cut<T>&, std::size_t& pos)`
  /// may mutate positions (update algorithms shift suffix cuts).
  template <typename Fn>
  void VisitCuts(Fn&& fn) {
    tree_.VisitInOrder([&](Node& node) { fn(node.key, node.value.position); });
  }
  template <typename Fn>
  void VisitCuts(Fn&& fn) const {
    const_cast<Tree&>(tree_).VisitInOrder([&](Node& node) {
      fn(node.key, static_cast<const std::size_t&>(node.value.position));
    });
  }

  /// Visits cuts with key >= from, ascending; positions mutable.
  template <typename Fn>
  void VisitCutsFrom(const Cut<T>& from, Fn&& fn) {
    tree_.VisitFrom(from, [&](Node& node) { fn(node.key, node.value.position); });
  }

  /// Visits every piece left to right.
  template <typename Fn>
  void VisitPieces(Fn&& fn) const {
    PieceInfo<T> current;
    current.begin = 0;
    VisitCuts([&](const Cut<T>& cut, const std::size_t& pos) {
      current.end = pos;
      current.upper = cut;
      fn(current);
      current = PieceInfo<T>{};
      current.begin = pos;
      current.lower = cut;
    });
    current.end = column_size_;
    current.upper.reset();
    fn(current);
  }

  /// Deep copy (the type is otherwise move-only) of the cuts, not the
  /// sums. Sideways cracking clones a fully-aligned sibling's index when a
  /// map joins its cohort after updates: copying the cuts along with the
  /// layout is what keeps a later Select from re-cracking — and thereby
  /// re-permuting — the clone.
  CrackerIndex Clone() const {
    CrackerIndex out(column_size_);
    VisitCuts([&](const Cut<T>& cut, const std::size_t& pos) {
      out.AddCut(cut, pos);
    });
    return out;
  }

  void Clear() {
    tree_.Clear();
    tail_sum_ = kUnknownSum;
  }

  /// Forgets every sum: for array edits other than cracks and ripples.
  void InvalidateSums() {
    tree_.VisitInOrder([](Node& n) { n.value.sums.reset(); });
    tail_sum_ = kUnknownSum;
  }

  /// The ripple cascade (core/crack_walk.h) added `v` to `piece` (sign
  /// +1) or removed it (-1): every other element it moves stays in its own
  /// piece, so only this piece's sum and the subtree sums above it change.
  void AdjustPieceSum(const PieceInfo<T>& piece, T v, int sign) {
    if constexpr (std::is_integral_v<T>) {
      const Int128 delta = sign * static_cast<Int128>(v);
      if (!piece.upper.has_value()) {
        tail_sum_ = AddKnown(tail_sum_, delta);
        return;
      }
      // The search path to the piece's upper cut is that cut's ancestors.
      for (Node* n = tree_.Root(); n != nullptr;) {
        Set(n, &Sums::subtree, AddKnown(Get(n, &Sums::subtree), delta));
        if (*piece.upper < n->key) {
          n = n->left;
        } else if (n->key < *piece.upper) {
          n = n->right;
        } else {
          Set(n, &Sums::piece, AddKnown(Get(n, &Sums::piece), delta));
          return;
        }
      }
      AIDX_DCHECK(false) << "piece bound " << piece.upper->ToString() << " not a cut";
    }
  }

  /// Exact sum of `values` (the array this index covers) over `range`,
  /// which starts and ends on piece boundaries as a select's core does: a
  /// descent to the highest cut inside it, then one down each side adding
  /// whole subtrees by their sums. Each sum met unknown is computed and
  /// stored, so the caller needs the index to itself. Integers only.
  Int128 SumPieces(PositionRange range, std::span<const T> values)
    requires std::is_integral_v<T>
  {
    AIDX_DCHECK(values.size() == column_size_ && range.end <= column_size_);
    const std::size_t b = range.begin;
    const std::size_t e = range.end;
    if (b >= e) return 0;
    Int128 total = 0;
    if (e == column_size_) {
      if (tail_sum_ == kUnknownSum) {
        const Node* last = tree_.Max();
        tail_sum_ =
            SumValues<T>(values.subspan(last != nullptr ? last->value.position : 0));
      }
      total += tail_sum_;
    }
    // The cuts at positions in (b, e] are exactly those whose pieces lie in
    // the range. `lo` tracks where the current subtree's first piece begins.
    std::size_t lo = 0;
    Node* split = tree_.Root();
    while (split != nullptr) {
      if (split->value.position <= b) {
        lo = split->value.position;
        split = split->right;
      } else if (split->value.position > e) {
        split = split->left;
      } else {
        break;
      }
    }
    if (split == nullptr) return total;
    total += PieceSum(*split, lo, values);
    for (Node* m = split->left; m != nullptr;) {
      if (m->value.position > b) {
        total += PieceSum(*m, lo, values) +
                 SubtreeSum(m->right, m->value.position, values);
        m = m->left;
      } else {
        lo = m->value.position;
        m = m->right;
      }
    }
    lo = split->value.position;
    for (Node* m = split->right; m != nullptr;) {
      if (m->value.position <= e) {
        total += SubtreeSum(m->left, lo, values) + PieceSum(*m, lo, values);
        lo = m->value.position;
        m = m->right;
      } else {
        m = m->left;
      }
    }
    return total;
  }

  /// Invariants: AVL shape, cut-position monotonicity, positions within the
  /// array. O(n); tests only.
  bool Validate() const {
    if (!tree_.Validate()) return false;
    bool ok = true;
    std::size_t prev = 0;
    VisitCuts([&](const Cut<T>&, const std::size_t& pos) {
      if (pos < prev || pos > column_size_) ok = false;
      prev = pos;
    });
    return ok;
  }

  /// Validate(), plus the array-side invariants: the index covers exactly
  /// `values`, each piece's values respect its bound cuts, and every known
  /// piece, subtree and tail sum is exact. O(n); tests only.
  bool ValidateOver(std::span<const T> values) const {
    if (!Validate() || column_size_ != values.size()) return false;
    bool ok = true;
    VisitPieces([&](const PieceInfo<T>& piece) {
      for (std::size_t i = piece.begin; i < piece.end && ok; ++i) {
        if (piece.lower && piece.lower->Below(values[i])) ok = false;
        if (piece.upper && !piece.upper->Below(values[i])) ok = false;
      }
    });
    if constexpr (std::is_integral_v<T>) {  // double columns cache no sum
      std::size_t cursor = 0;
      CheckSums(tree_.Root(), values, &cursor, &ok);
      if (!SumHolds(tail_sum_, SumValues<T>(values.subspan(cursor)))) ok = false;
    }
    return ok;
  }

  int tree_height() const { return tree_.height(); }

 private:
  /// A cut's cached sums: of the piece just below it (from the previous
  /// cut's position, or 0) and of the pieces below every cut of its
  /// subtree. Allocated when one first becomes known, so a node stays one
  /// cache line wherever sums go unused.
  struct Sums {
    Int128 piece = kUnknownSum;
    Int128 subtree = kUnknownSum;
  };
  struct CutSlot {
    std::size_t position = 0;
    std::unique_ptr<Sums> sums;
  };

  static Int128 AddKnown(Int128 a, Int128 b) {
    return a == kUnknownSum || b == kUnknownSum ? kUnknownSum : a + b;
  }

  /// The tree's augmentation: a subtree sum is known when its cut's piece
  /// sum and both child subtree sums are.
  struct SubtreeSums {
    template <typename N>
    static void Recombine(N& n) {
      const Int128 children =
          AddKnown(Get(n.left, &Sums::subtree), Get(n.right, &Sums::subtree));
      Set(&n, &Sums::subtree, AddKnown(Get(&n, &Sums::piece), children));
    }
  };

  using Tree = AvlTree<Cut<T>, CutSlot, std::less<Cut<T>>, SubtreeSums>;
  using Node = typename Tree::Node;

  /// A cached sum; an absent subtree's is 0.
  static Int128 Get(const Node* n, Int128 Sums::*which) {
    if (n == nullptr) return 0;
    return n->value.sums != nullptr ? n->value.sums.get()->*which : kUnknownSum;
  }
  static void Set(Node* n, Int128 Sums::*which, Int128 sum) {
    if (n->value.sums == nullptr) {
      if (sum == kUnknownSum) return;
      n->value.sums = std::make_unique<Sums>();
    }
    n->value.sums.get()->*which = sum;
  }

  /// The piece between two neighbouring cuts (either may be absent).
  PieceInfo<T> PieceBetween(const Node* lower, const Node* upper) const {
    PieceInfo<T> piece;
    if (lower != nullptr) {
      piece.begin = lower->value.position;
      piece.lower = lower->key;
    }
    piece.end = upper != nullptr ? upper->value.position : column_size_;
    if (upper != nullptr) piece.upper = upper->key;
    if (piece.end < piece.begin) piece.end = piece.begin;  // zero-width tolerance
    return piece;
  }

  /// `m`'s piece sum, filled from `values` when unknown; `lo` is where the
  /// first piece of m's subtree begins.
  static Int128 PieceSum(Node& m, std::size_t lo, std::span<const T> values) {
    Int128 sum = Get(&m, &Sums::piece);
    if (sum == kUnknownSum) {
      const Node* pred = m.left;  // the rightmost cut below m, if any
      while (pred != nullptr && pred->right != nullptr) pred = pred->right;
      const std::size_t begin = pred != nullptr ? pred->value.position : lo;
      sum = SumValues<T>(values.subspan(begin, m.value.position - begin));
      Set(&m, &Sums::piece, sum);
    }
    return sum;
  }

  /// `x`'s subtree sum (0 for none), filled bottom-up when unknown.
  static Int128 SubtreeSum(Node* x, std::size_t lo, std::span<const T> values) {
    if (x == nullptr) return 0;
    Int128 sum = Get(x, &Sums::subtree);
    if (sum == kUnknownSum) {
      sum = SubtreeSum(x->left, lo, values) + PieceSum(*x, lo, values) +
            SubtreeSum(x->right, x->value.position, values);
      Set(x, &Sums::subtree, sum);
    }
    return sum;
  }

  static bool SumHolds(Int128 cached, Int128 exact) {
    return cached == kUnknownSum || cached == exact;
  }

  /// In-order sum check of n's subtree for ValidateOver; `*cursor` is where
  /// its first piece begins on entry and where its last piece ends on exit.
  static Int128 CheckSums(const Node* n, std::span<const T> values,
                          std::size_t* cursor, bool* ok) {
    if (n == nullptr) return 0;
    Int128 sum = CheckSums(n->left, values, cursor, ok);
    const Int128 piece =
        SumValues<T>(values.subspan(*cursor, n->value.position - *cursor));
    if (!SumHolds(Get(n, &Sums::piece), piece)) *ok = false;
    *cursor = n->value.position;
    sum += piece + CheckSums(n->right, values, cursor, ok);
    if (!SumHolds(Get(n, &Sums::subtree), sum)) *ok = false;
    return sum;
  }

  Tree tree_;
  std::size_t column_size_;
  Int128 tail_sum_ = kUnknownSum;
};

}  // namespace aidx
