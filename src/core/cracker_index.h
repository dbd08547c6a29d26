// The cracker index: an AVL tree of cuts over one cracked array.
//
// Pieces are the maximal runs between adjacent cut positions. The index
// answers "where is the piece a new cut must crack" (floor/ceiling search),
// records realized cuts, and supports the position-shifting walks the
// update algorithms (SIGMOD 2007) need.
//
// Ownership: a CrackerIndex stores only (cut, position) bookkeeping — it
// never owns or touches the cracked array itself. It is owned by exactly
// one physical container (CrackerColumn or CrackerMap), which is
// responsible for keeping positions consistent with the array it manages:
// the contract is that AddCut(cut, p) is called only after the owner has
// physically partitioned the enclosing piece at p, and set_column_size /
// the mutable VisitCuts walks are reserved for the update pipeline that
// shifts positions in lock step with ripple moves.
//
// Usage (the cracking inner loop):
//   CutLookup<T> look = index.Lookup(cut);
//   if (!look.exact) {                       // piece [begin, end) must crack
//     std::size_t p = /* CrackInTwo over look.piece */;
//     index.AddCut(cut, p);
//   }                                        // look.position / p is the answer
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "core/cut.h"
#include "index/avl_tree.h"
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

/// Result of probing the index with a cut.
template <ColumnValue T>
struct CutLookup {
  /// True when the cut is already realized; `position` is then exact and
  /// `piece` is meaningless.
  bool exact = false;
  std::size_t position = 0;
  /// The piece that must be cracked to realize the cut.
  PieceInfo<T> piece;
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

  /// Probes for `cut`; either finds it realized or identifies the enclosing
  /// piece that a crack would have to reorganize.
  CutLookup<T> Lookup(const Cut<T>& cut) const {
    CutLookup<T> out;
    const Node* exact = tree_.Find(cut);
    if (exact != nullptr) {
      out.exact = true;
      out.position = exact->value;
      return out;
    }
    out.piece = PieceAround(cut);
    return out;
  }

  /// Records a realized cut. The position must lie inside the enclosing
  /// piece identified by Lookup (checked in debug builds).
  void AddCut(const Cut<T>& cut, std::size_t position) {
    AIDX_DCHECK(position <= column_size_);
    const auto [node, inserted] = tree_.Insert(cut, position);
    AIDX_CHECK(inserted) << "cut " << cut.ToString() << " already realized";
    (void)node;
  }

  /// The piece that would contain a not-yet-realized cut. (Also correct for
  /// realized cuts: returns the zero-or-more-width piece to its left.)
  PieceInfo<T> PieceAround(const Cut<T>& cut) const {
    PieceInfo<T> piece;
    const Node* floor = tree_.FindFloor(cut);
    const Node* ceil = tree_.FindAbove(cut);
    if (floor != nullptr) {
      piece.begin = floor->value;
      piece.lower = floor->key;
    } else {
      piece.begin = 0;
    }
    if (ceil != nullptr) {
      piece.end = ceil->value;
      piece.upper = ceil->key;
    } else {
      piece.end = column_size_;
    }
    if (piece.end < piece.begin) piece.end = piece.begin;  // zero-width tolerance
    return piece;
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
    PieceInfo<T> piece;
    const Node* last_false = nullptr;
    const Node* first_true = nullptr;
    const Node* n = tree_.Root();
    while (n != nullptr) {
      if (n->key.Below(v)) {
        first_true = n;
        n = LeftOf(n);
      } else {
        last_false = n;
        n = RightOf(n);
      }
    }
    if (last_false != nullptr) {
      piece.begin = last_false->value;
      piece.lower = last_false->key;
    }
    piece.end = first_true != nullptr ? first_true->value : column_size_;
    if (first_true != nullptr) piece.upper = first_true->key;
    if (piece.end < piece.begin) piece.end = piece.begin;
    return piece;
  }

  /// Visits cuts in ascending order; `fn(const Cut<T>&, std::size_t& pos)`
  /// may mutate positions (update algorithms shift suffix cuts).
  template <typename Fn>
  void VisitCuts(Fn&& fn) {
    tree_.VisitInOrder([&](Node& node) { fn(node.key, node.value); });
  }
  template <typename Fn>
  void VisitCuts(Fn&& fn) const {
    const_cast<AvlTree<Cut<T>, std::size_t>&>(tree_).VisitInOrder(
        [&](Node& node) { fn(node.key, static_cast<const std::size_t&>(node.value)); });
  }

  /// Visits cuts with key >= from, ascending; positions mutable.
  template <typename Fn>
  void VisitCutsFrom(const Cut<T>& from, Fn&& fn) {
    tree_.VisitFrom(from, [&](Node& node) { fn(node.key, node.value); });
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

  /// Drops a realized cut (piece merge; used by update algorithms).
  bool EraseCut(const Cut<T>& cut) { return tree_.Erase(cut); }

  /// Deep copy (the type is otherwise move-only). Sideways cracking clones
  /// a fully-aligned sibling's index when a map joins its cohort after
  /// updates: copying the cuts along with the layout is what keeps a later
  /// Select from re-cracking — and thereby re-permuting — the clone.
  CrackerIndex Clone() const {
    CrackerIndex out(column_size_);
    VisitCuts([&](const Cut<T>& cut, const std::size_t& pos) {
      out.AddCut(cut, pos);
    });
    return out;
  }

  void Clear() { tree_.Clear(); }

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

  /// Validate(), plus the array-side invariant: the index covers exactly
  /// `values`, and each piece's values respect its bound cuts. O(n); tests
  /// only.
  bool ValidateOver(std::span<const T> values) const {
    if (!Validate() || column_size_ != values.size()) return false;
    bool ok = true;
    VisitPieces([&](const PieceInfo<T>& piece) {
      for (std::size_t i = piece.begin; i < piece.end && ok; ++i) {
        if (piece.lower && piece.lower->Below(values[i])) ok = false;
        if (piece.upper && !piece.upper->Below(values[i])) ok = false;
      }
    });
    return ok;
  }

  int tree_height() const { return tree_.height(); }

 private:
  using Tree = AvlTree<Cut<T>, std::size_t>;
  using Node = typename Tree::Node;

  static const Node* LeftOf(const Node* n) { return n->left; }
  static const Node* RightOf(const Node* n) { return n->right; }

  Tree tree_;
  std::size_t column_size_;
};

}  // namespace aidx
