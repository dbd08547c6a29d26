// In-memory B+ tree.
//
// Two roles in the reproduction:
//  * the "final partition" adaptive merging migrates key ranges into
//    (EDBT'10 uses a partitioned B-tree; merged ranges land here), and
//  * an alternative full-index baseline with realistic node structure.
//
// Duplicates are allowed. Leaves are singly linked for range scans.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "index/scan.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// B+ tree over values of T with optional row-id payloads.
template <ColumnValue T>
class BPlusTree {
 public:
  struct Options {
    /// Max keys per leaf before it splits.
    std::size_t leaf_capacity = 256;
    /// Max children per internal node before it splits.
    std::size_t internal_fanout = 64;
    bool with_row_ids = false;
  };

  explicit BPlusTree(Options options = {}) : options_(options) {
    AIDX_CHECK(options_.leaf_capacity >= 2) << "leaf capacity must be >= 2";
    AIDX_CHECK(options_.internal_fanout >= 3) << "internal fanout must be >= 3";
  }
  ~BPlusTree() { FreeSubtree(root_); }

  AIDX_DISALLOW_COPY_AND_ASSIGN(BPlusTree);
  BPlusTree(BPlusTree&& other) noexcept { MoveFrom(std::move(other)); }
  BPlusTree& operator=(BPlusTree&& other) noexcept {
    if (this != &other) {
      FreeSubtree(root_);
      MoveFrom(std::move(other));
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int height() const { return root_ == nullptr ? 0 : HeightOf(root_); }

  /// Number of leaves in the chain. O(#leaves); the delete-hygiene tests
  /// use it to assert compaction keeps density bounded.
  std::size_t LeafCount() const {
    if (root_ == nullptr) return 0;
    const Node* n = root_;
    while (!n->is_leaf) n = static_cast<const Internal*>(n)->children.front();
    std::size_t count = 0;
    for (const Leaf* leaf = static_cast<const Leaf*>(n); leaf != nullptr;
         leaf = leaf->next) {
      ++count;
    }
    return count;
  }

  /// Inserts a single key (duplicate keys permitted).
  void Insert(T key, row_id_t rid = 0) {
    if (root_ == nullptr) {
      auto* leaf = new Leaf();
      root_ = leaf;
    }
    SplitInfo split;
    InsertRec(root_, key, rid, &split);
    if (split.created != nullptr) {
      auto* new_root = new Internal();
      new_root->seps.push_back(split.separator);
      new_root->children.push_back(root_);
      new_root->children.push_back(split.created);
      root_ = new_root;
    }
    ++size_;
  }

  /// Inserts a batch whose keys are already sorted ascending. Amortizes the
  /// descent; used by adaptive merging to migrate extracted runs.
  void InsertSortedBatch(std::span<const T> keys, std::span<const row_id_t> rids = {}) {
    AIDX_DCHECK(std::is_sorted(keys.begin(), keys.end()));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Insert(keys[i], rids.empty() ? row_id_t{0} : rids[i]);
    }
  }

  /// Removes one occurrence of `key`; returns false when the key is absent.
  /// A leaf drained below a quarter of its capacity is compacted with an
  /// adjacent sibling under the same parent (merged when the combined keys
  /// fit, rebalanced by borrowing otherwise), and thinned internal nodes
  /// merge with a sibling the same way (SplitInternal in reverse), so
  /// sustained deletes cannot leave chains of near-empty nodes behind; a
  /// single-child root collapses from the top. The pass stays a single
  /// descent — compaction happens on the way back up.
  bool EraseOne(T key) {
    if (root_ == nullptr) return false;
    if (!EraseRec(root_, key)) return false;
    --size_;
    // Collapse a root chain: an internal root with a single child carries
    // no information.
    while (!root_->is_leaf) {
      auto* in = static_cast<Internal*>(root_);
      if (in->children.size() > 1) break;
      root_ = in->children.front();
      in->children.clear();
      delete in;
    }
    return true;
  }

  /// Replaces the content with a bulk-loaded tree from sorted input; the
  /// classic offline build path (leaves first, then index levels).
  void BulkLoadSorted(std::span<const T> keys, std::span<const row_id_t> rids = {}) {
    AIDX_DCHECK(std::is_sorted(keys.begin(), keys.end()));
    AIDX_CHECK(rids.empty() || rids.size() == keys.size());
    FreeSubtree(root_);
    root_ = nullptr;
    size_ = keys.size();
    if (keys.empty()) return;

    // Build leaves at ~90% fill (standard bulk-load practice).
    const std::size_t fill =
        std::max<std::size_t>(1, options_.leaf_capacity * 9 / 10);
    std::vector<Node*> level;
    std::vector<T> level_min_keys;
    Leaf* prev = nullptr;
    for (std::size_t at = 0; at < keys.size(); at += fill) {
      const std::size_t n = std::min(fill, keys.size() - at);
      auto* leaf = new Leaf();
      leaf->keys.assign(keys.begin() + at, keys.begin() + at + n);
      if (!rids.empty()) leaf->rids.assign(rids.begin() + at, rids.begin() + at + n);
      if (prev != nullptr) prev->next = leaf;
      prev = leaf;
      level.push_back(leaf);
      level_min_keys.push_back(leaf->keys.front());
    }
    // Build internal levels until a single root remains.
    const std::size_t fanout_fill =
        std::max<std::size_t>(2, options_.internal_fanout * 9 / 10);
    while (level.size() > 1) {
      std::vector<Node*> parents;
      std::vector<T> parent_min_keys;
      for (std::size_t at = 0; at < level.size(); at += fanout_fill) {
        const std::size_t n = std::min(fanout_fill, level.size() - at);
        auto* node = new Internal();
        node->children.assign(level.begin() + at, level.begin() + at + n);
        for (std::size_t j = 1; j < n; ++j) {
          node->seps.push_back(level_min_keys[at + j]);
        }
        parents.push_back(node);
        parent_min_keys.push_back(level_min_keys[at]);
      }
      level = std::move(parents);
      level_min_keys = std::move(parent_min_keys);
    }
    root_ = level.front();
  }

  std::size_t CountRange(const RangePredicate<T>& pred) const {
    std::size_t count = 0;
    VisitRange(pred, [&](T, row_id_t) { ++count; });
    return count;
  }

  long double SumRange(const RangePredicate<T>& pred) const {
    return RoundSum<T>(SumRangePartial(pred));
  }

  /// SumRange before its one rounding step (SumAcc, index/scan.h).
  SumAcc<T> SumRangePartial(const RangePredicate<T>& pred) const {
    SumAcc<T> sum{};
    VisitRuns(pred, [&](const Leaf& leaf, std::size_t begin, std::size_t end) {
      sum = SumValues<T>(std::span<const T>(leaf.keys).subspan(begin, end - begin), sum);
    });
    return sum;
  }

  /// Visits (key, rid) pairs matching `pred` in ascending key order.
  template <typename Fn>
  void VisitRange(const RangePredicate<T>& pred, Fn&& fn) const {
    VisitRuns(pred, [&](const Leaf& leaf, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        fn(leaf.keys[i], leaf.rids.empty() ? row_id_t{0} : leaf.rids[i]);
      }
    });
  }

  /// Visits the matching keys as per-leaf runs fn(leaf, begin, end), in
  /// ascending key order.
  template <typename Fn>
  void VisitRuns(const RangePredicate<T>& pred, Fn&& fn) const {
    if (root_ == nullptr || pred.DefinitelyEmpty()) return;
    // Descend to the first candidate leaf.
    const Leaf* leaf = nullptr;
    std::size_t at = 0;
    if (pred.low_kind == BoundKind::kUnbounded) {
      const Node* n = root_;
      while (!n->is_leaf) n = static_cast<const Internal*>(n)->children.front();
      leaf = static_cast<const Leaf*>(n);
    } else {
      const Node* n = root_;
      while (!n->is_leaf) {
        const auto* in = static_cast<const Internal*>(n);
        // Child i holds keys in [seps[i-1], seps[i]); go right of all
        // separators <= low so duplicates of low to the left are skipped
        // only when allowed. Using upper_bound keeps duplicates reachable
        // because separators equal to low force the left-most such child...
        const auto it = std::upper_bound(in->seps.begin(), in->seps.end(), pred.low);
        std::size_t child = static_cast<std::size_t>(it - in->seps.begin());
        // Duplicates equal to `low` may extend into the previous child; the
        // separator is a copy of some leaf's min key, so step back while the
        // previous separator equals low.
        while (child > 0 && in->seps[child - 1] == pred.low) --child;
        n = in->children[child];
      }
      leaf = static_cast<const Leaf*>(n);
      at = static_cast<std::size_t>(
          std::lower_bound(leaf->keys.begin(), leaf->keys.end(), pred.low) -
          leaf->keys.begin());
      if (pred.low_kind == BoundKind::kExclusive) {
        while (true) {
          if (at == leaf->keys.size()) {
            leaf = leaf->next;
            if (leaf == nullptr) return;
            at = 0;
            continue;
          }
          if (leaf->keys[at] != pred.low) break;
          ++at;
        }
      }
    }
    // Sweep leaves until the high bound stops us.
    for (; leaf != nullptr; leaf = leaf->next, at = 0) {
      std::size_t end = at;
      for (; end < leaf->keys.size(); ++end) {
        const T k = leaf->keys[end];
        if (pred.high_kind == BoundKind::kInclusive && k > pred.high) break;
        if (pred.high_kind == BoundKind::kExclusive && k >= pred.high) break;
      }
      if (at < end) fn(*leaf, at, end);
      if (end < leaf->keys.size()) return;
    }
  }

  /// Checks structural invariants: ordering inside nodes, separator
  /// consistency, uniform leaf depth, correct leaf chaining, size. O(n).
  bool Validate() const {
    if (root_ == nullptr) return size_ == 0;
    bool ok = true;
    int leaf_depth = -1;
    const Leaf* prev_leaf = nullptr;
    std::size_t counted = 0;
    ValidateRec(root_, 0, nullptr, nullptr, &leaf_depth, &prev_leaf, &counted, &ok);
    if (counted != size_) ok = false;
    if (prev_leaf != nullptr && prev_leaf->next != nullptr) ok = false;
    return ok;
  }

 private:
  struct Node {
    bool is_leaf;
    explicit Node(bool leaf) : is_leaf(leaf) {}
  };
  struct Leaf : Node {
    std::vector<T> keys;
    std::vector<row_id_t> rids;
    Leaf* next = nullptr;
    Leaf() : Node(true) {}
  };
  struct Internal : Node {
    std::vector<T> seps;        // seps.size() == children.size() - 1
    std::vector<Node*> children;
    Internal() : Node(false) {}
  };

  struct SplitInfo {
    Node* created = nullptr;
    T separator{};
  };

  void InsertRec(Node* n, T key, row_id_t rid, SplitInfo* split) {
    if (n->is_leaf) {
      auto* leaf = static_cast<Leaf*>(n);
      const auto it = std::upper_bound(leaf->keys.begin(), leaf->keys.end(), key);
      const std::size_t pos = static_cast<std::size_t>(it - leaf->keys.begin());
      leaf->keys.insert(it, key);
      if (options_.with_row_ids) {
        leaf->rids.insert(leaf->rids.begin() + static_cast<std::ptrdiff_t>(pos), rid);
      }
      if (leaf->keys.size() > options_.leaf_capacity) SplitLeaf(leaf, split);
      return;
    }
    auto* in = static_cast<Internal*>(n);
    const auto it = std::upper_bound(in->seps.begin(), in->seps.end(), key);
    const std::size_t child = static_cast<std::size_t>(it - in->seps.begin());
    SplitInfo child_split;
    InsertRec(in->children[child], key, rid, &child_split);
    if (child_split.created != nullptr) {
      in->seps.insert(in->seps.begin() + static_cast<std::ptrdiff_t>(child),
                      child_split.separator);
      in->children.insert(
          in->children.begin() + static_cast<std::ptrdiff_t>(child) + 1,
          child_split.created);
      if (in->children.size() > options_.internal_fanout) SplitInternal(in, split);
    }
  }

  /// Recursive erase. At each internal node the key can only live under
  /// the contiguous child range [first, last] (duplicates equal to a
  /// separator may extend into the child left of it, same rule as
  /// VisitRange); children are tried left to right. After a child's
  /// subtree erased the key, the touched leaf (when it is a direct child)
  /// is compacted if it underflowed.
  bool EraseRec(Node* n, T key) {
    if (n->is_leaf) {
      auto* leaf = static_cast<Leaf*>(n);
      const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
      if (it == leaf->keys.end() || *it != key) return false;
      const std::size_t at = static_cast<std::size_t>(it - leaf->keys.begin());
      leaf->keys.erase(it);
      if (!leaf->rids.empty()) {
        leaf->rids.erase(leaf->rids.begin() + static_cast<std::ptrdiff_t>(at));
      }
      return true;
    }
    auto* in = static_cast<Internal*>(n);
    const auto it = std::upper_bound(in->seps.begin(), in->seps.end(), key);
    const std::size_t last = static_cast<std::size_t>(it - in->seps.begin());
    std::size_t first = last;
    while (first > 0 && in->seps[first - 1] == key) --first;
    for (std::size_t c = first; c <= last; ++c) {
      if (!EraseRec(in->children[c], key)) continue;
      if (in->children[c]->is_leaf) {
        CompactLeafChild(in, c);
      } else {
        CompactInternalChild(in, c);
      }
      return true;
    }
    return false;
  }

  /// Leaves drained below this many keys are compacted with a sibling.
  std::size_t LeafMinFill() const {
    return std::max<std::size_t>(1, options_.leaf_capacity / 4);
  }

  /// Restores fill for the (possibly underflowed) leaf at `in->children[c]`
  /// using an adjacent sibling under the same parent: merge when the
  /// combined keys fit in one leaf, borrow to the threshold otherwise.
  /// Adjacent same-parent siblings are adjacent in the leaf chain, so the
  /// chain is patched locally; separators are updated to the recipient's
  /// new minimum, preserving every bound invariant Validate() checks.
  void CompactLeafChild(Internal* in, std::size_t c) {
    auto* leaf = static_cast<Leaf*>(in->children[c]);
    if (leaf->keys.size() >= LeafMinFill() || in->children.size() < 2) return;
    // Prefer the right sibling; fall back to the left at the last slot.
    const std::size_t left_idx = c + 1 < in->children.size() ? c : c - 1;
    auto* left = static_cast<Leaf*>(in->children[left_idx]);
    auto* right = static_cast<Leaf*>(in->children[left_idx + 1]);
    const bool with_rids = !left->rids.empty() || !right->rids.empty();
    if (left->keys.size() + right->keys.size() <= options_.leaf_capacity) {
      // Merge `right` into `left`, drop the separator between them.
      left->keys.insert(left->keys.end(), right->keys.begin(), right->keys.end());
      if (with_rids) {
        left->rids.insert(left->rids.end(), right->rids.begin(), right->rids.end());
      }
      left->next = right->next;
      delete right;
      in->children.erase(in->children.begin() +
                         static_cast<std::ptrdiff_t>(left_idx) + 1);
      in->seps.erase(in->seps.begin() + static_cast<std::ptrdiff_t>(left_idx));
      return;
    }
    // No room to merge: borrow keys across the separator until the drained
    // leaf reaches the threshold (the donor is above capacity/2, so it
    // stays comfortably filled).
    if (leaf == left) {
      while (left->keys.size() < LeafMinFill()) {
        left->keys.push_back(right->keys.front());
        right->keys.erase(right->keys.begin());
        if (with_rids) {
          left->rids.push_back(right->rids.front());
          right->rids.erase(right->rids.begin());
        }
      }
    } else {
      while (right->keys.size() < LeafMinFill()) {
        right->keys.insert(right->keys.begin(), left->keys.back());
        left->keys.pop_back();
        if (with_rids) {
          right->rids.insert(right->rids.begin(), left->rids.back());
          left->rids.pop_back();
        }
      }
    }
    in->seps[left_idx] = right->keys.front();
  }

  /// Restores fill for a thinned internal child using an adjacent sibling:
  /// merge when the combined children fit (SplitInternal in reverse — the
  /// parent's separator between them drops down between the concatenated
  /// separator lists), borrow children across the separator otherwise
  /// (rotate: the parent separator drops into the recipient, the donor's
  /// edge separator moves up). Either way every non-root internal the
  /// delete path touches keeps >= min-children, so skewed delete streams
  /// cannot strand a lone leaf under a one-child internal where leaf
  /// compaction (which needs a same-parent sibling) could never reach it.
  /// Bound invariants and uniform leaf depth are preserved throughout.
  void CompactInternalChild(Internal* in, std::size_t c) {
    const std::size_t min_children =
        std::max<std::size_t>(2, options_.internal_fanout / 4);
    auto* child = static_cast<Internal*>(in->children[c]);
    if (child->children.size() >= min_children || in->children.size() < 2) return;
    const std::size_t left_idx = c + 1 < in->children.size() ? c : c - 1;
    auto* left = static_cast<Internal*>(in->children[left_idx]);
    auto* right = static_cast<Internal*>(in->children[left_idx + 1]);
    if (left->children.size() + right->children.size() <=
        options_.internal_fanout) {
      left->seps.push_back(in->seps[left_idx]);
      left->seps.insert(left->seps.end(), right->seps.begin(), right->seps.end());
      left->children.insert(left->children.end(), right->children.begin(),
                            right->children.end());
      right->children.clear();
      delete right;
      in->children.erase(in->children.begin() +
                         static_cast<std::ptrdiff_t>(left_idx) + 1);
      in->seps.erase(in->seps.begin() + static_cast<std::ptrdiff_t>(left_idx));
      return;
    }
    // No room to merge: combined > fanout, so the donor holds > fanout -
    // min_children children and stays comfortably filled after lending.
    if (child == left) {
      while (left->children.size() < min_children) {
        left->children.push_back(right->children.front());
        right->children.erase(right->children.begin());
        left->seps.push_back(in->seps[left_idx]);
        in->seps[left_idx] = right->seps.front();
        right->seps.erase(right->seps.begin());
      }
    } else {
      while (right->children.size() < min_children) {
        right->children.insert(right->children.begin(), left->children.back());
        left->children.pop_back();
        right->seps.insert(right->seps.begin(), in->seps[left_idx]);
        in->seps[left_idx] = left->seps.back();
        left->seps.pop_back();
      }
    }
  }

  void SplitLeaf(Leaf* leaf, SplitInfo* split) {
    auto* right = new Leaf();
    const std::size_t half = leaf->keys.size() / 2;
    right->keys.assign(leaf->keys.begin() + half, leaf->keys.end());
    leaf->keys.resize(half);
    if (options_.with_row_ids) {
      right->rids.assign(leaf->rids.begin() + half, leaf->rids.end());
      leaf->rids.resize(half);
    }
    right->next = leaf->next;
    leaf->next = right;
    split->created = right;
    split->separator = right->keys.front();
  }

  void SplitInternal(Internal* node, SplitInfo* split) {
    auto* right = new Internal();
    const std::size_t mid = node->children.size() / 2;  // children to keep left
    split->separator = node->seps[mid - 1];
    right->seps.assign(node->seps.begin() + mid, node->seps.end());
    right->children.assign(node->children.begin() + mid, node->children.end());
    node->seps.resize(mid - 1);
    node->children.resize(mid);
    split->created = right;
  }

  static int HeightOf(const Node* n) {
    int h = 1;
    while (!n->is_leaf) {
      n = static_cast<const Internal*>(n)->children.front();
      ++h;
    }
    return h;
  }

  void ValidateRec(const Node* n, int depth, const T* lo, const T* hi,
                   int* leaf_depth, const Leaf** prev_leaf, std::size_t* counted,
                   bool* ok) const {
    if (!*ok) return;
    if (n->is_leaf) {
      const auto* leaf = static_cast<const Leaf*>(n);
      if (*leaf_depth == -1) {
        *leaf_depth = depth;
      } else if (*leaf_depth != depth) {
        *ok = false;
        return;
      }
      if (!std::is_sorted(leaf->keys.begin(), leaf->keys.end())) *ok = false;
      if (options_.with_row_ids && leaf->rids.size() != leaf->keys.size()) *ok = false;
      for (const T k : leaf->keys) {
        if (lo != nullptr && k < *lo) *ok = false;
        if (hi != nullptr && k > *hi) *ok = false;
      }
      if (*prev_leaf != nullptr && (*prev_leaf)->next != leaf) *ok = false;
      *prev_leaf = leaf;
      *counted += leaf->keys.size();
      return;
    }
    const auto* in = static_cast<const Internal*>(n);
    if (in->children.size() != in->seps.size() + 1 || in->children.empty()) {
      *ok = false;
      return;
    }
    if (!std::is_sorted(in->seps.begin(), in->seps.end())) *ok = false;
    for (std::size_t i = 0; i < in->children.size(); ++i) {
      const T* child_lo = i == 0 ? lo : &in->seps[i - 1];
      const T* child_hi = i == in->seps.size() ? hi : &in->seps[i];
      ValidateRec(in->children[i], depth + 1, child_lo, child_hi, leaf_depth,
                  prev_leaf, counted, ok);
    }
  }

  static void FreeSubtree(Node* n) {
    if (n == nullptr) return;
    if (!n->is_leaf) {
      for (Node* c : static_cast<Internal*>(n)->children) FreeSubtree(c);
      delete static_cast<Internal*>(n);
    } else {
      delete static_cast<Leaf*>(n);
    }
  }

  void MoveFrom(BPlusTree&& other) {
    root_ = std::exchange(other.root_, nullptr);
    size_ = std::exchange(other.size_, 0);
    options_ = other.options_;
  }

  Node* root_ = nullptr;
  std::size_t size_ = 0;
  Options options_;
};

}  // namespace aidx
