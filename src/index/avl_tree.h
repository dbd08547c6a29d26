// A self-balancing (AVL) ordered map.
//
// This is the structure the original cracking papers use for the cracker
// index: cut positions are keyed by (pivot value, cut kind) and looked up by
// floor/ceiling searches. It is implemented here from scratch — std::map
// would work, but the cracker index is the paper's central data structure,
// its rebalancing behaviour matters for the cost narrative, and owning the
// implementation lets tests assert the AVL invariants directly.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// The default node augmentation: nothing derived from the subtree.
struct NoAugment {
  template <typename Node>
  static void Recombine(Node&) {}
};

/// Ordered map with guaranteed O(log n) height (AVL balancing).
///
/// Keys are unique under the comparator. Not thread-safe. Update() calls
/// Augment::Recombine(node) wherever a node's children may have changed,
/// children first, so a subtree aggregate kept in the values stays exact.
template <typename K, typename V, typename Compare = std::less<K>,
          typename Augment = NoAugment>
class AvlTree {
 public:
  // The fields every descent, walk and rebalance reads come first.
  struct Node {
    K key;
    Node* left = nullptr;
    Node* right = nullptr;
    int height = 1;
    V value;

    Node(K k, V v) : key(std::move(k)), value(std::move(v)) {}
  };

  AvlTree() = default;
  explicit AvlTree(Compare cmp) : cmp_(std::move(cmp)) {}
  ~AvlTree() { Clear(); }

  AIDX_DISALLOW_COPY_AND_ASSIGN(AvlTree);
  AvlTree(AvlTree&& other) noexcept
      : root_(std::exchange(other.root_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        cmp_(other.cmp_) {}
  AvlTree& operator=(AvlTree&& other) noexcept {
    if (this != &other) {
      Clear();
      root_ = std::exchange(other.root_, nullptr);
      size_ = std::exchange(other.size_, 0);
      cmp_ = other.cmp_;
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int height() const { return Height(root_); }

  /// Root node for callers that run custom descents (e.g. the cracker
  /// index's monotone-predicate search); nullptr when empty. Through the
  /// mutable form values may change, keys must not.
  const Node* Root() const { return root_; }
  Node* Root() { return root_; }

  void Clear() {
    DeleteSubtree(root_);
    root_ = nullptr;
    size_ = 0;
  }

  /// Inserts (key, value); if the key exists, leaves the map unchanged and
  /// returns the existing node. The bool is true when insertion happened.
  /// `on_link(successor)` runs once a new node is linked in, before the
  /// path's Recombine: the successor (nullptr for the greatest key) is on
  /// that path, so an augmented tree can revise it first.
  template <typename OnLink = void (*)(Node*)>
  std::pair<Node*, bool> Insert(K key, V value, OnLink&& on_link = [](Node*) {}) {
    Node* found = nullptr;
    bool inserted = false;
    root_ = InsertRec(root_, std::move(key), std::move(value), nullptr, on_link,
                      &found, &inserted);
    if (inserted) ++size_;
    return {found, inserted};
  }

  /// Exact lookup; nullptr when absent.
  Node* Find(const K& key) const {
    Node* n = root_;
    while (n != nullptr) {
      if (cmp_(key, n->key)) {
        n = n->left;
      } else if (cmp_(n->key, key)) {
        n = n->right;
      } else {
        return n;
      }
    }
    return nullptr;
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// Greatest node with key <= `key` (floor); nullptr when all keys are greater.
  Node* FindFloor(const K& key) const {
    Node* n = root_;
    Node* best = nullptr;
    while (n != nullptr) {
      if (cmp_(key, n->key)) {
        n = n->left;
      } else {
        best = n;  // n->key <= key
        n = n->right;
      }
    }
    return best;
  }

  /// Smallest node with key >= `key` (ceiling); nullptr when all keys are smaller.
  Node* FindCeiling(const K& key) const {
    Node* n = root_;
    Node* best = nullptr;
    while (n != nullptr) {
      if (cmp_(n->key, key)) {
        n = n->right;
      } else {
        best = n;  // n->key >= key
        n = n->left;
      }
    }
    return best;
  }

  /// Greatest node with key strictly < `key`.
  Node* FindBelow(const K& key) const {
    Node* n = root_;
    Node* best = nullptr;
    while (n != nullptr) {
      if (cmp_(n->key, key)) {
        best = n;
        n = n->right;
      } else {
        n = n->left;
      }
    }
    return best;
  }

  /// Smallest node with key strictly > `key`.
  Node* FindAbove(const K& key) const {
    Node* n = root_;
    Node* best = nullptr;
    while (n != nullptr) {
      if (cmp_(key, n->key)) {
        best = n;
        n = n->left;
      } else {
        n = n->right;
      }
    }
    return best;
  }

  Node* Min() const {
    Node* n = root_;
    while (n != nullptr && n->left != nullptr) n = n->left;
    return n;
  }
  Node* Max() const {
    Node* n = root_;
    while (n != nullptr && n->right != nullptr) n = n->right;
    return n;
  }

  /// Removes `key`; returns false when absent.
  bool Erase(const K& key) {
    bool erased = false;
    root_ = EraseRec(root_, key, &erased);
    if (erased) --size_;
    return erased;
  }

  /// In-order traversal over all nodes. `fn` receives Node&; mutation of
  /// values is allowed, keys must not change.
  template <typename Fn>
  void VisitInOrder(Fn&& fn) const {
    VisitRec(root_, fn);
  }

  /// In-order traversal restricted to keys >= `from`.
  template <typename Fn>
  void VisitFrom(const K& from, Fn&& fn) const {
    VisitFromRec(root_, from, fn);
  }

  /// Validates the AVL invariants (ordering, height bookkeeping, balance).
  /// Intended for tests; O(n).
  bool Validate() const {
    bool ok = true;
    ValidateRec(root_, nullptr, nullptr, &ok);
    return ok;
  }

 private:
  static int Height(const Node* n) { return n == nullptr ? 0 : n->height; }
  static int BalanceOf(const Node* n) {
    return n == nullptr ? 0 : Height(n->left) - Height(n->right);
  }
  static void Update(Node* n) {
    n->height = 1 + std::max(Height(n->left), Height(n->right));
    Augment::Recombine(*n);
  }

  static Node* RotateRight(Node* y) {
    Node* x = y->left;
    y->left = x->right;
    x->right = y;
    Update(y);
    Update(x);
    return x;
  }
  static Node* RotateLeft(Node* x) {
    Node* y = x->right;
    x->right = y->left;
    y->left = x;
    Update(x);
    Update(y);
    return y;
  }

  static Node* Rebalance(Node* n) {
    Update(n);
    const int balance = BalanceOf(n);
    if (balance > 1) {
      if (BalanceOf(n->left) < 0) n->left = RotateLeft(n->left);
      return RotateRight(n);
    }
    if (balance < -1) {
      if (BalanceOf(n->right) > 0) n->right = RotateRight(n->right);
      return RotateLeft(n);
    }
    return n;
  }

  /// `successor`: the last node the descent went left at.
  template <typename OnLink>
  Node* InsertRec(Node* n, K&& key, V&& value, Node* successor, OnLink& on_link,
                  Node** found, bool* inserted) {
    if (n == nullptr) {
      *found = new Node(std::move(key), std::move(value));
      *inserted = true;
      Update(*found);
      on_link(successor);
      return *found;
    }
    if (cmp_(key, n->key)) {
      n->left = InsertRec(n->left, std::move(key), std::move(value), n, on_link,
                          found, inserted);
    } else if (cmp_(n->key, key)) {
      n->right = InsertRec(n->right, std::move(key), std::move(value), successor,
                           on_link, found, inserted);
    } else {
      *found = n;
      *inserted = false;
      return n;
    }
    return Rebalance(n);
  }

  Node* EraseRec(Node* n, const K& key, bool* erased) {
    if (n == nullptr) return nullptr;
    if (cmp_(key, n->key)) {
      n->left = EraseRec(n->left, key, erased);
    } else if (cmp_(n->key, key)) {
      n->right = EraseRec(n->right, key, erased);
    } else {
      *erased = true;
      if (n->left == nullptr || n->right == nullptr) {
        Node* child = n->left != nullptr ? n->left : n->right;
        delete n;
        return child;  // child may be nullptr
      }
      // Two children: replace with in-order successor, then erase it below.
      Node* succ = n->right;
      while (succ->left != nullptr) succ = succ->left;
      n->key = succ->key;
      n->value = std::move(succ->value);
      bool dummy = false;
      n->right = EraseRec(n->right, succ->key, &dummy);
    }
    return Rebalance(n);
  }

  template <typename Fn>
  static void VisitRec(Node* n, Fn& fn) {
    if (n == nullptr) return;
    VisitRec(n->left, fn);
    fn(*n);
    VisitRec(n->right, fn);
  }

  template <typename Fn>
  void VisitFromRec(Node* n, const K& from, Fn& fn) const {
    if (n == nullptr) return;
    if (!cmp_(n->key, from)) {  // n->key >= from
      VisitFromRec(n->left, from, fn);
      fn(*n);
      VisitRec(n->right, fn);
    } else {
      VisitFromRec(n->right, from, fn);
    }
  }

  void ValidateRec(const Node* n, const K* lo, const K* hi, bool* ok) const {
    if (n == nullptr || !*ok) return;
    if (lo != nullptr && !cmp_(*lo, n->key)) *ok = false;
    if (hi != nullptr && !cmp_(n->key, *hi)) *ok = false;
    const int expect = 1 + std::max(Height(n->left), Height(n->right));
    if (n->height != expect) *ok = false;
    if (BalanceOf(n) < -1 || BalanceOf(n) > 1) *ok = false;
    ValidateRec(n->left, lo, &n->key, ok);
    ValidateRec(n->right, &n->key, hi, ok);
  }

  static void DeleteSubtree(Node* n) {
    if (n == nullptr) return;
    DeleteSubtree(n->left);
    DeleteSubtree(n->right);
    delete n;
  }

  Node* root_ = nullptr;
  std::size_t size_ = 0;
  Compare cmp_{};
};

}  // namespace aidx
