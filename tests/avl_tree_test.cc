// Property tests for the AVL tree against std::map as the reference model.
#include "index/avl_tree.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace aidx {
namespace {

TEST(AvlTreeTest, EmptyTree) {
  AvlTree<int, int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 0);
  EXPECT_EQ(t.Find(1), nullptr);
  EXPECT_EQ(t.FindFloor(1), nullptr);
  EXPECT_EQ(t.FindCeiling(1), nullptr);
  EXPECT_EQ(t.Min(), nullptr);
  EXPECT_EQ(t.Max(), nullptr);
  EXPECT_TRUE(t.Validate());
}

TEST(AvlTreeTest, InsertAndFind) {
  AvlTree<int, std::string> t;
  EXPECT_TRUE(t.Insert(2, "two").second);
  EXPECT_TRUE(t.Insert(1, "one").second);
  EXPECT_TRUE(t.Insert(3, "three").second);
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.Find(2), nullptr);
  EXPECT_EQ(t.Find(2)->value, "two");
  EXPECT_EQ(t.Find(4), nullptr);
  EXPECT_TRUE(t.Validate());
}

TEST(AvlTreeTest, DuplicateInsertKeepsOriginal) {
  AvlTree<int, int> t;
  EXPECT_TRUE(t.Insert(1, 10).second);
  const auto [node, inserted] = t.Insert(1, 20);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(node->value, 10);
  EXPECT_EQ(t.size(), 1u);
}

TEST(AvlTreeTest, FloorCeilingSemantics) {
  AvlTree<int, int> t;
  for (int k : {10, 20, 30}) t.Insert(k, k);
  EXPECT_EQ(t.FindFloor(25)->key, 20);
  EXPECT_EQ(t.FindFloor(20)->key, 20);
  EXPECT_EQ(t.FindFloor(5), nullptr);
  EXPECT_EQ(t.FindCeiling(25)->key, 30);
  EXPECT_EQ(t.FindCeiling(20)->key, 20);
  EXPECT_EQ(t.FindCeiling(35), nullptr);
  EXPECT_EQ(t.FindBelow(20)->key, 10);
  EXPECT_EQ(t.FindBelow(10), nullptr);
  EXPECT_EQ(t.FindAbove(20)->key, 30);
  EXPECT_EQ(t.FindAbove(30), nullptr);
}

TEST(AvlTreeTest, SequentialInsertStaysBalanced) {
  AvlTree<int, int> t;
  for (int i = 0; i < 4096; ++i) t.Insert(i, i);
  EXPECT_EQ(t.size(), 4096u);
  // AVL height bound: 1.44 * log2(n+2) ~ 17.3 for n = 4096.
  EXPECT_LE(t.height(), 18);
  EXPECT_TRUE(t.Validate());
}

TEST(AvlTreeTest, ReverseInsertStaysBalanced) {
  AvlTree<int, int> t;
  for (int i = 4096; i > 0; --i) t.Insert(i, i);
  EXPECT_LE(t.height(), 18);
  EXPECT_TRUE(t.Validate());
}

TEST(AvlTreeTest, EraseLeafInternalAndRoot) {
  AvlTree<int, int> t;
  for (int k : {50, 30, 70, 20, 40, 60, 80}) t.Insert(k, k);
  EXPECT_TRUE(t.Erase(20));   // leaf
  EXPECT_TRUE(t.Erase(30));   // one child
  EXPECT_TRUE(t.Erase(50));   // two children (root)
  EXPECT_FALSE(t.Erase(50));  // already gone
  EXPECT_EQ(t.size(), 4u);
  EXPECT_TRUE(t.Validate());
  EXPECT_EQ(t.Find(40)->key, 40);
}

TEST(AvlTreeTest, VisitInOrderIsSorted) {
  AvlTree<int, int> t;
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const int k = static_cast<int>(rng.NextBounded(10000));
    t.Insert(k, k);
  }
  std::vector<int> keys;
  t.VisitInOrder([&](auto& node) { keys.push_back(node.key); });
  EXPECT_EQ(keys.size(), t.size());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(AvlTreeTest, VisitFromStartsAtKey) {
  AvlTree<int, int> t;
  for (int i = 0; i < 100; i += 10) t.Insert(i, i);
  std::vector<int> keys;
  t.VisitFrom(35, [&](auto& node) { keys.push_back(node.key); });
  EXPECT_EQ(keys, (std::vector<int>{40, 50, 60, 70, 80, 90}));
  keys.clear();
  t.VisitFrom(40, [&](auto& node) { keys.push_back(node.key); });
  EXPECT_EQ(keys.front(), 40);
}

TEST(AvlTreeTest, VisitFromCanMutateValues) {
  AvlTree<int, int> t;
  for (int i = 0; i < 10; ++i) t.Insert(i, i);
  t.VisitFrom(5, [&](auto& node) { node.value += 100; });
  EXPECT_EQ(t.Find(4)->value, 4);
  EXPECT_EQ(t.Find(5)->value, 105);
  EXPECT_EQ(t.Find(9)->value, 109);
}

TEST(AvlTreeTest, MoveConstructionTransfersOwnership) {
  AvlTree<int, int> a;
  a.Insert(1, 1);
  a.Insert(2, 2);
  AvlTree<int, int> b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_NE(b.Find(1), nullptr);
}

// Randomized differential test: AVL vs std::map under a mixed op stream.
TEST(AvlTreeTest, DifferentialAgainstStdMap) {
  AvlTree<int, int> tree;
  std::map<int, int> model;
  Rng rng(12345);
  for (int step = 0; step < 20000; ++step) {
    const int key = static_cast<int>(rng.NextBounded(500));
    const int op = static_cast<int>(rng.NextBounded(4));
    switch (op) {
      case 0: {  // insert
        const bool inserted = tree.Insert(key, step).second;
        const bool model_inserted = model.emplace(key, step).second;
        ASSERT_EQ(inserted, model_inserted);
        break;
      }
      case 1: {  // erase
        ASSERT_EQ(tree.Erase(key), model.erase(key) > 0);
        break;
      }
      case 2: {  // find
        const auto* node = tree.Find(key);
        const auto it = model.find(key);
        ASSERT_EQ(node != nullptr, it != model.end());
        if (node != nullptr) {
          ASSERT_EQ(node->value, it->second);
        }
        break;
      }
      default: {  // floor + ceiling
        const auto* floor = tree.FindFloor(key);
        auto it = model.upper_bound(key);
        const bool has_floor = it != model.begin();
        ASSERT_EQ(floor != nullptr, has_floor);
        if (has_floor) {
          ASSERT_EQ(floor->key, std::prev(it)->first);
        }
        const auto* ceil = tree.FindCeiling(key);
        const auto lb = model.lower_bound(key);
        ASSERT_EQ(ceil != nullptr, lb != model.end());
        if (ceil != nullptr) {
          ASSERT_EQ(ceil->key, lb->first);
        }
        break;
      }
    }
    ASSERT_EQ(tree.size(), model.size());
  }
  EXPECT_TRUE(tree.Validate());
  std::vector<std::pair<int, int>> tree_entries;
  tree.VisitInOrder([&](auto& n) { tree_entries.emplace_back(n.key, n.value); });
  std::vector<std::pair<int, int>> model_entries(model.begin(), model.end());
  EXPECT_EQ(tree_entries, model_entries);
}

// The augmentation hook keeps a subtree aggregate exact through every
// insert, erase (including the two-children successor swap) and rotation;
// on_link sees each new key's in-order successor.
struct SubtreeCount {
  template <typename Node>
  static void Recombine(Node& n) {
    n.value.second = 1 + (n.left != nullptr ? n.left->value.second : 0) +
                     (n.right != nullptr ? n.right->value.second : 0);
  }
};

template <typename Node>
int CheckedCount(const Node* n, bool* ok) {
  if (n == nullptr) return 0;
  const int count = 1 + CheckedCount(n->left, ok) + CheckedCount(n->right, ok);
  if (n->value.second != count) *ok = false;
  return count;
}

TEST(AvlTreeTest, AugmentationStaysExactThroughRotationsAndErases) {
  using Tree = AvlTree<int, std::pair<int, int>, std::less<int>, SubtreeCount>;
  Tree tree;
  std::map<int, int> model;
  Rng rng(77);
  for (int op = 0; op < 4000; ++op) {
    const int key = static_cast<int>(rng.NextBounded(500));
    if (rng.NextBounded(3) != 0) {
      const Tree::Node* successor = nullptr;
      const bool linked = tree.Insert(key, {key, 0}, [&](Tree::Node* s) { successor = s; })
                              .second;
      ASSERT_EQ(linked, model.emplace(key, key).second);
      if (linked) {
        const auto next = model.upper_bound(key);
        ASSERT_EQ(successor != nullptr, next != model.end());
        if (successor != nullptr) {
          ASSERT_EQ(successor->key, next->first);
        }
      }
    } else {
      ASSERT_EQ(tree.Erase(key), model.erase(key) == 1);
    }
    bool ok = true;
    ASSERT_EQ(CheckedCount(tree.Root(), &ok), static_cast<int>(model.size()));
    ASSERT_TRUE(ok) << "op " << op;
  }
  EXPECT_TRUE(tree.Validate());
}

}  // namespace
}  // namespace aidx
