// Update-aware sideways cracking: cracker maps maintained incrementally
// under row DML (tandem ripple moves), cohorts kept aligned through the
// shared operation log, and late joiners built by cloning a sibling.
//
// The spine of every test is a differential oracle: the map's full
// (head, tail, rid) content — and each Select's position range — must
// match a plain row-store model after every operation, and an
// incrementally maintained cracker must answer exactly like one rebuilt
// from scratch over the final base.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "sideways/cracker_map.h"
#include "sideways/sideways.h"
#include "storage/table.h"
#include "util/logging.h"
#include "util/rng.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;
using Map = CrackerMap<std::int64_t>;
using Row = std::tuple<std::int64_t, std::int64_t, row_id_t>;  // head, tail, rid

constexpr std::int64_t kDomain = 500;

std::vector<std::int64_t> RandomValues(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(kDomain));
  return v;
}

Pred RandomPredicate(Rng* rng) {
  const auto lo = rng->NextInRange(-5, kDomain);
  return Pred::Between(lo, lo + rng->NextInRange(0, kDomain / 4));
}

// The map's content as a sorted multiset of (head, tail, rid) rows —
// physical order abstracted away, so it compares against any oracle.
std::vector<Row> Rows(const Map& map) {
  std::vector<Row> rows;
  rows.reserve(map.size());
  for (std::size_t i = 0; i < map.size(); ++i) {
    rows.emplace_back(map.head()[i], map.tail_at(i), map.rid_at(i));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::size_t OracleCount(const std::vector<Row>& rows, const Pred& p) {
  std::size_t n = 0;
  for (const auto& [head, tail, rid] : rows) n += p.Matches(head) ? 1 : 0;
  return n;
}

class CrackerMapDmlTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CrackerMapDmlTest,
                         ::testing::Values(7ull, 99ull, 0xABCDull));

// Interleaved selects and ripple inserts: after every operation the map is
// content-equal to the row oracle, selects count like a scan, and piece
// invariants hold. Inserts into a cracked map move O(#pieces) elements.
TEST_P(CrackerMapDmlTest, RippleInsertMatchesOracle) {
  const std::uint64_t seed = GetParam();
  const auto head = RandomValues(2000, seed);
  const auto tail = RandomValues(2000, seed ^ 0x1);
  std::vector<Row> oracle;
  for (std::size_t i = 0; i < head.size(); ++i) {
    oracle.emplace_back(head[i], tail[i], static_cast<row_id_t>(i));
  }
  Map map(head, tail);
  Rng rng(seed ^ 0x2);
  row_id_t next_rid = static_cast<row_id_t>(head.size());
  for (int op = 0; op < 400; ++op) {
    if (rng.NextBounded(2) == 0) {
      const auto h = static_cast<std::int64_t>(rng.NextBounded(kDomain));
      const auto t = static_cast<std::int64_t>(rng.NextBounded(kDomain));
      map.RippleInsert(h, t, next_rid);
      oracle.emplace_back(h, t, next_rid);
      ++next_rid;
    } else {
      const Pred p = RandomPredicate(&rng);
      ASSERT_EQ(map.Select(p).size(), OracleCount(oracle, p))
          << "seed " << seed << " op " << op;
    }
    ASSERT_EQ(Rows(map), Sorted(oracle)) << "seed " << seed << " op " << op;
  }
  EXPECT_TRUE(map.Validate()) << "seed " << seed;
  EXPECT_GT(map.stats().inserts_applied, 0u);
}

// Ripple deletes address tuples by rid (duplicate head values carry
// different tails, so value addressing could not pick a canonical victim).
TEST_P(CrackerMapDmlTest, RippleDeleteMatchesOracle) {
  const std::uint64_t seed = GetParam();
  const auto head = RandomValues(2000, seed ^ 0x10);
  const auto tail = RandomValues(2000, seed ^ 0x11);
  std::vector<Row> oracle;
  for (std::size_t i = 0; i < head.size(); ++i) {
    oracle.emplace_back(head[i], tail[i], static_cast<row_id_t>(i));
  }
  Map map(head, tail);
  Rng rng(seed ^ 0x12);
  for (int op = 0; op < 400 && !oracle.empty(); ++op) {
    switch (rng.NextBounded(3)) {
      case 0: {
        const std::size_t pick = rng.NextBounded(oracle.size());
        const auto [h, t, rid] = oracle[pick];
        ASSERT_TRUE(map.RippleDelete(h, rid)) << "seed " << seed << " op " << op;
        oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(pick));
        break;
      }
      case 1: {
        // A rid absent from the head value's piece: delete reports a miss
        // and the map is untouched.
        const auto h = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        ASSERT_FALSE(map.RippleDelete(h, static_cast<row_id_t>(1u << 30)));
        break;
      }
      default: {
        const Pred p = RandomPredicate(&rng);
        ASSERT_EQ(map.Select(p).size(), OracleCount(oracle, p))
            << "seed " << seed << " op " << op;
        break;
      }
    }
    ASSERT_EQ(Rows(map), Sorted(oracle)) << "seed " << seed << " op " << op;
  }
  EXPECT_TRUE(map.Validate()) << "seed " << seed;
  EXPECT_GT(map.stats().deletes_applied, 0u);
}

// Determinism under DML: two maps with identical initial content applying
// the same select/insert/delete sequence end bitwise identical — the
// property the operation-log alignment in sideways.h relies on.
TEST_P(CrackerMapDmlTest, LayoutDeterministicUnderSameDmlSequence) {
  const std::uint64_t seed = GetParam();
  const auto head = RandomValues(1500, seed ^ 0x20);
  const auto tail = RandomValues(1500, seed ^ 0x21);
  Map a(head, tail);
  Map b(head, tail);
  Rng rng(seed ^ 0x22);
  row_id_t next_rid = static_cast<row_id_t>(head.size());
  for (int op = 0; op < 300; ++op) {
    switch (rng.NextBounded(3)) {
      case 0: {
        const auto h = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        const auto t = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        a.RippleInsert(h, t, next_rid);
        b.RippleInsert(h, t, next_rid);
        ++next_rid;
        break;
      }
      case 1: {
        if (a.size() == 0) break;
        const std::size_t pick = rng.NextBounded(a.size());
        const auto h = a.head()[pick];
        const auto rid = a.rid_at(pick);
        ASSERT_EQ(a.RippleDelete(h, rid), b.RippleDelete(h, rid));
        break;
      }
      default: {
        const Pred p = RandomPredicate(&rng);
        const PositionRange ra = a.Select(p);
        const PositionRange rb = b.Select(p);
        ASSERT_EQ(ra.begin, rb.begin) << "seed " << seed << " op " << op;
        ASSERT_EQ(ra.end, rb.end) << "seed " << seed << " op " << op;
        break;
      }
    }
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.head()[i], b.head()[i]) << "seed " << seed << " pos " << i;
    ASSERT_EQ(a.tail_at(i), b.tail_at(i)) << "seed " << seed << " pos " << i;
    ASSERT_EQ(a.rid_at(i), b.rid_at(i)) << "seed " << seed << " pos " << i;
  }
}

// The clone constructor copies layout, rids, and realized cuts: subsequent
// identical operations keep clone and source in lock step.
TEST(CrackerMapCloneTest, CloneSharesLayoutAndCuts) {
  const auto head = RandomValues(1000, 3);
  const auto tail = RandomValues(1000, 4);
  Map source(head, tail);
  (void)source.Select(Pred::Between(100, 200));
  (void)source.Select(Pred::Between(350, 420));
  std::vector<std::int64_t> clone_tail(source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    clone_tail[i] = source.tail_at(i) * 7;
  }
  Map clone(source, clone_tail);
  ASSERT_EQ(clone.index().num_cuts(), source.index().num_cuts());
  // A further select cracks both the same way (same realized cuts).
  const Pred p = Pred::Between(40, 460);
  const PositionRange rs = source.Select(p);
  const PositionRange rc = clone.Select(p);
  EXPECT_EQ(rs.begin, rc.begin);
  EXPECT_EQ(rs.end, rc.end);
  for (std::size_t i = 0; i < source.size(); ++i) {
    ASSERT_EQ(clone.head()[i], source.head()[i]) << "pos " << i;
    ASSERT_EQ(clone.rid_at(i), source.rid_at(i)) << "pos " << i;
    ASSERT_EQ(clone.tail_at(i), source.tail_at(i) * 7) << "pos " << i;
  }
  EXPECT_TRUE(clone.Validate());
}

// ---------------------------------------------------------------------------
// Table-backed SidewaysCracker under DML.
// ---------------------------------------------------------------------------

struct TableFixture {
  Table table{"t"};
  std::vector<std::vector<std::int64_t>> oracle;  // rows: {head, b, c}
  row_id_t next_rid = 0;

  explicit TableFixture(std::size_t n, std::uint64_t seed) {
    const auto head = RandomValues(n, seed);
    const auto b = RandomValues(n, seed ^ 0x100);
    const auto c = RandomValues(n, seed ^ 0x200);
    AIDX_CHECK_OK(table.AddColumn<std::int64_t>("head", head));
    AIDX_CHECK_OK(table.AddColumn<std::int64_t>("b", b));
    AIDX_CHECK_OK(table.AddColumn<std::int64_t>("c", c));
    for (std::size_t i = 0; i < n; ++i) {
      oracle.push_back({head[i], b[i], c[i]});
    }
    next_rid = static_cast<row_id_t>(n);
  }

  // Mirrors what the Database facade does per inserted row: allocate one
  // rid, log into the cracker, append to the base, commit the rid.
  void Insert(SidewaysCracker<std::int64_t>* cracker, std::int64_t head,
              std::int64_t b, std::int64_t c) {
    const row_id_t rid = table.AllocateRowId();
    cracker->ApplyInsert(rid, head, {b, c});
    AppendValue("head", head);
    AppendValue("b", b);
    AppendValue("c", c);
    table.CommitAppendedRow(rid);
    oracle.push_back({head, b, c});
  }

  void DeleteAt(SidewaysCracker<std::int64_t>* cracker, std::size_t pos) {
    const row_id_t rid = table.row_ids()[pos];
    cracker->ApplyDelete(rid, oracle[pos][0]);
    AIDX_CHECK_OK(table.EraseRow(pos));
    // Table::EraseRow swap-removes: the last row takes `pos`.
    oracle[pos] = oracle.back();
    oracle.pop_back();
  }

  std::vector<std::vector<std::int64_t>> OracleProject(const Pred& p) const {
    std::vector<std::vector<std::int64_t>> rows;
    for (const auto& row : oracle) {
      if (p.Matches(row[0])) rows.push_back({row[1], row[2]});
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

 private:
  void AppendValue(std::string_view name, std::int64_t v) {
    auto col = table.GetColumn(name);
    AIDX_CHECK_OK(col.status());
    auto typed = (*col)->As<std::int64_t>();
    AIDX_CHECK_OK(typed.status());
    (*typed)->Append(v);
  }
};

std::vector<std::vector<std::int64_t>> SortedRows(
    const ProjectionResult<std::int64_t>& r) {
  std::vector<std::vector<std::int64_t>> rows(r.num_rows);
  for (std::size_t i = 0; i < r.num_rows; ++i) {
    for (const auto& col : r.columns) rows[i].push_back(col[i]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// DML folds into live maps incrementally (no rebuild): maps_created stays
// flat across a write burst while results keep matching the oracle.
TEST(SidewaysDmlTest, MapsSurviveWritesAndStayExact) {
  TableFixture fx(3000, 11);
  SidewaysCracker<std::int64_t> cracker(&fx.table, "head");
  ASSERT_TRUE(cracker.AddTailColumn("b").ok());
  ASSERT_TRUE(cracker.AddTailColumn("c").ok());
  Rng rng(13);
  // Warm both maps up with a few queries.
  for (int q = 0; q < 5; ++q) {
    const Pred p = RandomPredicate(&rng);
    auto r = cracker.SelectProject(p, {"b", "c"});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(SortedRows(*r), fx.OracleProject(p)) << "warmup " << q;
  }
  const std::size_t maps_before = cracker.stats().maps_created;
  ASSERT_EQ(maps_before, 2u);
  // Write burst interleaved with queries: every result stays exact and no
  // map is ever recreated.
  for (int round = 0; round < 50; ++round) {
    if (rng.NextBounded(3) != 0) {
      fx.Insert(&cracker, static_cast<std::int64_t>(rng.NextBounded(kDomain)),
                static_cast<std::int64_t>(rng.NextBounded(kDomain)),
                static_cast<std::int64_t>(rng.NextBounded(kDomain)));
    } else if (!fx.oracle.empty()) {
      fx.DeleteAt(&cracker, rng.NextBounded(fx.oracle.size()));
    }
    const Pred p = RandomPredicate(&rng);
    auto r = cracker.SelectProject(p, {"b", "c"});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(SortedRows(*r), fx.OracleProject(p)) << "round " << round;
  }
  EXPECT_EQ(cracker.stats().maps_created, maps_before);
  EXPECT_EQ(cracker.stats().maps_evicted, 0u);
  EXPECT_GT(cracker.stats().dml_inserts, 0u);
  EXPECT_GT(cracker.stats().dml_deletes, 0u);
  EXPECT_TRUE(cracker.Validate());
  // The maps' cracked investment survived: cuts accumulated across the
  // burst instead of resetting with each write.
  const auto* map = cracker.PeekMap("b");
  ASSERT_NE(map, nullptr);
  EXPECT_GT(map->index().num_cuts(), 0u);
}

// A map materialized after DML joins the cohort by cloning a sibling's
// layout (replay cannot reproduce an interleaved crack/ripple history) and
// regathering its tail by rid; the alignment invariant must then hold.
TEST(SidewaysDmlTest, LateJoinerClonesAlignedSibling) {
  TableFixture fx(2000, 21);
  SidewaysCracker<std::int64_t> cracker(&fx.table, "head");
  ASSERT_TRUE(cracker.AddTailColumn("b").ok());
  ASSERT_TRUE(cracker.AddTailColumn("c").ok());
  Rng rng(23);
  // Only "b" is materialized before the writes.
  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(cracker.SelectProject(RandomPredicate(&rng), {"b"}).ok());
  }
  for (int i = 0; i < 40; ++i) {
    fx.Insert(&cracker, static_cast<std::int64_t>(rng.NextBounded(kDomain)),
              static_cast<std::int64_t>(rng.NextBounded(kDomain)),
              static_cast<std::int64_t>(rng.NextBounded(kDomain)));
    if (i % 3 == 0 && !fx.oracle.empty()) {
      fx.DeleteAt(&cracker, rng.NextBounded(fx.oracle.size()));
    }
  }
  ASSERT_EQ(cracker.stats().maps_cloned, 0u);
  // First query projecting "c" after DML: the new map must clone "b".
  const Pred p = Pred::Between(50, 300);
  auto r = cracker.SelectProject(p, {"b", "c"});
  ASSERT_TRUE(r.ok());  // would die on the alignment CHECK if layouts diverged
  EXPECT_EQ(SortedRows(*r), fx.OracleProject(p));
  EXPECT_EQ(cracker.stats().maps_cloned, 1u);
  // Further mixed traffic keeps the cohort aligned and exact.
  for (int round = 0; round < 20; ++round) {
    fx.Insert(&cracker, static_cast<std::int64_t>(rng.NextBounded(kDomain)),
              static_cast<std::int64_t>(rng.NextBounded(kDomain)),
              static_cast<std::int64_t>(rng.NextBounded(kDomain)));
    const Pred q = RandomPredicate(&rng);
    auto rr = cracker.SelectProject(q, {"b", "c"});
    ASSERT_TRUE(rr.ok());
    ASSERT_EQ(SortedRows(*rr), fx.OracleProject(q)) << "round " << round;
  }
  EXPECT_TRUE(cracker.Validate());
}

// Eviction after DML: with budget for one map, projecting the other tail
// evicts the only (fully caught-up) sibling, so the rebuilt map takes the
// empty-cohort path — materialize from the post-DML base, replay selects
// only. Results must stay exact either way.
TEST(SidewaysDmlTest, EvictedMapRebuildsFromPostDmlBase) {
  TableFixture fx(1000, 31);
  SidewaysCracker<std::int64_t>::Options options;
  options.storage_budget_bytes =
      1100 * CrackerMap<std::int64_t>::kBytesPerRow;  // one map, some growth
  SidewaysCracker<std::int64_t> cracker(&fx.table, "head", options);
  ASSERT_TRUE(cracker.AddTailColumn("b").ok());
  ASSERT_TRUE(cracker.AddTailColumn("c").ok());
  Rng rng(33);
  ASSERT_TRUE(cracker.SelectProject(Pred::Between(10, 200), {"b"}).ok());
  for (int i = 0; i < 30; ++i) {
    fx.Insert(&cracker, static_cast<std::int64_t>(rng.NextBounded(kDomain)),
              static_cast<std::int64_t>(rng.NextBounded(kDomain)),
              static_cast<std::int64_t>(rng.NextBounded(kDomain)));
  }
  for (int round = 0; round < 10; ++round) {
    const Pred p = RandomPredicate(&rng);
    const std::string tail = (round % 2 == 0) ? "c" : "b";
    auto r = cracker.SelectProject(p, {tail});
    ASSERT_TRUE(r.ok()) << "round " << round;
    std::vector<std::int64_t> got = r->columns[0];
    std::sort(got.begin(), got.end());
    std::vector<std::int64_t> expect;
    for (const auto& row : fx.oracle) {
      if (p.Matches(row[0])) expect.push_back(tail == "b" ? row[1] : row[2]);
    }
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(got, expect) << "round " << round;
  }
  EXPECT_GT(cracker.stats().maps_evicted, 0u);
  EXPECT_TRUE(cracker.Validate());
}

// The headline differential: an incrementally maintained cracker answers
// bit-exactly like one rebuilt from scratch over the final base, for the
// same predicates — after every DML batch.
TEST(SidewaysDmlTest, IncrementalEqualsRebuildFromScratch) {
  TableFixture fx(2000, 41);
  SidewaysCracker<std::int64_t> incremental(&fx.table, "head");
  ASSERT_TRUE(incremental.AddTailColumn("b").ok());
  ASSERT_TRUE(incremental.AddTailColumn("c").ok());
  Rng rng(43);
  for (int batch = 0; batch < 15; ++batch) {
    // One DML batch.
    for (int i = 0; i < 10; ++i) {
      if (rng.NextBounded(4) != 0) {
        fx.Insert(&incremental,
                  static_cast<std::int64_t>(rng.NextBounded(kDomain)),
                  static_cast<std::int64_t>(rng.NextBounded(kDomain)),
                  static_cast<std::int64_t>(rng.NextBounded(kDomain)));
      } else if (!fx.oracle.empty()) {
        fx.DeleteAt(&incremental, rng.NextBounded(fx.oracle.size()));
      }
    }
    // Differential: a from-scratch cracker over the same table must give
    // the same answers the maintained maps give.
    SidewaysCracker<std::int64_t> rebuilt(&fx.table, "head");
    ASSERT_TRUE(rebuilt.AddTailColumn("b").ok());
    ASSERT_TRUE(rebuilt.AddTailColumn("c").ok());
    for (int q = 0; q < 5; ++q) {
      const Pred p = RandomPredicate(&rng);
      auto a = incremental.SelectProject(p, {"b", "c"});
      auto b = rebuilt.SelectProject(p, {"b", "c"});
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_EQ(a->num_rows, b->num_rows) << "batch " << batch << " q " << q;
      ASSERT_EQ(SortedRows(*a), SortedRows(*b)) << "batch " << batch << " q " << q;
      ASSERT_EQ(SortedRows(*a), fx.OracleProject(p))
          << "batch " << batch << " q " << q;
    }
  }
  EXPECT_EQ(incremental.stats().maps_created, 2u);  // never rebuilt
  EXPECT_TRUE(incremental.Validate());
}

}  // namespace
}  // namespace aidx
