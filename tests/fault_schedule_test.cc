// Chaos harness for the fault-injection framework (docs/ROBUSTNESS.md):
// named fault schedules drive injected errors, delays, and probabilistic
// faults through the engine while invariants are checked after every
// burst — ValidatePieces on every cracked structure, live counts and
// checksums against a scan oracle, and sideways clone alignment.
//
// The two acceptance pins live here:
//  - a query cancelled / deadline-expired mid-crack returns Cancelled /
//    DeadlineExceeded, the index stays ValidatePieces-clean, and every
//    crack already performed is KEPT (incremental investment);
//  - an injected background-merge failure retries with backoff and then
//    degrades to foreground merging without losing a single buffered
//    write.
//
// Environment knobs (CI's fault-schedule job sets both):
//   AIDX_FAULT_SCHEDULE  named schedule for the randomized test
//                        (quiet | delays | errors | mixed | dist;
//                        default mixed)
//   AIDX_FAULT_SEED      seed for the randomized test, echoed in the log
//
// Runs under ThreadSanitizer via the `concurrency` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cracker_column.h"
#include "exec/engine.h"
#include "index/scan.h"
#include "parallel/partitioned_cracker_column.h"
#include "util/failpoint.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;

std::vector<std::int64_t> RandomValues(std::size_t n, std::int64_t domain,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(domain));
  return v;
}

// Every test starts and ends with a quiet registry so suites compose.
class FaultScheduleTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  static Status Configure(const std::string& spec) {
    return FailpointRegistry::Instance().Configure(spec);
  }
};

// ---------------------------------------------------------------------------
// Acceptance pin 1: cancellation / deadline expiry mid-crack.
// ---------------------------------------------------------------------------

// The callback cancels the token and returns OK, so the crack the gate
// guards still happens; the NEXT gate observes the cancelled context.
// That makes "expired between two piece-level cracks" fully
// deterministic: exactly one new cut is realized, then the walk stops.
TEST_F(FaultScheduleTest, CancelledMidCrackKeepsPartialInvestment) {
  const auto base = RandomValues(4000, 1000, 101);
  CrackerColumn<std::int64_t> col(base);
  // Warm query splits the column at 500 so the next predicate's bounds
  // land in different pieces (two gated cracks, not one crack-in-three).
  (void)col.Count(Pred::HalfOpen(0, 500));
  const std::size_t cuts_before = col.index().num_cuts();

  auto token = std::make_shared<CancellationToken>();
  FailpointPolicy policy;
  policy.mode = FailpointMode::kCallback;
  policy.handler = [token](std::string_view) {
    token->Cancel();
    return Status::OK();
  };
  failpoints::crack_piece.Arm(policy);
  QueryContext ctx = QueryContext::Background();
  ctx.SetToken(token);

  const auto pred = Pred::Between(200, 800);
  const auto result = col.Count(pred, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();

  // The lower-bound crack completed before the cancel was observed; the
  // upper-bound crack never ran. Nothing was rolled back.
  EXPECT_EQ(col.index().num_cuts(), cuts_before + 1);
  EXPECT_TRUE(col.ValidatePieces());

  // The partial investment is usable: the same query re-run without
  // faults is exact and only has the upper cut left to add.
  failpoints::crack_piece.Disarm();
  EXPECT_EQ(col.Count(pred), ScanCount<std::int64_t>(base, pred));
  EXPECT_TRUE(col.ValidatePieces());
}

// The same pin inside one partition of the parallel column: its walk
// gates every piece-level crack on the context, exactly as the single
// column does, on the shared path (no pending updates here).
TEST_F(FaultScheduleTest, PartitionedCancelledMidCrackKeepsPartialInvestment) {
  const auto base = RandomValues(4000, 1000, 109);
  PartitionedCrackerColumn<std::int64_t> col(base, {.num_partitions = 1});
  (void)col.Count(Pred::HalfOpen(0, 500));
  const std::size_t cuts_before = col.partition(0).index().num_cuts();

  auto token = std::make_shared<CancellationToken>();
  FailpointPolicy policy;
  policy.mode = FailpointMode::kCallback;
  policy.handler = [token](std::string_view) {
    token->Cancel();
    return Status::OK();
  };
  failpoints::crack_piece.Arm(policy);
  QueryContext ctx = QueryContext::Background();
  ctx.SetToken(token);

  const auto pred = Pred::Between(200, 800);
  const auto result = col.Count(pred, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_EQ(col.partition(0).index().num_cuts(), cuts_before + 1);
  EXPECT_TRUE(col.ValidatePieces());

  // An injected piece error surfaces through the context-carrying forms
  // instead of being swallowed, and leaves the column clean.
  failpoints::crack_piece.Disarm();
  ASSERT_TRUE(Configure("crack.piece=error").ok());
  const QueryContext background = QueryContext::Background();
  const auto failed = col.SumPartial(Pred::Between(600, 900), background);
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(col.Count(Pred::Between(50, 150), background).ok());
  EXPECT_TRUE(col.ValidatePieces());

  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(col.Count(pred), ScanCount<std::int64_t>(base, pred));
  EXPECT_TRUE(col.ValidatePieces());
}

TEST_F(FaultScheduleTest, DeadlineExpiryMidCrackIsCleanAndKept) {
  const auto base = RandomValues(4000, 1000, 103);
  CrackerColumn<std::int64_t> col(base);
  (void)col.Count(Pred::HalfOpen(0, 500));
  const std::size_t cuts_before = col.index().num_cuts();

  // The first gate passes (fresh deadline), sleeps 20ms inside the
  // injected delay, cracks; the second gate sees the 5ms deadline long
  // gone. Order is deterministic even on a loaded machine because the
  // context is checked before the delay fires.
  ASSERT_TRUE(Configure("crack.piece=delay(20000)").ok());
  const QueryContext ctx =
      QueryContext::WithTimeout(std::chrono::milliseconds(5));
  const auto result = col.Count(Pred::Between(200, 800), ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status().ToString();
  EXPECT_EQ(col.index().num_cuts(), cuts_before + 1);
  EXPECT_TRUE(col.ValidatePieces());

  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(col.Count(Pred::Between(200, 800)),
            ScanCount<std::int64_t>(base, Pred::Between(200, 800)));
}

TEST_F(FaultScheduleTest, DeadlinePropagatesThroughTheDatabaseFacade) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  const auto values = RandomValues(4000, 1000, 107);
  ASSERT_TRUE(db.AddColumn("t", "v", std::vector<std::int64_t>(values)).ok());

  // A generous deadline answers exactly.
  const auto pred = Pred::Between(200, 800);
  const QueryContext relaxed = QueryContext::WithTimeout(std::chrono::hours(1));
  auto ok_count = db.Count({.table = "t",
                            .column = "v",
                            .predicate = Pred::HalfOpen(0, 500),
                            .strategy = StrategyConfig::Crack(),
                            .context = relaxed});
  ASSERT_TRUE(ok_count.ok()) << ok_count.status().ToString();
  EXPECT_EQ(*ok_count, ScanCount<std::int64_t>(values, Pred::HalfOpen(0, 500)));

  // Same two-gate construction as above, now through Database::Count.
  ASSERT_TRUE(Configure("crack.piece=delay(20000)").ok());
  const QueryContext tight = QueryContext::WithTimeout(std::chrono::milliseconds(5));
  auto expired = db.Count({.table = "t",
                           .column = "v",
                           .predicate = pred,
                           .strategy = StrategyConfig::Crack(),
                           .context = tight});
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status().ToString();

  // The cached path survived the expiry and answers exactly afterwards.
  FailpointRegistry::Instance().DisarmAll();
  auto after = db.Count({.table = "t",
                         .column = "v",
                         .predicate = pred,
                         .strategy = StrategyConfig::Crack()});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, ScanCount<std::int64_t>(values, pred));
}

// ---------------------------------------------------------------------------
// Acceptance pin 2: background-merge faults retry, then degrade, and
// never lose a buffered write.
// ---------------------------------------------------------------------------

using ParallelColumn = PartitionedCrackerColumn<std::int64_t>;

PartitionedCrackerOptions MachineOptions(std::size_t threshold) {
  PartitionedCrackerOptions options;
  options.num_partitions = 2;
  options.background_merge_threshold = threshold;
  options.background_merge_chunk = 128;
  return options;
}

TEST_F(FaultScheduleTest, BackgroundMergeRetriesTransientFaultsWithBackoff) {
  const auto base = RandomValues(2000, 1000, 109);
  ThreadPool pool(2);
  ParallelColumn col(base, MachineOptions(/*threshold=*/4), &pool);
  // Two step faults total, then the point auto-disarms: the merge task
  // retries through both and completes without degrading anything.
  ASSERT_TRUE(Configure("parallel.bg_merge_step=error*2").ok());

  Rng rng(110);
  for (int i = 0; i < 64; ++i) {
    col.Insert(static_cast<std::int64_t>(rng.NextBounded(1000)));
  }
  col.WaitForBackgroundMerges();

  const BackgroundMergeStats stats = col.background_merge_stats();
  EXPECT_EQ(stats.step_failures, 2u);
  EXPECT_EQ(stats.step_retries, 2u);
  EXPECT_EQ(stats.degrades, 0u);
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    EXPECT_FALSE(col.shard_degraded(p)) << "shard " << p;
  }
  EXPECT_EQ(col.Count(Pred::All()), base.size() + 64);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST_F(FaultScheduleTest, PersistentMergeFaultsDegradeToForegroundWithoutWriteLoss) {
  const auto base = RandomValues(2000, 1000, 113);
  ThreadPool pool(2);
  ParallelColumn col(base, MachineOptions(/*threshold=*/4), &pool);
  // Every merge step fails: the first task burns its retry budget
  // (base 200us doubling to the 2ms cap), gives up, and flags the shard.
  ASSERT_TRUE(Configure("parallel.bg_merge_step=error").ok());

  Rng rng(114);
  std::size_t inserted = 0;
  // Keep writing until some shard has degraded; later threshold
  // crossings on that shard merge in the foreground (which never touches
  // the bg_merge_step point), so writes keep landing while the fault is
  // still armed.
  while (col.background_merge_stats().degrades == 0) {
    col.Insert(static_cast<std::int64_t>(rng.NextBounded(1000)));
    ++inserted;
    col.WaitForBackgroundMerges();
    ASSERT_LT(inserted, 10000u) << "no degrade after many faulted merges";
  }
  for (int i = 0; i < 32; ++i) {
    col.Insert(static_cast<std::int64_t>(rng.NextBounded(1000)));
    ++inserted;
  }

  const BackgroundMergeStats stats = col.background_merge_stats();
  EXPECT_GE(stats.step_failures, 4u) << "retry budget is 3 retries per task";
  EXPECT_GE(stats.step_retries, 3u);
  EXPECT_GE(stats.degrades, 1u);
  bool any_degraded = false;
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    any_degraded |= col.shard_degraded(p);
  }
  EXPECT_TRUE(any_degraded);

  // Not a single write was lost, with the fault STILL armed.
  EXPECT_EQ(col.Count(Pred::All()), base.size() + inserted);
  EXPECT_TRUE(col.ValidatePieces());

  // Recovery: a coarse flush clears the degraded flag and the shard
  // resumes background merging once the fault is gone.
  FailpointRegistry::Instance().DisarmAll();
  col.FlushPending();
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    EXPECT_FALSE(col.shard_degraded(p)) << "shard " << p;
  }
  EXPECT_EQ(col.Count(Pred::All()), base.size() + inserted);
}

TEST_F(FaultScheduleTest, SubmitFailuresDegradeTheShard) {
  const auto base = RandomValues(2000, 1000, 127);
  ThreadPool pool(2);
  ParallelColumn col(base, MachineOptions(/*threshold=*/4), &pool);
  ASSERT_TRUE(Configure("parallel.bg_submit=error").ok());

  // Smallest value always lands in partition 0, so every buffered write
  // past the threshold re-attempts (and re-fails) that shard's submit.
  for (int i = 0; i < 16; ++i) col.Insert(-1);
  const BackgroundMergeStats stats = col.background_merge_stats();
  EXPECT_GE(stats.submit_failures, 4u);
  EXPECT_TRUE(col.shard_degraded(0));
  // Foreground merging carried the shard: all writes visible, index clean.
  EXPECT_EQ(col.Count(Pred::All()), base.size() + 16);
  EXPECT_TRUE(col.ValidatePieces());

  FailpointRegistry::Instance().DisarmAll();
  col.FlushPending();
  EXPECT_FALSE(col.shard_degraded(0));
}

// ---------------------------------------------------------------------------
// Engine-level fault surfaces.
// ---------------------------------------------------------------------------

TEST_F(FaultScheduleTest, DmlValidationFaultFailsCleanAndRowAtomically) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  ASSERT_TRUE(db.AddColumn("t", "k", {10, 20, 30}).ok());
  ASSERT_TRUE(db.AddColumn("t", "a", {1, 2, 3}).ok());
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "k",
                        .predicate = Pred::All(),
                        .strategy = StrategyConfig::Crack()}).ok());

  ASSERT_TRUE(Configure("engine.dml_validate=error(resource_exhausted)").ok());
  EXPECT_TRUE(db.Insert("t", {40, 4}).IsResourceExhausted());
  FailpointRegistry::Instance().DisarmAll();

  // The faulted insert left no partial row behind anywhere.
  auto count = db.Count({.table = "t",
                         .column = "k",
                         .predicate = Pred::All(),
                         .strategy = StrategyConfig::Crack()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  ASSERT_TRUE(db.Insert("t", {40, 4}).ok());
  count = db.Count({.table = "t",
                    .column = "k",
                    .predicate = Pred::All(),
                    .strategy = StrategyConfig::Crack()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 4u);
}

TEST_F(FaultScheduleTest, SidewaysSelectFaultLeavesTheCrackerUntouched) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  const auto keys = RandomValues(2000, 400, 131);
  std::vector<std::int64_t> payload(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) payload[i] = keys[i] * 3;
  ASSERT_TRUE(db.AddColumn("t", "k", std::vector<std::int64_t>(keys)).ok());
  ASSERT_TRUE(db.AddColumn("t", "a", std::move(payload)).ok());

  const auto pred = Pred::Between(100, 200);
  auto before = db.SelectProject({.table = "t",
                                  .column = "k",
                                  .predicate = pred,
                                  .tails = {"a"}});
  ASSERT_TRUE(before.ok());
  const auto queries_before = (*db.SidewaysState("t", "k"))->stats().num_queries;

  // The gate sits before any bookkeeping: the fault neither logs a query
  // nor touches a map.
  ASSERT_TRUE(Configure("sideways.select=error(resource_exhausted)").ok());
  EXPECT_TRUE(db.SelectProject({.table = "t",
                                .column = "k",
                                .predicate = pred,
                                .tails = {"a"}}).status().IsResourceExhausted());
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ((*db.SidewaysState("t", "k"))->stats().num_queries, queries_before);

  auto after = db.SelectProject({.table = "t",
                                 .column = "k",
                                 .predicate = pred,
                                 .tails = {"a"}});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->num_rows, before->num_rows);
}

TEST_F(FaultScheduleTest, AddColumnFaultLeavesTheTableUnchanged) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  ASSERT_TRUE(db.AddColumn("t", "v", {1, 2, 3}).ok());
  ASSERT_TRUE(Configure("storage.add_column=error").ok());
  EXPECT_TRUE(db.AddColumn("t", "w", {4, 5, 6}).IsInternal());
  FailpointRegistry::Instance().DisarmAll();
  // Schema unchanged by the faulted attempt; the retry succeeds.
  ASSERT_TRUE(db.AddColumn("t", "w", {4, 5, 6}).ok());
  auto count = db.Count({.table = "t",
                         .column = "w",
                         .predicate = Pred::All(),
                         .strategy = StrategyConfig::FullScan()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
}

// ---------------------------------------------------------------------------
// Resource pressure: shed, fall back to scan, never abort.
// ---------------------------------------------------------------------------

using RowTuple = std::vector<std::int64_t>;

std::vector<RowTuple> SortedRows(const ProjectionResult<std::int64_t>& res) {
  std::vector<RowTuple> rows(res.num_rows);
  for (std::size_t i = 0; i < res.num_rows; ++i) {
    for (const auto& column : res.columns) rows[i].push_back(column[i]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_F(FaultScheduleTest, BudgetPressureFallsBackToScanWithExactAnswers) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  const std::size_t n = 3000;
  const auto keys = RandomValues(n, 500, 137);
  std::vector<std::int64_t> price(n);
  std::vector<std::int64_t> qty(n);
  for (std::size_t i = 0; i < n; ++i) {
    price[i] = keys[i] * 7;
    qty[i] = keys[i] % 5;
  }
  ASSERT_TRUE(db.AddColumn("t", "k", std::vector<std::int64_t>(keys)).ok());
  ASSERT_TRUE(db.AddColumn("t", "price", std::move(price)).ok());
  ASSERT_TRUE(db.AddColumn("t", "qty", std::move(qty)).ok());

  const auto pred = Pred::Between(100, 300);
  // Reference answer on an unlimited budget (sideways cracked path).
  auto cracked = db.SelectProject({.table = "t",
                                   .column = "k",
                                   .predicate = pred,
                                   .tails = {"price", "qty"}});
  ASSERT_TRUE(cracked.ok());
  const auto expect = SortedRows(*cracked);

  // A 1-byte budget denies every map admission: the query degrades to
  // scan-plus-crack-later and still answers exactly. Scan order differs
  // from cracked order, so rows compare as sorted multisets.
  Database tiny;
  ASSERT_TRUE(tiny.CreateTable("t").ok());
  ASSERT_TRUE(tiny.AddColumn("t", "k", std::vector<std::int64_t>(keys)).ok());
  std::vector<std::int64_t> price2(n);
  std::vector<std::int64_t> qty2(n);
  for (std::size_t i = 0; i < n; ++i) {
    price2[i] = keys[i] * 7;
    qty2[i] = keys[i] % 5;
  }
  ASSERT_TRUE(tiny.AddColumn("t", "price", std::move(price2)).ok());
  ASSERT_TRUE(tiny.AddColumn("t", "qty", std::move(qty2)).ok());
  tiny.SetMemoryBudget(1);

  auto scanned = tiny.SelectProject({.table = "t",
                                     .column = "k",
                                     .predicate = pred,
                                     .tails = {"price", "qty"}});
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(SortedRows(*scanned), expect);
  EXPECT_GE(tiny.resource_governor().admission_denials(), 1u);
  EXPECT_EQ((*tiny.SidewaysState("t", "k"))->num_live_maps(), 0u)
      << "denied admission must not grow the map cache";

  // Raising the budget back restores the cracked path on the same db.
  tiny.SetMemoryBudget(ResourceGovernor::kUnlimited);
  auto recovered = tiny.SelectProject({.table = "t",
                                       .column = "k",
                                       .predicate = pred,
                                       .tails = {"price", "qty"}});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(SortedRows(*recovered), expect);
  EXPECT_GE((*tiny.SidewaysState("t", "k"))->num_live_maps(), 1u);
}

// Shedding drops whole cold (table, head) crackers — pure acceleration
// state that rebuilds on demand — so the hot query's new map fits and the
// cracked path survives the squeeze.
TEST_F(FaultScheduleTest, PressureShedsColdCrackersBeforeFallingBack) {
  Database db;
  const std::size_t n = 2000;
  const auto keys = RandomValues(n, 500, 139);
  for (const char* table : {"hot", "cold"}) {
    ASSERT_TRUE(db.CreateTable(table).ok());
    std::vector<std::int64_t> a(n);
    std::vector<std::int64_t> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = keys[i] + 1;
      b[i] = keys[i] + 2;
    }
    ASSERT_TRUE(db.AddColumn(table, "k", std::vector<std::int64_t>(keys)).ok());
    ASSERT_TRUE(db.AddColumn(table, "a", std::move(a)).ok());
    ASSERT_TRUE(db.AddColumn(table, "b", std::move(b)).ok());
  }

  // One map in each cracker on an unlimited budget, then squeeze so the
  // hot table's second map no longer fits next to the cold cracker.
  const auto pred = Pred::Between(100, 300);
  ASSERT_TRUE(db.SelectProject({.table = "hot",
                                .column = "k",
                                .predicate = pred,
                                .tails = {"a"}}).ok());
  ASSERT_TRUE(db.SelectProject({.table = "cold",
                                .column = "k",
                                .predicate = pred,
                                .tails = {"a"}}).ok());
  const std::size_t per_map = (*db.SidewaysState("hot", "k"))->per_map_bytes();
  const std::size_t used = (*db.SidewaysState("hot", "k"))->MemoryUsageBytes() +
                           (*db.SidewaysState("cold", "k"))->MemoryUsageBytes();
  db.SetMemoryBudget(used + per_map / 2);

  auto res = db.SelectProject({.table = "hot",
                               .column = "k",
                               .predicate = pred,
                               .tails = {"b"}});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->num_rows, ScanCount<std::int64_t>(keys, pred));
  EXPECT_GE(db.resource_governor().sheds(), 1u);
  // The cold cracker was evicted to make room; the hot one kept growing.
  EXPECT_FALSE(db.SidewaysState("cold", "k").ok());
  EXPECT_EQ((*db.SidewaysState("hot", "k"))->num_live_maps(), 2u);
}

// ---------------------------------------------------------------------------
// Randomized schedules: DML + queries under probabilistic faults, checked
// against a scan oracle after every burst.
// ---------------------------------------------------------------------------

std::string ScheduleSpec(const std::string& name) {
  if (name == "quiet") return "";
  if (name == "delays") {
    return "crack.piece=delay(20);sideways.ripple=delay(50);"
           "storage.commit_row=delay(20);organizer.step=delay(10)";
  }
  if (name == "errors") {
    return "parallel.bg_merge_step=prob(0.2);parallel.bg_submit=prob(0.1);"
           "crack.piece=prob(0.05)";
  }
  if (name == "dist") {
    // Aimed at the sharded serving layer (tests/sharded_db_test.cc picks
    // this up through the same env knob); the dist.* points never fire on
    // a single node, so for this suite it behaves like a light `errors`.
    return "dist.route=prob(0.03);dist.scatter=prob(0.05);"
           "dist.migrate_piece=prob(0.1);crack.piece=delay(10)";
  }
  // mixed (default)
  return "crack.piece=prob(0.02);parallel.bg_merge_step=prob(0.05);"
         "sideways.ripple=delay(30);storage.commit_row=delay(10)";
}

TEST_F(FaultScheduleTest, RandomizedScheduleKeepsEveryInvariant) {
  std::uint64_t seed = 20260807;
  if (const char* env = std::getenv("AIDX_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::string schedule = "mixed";
  if (const char* env = std::getenv("AIDX_FAULT_SCHEDULE")) schedule = env;
  // Echoed so a CI failure is reproducible: AIDX_FAULT_SEED=<seed>.
  std::cout << "[fault-schedule] schedule=" << schedule << " seed=" << seed
            << std::endl;
  RecordProperty("fault_schedule", schedule);
  RecordProperty("fault_seed", std::to_string(seed));

  const std::string spec = ScheduleSpec(schedule);
  if (!spec.empty()) {
    ASSERT_TRUE(Configure(spec).ok()) << spec;
  }

  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  std::vector<std::int64_t> oracle = RandomValues(3000, 1000, seed ^ 0xABCD);
  ASSERT_TRUE(db.AddColumn("t", "v", std::vector<std::int64_t>(oracle)).ok());

  const std::vector<StrategyConfig> configs = {
      StrategyConfig::Crack(),
      StrategyConfig::AdaptiveMerge(700),
      StrategyConfig::ParallelCrack(4, 2),
  };
  ThreadPool pool(2);

  Rng rng(seed);
  for (int burst = 0; burst < 30; ++burst) {
    for (int op = 0; op < 25; ++op) {
      const std::uint64_t dice = rng.NextBounded(10);
      if (dice < 6) {
        const auto v = static_cast<std::int64_t>(rng.NextBounded(1000));
        ASSERT_TRUE(db.Insert("t", {v}).ok());
        oracle.push_back(v);
      } else if (dice < 8 && !oracle.empty()) {
        const auto v = oracle[rng.NextBounded(oracle.size())];
        auto deleted = db.Delete("t", "v", v);
        ASSERT_TRUE(deleted.ok());
        ASSERT_TRUE(*deleted);
        oracle.erase(std::find(oracle.begin(), oracle.end(), v));
      } else {
        // Context-carrying probe: injected piece faults and deadline
        // expiry both surface as errors on this path. Any outcome is
        // legal except a wrong answer.
        const auto lo = static_cast<std::int64_t>(rng.NextBounded(1000));
        const auto p = Pred::Between(lo, lo + 150);
        const QueryContext ctx =
            QueryContext::WithTimeout(std::chrono::seconds(30));
        auto probe = db.Count({.table = "t",
                               .column = "v",
                               .predicate = p,
                               .strategy = StrategyConfig::Crack(),
                               .context = ctx});
        if (probe.ok()) {
          ASSERT_EQ(*probe, ScanCount<std::int64_t>(oracle, p));
        }
      }
    }
    // Post-burst invariants: live count, range counts, and checksum
    // across every strategy, all against the oracle.
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(900));
    const auto p = Pred::Between(lo, lo + 120);
    for (const auto& config : configs) {
      auto live = db.Count({.table = "t",
                            .column = "v",
                            .predicate = Pred::All(),
                            .strategy = config});
      ASSERT_TRUE(live.ok()) << config.DisplayName();
      ASSERT_EQ(*live, oracle.size()) << config.DisplayName() << " burst " << burst;
      auto count = db.Count({.table = "t",
                             .column = "v",
                             .predicate = p,
                             .strategy = config});
      ASSERT_TRUE(count.ok()) << config.DisplayName();
      ASSERT_EQ(*count, ScanCount<std::int64_t>(oracle, p))
          << config.DisplayName() << " burst " << burst;
    }
    auto checksum = db.Sum({.table = "t",
                            .column = "v",
                            .predicate = Pred::All(),
                            .strategy = StrategyConfig::Crack()});
    ASSERT_TRUE(checksum.ok());
    ASSERT_DOUBLE_EQ(*checksum,
                     static_cast<double>(ScanSum<std::int64_t>(oracle, Pred::All())))
        << "burst " << burst;
  }
  FailpointRegistry::Instance().DisarmAll();
}

// Sideways clone alignment under a faulted schedule: every map's payload
// stays aligned with its key clone across rippled DML.
TEST_F(FaultScheduleTest, SidewaysClonesStayAlignedUnderRippleDelays) {
  ASSERT_TRUE(
      Configure("sideways.ripple=delay(100);storage.commit_row=delay(50)").ok());
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  const std::size_t n = 1500;
  const auto keys = RandomValues(n, 300, 149);
  std::vector<std::int64_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) payload[i] = keys[i] * 11 + 1;
  ASSERT_TRUE(db.AddColumn("t", "k", std::vector<std::int64_t>(keys)).ok());
  ASSERT_TRUE(db.AddColumn("t", "a", std::move(payload)).ok());

  std::vector<std::int64_t> oracle_keys = keys;
  Rng rng(151);
  for (int round = 0; round < 10; ++round) {
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(250));
    const auto pred = Pred::Between(lo, lo + 60);
    auto res = db.SelectProject({.table = "t",
                                 .column = "k",
                                 .predicate = pred,
                                 .tails = {"a"}});
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->num_rows, ScanCount<std::int64_t>(oracle_keys, pred));
    // Alignment invariant: the projected payload is derived from the key,
    // so any clone misalignment shows up as a value that fails k*11+1.
    for (std::size_t i = 0; i < res->num_rows; ++i) {
      ASSERT_EQ((res->columns[0][i] - 1) % 11, 0) << "round " << round;
      ASSERT_TRUE(pred.Matches((res->columns[0][i] - 1) / 11)) << "round " << round;
    }
    for (int w = 0; w < 8; ++w) {
      const auto k = static_cast<std::int64_t>(rng.NextBounded(300));
      ASSERT_TRUE(db.Insert("t", {k, k * 11 + 1}).ok());
      oracle_keys.push_back(k);
    }
  }
  FailpointRegistry::Instance().DisarmAll();
  // Stripe growth kept adapting through the faults: the final projection
  // over everything is exact.
  auto all = db.SelectProject({.table = "t",
                               .column = "k",
                               .predicate = Pred::All(),
                               .tails = {"a"}});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows, oracle_keys.size());
}

}  // namespace
}  // namespace aidx
