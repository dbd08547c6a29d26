// Background merging (docs/UPDATES.md) and the overlay read path's
// routing guarantees:
//
//  - the per-shard merge_in_flight flag: clear at construction, set by a
//    granted request, a second request while it is set is rejected, and
//    it clears once the merge drains;
//  - requests degrade to "did not run" (false, no state change) without a
//    pool or without pool workers;
//  - quiescence: WaitForBackgroundMerges absorbs every write made before
//    it, including sub-threshold leftovers no run was triggered for;
//  - readers are never blocked while a shard merges: queries running
//    concurrently with a chunked background merge stay exact throughout;
//  - background merge is observationally identical to the foreground
//    coarse flush — same answers, same empty pending stores;
//  - destroying the column while merges are in flight (then the pool) is
//    clean — the regression that motivated ThreadPool::TrySubmit and the
//    ticket accounting;
//  - overlap-only routing: queries that overlap no pending key take the
//    shared fast path under EVERY merge policy — the read-path counters
//    pin a 100% fast-path hit rate for disjoint traffic.
//
// Runs under ThreadSanitizer via the `concurrency` ctest label
// (scripts/check.sh --tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "index/scan.h"
#include "parallel/partitioned_cracker_column.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;
using Column = PartitionedCrackerColumn<std::int64_t>;

std::vector<std::int64_t> RandomValues(std::size_t n, std::int64_t domain,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(domain));
  return v;
}

PartitionedCrackerOptions MachineOptions(std::size_t threshold,
                                         std::size_t chunk = 128) {
  PartitionedCrackerOptions options;
  options.num_partitions = 2;
  options.background_merge_threshold = threshold;
  options.background_merge_chunk = chunk;
  return options;
}

TEST(MergeModeMachineTest, ShardsStartNormalAndNamesRoundTrip) {
  const auto base = RandomValues(1000, 300, 11);
  ThreadPool pool(1);
  Column col(base, MachineOptions(8), &pool);
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    EXPECT_FALSE(col.merge_in_flight(p));
  }
}

TEST(MergeModeMachineTest, RequestsDegradeWithoutARunnableMachine) {
  const auto base = RandomValues(1000, 300, 13);
  {
    Column no_pool(base, MachineOptions(8));  // no pool at all
    EXPECT_FALSE(no_pool.RequestBackgroundMerge(0));
    EXPECT_FALSE(no_pool.merge_in_flight(0));
  }
  {
    ThreadPool empty_pool(0);  // a pool with no workers can never run tasks
    Column col(base, MachineOptions(8), &empty_pool);
    EXPECT_FALSE(col.RequestBackgroundMerge(0));
    EXPECT_FALSE(col.merge_in_flight(0));
  }
}

TEST(MergeModeMachineTest, SecondRequestWhileOffNormalIsRejected) {
  const auto base = RandomValues(1000, 300, 17);
  ThreadPool pool(1);
  Column col(base, MachineOptions(/*threshold=*/0), &pool);
  // Park the pool's only worker so the granted merge cannot start: the
  // shard's merge deterministically stays in flight while we probe.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  ASSERT_TRUE(col.RequestBackgroundMerge(0));
  EXPECT_TRUE(col.merge_in_flight(0));
  EXPECT_FALSE(col.RequestBackgroundMerge(0)) << "double request must lose";
  // The other shard's flag is independent.
  ASSERT_TRUE(col.RequestBackgroundMerge(1));
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  col.WaitForBackgroundMerges();
  EXPECT_FALSE(col.merge_in_flight(0));
  EXPECT_FALSE(col.merge_in_flight(1));
}

TEST(MergeModeMachineTest, ThresholdCrossingTriggersAndDrains) {
  const auto base = RandomValues(4000, 1000, 19);
  ThreadPool pool(2);
  Column col(base, MachineOptions(/*threshold=*/8), &pool);
  for (std::int64_t v = 0; v < 64; ++v) col.Insert(v % 1000);
  col.WaitForBackgroundMerges();
  // Everything buffered crossed a threshold eventually; after quiescence
  // no merge is in flight and nothing is pending anywhere.
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    EXPECT_FALSE(col.merge_in_flight(p));
  }
  EXPECT_EQ(col.pending_update_count(), 0u);
  EXPECT_EQ(col.Count(Pred::All()), base.size() + 64);
  const UpdateStats stats = col.AggregatedUpdateStats();
  EXPECT_EQ(stats.inserts_queued, 64u);
  EXPECT_EQ(stats.inserts_merged + stats.deletes_cancelled, 64u);
  EXPECT_TRUE(col.ValidatePieces());
}

// The quiescence regression, made deterministic: threshold - 1 buffered
// writes never cross the threshold, so no run is ever triggered for them.
// WaitForBackgroundMerges must still absorb them; a wait that only
// watches the task count returns at once and leaves them pending.
TEST(MergeModeMachineTest, WaitAbsorbsSubThresholdLeftovers) {
  constexpr std::size_t kThreshold = 8;
  const auto base = RandomValues(4000, 1000, 53);
  ThreadPool pool(2);
  Column col(base, MachineOptions(kThreshold), &pool);
  col.WaitForBackgroundMerges();
  for (std::size_t i = 0; i < kThreshold - 1; ++i) {
    col.Insert(static_cast<std::int64_t>(i));  // all land in partition 0
  }
  ASSERT_EQ(col.pending_update_count(), kThreshold - 1);
  col.WaitForBackgroundMerges();
  EXPECT_EQ(col.pending_update_count(), 0u);
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    EXPECT_FALSE(col.merge_in_flight(p));
  }
  EXPECT_EQ(col.Count(Pred::All()), base.size() + kThreshold - 1);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(MergeModeMachineTest, BackgroundMergeMatchesForegroundFlush) {
  const auto base = RandomValues(6000, 1500, 23);
  ThreadPool pool(2);
  Column background(base, MachineOptions(/*threshold=*/0, /*chunk=*/32),
                    &pool);
  Column foreground(base, MachineOptions(/*threshold=*/0));
  Rng rng(24);
  std::vector<std::int64_t> model = base;
  for (int i = 0; i < 200; ++i) {
    const auto v = static_cast<std::int64_t>(rng.NextBounded(1500));
    background.Insert(v);
    foreground.Insert(v);
    model.push_back(v);
  }
  for (int i = 0; i < 60; ++i) {
    const std::size_t pick = rng.NextBounded(model.size());
    const std::int64_t v = model[pick];
    ASSERT_TRUE(background.Delete(v));
    ASSERT_TRUE(foreground.Delete(v));
    model[pick] = model.back();
    model.pop_back();
  }
  for (std::size_t p = 0; p < background.num_partitions(); ++p) {
    ASSERT_TRUE(background.RequestBackgroundMerge(p));
  }
  background.WaitForBackgroundMerges();
  foreground.FlushPending();
  EXPECT_EQ(background.pending_update_count(), 0u);
  EXPECT_EQ(foreground.pending_update_count(), 0u);
  for (int q = 0; q < 100; ++q) {
    const auto a = rng.NextInRange(-5, 1505);
    const Pred p = Pred::Between(a, a + rng.NextInRange(0, 400));
    const std::size_t expect = ScanCount<std::int64_t>(model, p);
    ASSERT_EQ(background.Count(p), expect) << p.ToString();
    ASSERT_EQ(foreground.Count(p), expect) << p.ToString();
  }
  EXPECT_TRUE(background.ValidatePieces());
  EXPECT_TRUE(foreground.ValidatePieces());
}

TEST(MergeModeMachineTest, ReadersStayLiveAndExactDuringMerge) {
  const auto base = RandomValues(20000, 2000, 29);
  ThreadPool pool(1);
  Column col(base, MachineOptions(/*threshold=*/0, /*chunk=*/64), &pool);
  std::vector<std::int64_t> inserted;
  for (std::int64_t v = 0; v < 1500; ++v) {
    const auto value = 3000 + v;  // disjoint from the base domain
    col.Insert(value);
    inserted.push_back(value);
  }
  // Park the pool's only worker: both shards' merges stay in flight until
  // we release it, so "reads while a merge is in flight" is a
  // deterministic window, not a race against a fast merge.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  for (std::size_t p = 0; p < col.num_partitions(); ++p) {
    ASSERT_TRUE(col.RequestBackgroundMerge(p));
  }
  std::atomic<int> failures{0};
  std::atomic<int> reads_during_merge{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      // The whole-column total is invariant across the merge: buffered
      // tuples count via the overlay before folding and via the array
      // after. Any wrong intermediate state shows up here.
      const std::size_t expect = base.size() + inserted.size();
      for (;;) {
        bool merging = false;
        for (std::size_t p = 0; p < col.num_partitions(); ++p) {
          merging |= col.merge_in_flight(p);
        }
        if (col.Count(Pred::All()) != expect) failures.fetch_add(1);
        if (!merging) break;
        reads_during_merge.fetch_add(1);
        // Brief backoff: leave latch gaps so the merger's exclusive holds
        // are not starved behind a wall of back-to-back shared readers.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  // Only open the merge itself once every reader had time to observe the
  // in-flight window.
  while (reads_during_merge.load() < 8) std::this_thread::yield();
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& reader : readers) reader.join();
  col.WaitForBackgroundMerges();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(reads_during_merge.load(), 8)
      << "readers must have overlapped the merge window";
  EXPECT_EQ(col.pending_update_count(), 0u);
  EXPECT_TRUE(col.ValidatePieces());
}

TEST(MergeModeMachineTest, ColumnDestructionWaitsOutInFlightMerges) {
  const auto base = RandomValues(30000, 3000, 31);
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    Column col(base, MachineOptions(/*threshold=*/4, /*chunk=*/1), &pool);
    for (std::int64_t v = 0; v < 300; ++v) col.Insert(v % 3000);
    // Scope exit destroys the column while merges are very likely still
    // chunking; the destructor must wait for every ticket, never letting a
    // pool task touch a dead column.
  }
  // And the symmetric shutdown: the pool dies right after a burst of
  // requests; dropped closures must still release their tickets.
  {
    auto local_pool = std::make_unique<ThreadPool>(1);
    Column col(base, MachineOptions(/*threshold=*/4, /*chunk=*/1),
               local_pool.get());
    for (std::int64_t v = 0; v < 200; ++v) col.Insert(v % 3000);
    col.WaitForBackgroundMerges();  // column must quiesce before the pool dies
  }
  SUCCEED();
}

TEST(MergeModeMachineTest, MoveTransfersAQuiescentMachine) {
  const auto base = RandomValues(5000, 1000, 37);
  ThreadPool pool(2);
  Column col(base, MachineOptions(/*threshold=*/4, /*chunk=*/8), &pool);
  for (std::int64_t v = 0; v < 100; ++v) col.Insert(v % 1000);
  Column moved = std::move(col);  // waits out in-flight merges first
  EXPECT_EQ(moved.Count(Pred::All()), base.size() + 100);
  for (std::size_t p = 0; p < moved.num_partitions(); ++p) {
    EXPECT_FALSE(moved.merge_in_flight(p));
  }
  EXPECT_TRUE(moved.ValidatePieces());
}

// Overlap-only merge decisions for every policy: traffic disjoint from all
// pending keys must never leave the shared fast path, so the coarse-read
// counter stays zero.
TEST(MergeModeMachineTest, DisjointQueriesKeepFullFastPathHitRate) {
  for (const MergePolicy policy :
       {MergePolicy::kRipple, MergePolicy::kComplete, MergePolicy::kGradual}) {
  for (const bool in_inner_stores : {false, true}) {
    // Pending tuples sit either in the write buckets, or in the internal
    // per-shard stores, where a policy-aware gate would short-circuit to
    // "merge everything" under kComplete/kGradual.
    // Neither location may tax disjoint reads. Under kComplete any merge
    // folds every pending tuple, so drained tuples rest in its inner
    // stores only mid-background-merge, where reads take the overlay path.
    if (in_inner_stores && policy == MergePolicy::kComplete) continue;
    const auto base = RandomValues(8000, 1000, 41);
    PartitionedCrackerOptions options = MachineOptions(/*threshold=*/0);
    options.merge_policy = policy;
    // kGradual then merges only what a query needs, like kRipple.
    if (in_inner_stores) options.gradual_budget = 0;
    Column col(base, options);
    // Warm up the cracked structure, then buffer writes far above the
    // query domain: every pending key is >= 5000, every query is < 1000.
    (void)col.Count(Pred::Between(100, 900));
    for (std::int64_t v = 0; v < 50; ++v) col.Insert(5000 + v);
    if (in_inner_stores) {
      // A raw Select over the top partition drains its write buckets into
      // the inner stores under exclusion; disjoint from every pending key,
      // it merges none of them.
      (void)col.Select(Pred::Between(900, 999));
    }
    ASSERT_EQ(col.pending_update_count(), 50u);
    const StripedReadPathStats before = col.AggregatedReadPathStats();
    Rng rng(42);
    for (int q = 0; q < 200; ++q) {
      const auto a = rng.NextInRange(0, 900);
      const Pred p = Pred::Between(a, a + rng.NextInRange(0, 80));
      ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(base, p))
          << MergePolicyName(policy) << " " << p.ToString();
    }
    const StripedReadPathStats after = col.AggregatedReadPathStats();
    EXPECT_EQ(after.coarse_reads, before.coarse_reads)
        << MergePolicyName(policy)
        << ": disjoint queries must not take the exclusive fallback";
    EXPECT_GT(after.fast_reads, before.fast_reads) << MergePolicyName(policy);
    // The buffered writes are still there — nothing forced them to merge.
    EXPECT_GT(col.pending_update_count(), 0u) << MergePolicyName(policy);
  }
  }
}

// Overlapping queries with background merging enabled answer from the
// overlay (and kick a background merge) instead of blocking on the
// exclusive fallback.
TEST(MergeModeMachineTest, OverlappingQueriesUseOverlayWhenPoolAvailable) {
  const auto base = RandomValues(8000, 1000, 43);
  ThreadPool pool(2);
  Column col(base, MachineOptions(/*threshold=*/1 << 30, /*chunk=*/64),
             &pool);
  std::vector<std::int64_t> model = base;
  for (std::int64_t v = 0; v < 40; ++v) {
    col.Insert(v * 25 % 1000);
    model.push_back(v * 25 % 1000);
  }
  const StripedReadPathStats before = col.AggregatedReadPathStats();
  Rng rng(44);
  for (int q = 0; q < 50; ++q) {
    const auto a = rng.NextInRange(0, 900);
    const Pred p = Pred::Between(a, a + 100);
    ASSERT_EQ(col.Count(p), ScanCount<std::int64_t>(model, p)) << p.ToString();
  }
  col.WaitForBackgroundMerges();
  const StripedReadPathStats after = col.AggregatedReadPathStats();
  EXPECT_GT(after.overlay_reads, before.overlay_reads);
  EXPECT_EQ(after.coarse_reads, before.coarse_reads);
  EXPECT_TRUE(col.ValidatePieces());
}

// Regression: a merge closure that is queued but never started when the
// pool shuts down must be DESTROYED, and destroying it must release the
// merge ticket — the ticket's deleter clears merge_in_flight. Without
// that, the shard's flag stayed set forever and every later merge request
// was rejected.
TEST(MergeModeMachineTest, DroppedClosureAtShutdownRepairsModeMachine) {
  const auto base = RandomValues(2000, 500, 47);
  ThreadPool pool(1);
  Column col(base, MachineOptions(/*threshold=*/0), &pool);
  // Park the only worker so the granted merge closure stays queued.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  ASSERT_TRUE(col.RequestBackgroundMerge(0));
  ASSERT_TRUE(col.merge_in_flight(0));

  // Shutdown blocks joining the parked worker; once intake has stopped
  // (TrySubmit refuses), release the worker so the join — and the
  // destruction of the still-queued merge closure — can complete.
  std::thread stopper([&] { pool.Shutdown(); });
  while (pool.TrySubmit([] {})) {
    std::this_thread::yield();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  stopper.join();

  // The dropped closure's ticket cleared the flag: no in-flight merge
  // accounted, and the shard degrades (foreground merges) instead of
  // wedging.
  EXPECT_FALSE(col.merge_in_flight(0));
  col.WaitForBackgroundMerges();  // must not hang on a leaked ticket
  Rng rng(48);
  std::vector<std::int64_t> model = base;
  for (int i = 0; i < 40; ++i) {
    const auto v = static_cast<std::int64_t>(rng.NextBounded(500));
    col.Insert(v);
    model.push_back(v);
  }
  col.FlushPending();
  EXPECT_EQ(col.pending_update_count(), 0u);
  EXPECT_EQ(col.Count(Pred::All()), model.size());
  EXPECT_TRUE(col.ValidatePieces());
}

}  // namespace
}  // namespace aidx
