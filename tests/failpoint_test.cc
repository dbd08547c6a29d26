// The fault-injection substrate itself: Failpoint mode semantics (error,
// delay, probabilistic, callback, max-hits auto-disarm), the registry's
// spec grammar and pending-spec queue, QueryContext's deadline/cancel
// contract, the ResourceGovernor's soft-budget arithmetic, and ThreadPool
// shutdown semantics that ParallelFor's fewer-helpers fallback depends on.
#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/query_context.h"
#include "util/resource_governor.h"
#include "util/thread_pool.h"

namespace aidx {
namespace {

// Every test disarms the whole registry on entry and exit so suites can
// run in any order (and alongside AIDX_FAILPOINTS-configured processes).
class FailpointTest : public ::testing::Test {
 protected:
  static void Reset() {
    auto& registry = FailpointRegistry::Instance();
    registry.DisarmAll();
    for (Failpoint* point : registry.List()) point->ResetCounters();
  }
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }
};

TEST_F(FailpointTest, DisarmedInjectIsFreeAndUncounted) {
  Failpoint& fp = failpoints::crack_piece;
  EXPECT_FALSE(fp.armed());
  EXPECT_TRUE(fp.Inject().ok());
  // The disarmed fast path does not even count evaluations — that is the
  // property the e10 overhead benchmark measures.
  EXPECT_EQ(fp.evaluations(), 0u);
  EXPECT_EQ(fp.hits(), 0u);
}

TEST_F(FailpointTest, ErrorModeReturnsConfiguredCodeAndMessage) {
  FailpointPolicy policy;
  policy.mode = FailpointMode::kError;
  policy.code = StatusCode::kResourceExhausted;
  policy.message = "disk on fire";
  failpoints::organizer_step.Arm(policy);
  const Status s = failpoints::organizer_step.Inject();
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(failpoints::organizer_step.hits(), 1u);
  EXPECT_EQ(failpoints::organizer_step.evaluations(), 1u);
}

TEST_F(FailpointTest, DefaultMessageNamesThePoint) {
  FailpointPolicy policy;
  policy.mode = FailpointMode::kError;
  failpoints::crack_piece.Arm(policy);
  const Status s = failpoints::crack_piece.Inject();
  EXPECT_TRUE(s.IsInternal());
  EXPECT_NE(s.message().find("crack.piece"), std::string::npos);
}

TEST_F(FailpointTest, MaxHitsAutoDisarms) {
  FailpointPolicy policy;
  policy.mode = FailpointMode::kError;
  policy.max_hits = 2;
  failpoints::crack_piece.Arm(policy);
  EXPECT_FALSE(failpoints::crack_piece.Inject().ok());
  EXPECT_FALSE(failpoints::crack_piece.Inject().ok());
  // Third evaluation sees the point already disarmed by the second hit.
  EXPECT_TRUE(failpoints::crack_piece.Inject().ok());
  EXPECT_FALSE(failpoints::crack_piece.armed());
  EXPECT_EQ(failpoints::crack_piece.hits(), 2u);
}

TEST_F(FailpointTest, DelayModeSleepsButSucceeds) {
  FailpointPolicy policy;
  policy.mode = FailpointMode::kDelay;
  policy.delay_micros = 2000;
  failpoints::sideways_ripple.Arm(policy);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(failpoints::sideways_ripple.Inject().ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::microseconds(2000));
  EXPECT_EQ(failpoints::sideways_ripple.hits(), 1u);
}

TEST_F(FailpointTest, ProbabilisticExtremes) {
  FailpointPolicy never;
  never.mode = FailpointMode::kProbabilistic;
  never.probability = 0.0;
  failpoints::crack_piece.Arm(never);
  for (int i = 0; i < 200; ++i) EXPECT_TRUE(failpoints::crack_piece.Inject().ok());
  // Non-fires count as evaluations but not hits.
  EXPECT_EQ(failpoints::crack_piece.evaluations(), 200u);
  EXPECT_EQ(failpoints::crack_piece.hits(), 0u);

  FailpointPolicy always;
  always.mode = FailpointMode::kProbabilistic;
  always.probability = 1.0;
  always.code = StatusCode::kResourceExhausted;
  failpoints::crack_piece.Arm(always);
  failpoints::crack_piece.ResetCounters();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(failpoints::crack_piece.Inject().IsResourceExhausted());
  }
  EXPECT_EQ(failpoints::crack_piece.hits(), 50u);
}

TEST_F(FailpointTest, ProbabilisticDrawsAreSeedDeterministic) {
  const auto fire_pattern = [](std::uint64_t seed) {
    FailpointPolicy policy;
    policy.mode = FailpointMode::kProbabilistic;
    policy.probability = 0.5;
    policy.seed = seed;
    failpoints::crack_piece.Arm(policy);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!failpoints::crack_piece.Inject().ok());
    return fired;
  };
  EXPECT_EQ(fire_pattern(7), fire_pattern(7));
  EXPECT_NE(fire_pattern(7), fire_pattern(8));
}

TEST_F(FailpointTest, CallbackReceivesCallSiteScope) {
  std::string seen;
  FailpointPolicy policy;
  policy.mode = FailpointMode::kCallback;
  policy.handler = [&seen](std::string_view scope) {
    seen = std::string(scope);
    return Status::NotFound("from handler");
  };
  failpoints::engine_dml_validate.Arm(policy);
  const std::string scope =
      std::string("orders") + kFailpointScopeSep + std::string("amount");
  EXPECT_TRUE(failpoints::engine_dml_validate.Inject(scope).IsNotFound());
  EXPECT_EQ(seen, scope);
}

TEST_F(FailpointTest, ResetCountersClearsWithoutDisarming) {
  FailpointPolicy policy;
  policy.mode = FailpointMode::kError;
  failpoints::crack_piece.Arm(policy);
  (void)failpoints::crack_piece.Inject();
  failpoints::crack_piece.ResetCounters();
  EXPECT_EQ(failpoints::crack_piece.hits(), 0u);
  EXPECT_EQ(failpoints::crack_piece.evaluations(), 0u);
  EXPECT_TRUE(failpoints::crack_piece.armed());
}

TEST_F(FailpointTest, RegistryFindsEveryCatalogPoint) {
  auto& registry = FailpointRegistry::Instance();
  for (const char* name :
       {"crack.piece", "organizer.step", "engine.dml_validate", "threadpool.submit",
        "sideways.select", "sideways.ripple", "storage.add_column",
        "storage.commit_row"}) {
    Failpoint* point = registry.Find(name);
    ASSERT_NE(point, nullptr) << name;
    EXPECT_STREQ(point->name(), name);
  }
  EXPECT_EQ(registry.Find("no.such.point"), nullptr);
  EXPECT_GE(registry.List().size(), 10u);
}

TEST_F(FailpointTest, ConfigureParsesTheModeGrammar) {
  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.Configure("crack.piece=error(not_found)").ok());
  EXPECT_TRUE(failpoints::crack_piece.Inject().IsNotFound());

  ASSERT_TRUE(registry.Configure("crack.piece=error*1").ok());
  EXPECT_TRUE(failpoints::crack_piece.Inject().IsInternal());
  EXPECT_TRUE(failpoints::crack_piece.Inject().ok()) << "max-hits suffix ignored";

  ASSERT_TRUE(registry.Configure("crack.piece=delay(100)").ok());
  failpoints::crack_piece.ResetCounters();
  EXPECT_TRUE(failpoints::crack_piece.Inject().ok());
  EXPECT_EQ(failpoints::crack_piece.hits(), 1u);

  ASSERT_TRUE(registry.Configure("crack.piece=prob(1.0,out_of_range)").ok());
  EXPECT_TRUE(failpoints::crack_piece.Inject().IsOutOfRange());

  ASSERT_TRUE(registry.Configure("crack.piece=off").ok());
  EXPECT_FALSE(failpoints::crack_piece.armed());

  // Multiple points in one spec, both separators accepted.
  ASSERT_TRUE(
      registry.Configure("crack.piece=error;organizer.step=delay(10)").ok());
  EXPECT_TRUE(failpoints::crack_piece.armed());
  EXPECT_TRUE(failpoints::organizer_step.armed());
}

TEST_F(FailpointTest, ConfigureRejectsMalformedSpecs) {
  auto& registry = FailpointRegistry::Instance();
  EXPECT_TRUE(registry.Configure("crack.piece").IsInvalidArgument());
  EXPECT_TRUE(registry.Configure("crack.piece=bogus").IsInvalidArgument());
  EXPECT_TRUE(registry.Configure("crack.piece=error(nonsense_code)")
                  .IsInvalidArgument());
  EXPECT_TRUE(registry.Configure("crack.piece=prob(1.5)").IsInvalidArgument());
  EXPECT_TRUE(registry.Configure("crack.piece=delay(oops)").IsInvalidArgument());
  EXPECT_TRUE(registry.Configure("crack.piece=error*0").IsInvalidArgument());
  EXPECT_FALSE(failpoints::crack_piece.armed()) << "bad spec must not arm";
}

TEST_F(FailpointTest, UnknownNamesQueueAsPendingForLateRegistration) {
  auto& registry = FailpointRegistry::Instance();
  // The env path (AIDX_FAILPOINTS) runs before any point registers, so
  // unknown names must queue instead of erroring; a late-registering
  // point picks up its spec on construction. Points never unregister, so
  // the probe must outlive the process: function-local static.
  ASSERT_TRUE(
      registry.Configure("test.late.registration=error(already_exists)").ok());
  static Failpoint late("test.late.registration");
  EXPECT_TRUE(late.armed());
  EXPECT_TRUE(late.Inject().IsAlreadyExists());
}

TEST_F(FailpointTest, DisarmAllClearsEveryPoint) {
  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.Configure("crack.piece=error,sideways.select=error").ok());
  registry.DisarmAll();
  for (Failpoint* point : registry.List()) {
    EXPECT_FALSE(point->armed()) << point->name();
  }
}

TEST(QueryContextTest, BackgroundNeverExpires) {
  const QueryContext ctx = QueryContext::Background();
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_FALSE(ctx.has_deadline());
}

TEST(QueryContextTest, PastDeadlineIsDeadlineExceeded) {
  const QueryContext ctx = QueryContext::WithTimeout(std::chrono::nanoseconds(0));
  const Status s = ctx.Check();
  EXPECT_TRUE(s.IsDeadlineExceeded());
  // A generous future deadline passes.
  EXPECT_TRUE(QueryContext::WithTimeout(std::chrono::hours(1)).Check().ok());
}

TEST(QueryContextTest, CancellationTokenFlipsCheck) {
  auto token = std::make_shared<CancellationToken>();
  QueryContext ctx = QueryContext::Background();
  ctx.SetToken(token);
  EXPECT_TRUE(ctx.Check().ok());
  token->Cancel();
  EXPECT_TRUE(ctx.Check().IsCancelled());
}

TEST(QueryContextTest, CancellationWinsOverExpiredDeadline) {
  auto token = std::make_shared<CancellationToken>();
  token->Cancel();
  QueryContext ctx = QueryContext::WithTimeout(std::chrono::nanoseconds(0));
  ctx.SetToken(token);
  // Both conditions hold; the contract is that the explicit cancel wins,
  // so callers can distinguish "user aborted" from "too slow".
  EXPECT_TRUE(ctx.Check().IsCancelled());
}

TEST(ResourceGovernorTest, UnlimitedByDefault) {
  ResourceGovernor governor;
  EXPECT_TRUE(governor.unlimited());
  EXPECT_FALSE(governor.OverBudget(1ull << 40));
  EXPECT_TRUE(governor.Admit(1ull << 40, 1ull << 40));
  EXPECT_TRUE(governor.Admit(ResourceGovernor::kUnlimited, ResourceGovernor::kUnlimited));
  EXPECT_EQ(governor.admission_denials(), 0u);
}

// The governor keeps no gauges: each decision judges the total the caller
// summed fresh, and a later total replaces, never adds to, an earlier one.
TEST(ResourceGovernorTest, GaugesAreAbsolutePerComponent) {
  ResourceGovernor governor(1000);
  EXPECT_FALSE(governor.Admit(300 + 200 + 100, 401));
  EXPECT_TRUE(governor.Admit(50 + 200 + 100, 401));
  EXPECT_TRUE(governor.OverBudget(1001));
  EXPECT_FALSE(governor.OverBudget(350));
  EXPECT_EQ(governor.admission_denials(), 1u);
}

TEST(ResourceGovernorTest, AdmitCountsDenials) {
  ResourceGovernor governor(1000);
  EXPECT_TRUE(governor.Admit(900, 100));
  EXPECT_FALSE(governor.Admit(900, 101));
  EXPECT_FALSE(governor.Admit(900, ResourceGovernor::kUnlimited));  // no overflow
  EXPECT_FALSE(governor.Admit(ResourceGovernor::kUnlimited, 1));     // no overflow
  EXPECT_EQ(governor.admission_denials(), 3u);
  EXPECT_FALSE(governor.OverBudget(1000)) << "at budget is not over budget";
  EXPECT_TRUE(governor.OverBudget(1001));
}

// Admission weighs used plus incoming bytes; shedding is the owner's move,
// and only the owner's CountShed records one.
TEST(ResourceGovernorTest, MaybeShedConsidersIncomingBytes) {
  ResourceGovernor governor(1000);
  // Under budget even with the incoming allocation: admitted.
  EXPECT_TRUE(governor.Admit(600, 400));
  // used + incoming overflows though used alone does not: denied.
  EXPECT_FALSE(governor.OverBudget(600));
  EXPECT_FALSE(governor.Admit(600, 401));
  EXPECT_EQ(governor.sheds(), 0u) << "a denial alone sheds nothing";
  governor.CountShed();
  EXPECT_EQ(governor.sheds(), 1u);
  EXPECT_EQ(governor.admission_denials(), 1u);
}

TEST(ThreadPoolShutdownTest, ShutdownIsIdempotentAndStopsIntake) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.TrySubmit([] {}));
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op
  EXPECT_EQ(pool.num_threads(), 0u);
  EXPECT_FALSE(pool.TrySubmit([] {}));
  // ParallelFor degrades to an inline loop on a stopped pool.
  std::size_t sum = 0;
  pool.ParallelFor(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
}

TEST(ThreadPoolShutdownTest, QueuedClosuresAreDestroyedNotRun) {
  // A zero-worker pool queues Submit()ed tasks forever, so Shutdown must
  // destroy them un-run — and destruction must release whatever RAII
  // state the closure captured (the merge ticket pattern).
  auto ran = std::make_shared<std::atomic<bool>>(false);
  bool destroyed = false;
  {
    ThreadPool pool(0);
    auto sentinel = std::shared_ptr<void>(static_cast<void*>(nullptr),
                                          [&destroyed](void*) { destroyed = true; });
    pool.Submit([ran, sentinel] { ran->store(true); });
    sentinel.reset();
    EXPECT_FALSE(destroyed) << "closure still holds the sentinel";
    pool.Shutdown();
    EXPECT_TRUE(destroyed) << "Shutdown must destroy dropped closures";
  }
  EXPECT_FALSE(ran->load());
}

TEST(ThreadPoolShutdownTest, SubmitFailpointForcesTrySubmitFalse) {
  FailpointRegistry::Instance().DisarmAll();
  ThreadPool pool(1);
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("threadpool.submit=error").ok());
  EXPECT_FALSE(pool.TrySubmit([] {}));
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_TRUE(pool.TrySubmit([] {}));
  pool.Shutdown();
}

}  // namespace
}  // namespace aidx
