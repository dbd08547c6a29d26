// A3 — Ablation: adaptive vs eager map alignment, and the partial-cracking
// storage budget (SIGMOD'09 §5-6 design choices).
//
// Expected shape: adaptive alignment wins when projection sets vary (maps
// not used by a query skip its crack); eager alignment pays for every map
// on every query. Shrinking the budget trades memory for re-materialization
// and tape replays.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "sideways/sideways.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/data_generator.h"
#include "workload/query_generator.h"
#include "workload/report.h"

using namespace aidx;

namespace {

struct Outcome {
  double total = 0;
  std::size_t replays = 0;
  std::size_t evictions = 0;
  std::uint64_t checksum = 0;
};

/// One session over `base` (head column "head", tails "t0".."t<k-1>"); the
/// cracker is built inside the first query, as every strategy's is.
Outcome RunSession(Table* base, std::size_t num_tails,
                   std::span<const RangePredicate<std::int64_t>> queries,
                   SidewaysCracker<std::int64_t>::Options options) {
  Outcome out;
  std::unique_ptr<SidewaysCracker<std::int64_t>> cracker;
  Rng rng(55);
  for (const auto& pred : queries) {
    WallTimer t;
    if (cracker == nullptr) {
      cracker = std::make_unique<SidewaysCracker<std::int64_t>>(base, "head", options);
      for (std::size_t i = 0; i < num_tails; ++i) {
        AIDX_CHECK_OK(cracker->AddTailColumn("t" + std::to_string(i)));
      }
    }
    // Rotate through single-column projections: the access pattern where
    // alignment policy matters.
    const std::string tail = "t" + std::to_string(rng.NextBounded(num_tails));
    auto sum = cracker->SelectSum(pred, tail);
    AIDX_CHECK(sum.ok()) << sum.status().ToString();
    out.checksum += static_cast<std::uint64_t>(*sum) & 0xFFFFFFFF;
    out.total += t.ElapsedSeconds();
  }
  out.replays = cracker->stats().alignment_replays;
  out.evictions = cracker->stats().maps_evicted;
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader("A3 ablation: sideways alignment & storage budget",
                     "SIGMOD'09 adaptive alignment + partial sideways cracking");
  const std::size_t n = bench::ColumnSize() / 4;
  const std::size_t q = bench::NumQueries() / 2;
  const auto domain = static_cast<std::int64_t>(n);
  constexpr std::size_t kTails = 6;

  Table base("t");
  AIDX_CHECK_OK(
      base.AddColumn("head", GenerateData({.n = n, .domain = domain, .seed = 7})));
  for (std::size_t i = 0; i < kTails; ++i) {
    AIDX_CHECK_OK(base.AddColumn(
        "t" + std::to_string(i),
        GenerateData({.n = n, .domain = domain, .seed = 200 + i})));
  }
  const auto queries = GenerateQueries({.num_queries = q,
                                        .domain = domain,
                                        .selectivity = 0.001,
                                        .seed = 13});

  std::cout << "N=" << n << ", " << kTails << " tail columns, Q=" << q
            << " (random projected column per query)\n\n";

  const std::size_t map_bytes = n * 2 * sizeof(std::int64_t);
  TablePrinter table({"configuration", "total", "tape replays", "evictions"});
  const Outcome adaptive = RunSession(&base, kTails, queries, {});
  table.AddRow({"adaptive alignment, unlimited", FormatSeconds(adaptive.total),
                std::to_string(adaptive.replays), std::to_string(adaptive.evictions)});
  const Outcome eager = RunSession(&base, kTails, queries, {.eager_alignment = true});
  table.AddRow({"eager alignment, unlimited", FormatSeconds(eager.total),
                std::to_string(eager.replays), std::to_string(eager.evictions)});
  for (const std::size_t maps : {kTails, kTails / 2, std::size_t{2}}) {
    const Outcome budget =
        RunSession(&base, kTails, queries, {.storage_budget_bytes = maps * map_bytes});
    table.AddRow({"adaptive, budget " + std::to_string(maps) + " maps",
                  FormatSeconds(budget.total), std::to_string(budget.replays),
                  std::to_string(budget.evictions)});
    if (budget.checksum != adaptive.checksum) {
      std::cerr << "CHECKSUM MISMATCH under budget\n";
      return 1;
    }
  }
  if (eager.checksum != adaptive.checksum) {
    std::cerr << "CHECKSUM MISMATCH eager vs adaptive\n";
    return 1;
  }
  table.Print(std::cout);
  return 0;
}
