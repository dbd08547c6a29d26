// E4 — Cracking under updates (SIGMOD'07 Figs. 7/9 shape): per-query cost
// with interleaved inserts under the three merge policies, plus an update
// frequency / batch-size sweep. Runs through the uniform AccessPath
// interface — the exact code path Database DML users hit — with the merge
// policy selected via StrategyConfig::merge_policy.
//
// Expected shape: MRI (ripple) stays low and smooth; MCI (complete) spikes
// on the first query after each batch; MGI sits between. Totals degrade
// gracefully with update volume for MRI.
//
// The multi-column axis runs the same policy comparison through the
// Database facade's row-atomic DML on a 3-column table — every insert and
// delete hits all three columns' cached paths plus the sideways cracker
// maps (maintained incrementally, docs/UPDATES.md §5) — and emits the
// `multicol_write_mix` JSON rows and headline that
// scripts/compare_bench.py gates. Each row carries `delete_us_mean`, the
// mean wall time of one Database::Delete call in the mix.
#include <array>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "exec/access_path.h"
#include "exec/engine.h"
#include "update/updatable_column.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/data_generator.h"
#include "workload/query_generator.h"
#include "workload/report.h"
#include "workload/runner.h"

using namespace aidx;

namespace {

struct UpdateRun {
  std::string policy;
  std::vector<double> per_query_seconds;
  std::uint64_t checksum = 0;
};

/// Runs Q queries; before every `every`-th query, `batch` fresh inserts
/// arrive through AccessPath::InsertBatch. Construction of the path's
/// structure is charged to the first query, as everywhere.
UpdateRun RunWithUpdates(const std::vector<std::int64_t>& base,
                         std::span<const RangePredicate<std::int64_t>> queries,
                         MergePolicy policy, std::size_t every, std::size_t batch,
                         std::int64_t domain) {
  UpdateRun out;
  out.policy = MergePolicyName(policy);
  Rng rng(99);
  StrategyConfig config = StrategyConfig::Crack();
  config.merge_policy = policy;
  std::unique_ptr<AccessPath<std::int64_t>> path;
  std::vector<std::int64_t> fresh(batch);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (path != nullptr && every != 0 && i % every == 0 && i > 0) {
      for (auto& v : fresh) {
        v = static_cast<std::int64_t>(
            rng.NextBounded(static_cast<std::uint64_t>(domain)));
      }
      path->InsertBatch(fresh);
    }
    WallTimer t;
    if (path == nullptr) path = MakeAccessPath<std::int64_t>(base, config);
    out.checksum += path->Count(queries[i]);
    out.per_query_seconds.push_back(t.ElapsedSeconds());
  }
  return out;
}

double Total(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

struct MulticolRun {
  double total_seconds = 0;
  std::uint64_t checksum = 0;
  std::size_t final_rows = 0;
  /// Wall time inside Database::Delete, and the calls made.
  double delete_seconds = 0;
  std::size_t deletes = 0;
};

/// The multi-column write-mix: `ops` operations on a 3-column table,
/// `write_pct`% row-atomic writes (2/3 inserts, 1/3 lowest-rid deletes),
/// the rest range counts rotating over the columns through this policy's
/// cached crack paths, with a periodic SelectProject keeping the sideways
/// maps hot so their incremental maintenance is inside the measured
/// window. Deterministic per seed: checksums must agree across policies.
MulticolRun RunMulticolWriteMix(const std::vector<std::int64_t>& base,
                                MergePolicy policy, std::size_t ops,
                                std::size_t write_pct, std::int64_t domain) {
  const char* const columns[] = {"a", "b", "c"};
  Database db;
  AIDX_CHECK_OK(db.CreateTable("t"));
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<std::int64_t> values(base);
    for (auto& v : values) v += static_cast<std::int64_t>(c);  // decorrelate
    AIDX_CHECK_OK(db.AddColumn("t", columns[c], std::move(values)));
  }
  StrategyConfig config = StrategyConfig::Crack();
  config.merge_policy = policy;
  Rng rng(2024);
  MulticolRun out;
  WallTimer timer;
  for (std::size_t op = 0; op < ops; ++op) {
    const bool is_write = write_pct > 0 && (op * write_pct) % 100 < write_pct;
    if (is_write) {
      if (rng.NextBounded(3) != 0) {
        const auto v = static_cast<std::int64_t>(
            rng.NextBounded(static_cast<std::uint64_t>(domain)));
        AIDX_CHECK_OK(db.Insert("t", {v, v + 1, v + 2}));
      } else {
        const auto v = static_cast<std::int64_t>(
            rng.NextBounded(static_cast<std::uint64_t>(domain)));
        const char* const column = columns[rng.NextBounded(3)];
        WallTimer delete_timer;
        AIDX_CHECK_OK(db.Delete("t", column, v).status());
        out.delete_seconds += delete_timer.ElapsedSeconds();
        ++out.deletes;
      }
    } else if (op % 16 == 15) {
      const auto lo = static_cast<std::int64_t>(
          rng.NextBounded(static_cast<std::uint64_t>(domain)));
      const auto r = db.SelectProject(
          {.table = "t",
           .column = "a",
           .predicate = RangePredicate<std::int64_t>::Between(lo, lo + domain / 100),
           .tails = {"b", "c"}});
      AIDX_CHECK_OK(r.status());
      out.checksum += r->num_rows;
    } else {
      const auto lo = static_cast<std::int64_t>(
          rng.NextBounded(static_cast<std::uint64_t>(domain)));
      const auto count = db.Count(
          {.table = "t",
           .column = columns[op % 3],
           .predicate = RangePredicate<std::int64_t>::Between(lo, lo + domain / 100),
           .strategy = config});
      AIDX_CHECK_OK(count.status());
      out.checksum += *count;
    }
  }
  out.total_seconds = timer.ElapsedSeconds();
  const auto final_count = db.Count({.table = "t",
                                     .column = "a",
                                     .predicate = RangePredicate<std::int64_t>::All(),
                                     .strategy = config});
  AIDX_CHECK_OK(final_count.status());
  out.final_rows = *final_count;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json("e4_updates", argc, argv);
  bench::PrintHeader("E4 updates: MCI vs MGI vs MRI",
                     "tutorial §2 'Cracking Updates' / SIGMOD'07 update figures");
  const std::size_t n = bench::ColumnSize() / 2;
  const std::size_t q = bench::NumQueries();
  const auto domain = static_cast<std::int64_t>(n);
  const auto data = GenerateData({.n = n, .domain = domain, .seed = 7});
  const auto queries = GenerateQueries({.num_queries = q,
                                        .domain = domain,
                                        .selectivity = 0.001,
                                        .seed = 13});

  // --- Figure: per-query series, updates every 10 queries, batch 10. ---
  std::cout << "\nseries: batch of 10 inserts every 10 queries (N=" << n
            << ", Q=" << q << ")\n";
  std::vector<RunResult> series;
  for (const MergePolicy policy :
       {MergePolicy::kRipple, MergePolicy::kGradual, MergePolicy::kComplete}) {
    const UpdateRun run = RunWithUpdates(data, queries, policy, 10, 10, domain);
    RunResult rr;
    rr.strategy = run.policy;
    rr.workload = "random+updates";
    rr.per_query_seconds = run.per_query_seconds;
    rr.count_checksum = run.checksum;
    series.push_back(std::move(rr));
  }
  for (const auto& run : series) {
    if (run.count_checksum != series.front().count_checksum) {
      std::cerr << "CHECKSUM MISMATCH: " << run.strategy << "\n";
      return 1;
    }
    json.AddRow("series")
        .Set("policy", run.strategy)
        .Set("total_s", Total(run.per_query_seconds));
  }
  PrintSeriesComparison(std::cout, series, bench::CsvPath("e4_series.csv"));

  // --- Table: total cost across update frequency / batch size. ---
  std::cout << "\ntotal workload cost by update pressure:\n";
  TablePrinter table({"updates", "MRI", "MGI", "MCI"});
  struct Config {
    std::size_t every;
    std::size_t batch;
    const char* label;
  };
  for (const Config cfg : {Config{0, 0, "none"}, Config{100, 10, "10 per 100 q"},
                           Config{10, 10, "10 per 10 q"},
                           Config{10, 100, "100 per 10 q"},
                           Config{1, 10, "10 per query"}}) {
    std::vector<std::string> row = {cfg.label};
    for (const MergePolicy policy :
         {MergePolicy::kRipple, MergePolicy::kGradual, MergePolicy::kComplete}) {
      const UpdateRun run =
          RunWithUpdates(data, queries, policy, cfg.every, cfg.batch, domain);
      row.push_back(FormatSeconds(Total(run.per_query_seconds)));
      json.AddRow("pressure_sweep")
          .Set("updates", cfg.label)
          .Set("policy", run.policy)
          .Set("total_s", Total(run.per_query_seconds));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  // --- Multi-column axis: row-atomic DML through the Database facade. ---
  // 20% writes, each hitting all three columns' cached paths plus the
  // sideways maps; reads rotate across columns so every column's path
  // merges pending updates under the policy in play.
  const std::size_t multicol_n = n / 4;
  const std::size_t multicol_ops = q * 2;
  const auto multicol_domain = static_cast<std::int64_t>(multicol_n);
  const auto multicol_base =
      GenerateData({.n = multicol_n, .domain = multicol_domain, .seed = 23});
  std::cout << "\nmulti-column write mix: 3-column table, 20% row-atomic "
               "writes (N="
            << multicol_n << ", ops=" << multicol_ops << ")\n";
  TablePrinter multicol_table({"policy", "total", "ops/s", "delete us", "final rows"});
  double best_qps = 0;
  std::string best_policy;
  std::uint64_t multicol_checksum = 0;
  bool first_policy = true;
  for (const MergePolicy policy :
       {MergePolicy::kRipple, MergePolicy::kGradual, MergePolicy::kComplete}) {
    const MulticolRun run = RunMulticolWriteMix(multicol_base, policy,
                                                multicol_ops, 20,
                                                multicol_domain);
    if (first_policy) {
      multicol_checksum = run.checksum;
      first_policy = false;
    } else if (run.checksum != multicol_checksum) {
      // The op stream is deterministic, so policies must agree bit-exactly.
      std::cerr << "MULTICOL CHECKSUM MISMATCH: " << MergePolicyName(policy)
                << "\n";
      return 1;
    }
    const double qps =
        run.total_seconds > 0 ? multicol_ops / run.total_seconds : 0;
    const double delete_us =
        run.deletes > 0 ? run.delete_seconds * 1e6 / static_cast<double>(run.deletes) : 0;
    multicol_table.AddRow({MergePolicyName(policy),
                           FormatSeconds(run.total_seconds),
                           std::to_string(static_cast<std::size_t>(qps)),
                           std::to_string(static_cast<std::size_t>(delete_us + 0.5)),
                           std::to_string(run.final_rows)});
    json.AddRow("multicol_write_mix")
        .Set("policy", MergePolicyName(policy))
        .Set("write_pct", std::size_t{20})
        .Set("columns", std::size_t{3})
        .Set("total_s", run.total_seconds)
        .Set("ops_per_s", qps)
        .Set("delete_us_mean", delete_us);
    if (qps > best_qps) {
      best_qps = qps;
      best_policy = MergePolicyName(policy);
    }
  }
  multicol_table.Print(std::cout);

  // The recorded headline the CI gate (scripts/compare_bench.py) checks:
  // best sustained multi-column mixed-workload throughput and the policy
  // that achieved it.
  json.AddRow("headline")
      .Set("metric", "multicol_write_mix")
      .Set("write_pct", std::size_t{20})
      .Set("columns", std::size_t{3})
      .Set("multicol_ops_per_s", best_qps)
      .Set("best_policy", best_policy);
  std::cout << "\nheadline: best multi-column mixed-workload throughput = "
            << static_cast<std::size_t>(best_qps) << " ops/s (" << best_policy
            << ")\n";

  json.Write();
  return 0;
}
