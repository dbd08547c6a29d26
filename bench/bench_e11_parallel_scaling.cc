// E11 — Parallel adaptive indexing: throughput scaling of the partitioned
// cracker column (Alvarez et al., "Main Memory Adaptive Indexing for
// Multi-core Systems" shape) over concurrent query streams.
//
// Four sweeps. The first two run against the single-threaded crack
// baseline and the coarse-latched crack (SerializedAccessPath — the "one
// big lock" lower bound any real concurrency scheme must beat):
//   1. queries/sec vs client thread count (1, 2, 4, 8) at 8 partitions;
//   2. queries/sec vs partition count (1, 2, 4, 8, 16) at 4 client threads.
// The latch axis (docs/CONCURRENCY.md §4) then measures striped piece
// latching on the workload partition latching cannot help with — every
// query inside ONE partition — against the same ParallelCrack config
// behind one exclusive latch (MakeSerializedAccessPath). On that stream a
// per-partition mutex would be one latch for the whole stream too, so the
// serialized path is the partition-granularity baseline:
//   3. queries/sec vs client threads, striped vs serialized, on a
//      same-partition-skewed stream (plus a `headline` JSON row with the
//      striped/serialized ratio at 8 threads, recorded under the
//      historical `mutex_qps`/`striped_vs_mutex` keys);
//   4. queries/sec vs stripe-table size (1, 4, 16, 64) at 8 threads.
// Two write-mix sweeps (5, 6) compare the striped write path against the
// same config serialized, with reads and writes interleaved.
//
// Each configuration gets a fresh path, so adaptation (including the
// first-query copy/scatter) is inside the measured window. Checksums are
// compared across configurations, so a silent wrong answer fails loudly.
// Note: scaling requires physical cores; on a 1-core host the partitioned
// column should roughly tie the coarse latch, not beat it — though the
// striped mode's shared-latch read path keeps an edge even there, because
// converged same-partition readers stop serializing at all.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/access_path.h"
#include "exec/serialized_path.h"
#include "workload/data_generator.h"
#include "workload/query_generator.h"
#include "workload/report.h"
#include "workload/runner.h"

using namespace aidx;

namespace {

constexpr std::size_t kMaxThreads = 8;

using Queries = std::vector<RangePredicate<std::int64_t>>;

// One shared path, `threads` clients, disjoint query streams; returns
// throughput and accumulates the result-count checksum.
bench::ThroughputResult RunConcurrent(AccessPath<std::int64_t>& path,
                                      const std::vector<Queries>& streams,
                                      std::size_t threads,
                                      std::size_t queries_per_thread,
                                      std::uint64_t* checksum) {
  std::atomic<std::uint64_t> counted{0};
  const auto result = bench::MeasureThroughput(
      threads, queries_per_thread, [&](std::size_t t, std::size_t q) {
        counted.fetch_add(path.Count(streams[t][q]), std::memory_order_relaxed);
      });
  *checksum = counted.load();
  return result;
}

// Mixed read/write streams for sweep 5: thread t runs `ops_per_thread`
// operations of which `write_pct`% (evenly spread) are writes landing
// *inside* the queried domain — alternating insert-new / delete-oldest
// (FIFO per thread), so pending accumulates between merges and reads
// genuinely contend with the update pipeline: the striped path answers
// them from the write buckets (overlay) and absorbs batches in
// background merges, while the serialized baseline runs every operation
// behind one latch. Insert values are spread over the domain by a multiplicative
// scramble; threads may collide on a value, but each thread deletes
// only values it inserted earlier, so every delete still claims a live
// tuple. Read counts race the writers and are interleaving-dependent,
// so exactness is asserted on the final live tuple count instead,
// which only depends on the issued op mix.
bench::ThroughputResult RunWriteMix(AccessPath<std::int64_t>& path,
                                    const std::vector<Queries>& streams,
                                    std::size_t threads,
                                    std::size_t ops_per_thread,
                                    std::size_t write_pct,
                                    std::size_t base_rows,
                                    std::int64_t domain) {
  struct WriterState {
    std::vector<std::int64_t> inserted;
    std::size_t oldest = 0;  // next FIFO delete victim
    std::size_t write_ops = 0;
  };
  std::vector<WriterState> writers(threads);
  std::atomic<std::uint64_t> counted{0};
  const auto result = bench::MeasureThroughput(
      threads, ops_per_thread, [&](std::size_t t, std::size_t q) {
        const bool is_write =
            write_pct > 0 && (q * write_pct) % 100 < write_pct;
        if (is_write) {
          WriterState& w = writers[t];
          const bool do_delete =
              (w.write_ops++ % 2) == 1 && w.oldest < w.inserted.size();
          if (do_delete) {
            path.Delete(w.inserted[w.oldest++]);
          } else {
            const auto raw = static_cast<std::uint64_t>(
                w.inserted.size() * kMaxThreads + t);
            const auto value = static_cast<std::int64_t>(
                (raw * 0x9E3779B97F4A7C15ull) %
                static_cast<std::uint64_t>(domain));
            path.Insert(value);
            w.inserted.push_back(value);
          }
        } else {
          counted.fetch_add(path.Count(streams[t][q]),
                            std::memory_order_relaxed);
        }
      });
  std::size_t expected = base_rows;
  for (const WriterState& w : writers) {
    expected += w.inserted.size() - w.oldest;
  }
  const std::size_t live = path.Count(RangePredicate<std::int64_t>::All());
  if (live != expected) {
    std::cerr << "WRITE-MIX EXACTNESS FAILURE: live " << live << " expected "
              << expected << "\n";
    std::exit(1);
  }
  return result;
}

// Multi-column write-mix for sweep 6: the three columns of one logical
// table modeled as three paths of the same config; a write applies one
// row to all three (value v, v+M, v+2M — the row-atomic Database pattern
// at access-path granularity), a read counts on one column. Writes
// triple-touch the latches, so column-level contention grows with the
// write share. Exactness is asserted on each column's final live count,
// which must equal base + the issued insert/delete balance.
bench::ThroughputResult RunMulticolWriteMix(
    std::array<AccessPath<std::int64_t>*, 3> paths,
    const std::vector<Queries>& streams, std::size_t threads,
    std::size_t ops_per_thread, std::size_t write_pct, std::size_t base_rows,
    std::int64_t domain) {
  struct WriterState {
    std::vector<std::int64_t> inserted;
    std::size_t oldest = 0;
    std::size_t write_ops = 0;
  };
  const std::int64_t column_offset = domain;  // M: shifts rows per column
  std::vector<WriterState> writers(threads);
  std::atomic<std::uint64_t> counted{0};
  const auto result = bench::MeasureThroughput(
      threads, ops_per_thread, [&](std::size_t t, std::size_t q) {
        const bool is_write =
            write_pct > 0 && (q * write_pct) % 100 < write_pct;
        if (is_write) {
          WriterState& w = writers[t];
          const bool do_delete =
              (w.write_ops++ % 2) == 1 && w.oldest < w.inserted.size();
          if (do_delete) {
            const std::int64_t v = w.inserted[w.oldest++];
            for (std::size_t c = 0; c < 3; ++c) {
              paths[c]->Delete(v + static_cast<std::int64_t>(c) * column_offset);
            }
          } else {
            const auto raw = static_cast<std::uint64_t>(
                w.inserted.size() * kMaxThreads + t);
            const auto v = static_cast<std::int64_t>(
                (raw * 0x9E3779B97F4A7C15ull) %
                static_cast<std::uint64_t>(domain));
            for (std::size_t c = 0; c < 3; ++c) {
              paths[c]->Insert(v + static_cast<std::int64_t>(c) * column_offset);
            }
            w.inserted.push_back(v);
          }
        } else {
          counted.fetch_add(paths[q % 3]->Count(streams[t][q]),
                            std::memory_order_relaxed);
        }
      });
  std::size_t expected = base_rows;
  for (const WriterState& w : writers) {
    expected += w.inserted.size() - w.oldest;
  }
  for (std::size_t c = 0; c < 3; ++c) {
    const std::size_t live =
        paths[c]->Count(RangePredicate<std::int64_t>::All());
    if (live != expected) {
      std::cerr << "MULTICOL WRITE-MIX EXACTNESS FAILURE: column " << c
                << " live " << live << " expected " << expected << "\n";
      std::exit(1);
    }
  }
  return result;
}

std::string Format2(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", x);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json("e11_parallel_scaling", argc, argv);
  bench::PrintHeader("E11 parallel scaling",
                     "multi-core adaptive indexing (Alvarez et al. / Graefe "
                     "et al. follow-ups to the tutorial)");
  const std::size_t n = bench::ColumnSize();
  const std::size_t q = bench::NumQueries();
  const std::size_t queries_per_thread = std::max<std::size_t>(q / kMaxThreads, 1);
  std::cout << "column: " << n << " uniform int64, " << queries_per_thread
            << " random queries per client thread, selectivity 0.1%\n"
            << "hardware threads: " << std::thread::hardware_concurrency()
            << "\n\n";

  const auto data = GenerateData({.n = n, .domain = static_cast<std::int64_t>(n),
                                  .distribution = DataDistribution::kUniform,
                                  .seed = 7});
  std::vector<Queries> streams;
  streams.reserve(kMaxThreads);
  for (std::size_t t = 0; t < kMaxThreads; ++t) {
    streams.push_back(GenerateQueries({.pattern = QueryPattern::kRandom,
                                       .num_queries = queries_per_thread,
                                       .domain = static_cast<std::int64_t>(n),
                                       .selectivity = 0.001,
                                       .seed = 100 + t}));
  }

  // Single-threaded crack reference: one client, no latches at all.
  std::uint64_t base_checksum = 0;
  const auto single_path =
      MakeAccessPath<std::int64_t>(data, StrategyConfig::Crack());
  const auto single = RunConcurrent(*single_path, streams, 1, queries_per_thread,
                                    &base_checksum);
  std::cout << "single-threaded crack: "
            << static_cast<std::size_t>(single.QueriesPerSecond())
            << " queries/sec (1 thread, " << queries_per_thread << " queries)\n\n";

  std::vector<std::vector<std::string>> csv_rows;

  // Sweep 1: client threads at a fixed 8 partitions.
  std::cout << "throughput vs client threads (8 partitions):\n";
  TablePrinter by_threads(
      {"threads", "pcrack q/s", "crack+latch q/s", "pcrack/latch"});
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    std::uint64_t parallel_sum = 0;
    const auto parallel_path = MakeAccessPath<std::int64_t>(
        data, StrategyConfig::ParallelCrack(8, /*threads=*/1));
    const auto parallel = RunConcurrent(*parallel_path, streams, threads,
                                        queries_per_thread, &parallel_sum);

    std::uint64_t latched_sum = 0;
    const auto latched_path =
        MakeSerializedAccessPath<std::int64_t>(data, StrategyConfig::Crack());
    const auto latched = RunConcurrent(*latched_path, streams, threads,
                                       queries_per_thread, &latched_sum);

    if (parallel_sum != latched_sum) {
      std::cerr << "CHECKSUM MISMATCH at " << threads << " threads: pcrack "
                << parallel_sum << " vs latched " << latched_sum << "\n";
      return 1;
    }
    // At one thread the query set equals the baseline's, so the sweep is
    // also anchored to the latch-free single-threaded truth.
    if (threads == 1 && parallel_sum != base_checksum) {
      std::cerr << "CHECKSUM MISMATCH vs single-threaded crack baseline\n";
      return 1;
    }
    by_threads.AddRow(
        {std::to_string(threads),
         std::to_string(static_cast<std::size_t>(parallel.QueriesPerSecond())),
         std::to_string(static_cast<std::size_t>(latched.QueriesPerSecond())),
         Format2(parallel.QueriesPerSecond() / latched.QueriesPerSecond()) +
             "x"});
    csv_rows.push_back({"threads", std::to_string(threads),
                        std::to_string(parallel.QueriesPerSecond()),
                        std::to_string(latched.QueriesPerSecond())});
    json.AddRow("threads_sweep")
        .Set("threads", std::size_t{threads})
        .Set("partitions", std::size_t{8})
        .Set("pcrack_qps", parallel.QueriesPerSecond())
        .Set("latched_qps", latched.QueriesPerSecond());
  }
  by_threads.Print(std::cout);

  // Sweep 2: partition count at a fixed 4 client threads.
  std::cout << "\nthroughput vs partitions (4 client threads):\n";
  TablePrinter by_partitions({"partitions", "pcrack q/s"});
  std::uint64_t expected_sum = 0;
  bool have_expected = false;
  for (const std::size_t partitions : {1u, 2u, 4u, 8u, 16u}) {
    std::uint64_t sum = 0;
    const auto path = MakeAccessPath<std::int64_t>(
        data, StrategyConfig::ParallelCrack(partitions, /*threads=*/1));
    const auto result =
        RunConcurrent(*path, streams, 4, queries_per_thread, &sum);
    if (!have_expected) {
      expected_sum = sum;
      have_expected = true;
    } else if (sum != expected_sum) {
      std::cerr << "CHECKSUM MISMATCH at " << partitions << " partitions\n";
      return 1;
    }
    by_partitions.AddRow(
        {std::to_string(partitions),
         std::to_string(static_cast<std::size_t>(result.QueriesPerSecond()))});
    csv_rows.push_back({"partitions", std::to_string(partitions),
                        std::to_string(result.QueriesPerSecond()), ""});
    json.AddRow("partitions_sweep")
        .Set("partitions", std::size_t{partitions})
        .Set("threads", std::size_t{4})
        .Set("pcrack_qps", result.QueriesPerSecond());
  }
  by_partitions.Print(std::cout);

  // Sweep 3: the latch axis. Every query lands in partition 0 (query lows
  // confined to the bottom tenth of the domain, well inside the first
  // equi-depth splitter at ~n/8), so partition-granularity latching
  // serializes the whole stream and any scaling must come from piece
  // granularity. The baseline is the same config behind one exclusive
  // latch. Checksums are pinned across both per thread count.
  std::cout << "\nthroughput vs latching (8 partitions, same-partition-"
               "skewed stream):\n";
  std::vector<Queries> skewed;
  skewed.reserve(kMaxThreads);
  for (std::size_t t = 0; t < kMaxThreads; ++t) {
    skewed.push_back(GenerateQueries({.pattern = QueryPattern::kRandom,
                                      .num_queries = queries_per_thread,
                                      .domain = static_cast<std::int64_t>(n / 10),
                                      .selectivity = 0.005,
                                      .seed = 300 + t}));
  }
  TablePrinter by_mode(
      {"threads", "striped q/s", "serialized q/s", "striped/serialized"});
  double striped_qps_8t = 0;
  double serialized_qps_8t = 0;
  const StrategyConfig skew_config = StrategyConfig::ParallelCrack(8, /*threads=*/1);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    std::uint64_t striped_sum = 0;
    const auto striped_path = MakeAccessPath<std::int64_t>(data, skew_config);
    const auto striped = RunConcurrent(*striped_path, skewed, threads,
                                       queries_per_thread, &striped_sum);

    std::uint64_t serialized_sum = 0;
    const auto serialized_path =
        MakeSerializedAccessPath<std::int64_t>(data, skew_config);
    const auto serialized = RunConcurrent(*serialized_path, skewed, threads,
                                          queries_per_thread, &serialized_sum);

    if (striped_sum != serialized_sum) {
      std::cerr << "CHECKSUM MISMATCH at " << threads
                << " threads (latch sweep): striped " << striped_sum
                << " vs serialized " << serialized_sum << "\n";
      return 1;
    }
    if (threads == 8) {
      striped_qps_8t = striped.QueriesPerSecond();
      serialized_qps_8t = serialized.QueriesPerSecond();
    }
    by_mode.AddRow(
        {std::to_string(threads),
         std::to_string(static_cast<std::size_t>(striped.QueriesPerSecond())),
         std::to_string(static_cast<std::size_t>(serialized.QueriesPerSecond())),
         Format2(striped.QueriesPerSecond() / serialized.QueriesPerSecond()) +
             "x"});
    csv_rows.push_back({"latch", std::to_string(threads),
                        std::to_string(striped.QueriesPerSecond()),
                        std::to_string(serialized.QueriesPerSecond())});
    // `stripes` records the effective latch-table size of the measured
    // configuration: the striped default (16), or 1 for the serialized
    // baseline (one exclusive latch over everything).
    struct LatchRow {
      const char* mode;
      std::size_t stripes;
      double qps;
    };
    for (const LatchRow& row :
         {LatchRow{"striped", 16, striped.QueriesPerSecond()},
          LatchRow{"serialized", 1, serialized.QueriesPerSecond()}}) {
      json.AddRow("latch_sweep")
          .Set("latch_mode", row.mode)
          .Set("threads", std::size_t{threads})
          .Set("partitions", std::size_t{8})
          .Set("stripes", row.stripes)
          .Set("qps", row.qps);
    }
  }
  by_mode.Print(std::cout);

  // Sweep 4: stripe-table size under the same skewed stream at 8 threads.
  // One stripe = total collision (every piece shares a latch); 64 = the
  // table's ceiling.
  std::cout << "\nthroughput vs stripe count (striped, 8 threads, skewed):\n";
  TablePrinter by_stripes({"stripes", "q/s"});
  std::uint64_t stripes_expected = 0;
  bool have_stripes_expected = false;
  for (const std::size_t stripes : {1u, 4u, 16u, 64u}) {
    std::uint64_t sum = 0;
    const auto path = MakeAccessPath<std::int64_t>(
        data, StrategyConfig::ParallelCrack(8, /*threads=*/1, stripes));
    const auto result = RunConcurrent(*path, skewed, 8, queries_per_thread, &sum);
    if (!have_stripes_expected) {
      stripes_expected = sum;
      have_stripes_expected = true;
    } else if (sum != stripes_expected) {
      std::cerr << "CHECKSUM MISMATCH at " << stripes << " stripes\n";
      return 1;
    }
    by_stripes.AddRow(
        {std::to_string(stripes),
         std::to_string(static_cast<std::size_t>(result.QueriesPerSecond()))});
    json.AddRow("stripes_sweep")
        .Set("stripes", std::size_t{stripes})
        .Set("threads", std::size_t{8})
        .Set("partitions", std::size_t{8})
        .Set("qps", result.QueriesPerSecond());
  }
  by_stripes.Print(std::cout);

  // Sweep 5: the write-mix axis (docs/CONCURRENCY.md §4, write half).
  // Same skewed read stream, but a fraction of each thread's operations
  // become inserts/deletes spread across the queried value range itself,
  // so reads genuinely contend with the update pipeline. The striped write
  // path parks writes in the per-shard buckets, answers overlapping reads
  // from the overlay, and absorbs batches in background merges on the
  // shared pool once the buffered count crosses the threshold; the
  // baseline runs the same config with every operation behind one
  // exclusive latch. Exactness is asserted per run on the final live tuple
  // count, which is interleaving-free (see RunWriteMix).
  std::cout << "\nthroughput vs write mix (striped-write vs serialized, "
               "8 partitions, skewed):\n";
  TablePrinter by_mix(
      {"write%", "threads", "striped-w ops/s", "serialized ops/s", "ratio"});
  double write_mix_min_ratio_20 = 0;
  auto mix_config = StrategyConfig::ParallelCrack(8, /*threads=*/2);
  mix_config.background_merge_threshold = 64;
  // mode 0 = striped, 1 = the same config serialized.
  const auto make_mix_path = [&](int mode) {
    return mode == 0 ? MakeAccessPath<std::int64_t>(data, mix_config)
                     : MakeSerializedAccessPath<std::int64_t>(data, mix_config);
  };
  for (const std::size_t write_pct : {0u, 5u, 20u}) {
    for (const std::size_t threads : {2u, 4u, 8u}) {
      double cell_qps[2] = {0, 0};
      double ratio = 0;
      // Five repetitions per cell, each running the two modes back-to-back
      // so the pair shares one scheduler/noise environment: the per-pair
      // quotient cancels runner drift that a cross-pair ratio would keep.
      // The cell reports each mode's best throughput and the best paired
      // ratio.
      for (int rep = 0; rep < 5; ++rep) {
        double rep_qps[2] = {0, 0};
        for (int mode = 0; mode < 2; ++mode) {
          const auto path = make_mix_path(mode);
          const auto result = RunWriteMix(
              *path, skewed, threads, queries_per_thread, write_pct, n,
              static_cast<std::int64_t>(n / 10));
          rep_qps[mode] = result.QueriesPerSecond();
          cell_qps[mode] = std::max(cell_qps[mode], rep_qps[mode]);
        }
        if (rep_qps[1] > 0) {
          ratio = std::max(ratio, rep_qps[0] / rep_qps[1]);
        }
      }
      if (write_pct == 20 &&
          (write_mix_min_ratio_20 == 0 || ratio < write_mix_min_ratio_20)) {
        write_mix_min_ratio_20 = ratio;
      }
      by_mix.AddRow({std::to_string(write_pct), std::to_string(threads),
                     std::to_string(static_cast<std::size_t>(cell_qps[0])),
                     std::to_string(static_cast<std::size_t>(cell_qps[1])),
                     Format2(ratio) + "x"});
      csv_rows.push_back({"write_mix_" + std::to_string(write_pct),
                          std::to_string(threads),
                          std::to_string(cell_qps[0]),
                          std::to_string(cell_qps[1])});
      for (int mode = 0; mode < 2; ++mode) {
        json.AddRow("write_mix_sweep")
            .Set("write_pct", write_pct)
            .Set("threads", threads)
            .Set("partitions", std::size_t{8})
            .Set("write_mode", "striped-write")
            .Set("latch_mode", mode == 0 ? "striped" : "serialized")
            .Set("ops_per_s", cell_qps[mode]);
      }
    }
  }
  by_mix.Print(std::cout);

  // Sweep 6: the multi-column write-mix axis. Three same-config paths
  // stand in for a 3-column table's columns; every write triple-touches
  // them (the row-atomic Database pattern), so write contention is 3x
  // sweep 5's per operation. 20% writes, striped-write vs serialized, and
  // the headline records the worst striped/serialized ratio over the
  // thread sweep.
  std::cout << "\nthroughput vs threads, multi-column write mix "
               "(3 columns, 20% writes, 8 partitions, skewed):\n";
  TablePrinter by_multicol(
      {"threads", "striped-w ops/s", "serialized ops/s", "ratio"});
  double multicol_min_ratio = 0;
  for (const std::size_t threads : {2u, 8u}) {
    double cell_qps[2] = {0, 0};
    double ratio = 0;
    for (int rep = 0; rep < 5; ++rep) {
      double rep_qps[2] = {0, 0};
      for (int mode = 0; mode < 2; ++mode) {
        std::array<std::unique_ptr<AccessPath<std::int64_t>>, 3> columns = {
            make_mix_path(mode), make_mix_path(mode), make_mix_path(mode)};
        const auto result = RunMulticolWriteMix(
            {columns[0].get(), columns[1].get(), columns[2].get()}, skewed,
            threads, queries_per_thread, /*write_pct=*/20, n,
            static_cast<std::int64_t>(n));
        rep_qps[mode] = result.QueriesPerSecond();
        cell_qps[mode] = std::max(cell_qps[mode], rep_qps[mode]);
      }
      if (rep_qps[1] > 0) ratio = std::max(ratio, rep_qps[0] / rep_qps[1]);
    }
    if (multicol_min_ratio == 0 || ratio < multicol_min_ratio) {
      multicol_min_ratio = ratio;
    }
    by_multicol.AddRow({std::to_string(threads),
                        std::to_string(static_cast<std::size_t>(cell_qps[0])),
                        std::to_string(static_cast<std::size_t>(cell_qps[1])),
                        Format2(ratio) + "x"});
    csv_rows.push_back({"multicol_write_mix", std::to_string(threads),
                        std::to_string(cell_qps[0]),
                        std::to_string(cell_qps[1])});
    for (int mode = 0; mode < 2; ++mode) {
      json.AddRow("multicol_write_mix")
          .Set("write_pct", std::size_t{20})
          .Set("columns", std::size_t{3})
          .Set("threads", threads)
          .Set("partitions", std::size_t{8})
          .Set("write_mode", "striped-write")
          .Set("latch_mode", mode == 0 ? "striped" : "serialized")
          .Set("ops_per_s", cell_qps[mode]);
    }
  }
  by_multicol.Print(std::cout);

  // The recorded headline the CI gate (scripts/compare_bench.py) checks
  // for presence and shape: striped vs serialized concurrent-select
  // throughput at 8 client threads on the same-partition-skewed stream
  // (the `mutex_*` keys keep their historical names for the gate).
  const double latch_ratio =
      serialized_qps_8t > 0 ? striped_qps_8t / serialized_qps_8t : 0;
  json.AddRow("headline")
      .Set("metric", "same_partition_skew_8_threads")
      .Set("threads", std::size_t{8})
      .Set("partitions", std::size_t{8})
      .Set("striped_qps", striped_qps_8t)
      .Set("mutex_qps", serialized_qps_8t)
      .Set("striped_vs_mutex", latch_ratio)
      .Set("striped_at_least_mutex", latch_ratio >= 1.0);
  std::cout << "\nheadline: striped/serialized throughput at 8 threads (skewed) = "
            << Format2(latch_ratio) << "x\n";

  // Second headline: the write-mix axis at 20% writes — the worst measured
  // striped-write/serialized ratio across the thread sweep.
  json.AddRow("headline")
      .Set("metric", "write_mix_20pct")
      .Set("write_pct", std::size_t{20})
      .Set("striped_write_min_ratio", write_mix_min_ratio_20)
      .Set("striped_write_at_least_mutex", write_mix_min_ratio_20 >= 1.0);
  std::cout << "headline: worst striped-write/serialized ratio at 20% writes = "
            << Format2(write_mix_min_ratio_20) << "x\n";

  // Third headline: the multi-column axis — worst striped-write/serialized
  // ratio when every write fans out to all three columns.
  json.AddRow("headline")
      .Set("metric", "multicol_write_mix")
      .Set("write_pct", std::size_t{20})
      .Set("columns", std::size_t{3})
      .Set("multicol_min_ratio", multicol_min_ratio)
      .Set("multicol_at_least_mutex", multicol_min_ratio >= 1.0);
  std::cout << "headline: worst multi-column striped-write/serialized ratio = "
            << Format2(multicol_min_ratio) << "x\n";

  const std::string csv = bench::CsvPath("e11_parallel_scaling.csv");
  if (!csv.empty()) {
    const Status st =
        WriteCsv(csv, {"sweep", "x", "pcrack_qps", "latched_qps"}, csv_rows);
    if (st.ok()) std::cout << "\nseries written to " << csv << "\n";
  }
  json.Write();
  return 0;
}
