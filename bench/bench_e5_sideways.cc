// E5 — Sideways cracking for tuple reconstruction (SIGMOD'09 Figs. 8/10
// shape): select on A, project k other columns, under four strategies:
//   sideways    cracker maps, tails travel with the head (this paper);
//   late-mat    crack one column with row ids, gather each tail (random
//               access per row — the non-clustered baseline);
//   presorted   offline: argsort A once, permute every column (clustered
//               baseline; first query pays the full reorganization);
//   scan        no index, filter + collect per query.
//
// Expected shape: sideways converges to presorted-like per-query cost
// without the presorted first-query spike, and beats late-mat increasingly
// as the projection widens.
#include <iostream>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "core/cracker_column.h"
#include "exec/operators.h"
#include "index/sorted_index.h"
#include "sideways/sideways.h"
#include "storage/table.h"
#include "util/timer.h"
#include "workload/data_generator.h"
#include "workload/query_generator.h"
#include "workload/report.h"

using namespace aidx;

namespace {

using Pred = RangePredicate<std::int64_t>;

struct Timings {
  double first = 0;
  double total = 0;
  double tail = 0;  // mean of last 100 queries
  std::uint64_t checksum = 0;
};

Timings Summarize(const std::vector<double>& seconds, std::uint64_t checksum) {
  Timings t;
  t.checksum = checksum;
  t.first = seconds.empty() ? 0 : seconds.front();
  for (const double s : seconds) t.total += s;
  const std::size_t w = std::min<std::size_t>(100, seconds.size());
  for (std::size_t i = seconds.size() - w; i < seconds.size(); ++i) {
    t.tail += seconds[i];
  }
  t.tail /= static_cast<double>(w);
  return t;
}

}  // namespace

int main() {
  bench::PrintHeader("E5 sideways cracking: multi-column select-project",
                     "tutorial §2 'Sideways Cracking' / SIGMOD'09 reconstruction figures");
  const std::size_t n = bench::ColumnSize() / 2;
  const std::size_t q = bench::NumQueries() / 2;
  const auto domain = static_cast<std::int64_t>(n);
  constexpr std::size_t kMaxTails = 8;

  const auto head = GenerateData({.n = n, .domain = domain, .seed = 7});
  std::vector<std::vector<std::int64_t>> tails(kMaxTails);
  for (std::size_t t = 0; t < kMaxTails; ++t) {
    tails[t] = GenerateData({.n = n, .domain = domain, .seed = 100 + t});
  }
  // The sideways cracker reads its base through a table (loaded once, off
  // the clock); the other strategies borrow the same values as spans.
  Table base("t");
  AIDX_CHECK_OK(base.AddColumn("head", head));
  for (std::size_t t = 0; t < kMaxTails; ++t) {
    AIDX_CHECK_OK(base.AddColumn("t" + std::to_string(t), tails[t]));
  }
  const auto queries = GenerateQueries({.num_queries = q,
                                        .domain = domain,
                                        .selectivity = 0.001,
                                        .seed = 13});

  std::cout << "N=" << n << ", Q=" << q << ", selectivity 0.1%, SUM over each "
            << "projected column\n";
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    std::vector<std::string> proj;
    for (std::size_t t = 0; t < k; ++t) proj.push_back("t" + std::to_string(t));

    // --- sideways ---
    Timings sideways;
    {
      std::vector<double> seconds;
      std::uint64_t checksum = 0;
      std::unique_ptr<SidewaysCracker<std::int64_t>> cracker;
      for (const auto& pred : queries) {
        WallTimer timer;
        if (cracker == nullptr) {
          cracker = std::make_unique<SidewaysCracker<std::int64_t>>(&base, "head");
          for (std::size_t t = 0; t < kMaxTails; ++t) {
            AIDX_CHECK_OK(cracker->AddTailColumn("t" + std::to_string(t)));
          }
        }
        long double sum = 0;
        auto res = cracker->SelectProject(pred, proj);
        AIDX_CHECK(res.ok()) << res.status().ToString();
        for (const auto& col : res->columns) {
          for (const auto v : col) sum += v;
        }
        seconds.push_back(timer.ElapsedSeconds());
        checksum += static_cast<std::uint64_t>(sum);
      }
      sideways = Summarize(seconds, checksum);
    }

    // --- late materialization (crack + gather) ---
    Timings late;
    {
      std::vector<double> seconds;
      std::uint64_t checksum = 0;
      std::unique_ptr<CrackerColumn<std::int64_t>> col;
      for (const auto& pred : queries) {
        WallTimer timer;
        if (col == nullptr) {
          col = std::make_unique<CrackerColumn<std::int64_t>>(
              head, CrackerColumnOptions{.with_row_ids = true});
        }
        const CrackSelect sel = col->Select(pred);
        std::vector<row_id_t> rids;
        col->MaterializeRowIds(sel, pred, &rids);
        long double sum = 0;
        for (std::size_t t = 0; t < k; ++t) {
          sum += GatherSum<std::int64_t>(tails[t], rids);
        }
        seconds.push_back(timer.ElapsedSeconds());
        checksum += static_cast<std::uint64_t>(sum);
      }
      late = Summarize(seconds, checksum);
    }

    // --- presorted clustered (offline) ---
    Timings presorted;
    {
      std::vector<double> seconds;
      std::uint64_t checksum = 0;
      std::unique_ptr<FullSortIndex<std::int64_t>> index;
      std::vector<std::vector<std::int64_t>> clustered;
      for (const auto& pred : queries) {
        WallTimer timer;
        if (index == nullptr) {
          index = std::make_unique<FullSortIndex<std::int64_t>>(
              head, typename FullSortIndex<std::int64_t>::Options{.with_row_ids = true});
          clustered.reserve(kMaxTails);
          for (std::size_t t = 0; t < kMaxTails; ++t) {
            clustered.push_back(
                ApplyPermutation<std::int64_t>(tails[t], index->row_ids()));
          }
        }
        const PositionRange r = index->SelectRange(pred);
        long double sum = 0;
        for (std::size_t t = 0; t < k; ++t) {
          sum += std::accumulate(clustered[t].begin() + static_cast<std::ptrdiff_t>(r.begin),
                                 clustered[t].begin() + static_cast<std::ptrdiff_t>(r.end),
                                 0.0L);
        }
        seconds.push_back(timer.ElapsedSeconds());
        checksum += static_cast<std::uint64_t>(sum);
      }
      presorted = Summarize(seconds, checksum);
    }

    // --- scan ---
    Timings scan;
    {
      std::vector<double> seconds;
      std::uint64_t checksum = 0;
      for (const auto& pred : queries) {
        WallTimer timer;
        long double sum = 0;
        for (std::size_t i = 0; i < head.size(); ++i) {
          if (pred.Matches(head[i])) {
            for (std::size_t t = 0; t < k; ++t) sum += tails[t][i];
          }
        }
        seconds.push_back(timer.ElapsedSeconds());
        checksum += static_cast<std::uint64_t>(sum);
      }
      scan = Summarize(seconds, checksum);
    }

    AIDX_CHECK(sideways.checksum == late.checksum &&
               late.checksum == presorted.checksum && presorted.checksum == scan.checksum)
        << "projection checksums diverged at k=" << k;

    std::cout << "\nproject " << k << " column(s):\n";
    TablePrinter table({"strategy", "first query", "steady state", "total"});
    table.AddRow({"sideways", FormatSeconds(sideways.first),
                  FormatSeconds(sideways.tail), FormatSeconds(sideways.total)});
    table.AddRow({"late-mat", FormatSeconds(late.first), FormatSeconds(late.tail),
                  FormatSeconds(late.total)});
    table.AddRow({"presorted", FormatSeconds(presorted.first),
                  FormatSeconds(presorted.tail), FormatSeconds(presorted.total)});
    table.AddRow({"scan", FormatSeconds(scan.first), FormatSeconds(scan.tail),
                  FormatSeconds(scan.total)});
    table.Print(std::cout);
  }
  return 0;
}
