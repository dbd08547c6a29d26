// E12 — Crack-kernel shootout: branchy vs unrolled vs simd
// (core/crack_ops.h) as raw partitioning throughput and as full-workload
// convergence, across value types, tandem payloads, and piece sizes.
//
// The kernels rewrite the innermost loops every strategy bottoms out in;
// this bench is the falsifiable record of what that buys. Sections:
//
//   calibration     the kernel rule in force on this host: the ISA, the
//                   kernel kAuto resolves to (the same for every width) and
//                   the min-piece threshold (nothing here is measured)
//   crack_in_two    raw single-crack throughput per kernel × type × tandem
//   crack_in_three  raw three-way crack throughput per kernel
//   three_way       values-only single-pass crack-in-three vs the two-pass
//                   decomposition, per kernel
//   piece_sweep     throughput vs piece size (shows the dispatch crossover:
//                   below the min-piece threshold all kernels run branchy)
//   convergence     full random-range workloads through CrackerColumn
//                   (crack and stochastic), per kernel
//   converged_sum   ns per Sum on a converged int64 column, the core summed
//                   from the cracker index's cached piece sums (SumIndexed)
//                   vs streamed (SumFrom), each with the select of a fresh
//                   range, and SumIndexed alone on its first and on a
//                   repeated Sum of a just-cracked range, at cores of 92,
//                   1,835 and 14,680 values (engine_bench's serve,
//                   write_mix and converge legs) and at kIndexedSumMinCore,
//                   where SumPartial switches
//   headline        the acceptance metrics on uniform-random int32:
//                   unrolled vs branchy (PR 4), simd vs unrolled (PR 8) and
//                   single-pass vs two-pass three-way, both at the kernel
//                   kAuto resolves to, plus converged_sum_speedup (stream
//                   ns / index ns at the 14,680-value core) and
//                   converged_sum_first_vs_repeat (first ns / repeat ns
//                   there); `note`
//                   documents the outcome either way so a regression (or
//                   vector-hostile hardware) is visible in the recorded
//                   JSON, not silent
//
// `--json` writes BENCH_e12_crack_kernels.json (see bench_common.h);
// scripts/check.sh --bench-smoke runs this at reduced scale on every push.
// Unless AIDX_N overrides it, the raw-kernel sections run at 2^24 rows
// (16.7M — above the 10M the headline claim is stated at); the
// convergence section uses the usual AIDX_N/AIDX_Q defaults.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "crack_two_pass.h"
#include "core/crack_ops.h"
#include "core/cracker_column.h"
#include "exec/access_path.h"
#include "storage/types.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/data_generator.h"
#include "workload/query_generator.h"
#include "workload/report.h"
#include "workload/runner.h"

using namespace aidx;

namespace {

constexpr CrackKernel kKernels[] = {
    CrackKernel::kBranchy,
    CrackKernel::kPredicatedUnrolled,
    CrackKernel::kSimd,
};

bool EnvIsSet(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && raw[0] != '\0';
}

/// Rows for the raw-kernel sections: honour an explicit AIDX_N, otherwise
/// use 2^24 so the headline comparison runs above 10M rows.
std::size_t RawKernelRows() {
  if (EnvIsSet("AIDX_N")) return bench::ColumnSize();
  return std::max(bench::ColumnSize(), std::size_t{1} << 24);
}

template <ColumnValue T>
std::vector<T> UniformValues(std::size_t n, std::uint64_t domain, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> out(n);
  for (auto& v : out) v = static_cast<T>(rng.NextBounded(domain));
  return out;
}

/// Best-of-3 wall time of one `op(dst)` over a fresh copy of `base`. The
/// copy and the per-rep `prep` hook (payload resets and the like) run
/// outside the timed region, so only `op` is measured.
template <ColumnValue T, typename Op, typename Prep>
double BestOfThree(const std::vector<T>& base, Prep&& prep, Op&& op) {
  double best = -1;
  std::vector<T> work(base.size());
  for (int rep = 0; rep < 3; ++rep) {
    std::copy(base.begin(), base.end(), work.begin());
    prep();
    WallTimer timer;
    op(std::span<T>(work));
    const double s = timer.ElapsedSeconds();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

template <ColumnValue T, typename Op>
double BestOfThree(const std::vector<T>& base, Op&& op) {
  return BestOfThree<T>(base, [] {}, std::forward<Op>(op));
}

double MRowsPerSec(std::size_t rows, double seconds) {
  return seconds > 0 ? static_cast<double>(rows) / seconds / 1e6 : 0;
}

/// Runs the crack-in-two matrix for one type; `mrows_out`, when non-null,
/// receives the non-tandem throughput per kernel (indexed by enumerator).
template <ColumnValue T>
void RawCrackInTwoSection(const char* type_name, std::size_t n,
                          bench::JsonReport* json, TablePrinter* table,
                          double* mrows_out) {
  const std::uint64_t domain = 1u << 20;
  const auto base = UniformValues<T>(n, domain, 7);
  const Cut<T> cut{static_cast<T>(domain / 2), CutKind::kLess};
  std::vector<row_id_t> rids(n);
  for (const bool tandem : {false, true}) {
    for (const CrackKernel kernel : kKernels) {
      const double secs = BestOfThree<T>(
          base,
          [&] {
            if (!tandem) return;
            for (std::size_t i = 0; i < rids.size(); ++i) {
              rids[i] = static_cast<row_id_t>(i);
            }
          },
          [&](std::span<T> work) {
            if (tandem) {
              CrackInTwo<T>(work, std::span<row_id_t>(rids), cut, kernel);
            } else {
              CrackInTwo<T>(work, {}, cut, kernel);
            }
          });
      const double mrows = MRowsPerSec(n, secs);
      json->AddRow("crack_in_two")
          .Set("type", type_name)
          .Set("tandem", tandem)
          .Set("kernel", CrackKernelName(kernel))
          .Set("rows", n)
          .Set("seconds", secs)
          .Set("mrows_per_s", mrows);
      table->AddRow({std::string(type_name) + (tandem ? "+rid" : ""),
                     CrackKernelName(kernel), FormatSeconds(secs),
                     std::to_string(static_cast<long long>(mrows)) + " Mrows/s"});
      if (!tandem && mrows_out != nullptr) {
        mrows_out[static_cast<std::size_t>(kernel)] = mrows;
      }
    }
  }
}

void RawCrackInThreeSection(std::size_t n, bench::JsonReport* json,
                            TablePrinter* table) {
  const std::uint64_t domain = 1u << 20;
  const auto base = UniformValues<std::int64_t>(n, domain, 11);
  const Cut<std::int64_t> lo{static_cast<std::int64_t>(domain / 3), CutKind::kLess};
  const Cut<std::int64_t> hi{static_cast<std::int64_t>(2 * domain / 3),
                             CutKind::kLessEq};
  for (const CrackKernel kernel : kKernels) {
    const double secs = BestOfThree<std::int64_t>(
        base, [&](std::span<std::int64_t> work) {
          CrackInThree<std::int64_t>(work, {}, lo, hi, kernel);
        });
    const double mrows = MRowsPerSec(n, secs);
    json->AddRow("crack_in_three")
        .Set("type", "int64")
        .Set("kernel", CrackKernelName(kernel))
        .Set("rows", n)
        .Set("seconds", secs)
        .Set("mrows_per_s", mrows);
    table->AddRow({"int64 3-way", CrackKernelName(kernel), FormatSeconds(secs),
                   std::to_string(static_cast<long long>(mrows)) + " Mrows/s"});
  }
}

/// Values-only single-pass crack-in-three against the two-pass
/// decomposition, on uniform-random int32 with thirds cuts. Returns (via
/// outs) the two legs of the three_way headline, both at the kernel kAuto
/// resolves to, so the ratio compares the two forms and nothing else.
void ThreeWaySection(std::size_t n, bench::JsonReport* json,
                     TablePrinter* table, double* single_default_out,
                     double* twopass_default_out) {
  const std::uint64_t domain = 1u << 20;
  const auto base = UniformValues<std::int32_t>(n, domain, 17);
  const Cut<std::int32_t> lo{static_cast<std::int32_t>(domain / 3),
                             CutKind::kLess};
  const Cut<std::int32_t> hi{static_cast<std::int32_t>(2 * domain / 3),
                             CutKind::kLessEq};
  const CrackKernel resolved = ResolveCrackKernel(CrackKernel::kAuto);
  for (const bool single : {true, false}) {
    for (const CrackKernel kernel : kKernels) {
      const double secs = BestOfThree<std::int32_t>(
          base, [&](std::span<std::int32_t> work) {
            if (single) {
              CrackInThree<std::int32_t>(work, {}, lo, hi, kernel);
            } else {
              CrackInThreeTwoPass<std::int32_t>(work, {}, lo, hi, kernel);
            }
          });
      const double mrows = MRowsPerSec(n, secs);
      json->AddRow("three_way")
          .Set("type", "int32")
          .Set("mode", single ? "single_pass" : "two_pass")
          .Set("kernel", CrackKernelName(kernel))
          .Set("rows", n)
          .Set("seconds", secs)
          .Set("mrows_per_s", mrows);
      table->AddRow({single ? "single-pass" : "two-pass",
                     CrackKernelName(kernel), FormatSeconds(secs),
                     std::to_string(static_cast<long long>(mrows)) +
                         " Mrows/s"});
      if (kernel == resolved) {
        *(single ? single_default_out : twopass_default_out) = mrows;
      }
    }
  }
}

/// Records the kernel rule in force on this host, so archived bench JSON
/// ties every number to the kernel defaults that produced it.
void CalibrationSection(bench::JsonReport* json) {
  const CrackKernel resolved = ResolveCrackKernel(CrackKernel::kAuto);
  json->AddRow("calibration")
      .Set("simd_available", internal::SimdKernelAvailable())
      .Set("isa", internal::SimdIsaName())
      .Set("kernel_w4", CrackKernelName(resolved))
      .Set("kernel_w8", CrackKernelName(resolved))
      .Set("min_piece_w4", kCrackMinPiece)
      .Set("min_piece_w8", kCrackMinPiece);
  std::cout << "kernel rule: isa=" << internal::SimdIsaName()
            << " auto=" << CrackKernelName(resolved) << "(mp" << kCrackMinPiece
            << ")\n\n";
}

void PieceSweepSection(std::size_t total, bench::JsonReport* json,
                       TablePrinter* table) {
  const std::uint64_t domain = 1u << 20;
  const auto base = UniformValues<std::int64_t>(total, domain, 13);
  const Cut<std::int64_t> cut{static_cast<std::int64_t>(domain / 2), CutKind::kLess};
  for (const std::size_t piece :
       {std::size_t{64}, std::size_t{256}, std::size_t{1} << 12,
        std::size_t{1} << 16, std::size_t{1} << 20}) {
    if (piece > total) continue;
    const std::size_t pieces = total / piece;
    std::vector<std::string> row_cells{("piece " + std::to_string(piece))};
    for (const CrackKernel kernel : kKernels) {
      const double secs =
          BestOfThree<std::int64_t>(base, [&](std::span<std::int64_t> work) {
            for (std::size_t p = 0; p < pieces; ++p) {
              CrackInTwo<std::int64_t>(work.subspan(p * piece, piece), {}, cut,
                                       kernel);
            }
          });
      const double mrows = MRowsPerSec(pieces * piece, secs);
      json->AddRow("piece_sweep")
          .Set("piece_size", piece)
          .Set("kernel", CrackKernelName(kernel))
          .Set("rows", pieces * piece)
          .Set("seconds", secs)
          .Set("mrows_per_s", mrows);
      row_cells.push_back(std::to_string(static_cast<long long>(mrows)));
    }
    table->AddRow(row_cells);
  }
}

void ConvergenceSection(bench::JsonReport* json, TablePrinter* table) {
  const std::size_t n = bench::ColumnSize();
  const std::size_t q = bench::NumQueries();
  const auto data = GenerateData({.n = n, .domain = static_cast<std::int64_t>(n),
                                  .distribution = DataDistribution::kUniform,
                                  .seed = 7});
  const auto queries = GenerateQueries({.pattern = QueryPattern::kRandom,
                                        .num_queries = q,
                                        .domain = static_cast<std::int64_t>(n),
                                        .selectivity = 0.001,
                                        .seed = 13});
  for (const bool stochastic : {false, true}) {
    for (const CrackKernel kernel : kKernels) {
      StrategyConfig config = stochastic ? StrategyConfig::StochasticCrack()
                                         : StrategyConfig::Crack();
      config.crack_kernel = kernel;
      const RunResult run = RunWorkload(data, config, queries, "random");
      json->AddRow("convergence")
          .Set("strategy", stochastic ? "stochastic" : "crack")
          .Set("kernel", CrackKernelName(kernel))
          .Set("rows", n)
          .Set("queries", q)
          .Set("total_seconds", run.total_seconds())
          .Set("first_query_seconds", run.first_query_seconds())
          .Set("tail_mean_seconds", run.tail_mean(100));
      table->AddRow({run.strategy, CrackKernelName(kernel),
                     FormatSeconds(run.total_seconds()),
                     FormatSeconds(run.tail_mean(100))});
    }
  }
}

/// Sum on a converged column, index against stream. The column (int64,
/// domain n, so a range of width w holds about w values) is converged by
/// n/128 random-range Sums answered as SumPartial answers them, which
/// leaves pieces of about 64 values with most piece sums cached. The stream
/// and index legs each time a Select of a fresh random range plus its Sum,
/// so both pay the same select (a crack of the two boundary pieces) and
/// differ only in how the core is summed; a crack of a summed piece keeps
/// both halves' sums, so the index leg refills nothing. The first and
/// repeat legs time SumIndexed alone, each after an untimed select: the
/// first Sum of a fresh range, after the select that cracked it, and a
/// repeat of the same range. The block kinds alternate. Returns the
/// ratios at 14,680 values.
struct ConvergedSumRatios {
  double speedup = 0;          // stream ns / index ns
  double first_vs_repeat = 0;  // first ns / repeat ns
};
ConvergedSumRatios ConvergedSumSection(std::size_t n, bench::JsonReport* json,
                                       TablePrinter* table) {
  using T = std::int64_t;
  const auto base = UniformValues<T>(n, n, 19);
  CrackerColumn<T> col(base, {.with_row_ids = false});
  Rng rng(29);
  const auto random_range = [&](std::size_t width) {
    const auto lo = static_cast<T>(rng.NextBounded(n - width));
    return RangePredicate<T>::Between(lo, lo + static_cast<T>(width) - 1);
  };
  for (std::size_t q = 0; q < n / 128; ++q) {
    col.SumPartial(random_range(1 + rng.NextBounded(std::min<std::size_t>(n / 4, 16384))));
  }
  constexpr int kBlocks = 10;
  constexpr int kPerBlock = 200;
  enum Leg { kStream, kIndex, kFirst, kRepeat, kLegs };
  constexpr const char* kLegNames[kLegs] = {"stream", "index", "first", "repeat"};
  Int128 sink = 0;
  ConvergedSumRatios at_converge;
  std::vector<RangePredicate<T>> preds(kPerBlock);
  for (const std::size_t width :
       {std::size_t{92}, std::size_t{1835}, kIndexedSumMinCore, std::size_t{14680}}) {
    double seconds[kLegs] = {0, 0, 0, 0};
    for (int block = 0; block < 3 * kBlocks; ++block) {
      for (RangePredicate<T>& pred : preds) pred = random_range(width);
      if (block % 3 != 2) {
        const bool index = block % 3 == 1;
        WallTimer timer;
        for (const RangePredicate<T>& pred : preds) {
          const CrackSelect sel = col.Select(pred);
          sink += index ? col.SumIndexed(sel, pred) : col.SumFrom(sel, pred);
        }
        seconds[index ? kIndex : kStream] += timer.ElapsedSeconds();
        continue;
      }
      // Each Sum is timed alone, right after its own select (the first
      // one cracks, the repeat finds both cuts realized), so both read a
      // path the select has just walked.
      for (const RangePredicate<T>& pred : preds) {
        for (const Leg leg : {kFirst, kRepeat}) {
          const CrackSelect sel = col.Select(pred);
          WallTimer timer;
          sink += col.SumIndexed(sel, pred);
          seconds[leg] += timer.ElapsedSeconds();
        }
      }
    }
    double ns[kLegs] = {};
    for (int leg = 0; leg < kLegs; ++leg) {
      ns[leg] = seconds[leg] / (kBlocks * kPerBlock) * 1e9;
      json->AddRow("converged_sum")
          .Set("core_values", width)
          .Set("mode", kLegNames[leg])
          .Set("rows", n)
          .Set("sums", std::size_t{kBlocks * kPerBlock})
          .Set("ns_per_sum", ns[leg]);
    }
    const double speedup = ns[kIndex] > 0 ? ns[kStream] / ns[kIndex] : 0;
    const double first_vs_repeat = ns[kRepeat] > 0 ? ns[kFirst] / ns[kRepeat] : 0;
    if (width == 14680) at_converge = {speedup, first_vs_repeat};
    std::vector<std::string> cells{std::to_string(width)};
    for (const double v : ns) cells.push_back(std::to_string(static_cast<long long>(v)));
    cells.push_back(std::to_string(speedup));
    cells.push_back(std::to_string(first_vs_repeat));
    table->AddRow(cells);
  }
  // `sink` keeps the sums live; it is the same every run.
  std::cout << "(checksum " << static_cast<long double>(sink) << ")\n";
  return at_converge;
}

/// Cost contract of the fault-injection framework (docs/ROBUSTNESS.md):
/// the piece gate on the crack path is one relaxed atomic load when
/// disarmed, and CI holds the implied end-to-end overhead at <= 2% of
/// query time. Three measurements: (1) the disarmed gate itself, timed
/// over 2^24 calls; (2) how many gates one full cracked workload actually
/// evaluates, counted by arming crack.piece as a zero-delay no-op in an
/// untimed pass; (3) the identical workload timed with the gate disarmed.
/// overhead_pct = gates * gate_cost / workload_time. In an
/// -DAIDX_NO_FAILPOINTS=ON build the gate compiles to nothing and the
/// evaluation count is zero, so the headline degenerates to 0 there.
void FailpointOverheadSection(bench::JsonReport* json, double* gate_ns_out,
                              double* overhead_pct_out) {
  constexpr std::size_t kCalls = std::size_t{1} << 24;
  failpoints::crack_piece.Disarm();
  std::uint64_t live = 0;
  WallTimer gate_timer;
  for (std::size_t i = 0; i < kCalls; ++i) {
    live += failpoints::crack_piece.Inject().ok() ? 1 : 0;
  }
  const double gate_secs =
      gate_timer.ElapsedSeconds() / static_cast<double>(kCalls);

  const std::size_t n = bench::ColumnSize();
  const std::size_t q = bench::NumQueries();
  const auto data = GenerateData({.n = n, .domain = static_cast<std::int64_t>(n),
                                  .distribution = DataDistribution::kUniform,
                                  .seed = 7});
  const auto queries = GenerateQueries({.pattern = QueryPattern::kRandom,
                                        .num_queries = q,
                                        .domain = static_cast<std::int64_t>(n),
                                        .selectivity = 0.001,
                                        .seed = 13});
  // Untimed counting pass: a zero-delay armed gate is observationally a
  // no-op but bumps the evaluation counter on every piece-loop visit.
  FailpointPolicy counting;
  counting.mode = FailpointMode::kDelay;
  counting.delay_micros = 0;
  failpoints::crack_piece.Arm(counting);
  failpoints::crack_piece.ResetCounters();
  {
    CrackerColumn<std::int64_t> col(data, {.with_row_ids = false});
    for (const auto& pred : queries) live += col.Count(pred);
  }
  const auto gates = static_cast<double>(failpoints::crack_piece.evaluations());
  failpoints::crack_piece.Disarm();

  // Timed pass, disarmed gates: best of three fresh-column runs.
  double best = -1;
  for (int rep = 0; rep < 3; ++rep) {
    CrackerColumn<std::int64_t> col(data, {.with_row_ids = false});
    WallTimer timer;
    for (const auto& pred : queries) live += col.Count(pred);
    const double s = timer.ElapsedSeconds();
    if (best < 0 || s < best) best = s;
  }
  // `live` feeds the JSON so none of the loops can be optimized away.
  const double gate_ns = gate_secs * 1e9;
  const double overhead_pct = best > 0 ? 100.0 * gates * gate_secs / best : 0.0;
  json->AddRow("failpoint_overhead")
      .Set("gate_ns", gate_ns)
      .Set("gates_evaluated", gates)
      .Set("queries", q)
      .Set("workload_seconds", best)
      .Set("overhead_pct", overhead_pct)
      .Set("live_checksum", static_cast<double>(live));
  std::cout << "\nfailpoint gate: " << gate_ns << " ns disarmed; " << gates
            << " gates over " << q << " cracked queries => " << overhead_pct
            << "% of query time\n";
  *gate_ns_out = gate_ns;
  *overhead_pct_out = overhead_pct;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json("e12_crack_kernels", argc, argv);
  bench::PrintHeader(
      "E12 crack kernels: branchy vs unrolled vs simd",
      "DaMoN'14 predication argument over the EDBT'12 kernels");
  const std::size_t raw_n = RawKernelRows();
  std::cout << "raw kernels: " << raw_n << " uniform values; convergence: "
            << bench::ColumnSize() << " values x " << bench::NumQueries()
            << " queries\n\n";

  CalibrationSection(&json);

  double i32_mrows[kNumCrackKernels] = {};

  std::cout << "raw crack-in-two throughput:\n";
  TablePrinter raw({"input", "kernel", "time", "throughput"});
  RawCrackInTwoSection<std::int32_t>("int32", raw_n, &json, &raw, i32_mrows);
  RawCrackInTwoSection<std::int64_t>("int64", raw_n, &json, &raw, nullptr);
  RawCrackInTwoSection<double>("float64", raw_n, &json, &raw, nullptr);
  RawCrackInThreeSection(raw_n, &json, &raw);
  raw.Print(std::cout);

  std::cout << "\nsingle-pass crack-in-three vs two-pass decomposition:\n";
  TablePrinter three({"mode", "kernel", "time", "throughput"});
  double single_default = 0;
  double twopass_default = 0;
  ThreeWaySection(raw_n, &json, &three, &single_default, &twopass_default);
  three.Print(std::cout);

  std::cout << "\npiece-size sweep "
               "(Mrows/s: branchy | unrolled | simd):\n";
  TablePrinter sweep({"piece", "branchy", "unrolled", "simd"});
  PieceSweepSection(std::min(raw_n, std::size_t{1} << 22), &json, &sweep);
  sweep.Print(std::cout);

  std::cout << "\nfull-workload convergence:\n";
  TablePrinter conv({"strategy", "kernel", "total", "tail mean"});
  ConvergenceSection(&json, &conv);
  conv.Print(std::cout);

  std::cout << "\nconverged Sum, ns per Sum (min index core "
            << kIndexedSumMinCore << "):\n";
  TablePrinter sums({"core", "stream ns", "index ns", "first ns", "repeat ns",
                      "stream/index", "first/repeat"});
  // At least 2^16 rows, so a 14,680-value range fits four times over.
  const ConvergedSumRatios converged_sum =
      ConvergedSumSection(std::max(raw_n, std::size_t{1} << 16), &json, &sums);
  sums.Print(std::cout);

  double gate_ns = 0;
  double failpoint_overhead_pct = 0;
  FailpointOverheadSection(&json, &gate_ns, &failpoint_overhead_pct);

  // Headline acceptance metrics on uniform int32: unrolled vs branchy
  // (PR 4), simd vs unrolled (PR 8) and single-pass vs two-pass three-way
  // at the kernel kAuto resolves to.
  const double branchy_i32 =
      i32_mrows[static_cast<std::size_t>(CrackKernel::kBranchy)];
  const double unrolled_i32 =
      i32_mrows[static_cast<std::size_t>(CrackKernel::kPredicatedUnrolled)];
  const double simd_i32 = i32_mrows[static_cast<std::size_t>(CrackKernel::kSimd)];
  const double speedup = branchy_i32 > 0 ? unrolled_i32 / branchy_i32 : 0;
  const bool wins = speedup > 1.0;
  const double simd_vs_unrolled = unrolled_i32 > 0 ? simd_i32 / unrolled_i32 : 0;
  const double three_way_speedup =
      twopass_default > 0 ? single_default / twopass_default : 0;
  const bool simd_active = internal::SimdKernelAvailable();
  std::string note;
  if (wins) {
    note = "unrolled beats branchy on uniform-random int32 at this scale";
  } else {
    note = "unrolled did NOT beat branchy on this hardware at this scale: "
           "likely causes are a branch predictor absorbing the 50/50 pattern "
           "(unlikely on random data), a memory-bandwidth-bound machine where "
           "the blocked kernel's extra passes over each block erase its "
           "mispredict win, or a reduced-scale run (AIDX_N set low) where "
           "fixed costs dominate; rerun at >= 10M rows before reading this "
           "as a kernel regression";
  }
  if (!simd_active) {
    note += "; kSimd ran the scalar blocked classifier (no AVX2/NEON), so "
            "simd_vs_unrolled ~1.0 is expected, not a regression";
  }
  json.AddRow("headline")
      .Set("type", "int32")
      .Set("rows", raw_n)
      .Set("branchy_mrows_per_s", branchy_i32)
      .Set("unrolled_mrows_per_s", unrolled_i32)
      .Set("simd_mrows_per_s", simd_i32)
      .Set("speedup", speedup)
      .Set("unrolled_beats_branchy", wins)
      .Set("simd_available", simd_active)
      .Set("simd_vs_unrolled", simd_vs_unrolled)
      .Set("three_way_single_mrows_per_s", single_default)
      .Set("three_way_twopass_mrows_per_s", twopass_default)
      .Set("three_way_speedup", three_way_speedup)
      // Robustness PR acceptance: disarmed failpoint gates must cost <= 2%
      // of cracked-query time (compare_bench.py holds the bound).
      .Set("failpoint_gate_ns", gate_ns)
      .Set("failpoint_overhead_pct", failpoint_overhead_pct)
      .Set("converged_sum_speedup", converged_sum.speedup)
      .Set("converged_sum_first_vs_repeat", converged_sum.first_vs_repeat)
      .Set("note", note);
  std::cout << "\nheadline: unrolled/branchy speedup on int32 = " << speedup
            << (wins ? " (unrolled wins)" : " — see note in JSON output")
            << "\nheadline: simd/unrolled crack-in-two on int32 = "
            << simd_vs_unrolled << (simd_active ? "" : " (scalar fallback)")
            << "\nheadline: single-pass/two-pass crack-in-three = "
            << three_way_speedup
            << "\nheadline: converged Sum stream/index at 14,680 values = "
            << converged_sum.speedup
            << "\nheadline: converged SumIndexed first/repeat at 14,680 values = "
            << converged_sum.first_vs_repeat << "\n";

  json.Write();
  return 0;
}
