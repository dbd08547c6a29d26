// E12 — Crack-kernel shootout: branchy vs predicated vs unrolled
// (core/crack_ops.h) as raw partitioning throughput and as full-workload
// convergence, across value types, tandem payloads, and piece sizes.
//
// The kernels rewrite the innermost loops every strategy bottoms out in;
// this bench is the falsifiable record of what that buys. Sections:
//
//   calibration     what the startup kernel autotuner picked on this host
//                   (ISA, per-width kernel and min-piece threshold)
//   crack_in_two    raw single-crack throughput per kernel × type × tandem
//   crack_in_three  raw three-way crack throughput per kernel
//   three_way       single-pass crack-in-three vs the two-pass decomposition
//                   it replaced, per kernel
//   piece_sweep     throughput vs piece size (shows the dispatch crossover:
//                   below the min-piece threshold all kernels run branchy)
//   convergence     full random-range workloads through CrackerColumn
//                   (crack and stochastic), per kernel
//   headline        the acceptance metrics on uniform-random int32:
//                   predicated vs branchy (PR 4), simd vs unrolled and
//                   single-pass vs two-pass three-way (PR 8); `note`
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
#include "core/kernel_autotune.h"
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
    CrackKernel::kPredicated,
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

/// Single-pass crack-in-three against the two-pass decomposition it
/// replaced, on uniform-random int32 with thirds cuts. Returns (via outs)
/// the two legs of the three_way headline: single-pass at the host default
/// (kAuto resolved) and two-pass at kPredicatedUnrolled — the exact
/// configuration CrackInThree used before the single-pass landed.
void ThreeWaySection(std::size_t n, bench::JsonReport* json,
                     TablePrinter* table, double* single_default_out,
                     double* twopass_unrolled_out) {
  const std::uint64_t domain = 1u << 20;
  const auto base = UniformValues<std::int32_t>(n, domain, 17);
  const Cut<std::int32_t> lo{static_cast<std::int32_t>(domain / 3),
                             CutKind::kLess};
  const Cut<std::int32_t> hi{static_cast<std::int32_t>(2 * domain / 3),
                             CutKind::kLessEq};
  const CrackKernel resolved =
      ResolveCrackKernel(CrackKernel::kAuto, sizeof(std::int32_t));
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
      if (single && kernel == resolved && single_default_out != nullptr) {
        *single_default_out = mrows;
      }
      if (!single && kernel == CrackKernel::kPredicatedUnrolled &&
          twopass_unrolled_out != nullptr) {
        *twopass_unrolled_out = mrows;
      }
    }
  }
}

/// Records what the startup autotuner decided on this host, so archived
/// bench JSON ties every number to the kernel defaults in force.
void CalibrationSection(bench::JsonReport* json) {
  const KernelCalibration& cal = Calibrate();
  auto& row = json->AddRow("calibration");
  row.Set("calibrated", cal.calibrated)
      .Set("simd_available", cal.simd_available)
      .Set("isa", cal.isa)
      .Set("kernel_w4", CrackKernelName(cal.kernel_w4))
      .Set("kernel_w8", CrackKernelName(cal.kernel_w8))
      .Set("min_piece_w4", cal.min_piece_w4)
      .Set("min_piece_w8", cal.min_piece_w8);
  for (std::size_t k = 0; k < kNumCrackKernels; ++k) {
    const auto kernel = static_cast<CrackKernel>(k);
    row.Set(std::string("sweep_w4_") + CrackKernelName(kernel), cal.mrows_w4[k])
        .Set(std::string("sweep_w8_") + CrackKernelName(kernel),
             cal.mrows_w8[k]);
  }
  std::cout << "calibration: isa=" << cal.isa << " w4="
            << CrackKernelName(cal.kernel_w4) << "(mp" << cal.min_piece_w4
            << ") w8=" << CrackKernelName(cal.kernel_w8) << "(mp"
            << cal.min_piece_w8 << ")"
            << (cal.calibrated ? "" : " [calibration disabled: fallbacks]")
            << "\n\n";
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
      "E12 crack kernels: branchy vs predicated vs unrolled vs simd",
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
  double twopass_unrolled = 0;
  ThreeWaySection(raw_n, &json, &three, &single_default, &twopass_unrolled);
  three.Print(std::cout);

  std::cout << "\npiece-size sweep "
               "(Mrows/s: branchy | predicated | unrolled | simd):\n";
  TablePrinter sweep({"piece", "branchy", "predicated", "unrolled", "simd"});
  PieceSweepSection(std::min(raw_n, std::size_t{1} << 22), &json, &sweep);
  sweep.Print(std::cout);

  std::cout << "\nfull-workload convergence:\n";
  TablePrinter conv({"strategy", "kernel", "total", "tail mean"});
  ConvergenceSection(&json, &conv);
  conv.Print(std::cout);

  double gate_ns = 0;
  double failpoint_overhead_pct = 0;
  FailpointOverheadSection(&json, &gate_ns, &failpoint_overhead_pct);

  // Headline acceptance metrics on uniform int32: predicated vs branchy
  // (PR 4), simd vs unrolled and single-pass vs two-pass three-way (PR 8).
  const double branchy_i32 =
      i32_mrows[static_cast<std::size_t>(CrackKernel::kBranchy)];
  const double predicated_i32 =
      i32_mrows[static_cast<std::size_t>(CrackKernel::kPredicated)];
  const double unrolled_i32 =
      i32_mrows[static_cast<std::size_t>(CrackKernel::kPredicatedUnrolled)];
  const double simd_i32 = i32_mrows[static_cast<std::size_t>(CrackKernel::kSimd)];
  const double speedup = branchy_i32 > 0 ? predicated_i32 / branchy_i32 : 0;
  const bool wins = speedup > 1.0;
  const double simd_vs_unrolled = unrolled_i32 > 0 ? simd_i32 / unrolled_i32 : 0;
  const double three_way_speedup =
      twopass_unrolled > 0 ? single_default / twopass_unrolled : 0;
  const bool simd_active = Calibrate().simd_available;
  std::string note;
  if (wins) {
    note = "predicated beats branchy on uniform-random int32 at this scale";
  } else {
    note = "predicated did NOT beat branchy on this hardware at this scale: "
           "likely causes are a branch predictor absorbing the 50/50 pattern "
           "(unlikely on random data), a memory-bandwidth-bound machine where "
           "predication's extra load per element erases its mispredict win, "
           "or a reduced-scale run (AIDX_N set low) where fixed costs "
           "dominate; rerun at >= 10M rows before reading this as a kernel "
           "regression";
  }
  if (!simd_active) {
    note += "; kSimd ran the scalar blocked classifier (no AVX2/NEON), so "
            "simd_vs_unrolled ~1.0 is expected, not a regression";
  }
  json.AddRow("headline")
      .Set("type", "int32")
      .Set("rows", raw_n)
      .Set("branchy_mrows_per_s", branchy_i32)
      .Set("predicated_mrows_per_s", predicated_i32)
      .Set("unrolled_mrows_per_s", unrolled_i32)
      .Set("simd_mrows_per_s", simd_i32)
      .Set("speedup", speedup)
      .Set("predicated_beats_branchy", wins)
      .Set("simd_available", simd_active)
      .Set("simd_vs_unrolled", simd_vs_unrolled)
      .Set("three_way_single_mrows_per_s", single_default)
      .Set("three_way_twopass_mrows_per_s", twopass_unrolled)
      .Set("three_way_speedup", three_way_speedup)
      // Robustness PR acceptance: disarmed failpoint gates must cost <= 2%
      // of cracked-query time (compare_bench.py holds the bound).
      .Set("failpoint_gate_ns", gate_ns)
      .Set("failpoint_overhead_pct", failpoint_overhead_pct)
      .Set("note", note);
  std::cout << "\nheadline: predicated/branchy speedup on int32 = " << speedup
            << (wins ? " (predicated wins)" : " — see note in JSON output")
            << "\nheadline: simd/unrolled crack-in-two on int32 = "
            << simd_vs_unrolled << (simd_active ? "" : " (scalar fallback)")
            << "\nheadline: single-pass/two-pass crack-in-three = "
            << three_way_speedup << "\n";

  json.Write();
  return 0;
}
