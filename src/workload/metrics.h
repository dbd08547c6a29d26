// The adaptive-indexing benchmark metrics (Graefe, Idreos, Kuno, Manegold —
// TPCTC 2010, "Benchmarking Adaptive Indexing").
//
// Two headline measures characterize a technique:
//   1. the initialization overhead the *first* query pays, relative to the
//      plain scan that an unindexed system would have run anyway, and
//   2. how many queries must be processed before a random query runs at
//      full-index speed (convergence).
#pragma once

#include <cstddef>
#include <string>

#include "workload/runner.h"

namespace aidx {

struct BenchmarkMetrics {
  std::string strategy;
  std::string workload;
  double first_query_seconds = 0.0;
  /// first_query_seconds / scan_seconds — ~1 for cracking, large for
  /// sort-first strategies, exactly 1 for the scan itself.
  double first_query_overhead = 0.0;
  /// First query index (0-based) from which queries run within
  /// `convergence_factor` of the converged reference; -1 if never reached.
  std::ptrdiff_t queries_to_convergence = -1;
  double total_seconds = 0.0;
  /// Steady-state per-query cost (mean of the last tail window).
  double steady_state_seconds = 0.0;
};

struct MetricsOptions {
  /// A query "runs at index speed" when its smoothed cost is at most
  /// factor × reference_seconds.
  double convergence_factor = 2.0;
};

/// Computes the TPCTC metrics for one run.
///
/// `scan_seconds` is the per-query cost of a full scan on the same data
/// (the overhead denominator); `reference_seconds` is the converged
/// per-query cost (e.g. the full-sort index's steady state).
BenchmarkMetrics ComputeMetrics(const RunResult& run, double scan_seconds,
                                double reference_seconds,
                                const MetricsOptions& options = {});

}  // namespace aidx
