// The four workloads (converge, serve, write_mix, rebalance) and the run
// driver shared by all of them.
#pragma once

#include <cstdint>
#include <string>

namespace bench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// serve: the open loop's Poisson arrival rate (requests/s).
  double serve_rate = 0.0;
  /// Closed loops: run exactly this many timed ops instead of a time slice
  /// (0 = time-bounded). The traced run uses the untraced run's first-round
  /// count, so both measure store A over identical op sequences.
  std::uint64_t ops = 0;
  /// Untraced store-A read time (s) over the same ops; the traced run
  /// reports its own relative to it as bench.trace_overhead_frac.
  double baseline_read_s = 0.0;
};

/// Runs one workload and prints its report; the last stdout line is the
/// result JSON. Exits non-zero (without a result line) on an oracle
/// mismatch or an unusable configuration.
void RunWorkload(const RunConfig& config);

}  // namespace bench
