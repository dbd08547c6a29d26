#include "workload/metrics.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"

namespace aidx {

namespace {

/// Median window used to smooth the per-query series (odd).
constexpr std::size_t kSmoothingWindow = 11;
/// Tail window for the steady-state estimate.
constexpr std::size_t kTailWindow = 100;

/// Median of series[i .. i+window) (window clamped to the series end).
double WindowMedian(const std::vector<double>& series, std::size_t i,
                    std::size_t window) {
  const std::size_t end = std::min(series.size(), i + window);
  std::vector<double> buf(series.begin() + static_cast<std::ptrdiff_t>(i),
                          series.begin() + static_cast<std::ptrdiff_t>(end));
  const std::size_t mid = buf.size() / 2;
  std::nth_element(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(mid),
                   buf.end());
  return buf[mid];
}

}  // namespace

BenchmarkMetrics ComputeMetrics(const RunResult& run, double scan_seconds,
                                double reference_seconds,
                                const MetricsOptions& options) {
  BenchmarkMetrics m;
  m.strategy = run.strategy;
  m.workload = run.workload;
  if (run.per_query_seconds.empty()) return m;
  m.first_query_seconds = run.first_query_seconds();
  m.first_query_overhead =
      scan_seconds > 0 ? m.first_query_seconds / scan_seconds : 0.0;
  m.total_seconds = run.total_seconds();
  m.steady_state_seconds = run.tail_mean(kTailWindow);

  const double threshold = options.convergence_factor * reference_seconds;
  const auto& series = run.per_query_seconds;
  // Earliest i whose smoothed cost — and that of every later window — stays
  // under the threshold: find the last window above threshold.
  std::ptrdiff_t last_above = -1;
  for (std::size_t i = 0; i < series.size(); i += 1) {
    if (WindowMedian(series, i, kSmoothingWindow) > threshold) {
      last_above = static_cast<std::ptrdiff_t>(i);
    }
  }
  if (last_above + 1 < static_cast<std::ptrdiff_t>(series.size())) {
    m.queries_to_convergence = last_above + 1;
  } else {
    m.queries_to_convergence = -1;  // never converged within the run
  }
  return m;
}

}  // namespace aidx
