// Measurement plumbing shared by every workload: a pausable clock, latency
// sample sets with nearest-rank percentiles, the metric list printed as the
// run's final JSON line, and fatal-error reporting.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

/// Seconds on the monotonic clock.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time of the measured phase minus explicitly paused stretches (op
/// generation, the op log, replica work in a traced run), so that the
/// store under test sees the same schedule traced or not.
class PhaseClock {
 public:
  void Start() { start_ = NowS(); }
  double Elapsed() const { return NowS() - start_ - paused_; }
  /// Adds the interval [from, NowS()) to the paused total.
  void PauseSince(double from) { paused_ += NowS() - from; }

 private:
  double start_ = 0.0;
  double paused_ = 0.0;
};

/// A set of samples (milliseconds unless the caller says otherwise).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Sum() const;
  double Mean() const { return empty() ? 0.0 : Sum() / static_cast<double>(size()); }

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; EmitJson prints the run's final line.
class MetricSet {
 public:
  /// Appends a metric; each name is set once.
  void Set(const std::string& name, double value, const std::string& unit);
  /// Prints every metric as an aligned "name value unit" line.
  void PrintTable() const;
  /// Prints the one-line JSON result the benchmark contract requires.
  void EmitJson(bool correct, std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Process peak resident set size in MiB.
double PeakRssMb();

/// Prints "engine_bench: FATAL: <what>" to stderr and exits with code 2.
[[noreturn]] void Fatal(const std::string& what);

}  // namespace bench
