// engine_bench: end-to-end benchmark of the sharded adaptive-indexing
// engine (see ../README.md).
//
//   engine_bench --workload <converge|serve|write_mix|rebalance> --seed <n>
//                --seconds <s> --trace <0|1> [--serve-rate <req/s>]
//                [--ops <n>] [--baseline-read-s <s>]
//
// Prints provenance and a metric table, then the result JSON as the last
// line of stdout. Exits non-zero without a result line on any oracle
// mismatch.
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

double ParseNumber(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') bench::Fatal("bad value for " + flag + ": " + text);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) bench::Fatal("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = static_cast<std::uint64_t>(ParseNumber(flag, value));
    } else if (flag == "--seconds") {
      config.seconds = ParseNumber(flag, value);
    } else if (flag == "--trace") {
      config.trace = ParseNumber(flag, value) != 0.0;
    } else if (flag == "--serve-rate") {
      config.serve_rate = ParseNumber(flag, value);
    } else if (flag == "--ops") {
      config.ops = static_cast<std::uint64_t>(ParseNumber(flag, value));
    } else if (flag == "--baseline-read-s") {
      config.baseline_read_s = ParseNumber(flag, value);
    } else {
      bench::Fatal("unknown flag " + flag);
    }
  }
  if (!(config.seconds > 0.0)) bench::Fatal("--seconds must be positive");
  bench::RunWorkload(config);
  return 0;
}
