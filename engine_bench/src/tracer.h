// The traced run's per-layer split. After store A answers an op, the
// Tracer repeats it one layer down on the replicas and times each call:
//
//   dist     router calls on B's ShardRouter; A's latency minus B's slowest
//            leg; B's manual rebalance steps
//   exec     one B leg per target shard via shard(i) (Database)
//   core     replica C's crack path on the same shard
//   parallel replica C's pcrack(4x1) path
//   sideways B's SelectProject legs
//   storage  B's DML leg minus C's path writes for the same row
//   update   pending-update bytes, ripple moves, reads on an evacuated shard
//
// It also checks that B and C return A's answers, so a replica that drifted
// from A's state fails the run instead of timing different work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "harness.h"
#include "ops.h"
#include "stores.h"

namespace bench {

class Tracer {
 public:
  explicit Tracer(Replicas replicas) : r_(std::move(replicas)) {}

  /// Off during warm-up: ops are still mirrored (the replicas must track
  /// A's state) but nothing is recorded.
  void set_recording(bool on) { recording_ = on; }

  /// Mirrors op `index`. `a_ms` is A's latency for it (service time).
  void Mirror(const Op& op, const Answer& a, double a_ms, std::size_t index);

  /// Adds every per-layer metric to `out`; `a` is store A, read after the
  /// timed phase for its cumulative counters.
  void Report(aidx::ShardedDatabase& a, MetricSet* out);

 private:
  void Read(const Op& op, const Answer& a, double a_ms, std::size_t index);
  void Insert(const Op& op, std::size_t index);
  void Delete(const Op& op, const Answer& a, std::size_t index);
  void Rebalance(const Op& op);
  void SamplePending();
  [[noreturn]] void Diverged(std::size_t index, const std::string& what) const;

  Replicas r_;
  bool recording_ = true;
  std::optional<std::size_t> evacuated_;  // shard the last rebalance emptied

  Samples route_us_, fanout_, dist_self_ms_, exec_read_ms_, exec_self_us_,
      exec_dml_ms_, core_path_ms_, parallel_read_ms_, parallel_write_us_,
      sideways_select_ms_, storage_dml_self_us_, evacuated_read_ms_,
      rebalance_insert_ms_, rebalance_evacuate_ms_, rebalance_replay_ms_;
  std::size_t pending_bytes_max_ = 0;
};

}  // namespace bench
