#include "tracer.h"

#include <algorithm>
#include <span>
#include <vector>

#include "core/crack_ops.h"
#include "storage/table.h"

namespace bench {

namespace {

double MsSince(double t0) { return (NowS() - t0) * 1e3; }
double UsSince(double t0) { return (NowS() - t0) * 1e6; }

aidx::QueryRequest LegRequest(const Op& op) {
  aidx::QueryRequest leg;
  leg.table = kTable;
  leg.column = kKey;
  leg.predicate = op.pred;
  leg.strategy = op.pcrack ? PcrackStrategy() : CrackStrategy();
  // ShardedDatabase hands every leg a context; so does the replica.
  leg.context = aidx::QueryContext();
  if (op.type == OpType::kSelect) leg.tails = {"a", "b"};
  return leg;
}

}  // namespace

void Tracer::Diverged(std::size_t index, const std::string& what) const {
  Fatal("replica diverged from store A at op " + std::to_string(index) + ": " + what);
}

void Tracer::Mirror(const Op& op, const Answer& a, double a_ms, std::size_t index) {
  switch (op.type) {
    case OpType::kCount:
    case OpType::kSum:
    case OpType::kSelect:
      Read(op, a, a_ms, index);
      return;
    case OpType::kInsert:
      if (a.ok) Insert(op, index);  // a failed DML left A unchanged
      break;
    case OpType::kDelete:
      if (a.ok) Delete(op, a, index);
      break;
    case OpType::kRebalance:
      if (a.ok) Rebalance(op);
      break;
  }
  if (recording_) SamplePending();
}

void Tracer::Read(const Op& op, const Answer& a, double a_ms, std::size_t index) {
  const double route_start = NowS();
  auto routed = r_.router->ShardsFor(kTable, op.pred);
  const double route_us = UsSince(route_start);
  if (!routed.ok()) Diverged(index, "replica routing failed");
  std::vector<std::size_t> targets = std::move(routed).value();
  // ShardedDatabase answers an empty SelectProject superset from shard 0.
  if (targets.empty() && op.type == OpType::kSelect) targets.push_back(0);

  const aidx::QueryRequest leg = LegRequest(op);
  const aidx::QueryContext ctx;
  double slowest_leg_ms = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  TupleDigest digest;
  for (const std::size_t s : targets) {
    aidx::Database& db = r_.b->shard(s);
    double leg_ms = 0.0;
    if (op.type == OpType::kSelect) {
      const double t0 = NowS();
      auto res = db.SelectProject(leg);
      leg_ms = MsSince(t0);
      if (!res.ok()) Diverged(index, "replica SelectProject leg failed");
      const TupleDigest d = DigestOf(res.value());
      digest.rows += d.rows;
      digest.hash += d.hash;
      if (recording_) sideways_select_ms_.Add(leg_ms);
    } else {
      aidx::AccessPath<std::int64_t>& path = op.pcrack ? *r_.c[s].pcrack : *r_.c[s].crack;
      double path_ms = 0.0;
      if (op.type == OpType::kCount) {
        double t0 = NowS();
        auto res = db.Count(leg);
        leg_ms = MsSince(t0);
        t0 = NowS();
        auto path_res = path.Count(op.pred, ctx);
        path_ms = MsSince(t0);
        if (!res.ok() || !path_res.ok()) Diverged(index, "replica Count failed");
        if (res.value() != path_res.value()) Diverged(index, "replica C Count differs from B");
        count += res.value();
      } else {
        double t0 = NowS();
        auto res = db.Sum(leg);
        leg_ms = MsSince(t0);
        t0 = NowS();
        auto path_res = path.Sum(op.pred, ctx);
        path_ms = MsSince(t0);
        if (!res.ok() || !path_res.ok()) Diverged(index, "replica Sum failed");
        if (res.value() != static_cast<double>(path_res.value())) {
          Diverged(index, "replica C Sum differs from B");
        }
        sum += res.value();
      }
      if (recording_) {
        exec_read_ms_.Add(leg_ms);
        exec_self_us_.Add((leg_ms - path_ms) * 1e3);
        (op.pcrack ? parallel_read_ms_ : core_path_ms_).Add(path_ms);
      }
    }
    if (recording_ && evacuated_ && s == *evacuated_) evacuated_read_ms_.Add(leg_ms);
    slowest_leg_ms = std::max(slowest_leg_ms, leg_ms);
  }
  if (a.ok) {
    const bool same = op.type == OpType::kCount   ? count == a.count
                      : op.type == OpType::kSum   ? sum == a.sum
                                                  : digest == a.digest;
    if (!same) Diverged(index, "replica B answer differs from A");
  }
  if (!recording_) return;
  route_us_.Add(route_us);
  fanout_.Add(static_cast<double>(targets.size()));
  dist_self_ms_.Add(a_ms - slowest_leg_ms);
}

void Tracer::Insert(const Op& op, std::size_t index) {
  auto routed = r_.router->ShardOf(kTable, op.key);
  if (!routed.ok()) Diverged(index, "replica routing failed");
  const std::size_t s = routed.value();
  const std::int64_t row[2] = {op.key, op.payload};
  double t0 = NowS();
  const aidx::Status st = r_.b->shard(s).Insert(kTable, std::span<const std::int64_t>(row, 2));
  const double dml_ms = MsSince(t0);
  if (!st.ok()) Diverged(index, "replica Insert failed");
  t0 = NowS();
  r_.c[s].crack->Insert(op.key);
  const double crack_us = UsSince(t0);
  double pcrack_us = 0.0;
  if (r_.c[s].pcrack) {
    t0 = NowS();
    r_.c[s].pcrack->Insert(op.key);
    pcrack_us = UsSince(t0);
    if (recording_) parallel_write_us_.Add(pcrack_us);
  }
  if (!recording_) return;
  exec_dml_ms_.Add(dml_ms);
  storage_dml_self_us_.Add(dml_ms * 1e3 - crack_us - pcrack_us);
}

void Tracer::Delete(const Op& op, const Answer& a, std::size_t index) {
  auto routed = r_.router->ShardsFor(kTable, Pred::Between(op.key, op.key));
  if (!routed.ok()) Diverged(index, "replica routing failed");
  // ShardedDatabase::Delete probes the candidates in shard order.
  std::optional<std::size_t> removed_from;
  double t0 = NowS();
  for (const std::size_t s : routed.value()) {
    auto res = r_.b->shard(s).Delete(kTable, kKey, op.key);
    if (!res.ok()) Diverged(index, "replica Delete failed");
    if (res.value()) {
      removed_from = s;
      break;
    }
  }
  const double dml_ms = MsSince(t0);
  if (removed_from.has_value() != a.deleted) Diverged(index, "replica Delete outcome differs");
  double crack_us = 0.0;
  double pcrack_us = 0.0;
  if (removed_from) {
    ShardPaths& paths = r_.c[*removed_from];
    t0 = NowS();
    const bool crack_removed = paths.crack->Delete(op.key);
    crack_us = UsSince(t0);
    bool pcrack_removed = true;
    if (paths.pcrack) {
      t0 = NowS();
      pcrack_removed = paths.pcrack->Delete(op.key);
      pcrack_us = UsSince(t0);
      if (recording_) parallel_write_us_.Add(pcrack_us);
    }
    if (!crack_removed || !pcrack_removed) Diverged(index, "replica C path Delete missed");
  }
  if (!recording_) return;
  exec_dml_ms_.Add(dml_ms);
  storage_dml_self_us_.Add(dml_ms * 1e3 - crack_us - pcrack_us);
}

void Tracer::Rebalance(const Op& op) {
  aidx::Database& src = r_.b->shard(op.from);
  aidx::Database& tgt = r_.b->shard(op.to);
  // Extract the migrating rows in base-position order: the order
  // DeleteWhere removes them from every cached path.
  auto table = src.catalog().GetTable(kTable);
  if (!table.ok()) Fatal("replica table missing");
  std::vector<std::span<const std::int64_t>> columns;
  for (const std::string& name : table.value()->column_names()) {
    auto column = table.value()->GetTypedColumn<std::int64_t>(name);
    if (!column.ok()) Fatal("replica column missing");
    columns.push_back(column.value()->Values());
  }
  std::vector<std::int64_t> moved;
  std::vector<std::int64_t> moved_keys;
  for (std::size_t r = 0; r < columns[0].size(); ++r) {
    const std::int64_t k = columns[0][r];
    if (k < op.lo || k >= op.hi) continue;
    moved_keys.push_back(k);
    for (const auto& column : columns) moved.push_back(column[r]);
  }
  auto exports = src.ExportColumnCuts(kTable, kKey, op.lo, op.hi);
  if (!exports.ok()) Fatal("replica ExportColumnCuts failed");
  aidx::PieceBundle<std::int64_t> bundle;
  r_.c[op.from].crack->ExportCuts(op.lo, op.hi, &bundle);

  if (!moved_keys.empty()) {
    double t0 = NowS();
    if (!tgt.InsertBatch(kTable, moved).ok()) Fatal("replica InsertBatch failed");
    rebalance_insert_ms_.Add(MsSince(t0));
    t0 = NowS();
    if (!src.DeleteWhere(kTable, kKey, Pred::HalfOpen(op.lo, op.hi)).ok()) {
      Fatal("replica DeleteWhere failed");
    }
    rebalance_evacuate_ms_.Add(MsSince(t0));
  }
  if (!r_.router->AddOverride(kTable, op.lo, op.hi, op.to).ok()) {
    Fatal("replica AddOverride failed");
  }
  const double t0 = NowS();
  if (!tgt.ReplayColumnCuts(kTable, kKey, exports.value()).ok()) {
    Fatal("replica ReplayColumnCuts failed");
  }
  rebalance_replay_ms_.Add(MsSince(t0));

  r_.c[op.to].crack->InsertBatch(moved_keys);
  for (const std::int64_t k : moved_keys) {
    if (!r_.c[op.from].crack->Delete(k)) Fatal("replica C evacuation missed a key");
  }
  r_.c[op.to].crack->ReplayCuts(bundle.cuts);
  evacuated_ = op.from;
}

void Tracer::SamplePending() {
  std::size_t bytes = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    bytes += r_.b->shard(s).Stats().pending_update_bytes;
  }
  pending_bytes_max_ = std::max(pending_bytes_max_, bytes);
}

void Tracer::Report(aidx::ShardedDatabase& a, MetricSet* out) {
  const std::vector<aidx::ShardStats> stats = a.Stats();
  double cached_paths = 0, touched = 0, cracks = 0, pieces = 0, sheds = 0, denials = 0;
  for (const aidx::ShardStats& s : stats) {
    cached_paths += static_cast<double>(s.cached_paths);
    touched += static_cast<double>(s.crack.values_touched);
    cracks += static_cast<double>(s.crack.num_crack_in_two + s.crack.num_crack_in_three +
                                  s.crack.num_stochastic_cracks);
    pieces += static_cast<double>(s.cracked_pieces);
    sheds += static_cast<double>(s.sheds);
    denials += static_cast<double>(s.admission_denials);
  }
  double ripple = 0;
  double maps = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    ripple += static_cast<double>(r_.c[s].crack->update_stats().ripple_element_moves);
    if (r_.c[s].pcrack) {
      ripple += static_cast<double>(r_.c[s].pcrack->update_stats().ripple_element_moves);
    }
    auto sideways = r_.b->shard(s).SidewaysState(kTable, kKey);
    if (sideways.ok()) maps += static_cast<double>(sideways.value()->stats().maps_created);
  }

  // Raw two-way crack throughput of the resolved kernel on a copy of the
  // largest shard's key column, pivot at its middle element.
  std::size_t largest = 0;
  for (const aidx::ShardStats& s : stats) {
    if (s.rows > stats[largest].rows) largest = s.shard;
  }
  const std::vector<std::int64_t> keys = ShardKeys(*r_.b, largest);
  const aidx::CrackKernel kernel =
      aidx::ResolveCrackKernel(aidx::CrackKernel::kAuto, sizeof(std::int64_t));
  Samples mrows;
  for (int rep = 0; rep < 5 && keys.size() > 1; ++rep) {
    std::vector<std::int64_t> copy = keys;
    const aidx::Cut<std::int64_t> cut{copy[copy.size() / 2], aidx::CutKind::kLess};
    const double t0 = NowS();
    const std::size_t split =
        aidx::CrackInTwo(std::span<std::int64_t>(copy), std::span<aidx::row_id_t>(), cut, kernel);
    const double s = NowS() - t0;
    if (split > copy.size()) Fatal("crack kernel returned an out-of-range split");
    mrows.Add(static_cast<double>(copy.size()) / s / 1e6);
  }

  out->Set("dist.route_us_p50", route_us_.Median(), "us");
  out->Set("dist.fanout_mean", fanout_.Mean(), "count");
  out->Set("dist.self_ms_p50", dist_self_ms_.Median(), "ms");
  out->Set("dist.self_ms_p99", dist_self_ms_.Percentile(99), "ms");
  out->Set("dist.rebalance_insert_ms", rebalance_insert_ms_.Median(), "ms");
  out->Set("dist.rebalance_evacuate_ms", rebalance_evacuate_ms_.Median(), "ms");
  out->Set("dist.rebalance_replay_ms", rebalance_replay_ms_.Median(), "ms");
  out->Set("exec.read_ms_p50", exec_read_ms_.Median(), "ms");
  out->Set("exec.read_ms_p99", exec_read_ms_.Percentile(99), "ms");
  out->Set("exec.self_us_p50", exec_self_us_.Median(), "us");
  out->Set("exec.cached_paths", cached_paths, "count");
  out->Set("exec.dml_ms_p50", exec_dml_ms_.Median(), "ms");
  out->Set("exec.dml_ms_p99", exec_dml_ms_.Percentile(99), "ms");
  out->Set("core.path_ms_p50", core_path_ms_.Median(), "ms");
  out->Set("core.path_ms_p99", core_path_ms_.Percentile(99), "ms");
  out->Set("core.values_touched", touched, "count");
  out->Set("core.cracks", cracks, "count");
  out->Set("core.pieces", pieces, "count");
  out->Set("core.crack_mrows_s", mrows.Median(), "Mrows/s");
  out->Set("update.pending_bytes_max", static_cast<double>(pending_bytes_max_), "bytes");
  out->Set("update.ripple_moves", ripple, "count");
  out->Set("update.evacuated_read_ms_p99", evacuated_read_ms_.Percentile(99), "ms");
  const aidx::ShardStats* evac = evacuated_ ? &stats[*evacuated_] : nullptr;
  out->Set("update.evacuated_rows", evac ? static_cast<double>(evac->rows) : 0.0, "count");
  out->Set("update.evacuated_pieces", evac ? static_cast<double>(evac->cracked_pieces) : 0.0,
           "count");
  out->Set("update.evacuated_pending_bytes",
           evac ? static_cast<double>(evac->pending_update_bytes) : 0.0, "bytes");
  out->Set("parallel.read_ms_p50", parallel_read_ms_.Median(), "ms");
  out->Set("parallel.read_ms_p99", parallel_read_ms_.Percentile(99), "ms");
  out->Set("parallel.write_us_p50", parallel_write_us_.Median(), "us");
  out->Set("sideways.select_ms_p50", sideways_select_ms_.Median(), "ms");
  out->Set("sideways.select_ms_p99", sideways_select_ms_.Percentile(99), "ms");
  out->Set("sideways.maps", maps, "count");
  out->Set("storage.dml_self_us_p50", storage_dml_self_us_.Median(), "us");
  out->Set("util.sheds", sheds, "count");
  out->Set("util.admission_denials", denials, "count");
}

}  // namespace bench
