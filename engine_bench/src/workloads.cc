#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/kernel_autotune.h"
#include "harness.h"
#include "ops.h"
#include "oracle.h"
#include "stores.h"
#include "tracer.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/query_generator.h"

namespace bench {

namespace {

// A failed op counts as slower than every successful one.
constexpr double kFailedMs = 1e6;
// Rounds per untraced run, each on a fresh store; metrics are medians.
constexpr int kRounds = 5;
// Ops generated per refill of a closed loop's stream.
constexpr std::size_t kChunkOps = 1 << 16;

/// Everything that distinguishes one workload from another.
struct WorkloadSpec {
  std::string name;
  TableShape shape;
  aidx::QueryPattern pattern = aidx::QueryPattern::kRandom;
  double selectivity = 0.001;
  std::size_t warmup_ops = 0;
  bool open_loop = false;
  bool pcrack = false;                // write_mix reads alternate crack / pcrack(4x1)
  double insert_fraction = 0.0;       // write_mix
  double delete_fraction = 0.0;       // write_mix
  std::size_t rebalance_every = 0;    // rebalance: ops per ping-pong move
};

std::uint64_t Derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t index = 0) {
  std::uint64_t state = seed ^ (tag * 0x9E3779B97F4A7C15ULL) ^ (index << 20);
  return aidx::SplitMix64(&state);
}

std::optional<WorkloadSpec> SpecFor(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "converge") {
    // Cold store; the 112 MiB key column exceeds each core's 8 MiB L2. Shard
    // sizes stay clear of powers of two, where vector doubling would make
    // peak memory depend on the seed.
    w.shape = {.rows = std::size_t{7} << 21, .domain = std::int64_t{1} << 24,
               .routing = aidx::RoutingKind::kRange, .payloads = {"v"}};
    w.selectivity = 0.001;
  } else if (name == "serve") {
    w.shape = {.rows = std::size_t{7} << 19, .domain = std::int64_t{1} << 22,
               .routing = aidx::RoutingKind::kHash, .payloads = {"a", "b"}};
    w.pattern = aidx::QueryPattern::kSkewed;
    w.selectivity = 0.0001;
    w.warmup_ops = 10000;
    w.open_loop = true;
  } else if (name == "write_mix") {
    w.shape = {.rows = std::size_t{7} << 18, .domain = std::int64_t{1} << 21,
               .routing = aidx::RoutingKind::kRange, .payloads = {"v"}};
    w.warmup_ops = 2000;
    w.pcrack = true;
    w.insert_fraction = 0.1;
    w.delete_fraction = 0.1;
  } else if (name == "rebalance") {
    w.shape = {.rows = std::size_t{7} << 11, .domain = std::int64_t{1} << 14,
               .routing = aidx::RoutingKind::kRange, .payloads = {"v"}};
    w.warmup_ops = 2000;
    w.rebalance_every = 500;
  } else {
    return std::nullopt;
  }
  return w;
}

const char* TypeName(OpType t) {
  switch (t) {
    case OpType::kCount: return "count";
    case OpType::kSum: return "sum";
    case OpType::kSelect: return "select";
    case OpType::kInsert: return "insert";
    case OpType::kDelete: return "delete";
    case OpType::kRebalance: return "rebalance";
  }
  return "?";
}

/// Produces a closed-loop workload's op stream in chunks (deterministic in
/// the seed), plus the warm-up ops its setup runs.
class OpSource {
 public:
  OpSource(const WorkloadSpec& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  std::vector<Op> Warmup() {
    std::vector<Op> ops;
    for (const Pred& pred : Queries(w_.warmup_ops, Derive(seed_, 1))) ops.push_back(NextRead(pred));
    return ops;
  }

  /// The next kChunkOps timed ops.
  std::vector<Op> NextChunk() {
    const std::uint64_t chunk = chunks_++;
    std::vector<Op> ops;
    ops.reserve(kChunkOps);
    if (w_.insert_fraction > 0.0 || w_.delete_fraction > 0.0) {
      aidx::MixedWorkloadSpec mixed;
      mixed.read = QuerySpec(kChunkOps, Derive(seed_, 2, chunk));
      mixed.insert_fraction = w_.insert_fraction;
      mixed.delete_fraction = w_.delete_fraction;
      mixed.seed = Derive(seed_, 3, chunk);
      for (const aidx::WorkloadOp& m : aidx::GenerateMixedWorkload(mixed)) {
        Op op;
        if (m.kind == aidx::OpKind::kQuery) {
          op = NextRead(m.pred);
        } else {
          op.type = m.kind == aidx::OpKind::kInsert ? OpType::kInsert : OpType::kDelete;
          op.key = m.value;
          op.payload = PayloadFor(seed_, emitted_, 1);
        }
        Emit(&ops, op);
      }
      return ops;
    }
    for (const Pred& pred : Queries(kChunkOps, Derive(seed_, 2, chunk))) {
      if (w_.rebalance_every > 0 && emitted_ % w_.rebalance_every == w_.rebalance_every - 1) {
        Emit(&ops, NextRebalance());
      }
      Emit(&ops, NextRead(pred));
    }
    return ops;
  }

 private:
  aidx::WorkloadSpec QuerySpec(std::size_t n, std::uint64_t seed) const {
    aidx::WorkloadSpec spec;
    spec.pattern = w_.pattern;
    spec.num_queries = n;
    spec.domain = w_.shape.domain;
    spec.selectivity = w_.selectivity;
    spec.seed = seed;
    return spec;
  }
  std::vector<Pred> Queries(std::size_t n, std::uint64_t seed) const {
    return n == 0 ? std::vector<Pred>{} : aidx::GenerateQueries(QuerySpec(n, seed));
  }
  /// Reads alternate Count / Sum; with pcrack they also alternate paths, so
  /// both paths see both verbs.
  Op NextRead(const Pred& pred) {
    Op op;
    op.pred = pred;
    const std::uint64_t r = reads_++;
    op.pcrack = w_.pcrack && r % 2 == 1;
    const std::uint64_t verb = w_.pcrack ? r / 2 : r;
    op.type = verb % 2 == 0 ? OpType::kCount : OpType::kSum;
    return op;
  }
  /// Ping-pongs shard 0's whole key interval between shards 0 and 1.
  Op NextRebalance() {
    Op op;
    op.type = OpType::kRebalance;
    const bool out = rebalances_++ % 2 == 0;
    op.from = out ? 0 : 1;
    op.to = out ? 1 : 0;
    op.lo = 0;
    op.hi = RangeBoundaries(w_.shape.domain)[0];
    return op;
  }
  void Emit(std::vector<Op>* ops, const Op& op) {
    ops->push_back(op);
    ++emitted_;
  }

  const WorkloadSpec& w_;
  std::uint64_t seed_;
  std::uint64_t chunks_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t rebalances_ = 0;
};

/// serve's open-loop schedule: Poisson arrivals over [0, seconds) and one
/// zipf-skewed request stream whose first warmup_ops requests warm the
/// store during setup.
struct ServeSchedule {
  std::vector<Op> warmup;
  std::vector<Op> requests;
  std::vector<double> arrivals;  // seconds from the start of the timed phase
};

ServeSchedule MakeServeSchedule(const WorkloadSpec& w, std::uint64_t seed, double rate,
                                double seconds) {
  ServeSchedule s;
  aidx::Rng arrivals_rng(Derive(seed, 4));
  for (double t = 0.0;;) {
    t += -std::log(1.0 - arrivals_rng.NextDouble()) / rate;
    if (t >= seconds) break;
    s.arrivals.push_back(t);
  }
  aidx::WorkloadSpec spec;
  spec.pattern = w.pattern;
  spec.num_queries = w.warmup_ops + s.arrivals.size();
  spec.domain = w.shape.domain;
  spec.selectivity = w.selectivity;
  spec.seed = Derive(seed, 5);
  const std::vector<Pred> preds = aidx::GenerateQueries(spec);
  aidx::Rng mix_rng(Derive(seed, 6));
  for (std::size_t i = 0; i < preds.size(); ++i) {
    Op op;
    op.pred = preds[i];
    const std::uint64_t dice = mix_rng.NextBounded(10);  // 40% / 40% / 20%
    op.type = dice < 4 ? OpType::kCount : dice < 8 ? OpType::kSum : OpType::kSelect;
    (i < w.warmup_ops ? s.warmup : s.requests).push_back(op);
  }
  return s;
}

/// A request prepared outside the timed call.
aidx::QueryRequest RequestFor(const Op& op) {
  aidx::QueryRequest req;
  req.table = kTable;
  req.column = kKey;
  req.predicate = op.pred;
  req.strategy = op.pcrack ? PcrackStrategy() : CrackStrategy();
  if (op.type == OpType::kSelect) req.tails = {"a", "b"};
  return req;
}

Answer Execute(aidx::ShardedDatabase& db, const Op& op, const aidx::QueryRequest& req) {
  Answer ans;
  switch (op.type) {
    case OpType::kCount: {
      auto r = db.Count(req);
      ans.ok = r.ok();
      if (ans.ok) ans.count = r.value();
      break;
    }
    case OpType::kSum: {
      auto r = db.Sum(req);
      ans.ok = r.ok();
      if (ans.ok) ans.sum = r.value();
      break;
    }
    case OpType::kSelect: {
      auto r = db.SelectProject(req);
      ans.ok = r.ok();
      if (ans.ok) ans.digest = DigestOf(r.value());
      break;
    }
    case OpType::kInsert: {
      const std::int64_t row[2] = {op.key, op.payload};
      ans.ok = db.Insert(kTable, std::span<const std::int64_t>(row, 2)).ok();
      break;
    }
    case OpType::kDelete: {
      auto r = db.Delete(kTable, kKey, op.key);
      ans.ok = r.ok();
      ans.deleted = ans.ok && r.value();
      break;
    }
    case OpType::kRebalance: {
      auto r = db.Rebalance(kTable, op.from, op.to, op.lo, op.hi);
      ans.ok = r.ok();
      if (ans.ok) {
        ans.count = r.value().rows_moved;
        ans.cuts = r.value().cuts_carried;
      }
      break;
    }
  }
  return ans;
}

/// A warm-up read issued leg by leg on the driver thread — the same
/// per-shard calls a scatter makes, without the pool's thread wake-ups, so
/// setup_s does not swing with the host's vCPU scheduling.
Answer WarmupRead(aidx::ShardedDatabase& db, const Op& op, const aidx::QueryRequest& req) {
  if (!IsRead(op.type)) Fatal("warm-up ops must be reads");
  auto routed = db.router().ShardsFor(kTable, op.pred);
  if (!routed.ok()) return {};
  std::vector<std::size_t> targets = std::move(routed).value();
  if (targets.empty() && op.type == OpType::kSelect) targets.push_back(0);
  aidx::QueryRequest leg = req;
  leg.context = aidx::QueryContext();
  Answer ans;
  ans.ok = true;
  for (const std::size_t s : targets) {
    aidx::Database& shard = db.shard(s);
    if (op.type == OpType::kCount) {
      auto r = shard.Count(leg);
      ans.ok = ans.ok && r.ok();
      if (r.ok()) ans.count += r.value();
    } else if (op.type == OpType::kSum) {
      auto r = shard.Sum(leg);
      ans.ok = ans.ok && r.ok();
      if (r.ok()) ans.sum += r.value();
    } else {
      auto r = shard.SelectProject(leg);
      ans.ok = ans.ok && r.ok();
      if (r.ok()) {
        const TupleDigest d = DigestOf(r.value());
        ans.digest.rows += d.rows;
        ans.digest.hash += d.hash;
      }
    }
  }
  return ans;
}

/// Drops the cached kernel calibration (unless AIDX_CALIBRATE=0 disabled
/// it) and runs the sweep, as a fresh process's first query would.
aidx::KernelCalibration Recalibrate() {
  if (aidx::CalibrationEnabled()) aidx::SetCalibrationEnabled(true);
  return aidx::Calibrate();
}

void PrintCalibration(std::size_t round, const aidx::KernelCalibration& c) {
  std::printf("calibration[round %zu]: calibrated=%d isa=%s kernel_w8=%s min_piece_w8=%zu "
              "kernel_w4=%s mrows_w8:",
              round, c.calibrated ? 1 : 0, c.isa, aidx::CrackKernelName(c.kernel_w8),
              c.min_piece_w8, aidx::CrackKernelName(c.kernel_w4));
  for (std::size_t k = 0; k < aidx::kNumCrackKernels; ++k) {
    std::printf(" %s=%.0f", aidx::CrackKernelName(static_cast<aidx::CrackKernel>(k)),
                c.mrows_w8[k]);
  }
  std::printf("\n");
}

/// One run: kRounds rounds (1 when traced), each on a fresh store from the
/// same seed — setup, a timed slice of the run's seconds, then the oracle
/// check. End-to-end metrics are medians over the rounds, so one round
/// disturbed by the host does not decide the run.
class Run {
 public:
  Run(const RunConfig& config, WorkloadSpec spec)
      : cfg_(config), w_(std::move(spec)), pool_(kScatterThreads) {
    w_.shape.seed = Derive(cfg_.seed, 7);
  }

  void Execute() {
    PrintProvenance();
    rows_ = GenerateRows(w_.shape);
    if (w_.shape.width() == 3) {
      std::vector<TupleOracle::Row> tuples(w_.shape.rows);
      for (std::size_t r = 0; r < w_.shape.rows; ++r) {
        tuples[r] = {rows_[r * 3], rows_[r * 3 + 1], rows_[r * 3 + 2]};
      }
      tuples_ = std::make_unique<TupleOracle>(std::move(tuples));
    }
    // A traced run is one round of the same length as an untraced round.
    const int rounds = cfg_.trace ? 1 : kRounds;
    for (int r = 1; r <= rounds; ++r) RunRound(r, cfg_.seconds / kRounds);
    Report();
  }

 private:
  void PrintProvenance() const {
    std::printf("engine_bench workload=%s seed=%llu seconds=%g trace=%d rounds=%d\n",
                w_.name.c_str(), static_cast<unsigned long long>(cfg_.seed), cfg_.seconds,
                cfg_.trace ? 1 : 0, cfg_.trace ? 1 : kRounds);
    std::printf("table: rows=%zu domain=%lld routing=%s shards=%zu columns=k",
                w_.shape.rows, static_cast<long long>(w_.shape.domain),
                std::string(aidx::RoutingKindName(w_.shape.routing)).c_str(), kShards);
    for (const std::string& c : w_.shape.payloads) std::printf(",%s", c.c_str());
    std::printf("\nthreads: driver=1 scatter_pool=%zu pcrack=1 nproc=%u\n", kScatterThreads,
                std::thread::hardware_concurrency());
    std::printf("loop: %s", w_.open_loop ? "open" : "closed, 1 client");
    if (w_.open_loop) std::printf(" (Poisson, %.0f requests/s)", cfg_.serve_rate);
    std::printf(", warm-up ops=%zu\n", w_.warmup_ops);
  }

  void RunRound(int round, double seconds) {
    store_.reset();
    tracer_.reset();
#ifdef __GLIBC__
    // Hand the previous round's freed heap back, so peak_rss_mb measures one
    // store rather than how earlier rounds fragmented the heap.
    malloc_trim(0);
#endif
    log_ops_.clear();
    log_answers_.clear();
    read_ms_ = read_intended_ms_ = write_ms_ = rebalance_ms_ = send_lag_ms_ = Samples();
    attempted_ = failed_ = 0;
    store_a_read_s_ = 0.0;

    OpSource source(w_, cfg_.seed);
    ServeSchedule serve;
    std::vector<Op> warmup;
    if (w_.open_loop) {
      serve = MakeServeSchedule(w_, cfg_.seed, cfg_.serve_rate, seconds);
      warmup = serve.warmup;
    } else {
      warmup = source.Warmup();
    }
    const double setup_s = Setup(round, warmup);
    timed_begin_ = log_ops_.size();
    const double elapsed = w_.open_loop ? OpenLoop(serve, seconds) : ClosedLoop(&source, seconds);
    Verify(round);

    total_attempted_ += attempted_;
    total_failed_ += failed_;
    total_rebalances_ += rebalance_ms_.size();
    for (std::size_t i = timed_begin_; i < log_ops_.size(); ++i) {
      if (log_ops_[i].type != OpType::kRebalance) continue;
      rows_moved_ += log_answers_[i].count;
      cuts_carried_ += log_answers_[i].cuts;
    }
    const double ops_per_s = static_cast<double>(attempted_) / elapsed;
    setup_s_.Add(setup_s);
    ops_per_s_.Add(ops_per_s);
    read_p50_.Add(read_ms_.Median());
    read_p99_.Add(read_ms_.Percentile(99));
    intended_p50_.Add(read_intended_ms_.Median());
    intended_p99_.Add(read_intended_ms_.Percentile(99));
    write_p50_.Add(write_ms_.Median());
    write_p99_.Add(write_ms_.Percentile(99));
    rebalance_p50_.Add(rebalance_ms_.Median());
    send_lag_p99_.Add(send_lag_ms_.Percentile(99));
    std::printf("round %d: setup_s=%.4f elapsed_s=%.3f ops=%llu (%zu reads, %zu writes, "
                "%zu rebalances) failed=%llu ops_per_s=%.1f read_p50_ms=%.5f "
                "read_p99_ms=%.5f\n",
                round, setup_s, elapsed, static_cast<unsigned long long>(attempted_),
                read_ms_.size(), write_ms_.size(), rebalance_ms_.size(),
                static_cast<unsigned long long>(failed_), ops_per_s, read_ms_.Median(),
                read_ms_.Percentile(99));
    if (round == 1) {
      // What a traced run repeats, and the store-A read time it compares with.
      std::printf("trace_baseline ops=%llu store_a_read_s=%.9f\n",
                  static_cast<unsigned long long>(attempted_), store_a_read_s_);
    }
  }

  /// Load, calibration and warm-up of a fresh store (plus, traced, the
  /// replicas beside it); returns the seconds it took.
  double Setup(int round, const std::vector<Op>& warmup) {
    const double t0 = NowS();
    const aidx::KernelCalibration calibration = Recalibrate();
    store_ = BuildStore(w_.shape, rows_, &pool_);
    if (cfg_.trace) {
      tracer_ = std::make_unique<Tracer>(BuildReplicas(w_.shape, rows_, &pool_, w_.pcrack));
      tracer_->set_recording(false);
    }
    for (std::size_t j = 0; j < warmup.size(); ++j) {
      const aidx::QueryRequest req = RequestFor(warmup[j]);
      const double op_start = NowS();
      const Answer ans = WarmupRead(*store_, warmup[j], req);
      const double op_ms = (NowS() - op_start) * 1e3;
      log_ops_.push_back(warmup[j]);
      log_answers_.push_back(ans);
      if (tracer_) tracer_->Mirror(warmup[j], ans, op_ms, j);
    }
    const double setup_s = NowS() - t0;
    if (tracer_) tracer_->set_recording(true);
    PrintCalibration(static_cast<std::size_t>(round), calibration);
    if (round == 1) first_kernel_ = calibration.kernel_w8;
    kernels_agree_ = kernels_agree_ && calibration.kernel_w8 == first_kernel_;
    return setup_s;
  }

  /// Times one op on store A, then does the run's bookkeeping (paused).
  void Step(const Op& op, double intended_ms_ago, PhaseClock* clock) {
    const aidx::QueryRequest req = RequestFor(op);
    const double t0 = NowS();
    const Answer ans = bench::Execute(*store_, op, req);
    const double t1 = NowS();
    const double service_ms = (t1 - t0) * 1e3;
    const double latency_ms = ans.ok ? service_ms : kFailedMs;
    if (!ans.ok) ++failed_;
    ++attempted_;
    if (IsRead(op.type)) {
      read_ms_.Add(latency_ms);
      read_intended_ms_.Add(ans.ok ? service_ms + intended_ms_ago : kFailedMs);
      store_a_read_s_ += service_ms / 1e3;
    } else if (op.type == OpType::kRebalance) {
      rebalance_ms_.Add(latency_ms);
      std::printf("rebalance %zu: shard %zu -> %zu, %llu rows, %llu cuts carried, %.3f ms\n",
                  rebalance_ms_.size(), op.from, op.to,
                  static_cast<unsigned long long>(ans.count),
                  static_cast<unsigned long long>(ans.cuts), latency_ms);
    } else {
      write_ms_.Add(latency_ms);
    }
    log_ops_.push_back(op);
    log_answers_.push_back(ans);
    if (tracer_) tracer_->Mirror(op, ans, service_ms, log_ops_.size() - 1);
    clock->PauseSince(t1);
  }

  /// Returns the measured seconds.
  double ClosedLoop(OpSource* source, double seconds) {
    std::vector<Op> chunk;
    std::size_t next = 0;
    PhaseClock clock;
    clock.Start();
    for (std::uint64_t i = 0;; ++i) {
      if (next == chunk.size()) {
        const double t = NowS();
        chunk = source->NextChunk();
        next = 0;
        clock.PauseSince(t);
      }
      const Op& op = chunk[next++];
      if (cfg_.ops > 0) {
        if (i >= cfg_.ops) break;
      } else if (clock.Elapsed() >= seconds &&
                 (w_.rebalance_every == 0 || (op.type == OpType::kRebalance && op.from == 0))) {
        // rebalance rounds end on a whole out-and-back cycle: one 0.3-0.7 s
        // move more or less would otherwise swing the round's ops_per_s.
        break;
      }
      Step(op, 0.0, &clock);
    }
    return clock.Elapsed();
  }

  /// Sends each request at its arrival time (or as soon as the previous one
  /// completes, if later); latency runs from the arrival time.
  double OpenLoop(const ServeSchedule& serve, double seconds) {
    PhaseClock clock;
    clock.Start();
    for (std::size_t i = 0; i < serve.requests.size(); ++i) {
      const double due = serve.arrivals[i];
      for (double now = clock.Elapsed(); now < due; now = clock.Elapsed()) {
        if (due - now > 2e-4) {
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now - 1e-4));
        }
      }
      const double lag_s = clock.Elapsed() - due;
      send_lag_ms_.Add(lag_s * 1e3);
      Step(serve.requests[i], lag_s * 1e3, &clock);
    }
    return std::max(seconds, clock.Elapsed());
  }

  [[noreturn]] void Mismatch(int round, std::size_t i, const std::string& what) const {
    const bool timed = i >= timed_begin_;
    Fatal("oracle mismatch: workload=" + w_.name + " seed=" + std::to_string(cfg_.seed) +
          " round=" + std::to_string(round) +
          " op=" + std::to_string(timed ? i - timed_begin_ : i) +
          (timed ? " (timed)" : " (warm-up)") + " type=" + TypeName(log_ops_[i].type) + ": " +
          what);
  }

  /// Replays the round's op log against a fresh oracle, then checks every
  /// shard's row count against where the routing puts the oracle's keys.
  void Verify(int round) {
    const std::size_t width = w_.shape.width();
    std::vector<std::int64_t> initial_keys(w_.shape.rows);
    for (std::size_t r = 0; r < w_.shape.rows; ++r) initial_keys[r] = rows_[r * width];
    KeyOracle keys(w_.shape.domain, initial_keys);
    const std::int64_t slice_hi = RangeBoundaries(w_.shape.domain)[0];
    std::size_t slice_owner = 0;
    for (std::size_t i = 0; i < log_ops_.size(); ++i) {
      const Op& op = log_ops_[i];
      const Answer& ans = log_answers_[i];
      if (!ans.ok) continue;  // counted in failed; a failed op changed nothing
      switch (op.type) {
        case OpType::kCount: {
          const std::uint64_t want = keys.Count(op.pred);
          if (want != ans.count) {
            Mismatch(round, i,
                     "count " + std::to_string(ans.count) + ", oracle " + std::to_string(want));
          }
          break;
        }
        case OpType::kSum: {
          const double want = static_cast<double>(keys.Sum(op.pred));
          if (want != ans.sum) {
            Mismatch(round, i,
                     "sum " + std::to_string(ans.sum) + ", oracle " + std::to_string(want));
          }
          break;
        }
        case OpType::kSelect:
          if (!(tuples_->Digest(op.pred) == ans.digest)) {
            Mismatch(round, i, "projected tuples differ from the oracle's");
          }
          break;
        case OpType::kInsert:
          keys.Insert(op.key);
          break;
        case OpType::kDelete:
          if (keys.Delete(op.key) != ans.deleted) {
            Mismatch(round, i, "delete of key " + std::to_string(op.key) + " returned " +
                                   (ans.deleted ? "true" : "false"));
          }
          break;
        case OpType::kRebalance:
          if (ans.count != keys.CountHalfOpen(op.lo, op.hi)) {
            Mismatch(round, i, "moved " + std::to_string(ans.count) + " rows, oracle holds " +
                                   std::to_string(keys.CountHalfOpen(op.lo, op.hi)));
          }
          slice_owner = op.to;
          break;
      }
    }

    std::vector<std::uint64_t> want(kShards, 0);
    if (w_.shape.routing == aidx::RoutingKind::kRange) {
      std::int64_t lo = 0;
      const std::vector<std::int64_t> bounds = RangeBoundaries(w_.shape.domain);
      for (std::size_t s = 0; s < kShards; ++s) {
        const std::int64_t hi = s + 1 < kShards ? bounds[s] : w_.shape.domain;
        want[s] = keys.CountHalfOpen(lo, hi);
        lo = hi;
      }
      const std::uint64_t slice = keys.CountHalfOpen(0, slice_hi);
      want[0] -= slice;
      want[slice_owner] += slice;
    }
    std::uint64_t total = 0;
    const std::string where = "oracle mismatch: workload=" + w_.name +
                              " seed=" + std::to_string(cfg_.seed) +
                              " round=" + std::to_string(round) + ": ";
    for (const aidx::ShardStats& s : store_->Stats()) {
      std::printf("round %d shard %zu: rows=%zu cracked_pieces=%zu pending_update_bytes=%zu "
                  "cached_paths=%zu\n",
                  round, s.shard, s.rows, s.cracked_pieces, s.pending_update_bytes,
                  s.cached_paths);
      total += s.rows;
      if (w_.shape.routing == aidx::RoutingKind::kRange && s.rows != want[s.shard]) {
        Fatal(where + "shard " + std::to_string(s.shard) + " holds " + std::to_string(s.rows) +
              " rows, routing puts " + std::to_string(want[s.shard]) + " there");
      }
    }
    if (total != keys.CountHalfOpen(0, w_.shape.domain)) {
      Fatal(where + "store holds " + std::to_string(total) + " rows in all");
    }
  }

  void Report() {
    std::printf("calibration kernels agree across rounds: %s\n", kernels_agree_ ? "yes" : "NO");
    const double failed_frac =
        total_attempted_ == 0
            ? 0.0
            : static_cast<double>(total_failed_) / static_cast<double>(total_attempted_);
    MetricSet e2e;
    e2e.Set("setup_s", setup_s_.Median(), "s");
    e2e.Set("ops_per_s", ops_per_s_.Median(), "1/s");
    e2e.Set("read_p50_ms", read_p50_.Median(), "ms");
    e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");

    // End-to-end figures that are not gated: the tails swing with the
    // host's vCPU preemption, and the rest exist only on some workloads.
    MetricSet extra;
    extra.Set("read_p99_ms", read_p99_.Median(), "ms");
    extra.Set("read_intended_p50_ms", intended_p50_.Median(), "ms");
    extra.Set("read_intended_p99_ms", intended_p99_.Median(), "ms");
    extra.Set("write_p50_ms", write_p50_.Median(), "ms");
    extra.Set("write_p99_ms", write_p99_.Median(), "ms");
    extra.Set("rebalance_p50_ms", rebalance_p50_.Median(), "ms");
    extra.Set("rebalance_count", static_cast<double>(total_rebalances_), "count");
    extra.Set("failed_frac", failed_frac, "fraction");
    extra.Set("bench.send_lag_ms_p99", send_lag_p99_.Median(), "ms");
    extra.Set("dist.rows_moved", static_cast<double>(rows_moved_), "count");
    extra.Set("dist.cuts_carried", static_cast<double>(cuts_carried_), "count");

    if (!cfg_.trace) {
      std::printf("end-to-end metrics (medians over rounds):\n");
      e2e.PrintTable();
      extra.PrintTable();
      e2e.EmitJson(true, total_attempted_, total_failed_);
      return;
    }
    MetricSet layers = extra;
    tracer_->Report(*store_, &layers);
    layers.Set("bench.trace_overhead_frac",
               cfg_.baseline_read_s > 0.0 ? store_a_read_s_ / cfg_.baseline_read_s - 1.0 : 0.0,
               "fraction");
    std::printf("per-layer metrics (traced run):\n");
    layers.PrintTable();
    layers.EmitJson(true, total_attempted_, total_failed_);
  }

  RunConfig cfg_;
  WorkloadSpec w_;
  aidx::ThreadPool pool_;
  std::vector<std::int64_t> rows_;
  std::unique_ptr<TupleOracle> tuples_;

  // The current round.
  std::unique_ptr<aidx::ShardedDatabase> store_;
  std::unique_ptr<Tracer> tracer_;
  std::vector<Op> log_ops_;          // warm-up ops, then timed ops
  std::vector<Answer> log_answers_;  // store A's answers, same order
  std::size_t timed_begin_ = 0;
  // read_ms_ times each read from its send; read_intended_ms_ from when it
  // was due (the same for closed loops).
  Samples read_ms_, read_intended_ms_, write_ms_, rebalance_ms_, send_lag_ms_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double store_a_read_s_ = 0.0;

  // One sample per round.
  Samples setup_s_, ops_per_s_, read_p50_, read_p99_, intended_p50_, intended_p99_, write_p50_,
      write_p99_, rebalance_p50_, send_lag_p99_;
  std::uint64_t total_attempted_ = 0;
  std::uint64_t total_failed_ = 0;
  std::size_t total_rebalances_ = 0;
  std::uint64_t rows_moved_ = 0;    // summed RebalanceReport::rows_moved
  std::uint64_t cuts_carried_ = 0;  // summed RebalanceReport::cuts_carried
  aidx::CrackKernel first_kernel_ = aidx::CrackKernel::kAuto;
  bool kernels_agree_ = true;
};

}  // namespace

void RunWorkload(const RunConfig& config) {
  std::optional<WorkloadSpec> spec = SpecFor(config.workload);
  if (!spec) Fatal("unknown workload '" + config.workload + "'");
  if (spec->open_loop && !(config.serve_rate > 0.0)) {
    Fatal("workload " + config.workload + " needs --serve-rate > 0");
  }
  Run run(config, std::move(*spec));
  run.Execute();
}

}  // namespace bench
