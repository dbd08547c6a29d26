// Failpoint: named, registry-listed fault-injection points.
//
// Every layer with side effects declares a failpoint on its mutation path
// (the catalog lives at the bottom of this header; docs/ROBUSTNESS.md
// documents which modes each point honors). A failpoint is DISARMED by
// default and costs exactly one relaxed atomic load on that path — cheap
// enough for piece-granularity crack loops. Armed, it applies a policy:
//
//   kError          return a Status of the configured code
//   kDelay          sleep for the configured duration, then return OK
//   kProbabilistic  return the error with probability p, else OK
//   kCallback       delegate to a std::function (test-only; lets a test
//                   fail selectively by inspecting the injection scope)
//
// Arming is either programmatic (tests call Arm/Disarm or
// FailpointRegistry::Configure) or environmental: AIDX_FAILPOINTS holds a
// `;`- or `,`-separated list of `name=mode` entries parsed at startup,
// e.g.
//
//   AIDX_FAILPOINTS="threadpool.submit=error;crack.piece=delay(200)"
//
// Mode grammar: `off`, `error`, `error(<code>)`, `delay(<micros>)`,
// `prob(<p>)`, `prob(<p>,<code>)`, each optionally suffixed `*N` to
// auto-disarm after N fires (`error*2` fails twice, then passes). Codes
// use lower_snake names of StatusCode (`internal`, `resource_exhausted`,
// `deadline_exceeded`, ...).
//
// Points whose call sites cannot propagate Status (void crack loops
// reached without a QueryContext, ripple moves inside row-atomic apply
// phases) swallow injected errors and honor only the delay/hit-counting
// side of the policy; the catalog marks these delay-only.
//
// Defining AIDX_NO_FAILPOINTS compiles every check out entirely (the
// bench guard's "build without them" baseline).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/macros.h"
#include "util/status.h"

namespace aidx {

enum class FailpointMode : char {
  kOff = 0,
  kError,
  kDelay,
  kProbabilistic,
  kCallback,
};

/// Behavior of one armed failpoint. Plain aggregate so tests can brace-init.
struct FailpointPolicy {
  FailpointMode mode = FailpointMode::kOff;
  /// Code injected by kError / kProbabilistic fires.
  StatusCode code = StatusCode::kInternal;
  /// Message attached to injected errors (a default is derived if empty).
  std::string message;
  /// Sleep applied by kDelay fires, in microseconds.
  std::uint32_t delay_micros = 0;
  /// Fire probability for kProbabilistic, in [0, 1].
  double probability = 1.0;
  /// Auto-disarm after this many fires; 0 means unlimited.
  std::uint64_t max_hits = 0;
  /// Seed for the probabilistic draw (deterministic schedules).
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
  /// kCallback handler; receives the call site's scope string (for the DML
  /// point: "<table>\x1f<column>").
  std::function<Status(std::string_view scope)> handler;
};

class Failpoint {
 public:
  /// Registers the point under `name` in the global registry and applies
  /// any matching AIDX_FAILPOINTS entry. `name` must outlive the process
  /// (string literals only — the catalog below).
  explicit Failpoint(const char* name);

  AIDX_DISALLOW_COPY_AND_ASSIGN(Failpoint);

  const char* name() const { return name_; }

  /// True when a policy is armed. One relaxed load; call sites that need
  /// to build a scope string first should gate on this.
  bool armed() const {
#ifdef AIDX_NO_FAILPOINTS
    return false;
#else
    return armed_.load(std::memory_order_relaxed) != 0;
#endif
  }

  /// The hot-path check: OK when disarmed (one relaxed atomic load),
  /// otherwise evaluates the armed policy.
  Status Inject(std::string_view scope = {}) {
#ifdef AIDX_NO_FAILPOINTS
    (void)scope;
    return Status::OK();
#else
    if (AIDX_PREDICT_TRUE(armed_.load(std::memory_order_relaxed) == 0)) {
      return Status::OK();
    }
    return Fire(scope);
#endif
  }

  void Arm(FailpointPolicy policy);
  void Disarm();

  /// Number of times an armed policy actually fired (errors injected,
  /// delays applied, callbacks run). Probabilistic non-fires don't count.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Number of times Inject() found the point armed (fired or not).
  std::uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  void ResetCounters();

 private:
  Status Fire(std::string_view scope);

  const char* name_;
  std::atomic<int> armed_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> evaluations_{0};
  mutable std::mutex mu_;
  FailpointPolicy policy_;       // guarded by mu_
  std::uint64_t fired_ = 0;      // guarded by mu_; drives max_hits
  std::uint64_t rng_state_ = 0;  // guarded by mu_; probabilistic draws
};

/// Process-wide name -> Failpoint* table. Points register themselves at
/// construction; the registry never owns them.
class FailpointRegistry {
 public:
  static FailpointRegistry& Instance();

  void Register(Failpoint* point);
  /// nullptr when no point with that name exists (yet).
  Failpoint* Find(std::string_view name);
  std::vector<Failpoint*> List();

  /// Parses an AIDX_FAILPOINTS-style spec ("name=mode;name=mode") and arms
  /// the named points. Unknown names are remembered and applied if such a
  /// point registers later (env specs must work regardless of static-init
  /// order). Malformed entries yield InvalidArgument.
  Status Configure(std::string_view spec);

  void DisarmAll();

 private:
  FailpointRegistry();

  std::mutex mu_;
  std::vector<Failpoint*> points_;
  // name=mode entries whose point has not registered yet.
  std::vector<std::pair<std::string, std::string>> pending_;
};

/// Scope-string separator for multi-part scopes (table/column).
inline constexpr char kFailpointScopeSep = '\x1f';

// ---------------------------------------------------------------------------
// Catalog. One inline global per point: call sites hold a direct reference,
// so a disarmed check is a single relaxed load with no registry lookup.
// Modes honored are noted per point; see docs/ROBUSTNESS.md.
// ---------------------------------------------------------------------------
namespace failpoints {

/// Before each piece-level crack (CrackerColumn resolve/stochastic loops and
/// the striped resolve/crack-in-three paths). Errors surface only on
/// QueryContext-carrying paths; otherwise delay-only.
inline Failpoint crack_piece{"crack.piece"};

/// SegmentOrganizer organize/append steps (adaptive merging, hybrids).
/// Delay-only: the organizer's callers cannot propagate Status.
inline Failpoint organizer_step{"organizer.step"};

/// Per-column validate step of row-atomic DML (Database::PrepareRowDml).
/// Error- and callback-capable; fires before any mutation, so a fired
/// error aborts the whole row with no torn state.
inline Failpoint engine_dml_validate{"engine.dml_validate"};

/// ThreadPool::TrySubmit; an injected error makes it return false.
inline Failpoint threadpool_submit{"threadpool.submit"};

/// SidewaysCracker::SelectProject entry. Error-capable (Status-returning
/// path); the database surfaces the error to the caller unchanged.
inline Failpoint sideways_select{"sideways.select"};

/// Sideways ripple ops (ApplyInsert/ApplyDelete across clones).
/// Delay-only: fires inside the cannot-fail apply phase of row-atomic DML.
inline Failpoint sideways_ripple{"sideways.ripple"};

/// Table::AddColumn entry (schema changes). Error-capable.
inline Failpoint storage_add_column{"storage.add_column"};

/// Table::CommitAppendedRow (apply phase). Delay-only.
inline Failpoint storage_commit_row{"storage.commit_row"};

/// ShardRouter::ShardOf — every routed DML and rebalance boundary lookup.
/// Error-capable; fires before the owning node is touched, so a routed
/// operation aborts with no shard mutated. Scope: the table name.
inline Failpoint dist_route{"dist.route"};

/// Per-shard scatter task entry (ShardedDatabase Count/Sum/SelectProject
/// fan-out). Error-capable: an injected error fails that shard's leg and
/// cancels the remaining legs via the chained scatter token. Scope:
/// "table\x1fshard<i>".
inline Failpoint dist_scatter{"dist.scatter"};

/// Per serialized piece-bundle chunk during Rebalance. Error-capable, and
/// evaluated in the rebalance validate phase — before the first row leaves
/// the source shard — so a fired error aborts the whole migration with
/// both shards untouched. Scope: "table\x1fpiece<i>".
inline Failpoint dist_migrate_piece{"dist.migrate_piece"};

}  // namespace failpoints

}  // namespace aidx
