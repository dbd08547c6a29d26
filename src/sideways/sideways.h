// Sideways cracking: multi-column select-project queries over a set of
// cracker maps kept consistent by adaptive alignment (SIGMOD 2009).
//
// One SidewaysCracker serves one head (selection) attribute A and any
// number of tail (projection) attributes B1..Bk:
//   * map M_{A,Bi} is materialized lazily, the first time a query projects
//     Bi — only queried columns ever pay storage (partial indexing);
//   * every select predicate, row insert and row delete is appended to a
//     shared *operation log*; a map is aligned by replaying the log entries
//     it has not applied yet, which reproduces the exact same physical
//     layout in every map (adaptive alignment) so positions correspond
//     across maps row by row;
//   * a map that joins a cohort whose log already contains updates cannot
//     be rebuilt by replay (an interleaved crack/ripple history is not
//     reproducible from the current base), so it *clones* a fully-aligned
//     sibling's layout and regathers its own tail values by rid;
//   * a storage budget (partial sideways cracking) caps the bytes pinned by
//     maps; least-recently-used maps are evicted and rebuilt on demand.
//
// A cracker is backed by a Table: column spans are fetched on demand, so
// the cracker survives base reallocation, and ApplyInsert / ApplyDelete
// keep the maps maintained *incrementally* under row-atomic DML
// (update-aware sideways cracking; the Database facade feeds them).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/scan.h"
#include "sideways/cracker_map.h"
#include "storage/predicate.h"
#include "storage/table.h"
#include "storage/types.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/status.h"

namespace aidx {

/// Workload-facing counters.
struct SidewaysStats {
  std::size_t num_queries = 0;
  std::size_t maps_created = 0;
  std::size_t maps_cloned = 0;  // of maps_created, built by cohort clone
  std::size_t maps_evicted = 0;
  std::size_t alignment_replays = 0;  // select log entries replayed for catch-up
  std::size_t dml_inserts = 0;
  std::size_t dml_deletes = 0;
};

/// Result of a select-project: one value vector per requested tail column,
/// all the same length, row-aligned.
template <ColumnValue T>
struct ProjectionResult {
  std::size_t num_rows = 0;
  std::vector<std::string> column_names;
  std::vector<std::vector<T>> columns;
};

template <ColumnValue T>
class SidewaysCracker {
 public:
  struct Options {
    /// Maximum bytes of cracker-map storage (partial sideways cracking).
    /// Unlimited by default.
    std::size_t storage_budget_bytes = std::numeric_limits<std::size_t>::max();
    /// When true, every registered map is realigned after every query
    /// (the eager strategy the adaptive-alignment ablation compares against).
    bool eager_alignment = false;
    /// Crack kernel applied by every map (head and tail move in tandem, so
    /// this exercises the kernels' payload path; core/crack_ops.h).
    CrackKernel kernel = CrackKernel::kAuto;
  };

  /// Spans are fetched from `table` (which must outlive the cracker) on
  /// demand; ApplyInsert / ApplyDelete feed row-atomic DML into the
  /// operation log so cracked investment survives writes.
  SidewaysCracker(Table* table, std::string head_name, Options options = {})
      : options_(options), table_(table), head_name_(std::move(head_name)) {
    AIDX_CHECK(table_ != nullptr) << "sideways cracker needs a table";
  }

  AIDX_DEFAULT_MOVE_ONLY(SidewaysCracker);

  /// Registers a tail column (no map materialized yet); the span is fetched
  /// per access, so later base growth needs no re-registration.
  Status AddTailColumn(std::string name) {
    if (name == head_name_) {
      return Status::InvalidArgument("tail '" + name + "' is the head column");
    }
    AIDX_RETURN_NOT_OK(table_->template GetTypedColumn<T>(name).status());
    if (IsRegistered(name)) {
      return Status::AlreadyExists("tail '" + name + "' already registered");
    }
    tail_order_.push_back(std::move(name));
    return Status::OK();
  }

  /// Registered tail names, registration order. ApplyInsert's tail values
  /// arrive in exactly this order.
  const std::vector<std::string>& registered_tails() const { return tail_order_; }

  /// Logs a row insert: the base row (rid, head_value, tails in
  /// registered_tails() order) has just been appended to the table. O(1)
  /// here; each live map folds the insert in (ripple move) the next time it
  /// is touched.
  void ApplyInsert(row_id_t rid, T head_value, std::vector<T> tails) {
    (void)failpoints::sideways_ripple.Inject();  // delay-only: apply phase
    AIDX_CHECK(tails.size() == tail_order_.size())
        << "insert carries " << tails.size() << " tails, " << tail_order_.size()
        << " registered";
    LogOp op;
    op.kind = LogOp::Kind::kInsert;
    op.rid = rid;
    op.head_value = head_value;
    op.tails = std::move(tails);
    ops_.push_back(std::move(op));
    ++num_dml_ops_;
    ++stats_.dml_inserts;
  }

  /// Logs a row delete: the base row (rid, head_value) is about to be
  /// erased from the table.
  void ApplyDelete(row_id_t rid, T head_value) {
    (void)failpoints::sideways_ripple.Inject();  // delay-only: apply phase
    LogOp op;
    op.kind = LogOp::Kind::kDelete;
    op.rid = rid;
    op.head_value = head_value;
    ops_.push_back(std::move(op));
    ++num_dml_ops_;
    ++stats_.dml_deletes;
  }

  /// σ_pred(A) with projection of `tail_names`: returns row-aligned value
  /// vectors. Cracks (and aligns) every involved map as a side effect.
  Result<ProjectionResult<T>> SelectProject(const RangePredicate<T>& pred,
                                            const std::vector<std::string>& tail_names) {
    // Fires before the query logs or touches any map, so an injected error
    // leaves the cracker exactly as it was.
    AIDX_RETURN_NOT_OK(failpoints::sideways_select.Inject());
    ++stats_.num_queries;
    if (tail_names.empty()) {
      return Status::InvalidArgument("select-project needs at least one tail column");
    }
    // The query's predicate joins the log; maps catch up to the full log.
    LogSelect(pred);
    std::vector<MapEntry*> entries;
    entries.reserve(tail_names.size());
    for (const std::string& name : tail_names) {
      AIDX_ASSIGN_OR_RETURN(MapEntry * entry, GetOrCreateMap(name, tail_names));
      entries.push_back(entry);
    }
    ProjectionResult<T> out;
    out.column_names = tail_names;
    bool first = true;
    PositionRange range{0, 0};
    for (MapEntry* entry : entries) {
      Align(entry);
      // After alignment the predicate's cuts exist; Select just looks up.
      const PositionRange r = entry->map->Select(pred);
      if (first) {
        range = r;
        out.num_rows = r.size();
        first = false;
      } else {
        // Alignment guarantees identical layouts across maps.
        AIDX_CHECK(r.begin == range.begin && r.end == range.end)
            << "maps diverged: alignment invariant broken";
      }
      auto& column = out.columns.emplace_back();
      column.reserve(r.size());
      for (std::size_t i = r.begin; i < r.end; ++i) {
        column.push_back(entry->map->tail_at(i));
      }
    }
    if (options_.eager_alignment) AlignAll();
    return out;
  }

  /// σ_pred(A) aggregating SUM(tail): the single-map fast path.
  Result<long double> SelectSum(const RangePredicate<T>& pred,
                                const std::string& tail_name) {
    ++stats_.num_queries;
    LogSelect(pred);
    AIDX_ASSIGN_OR_RETURN(MapEntry * entry, GetOrCreateMap(tail_name, {tail_name}));
    Align(entry);
    const PositionRange r = entry->map->Select(pred);
    const SumAcc<T> sum = SumEach<T>(
        r.size(), [&](std::size_t i) { return entry->map->tail_at(r.begin + i); });
    if (options_.eager_alignment) AlignAll();
    return RoundSum<T>(sum);
  }

  /// Multi-attribute selection σ_head_pred(A) ∧ σ_tail_pred(B) using map
  /// M_AB (SIGMOD'09 multi-selection processing): the head predicate is
  /// answered by cracking — a contiguous candidate range — and the tail
  /// predicate filters that range's co-located tail values, no row-id
  /// gathers involved.
  Result<std::size_t> SelectCountWhere(const RangePredicate<T>& head_pred,
                                       const std::string& tail_name,
                                       const RangePredicate<T>& tail_pred) {
    ++stats_.num_queries;
    LogSelect(head_pred);
    AIDX_ASSIGN_OR_RETURN(MapEntry * entry, GetOrCreateMap(tail_name, {tail_name}));
    Align(entry);
    const PositionRange r = entry->map->Select(head_pred);
    std::size_t count = 0;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      count += tail_pred.Matches(entry->map->tail_at(i)) ? 1 : 0;
    }
    if (options_.eager_alignment) AlignAll();
    return count;
  }

  const SidewaysStats& stats() const { return stats_; }
  /// Select predicates logged so far (DML log entries not included).
  std::size_t tape_length() const { return num_select_ops_; }
  std::size_t num_live_maps() const { return maps_.size(); }
  /// Read-only view of a live map, nullptr when not materialized. Tests
  /// inspect piece counts and layouts through this.
  const CrackerMap<T>* PeekMap(const std::string& name) const {
    const auto it = maps_.find(name);
    return it == maps_.end() ? nullptr : it->second.map.get();
  }
  /// Bytes an incoming map would pin at the current base size.
  std::size_t per_map_bytes() const { return PerMapBytes(); }
  std::size_t MemoryUsageBytes() const {
    std::size_t total = 0;
    for (const auto& [_, e] : maps_) total += e.map->MemoryUsageBytes();
    return total;
  }

  /// All live maps must satisfy piece invariants and have a log position
  /// within the log. O(maps × n); tests only.
  bool Validate() const {
    for (const auto& [name, entry] : maps_) {
      if (!entry.map->Validate()) return false;
      if (entry.ops_pos > ops_.size()) return false;
    }
    return true;
  }

 private:
  /// One entry of the shared operation log. Selects reorganize, inserts and
  /// deletes ripple; replaying the same sequence from the same start state
  /// is what keeps cohort layouts identical.
  struct LogOp {
    enum class Kind : char { kSelect, kInsert, kDelete };
    Kind kind = Kind::kSelect;
    RangePredicate<T> pred{};          // kSelect
    T head_value{};                    // kInsert / kDelete
    row_id_t rid = 0;                  // kInsert / kDelete
    std::vector<T> tails;              // kInsert: registered_tails() order
  };

  struct MapEntry {
    std::unique_ptr<CrackerMap<T>> map;
    std::size_t ops_pos = 0;     // log entries already applied
    std::size_t tail_index = 0;  // position of this tail in tail_order_
    std::uint64_t last_used = 0;
  };

  bool IsRegistered(const std::string& name) const {
    return std::find(tail_order_.begin(), tail_order_.end(), name) !=
           tail_order_.end();
  }

  void LogSelect(const RangePredicate<T>& pred) {
    LogOp op;
    op.kind = LogOp::Kind::kSelect;
    op.pred = pred;
    ops_.push_back(std::move(op));
    ++num_select_ops_;
  }

  Result<std::span<const T>> ColumnSpan(const std::string& name) const {
    AIDX_ASSIGN_OR_RETURN(const TypedColumn<T>* col,
                          table_->template GetTypedColumn<T>(name));
    return col->Values();
  }

  /// Builds the tail vector for a cohort clone: the sibling's layout gives
  /// (position -> rid); the base gives (rid -> tail value).
  Result<std::vector<T>> GatherTailByRid(const CrackerMap<T>& sibling,
                                         std::span<const T> tail_span) {
    const std::span<const row_id_t> base_rids = table_->row_ids();
    AIDX_CHECK(base_rids.size() == tail_span.size());
    AIDX_CHECK(sibling.size() == tail_span.size())
        << "clone source not fully aligned: " << sibling.size() << " vs "
        << tail_span.size();
    std::unordered_map<row_id_t, std::size_t> pos_of;
    pos_of.reserve(base_rids.size());
    for (std::size_t i = 0; i < base_rids.size(); ++i) {
      pos_of.emplace(base_rids[i], i);
    }
    std::vector<T> out(sibling.size());
    for (std::size_t i = 0; i < sibling.size(); ++i) {
      const auto it = pos_of.find(sibling.rid_at(i));
      AIDX_CHECK(it != pos_of.end()) << "map rid missing from base";
      out[i] = tail_span[it->second];
    }
    return out;
  }

  /// `pinned` names may not be evicted: they belong to the in-flight query
  /// (pointers to their entries are live).
  Result<MapEntry*> GetOrCreateMap(const std::string& name,
                                   const std::vector<std::string>& pinned) {
    const auto order_it = std::find(tail_order_.begin(), tail_order_.end(), name);
    if (order_it == tail_order_.end()) {
      return Status::NotFound("no tail column '" + name + "' registered");
    }
    auto map_it = maps_.find(name);
    if (map_it == maps_.end()) {
      AIDX_ASSIGN_OR_RETURN(const auto tail_span, ColumnSpan(name));
      AIDX_RETURN_NOT_OK(EnsureBudgetFor(PerMapBytes(), pinned));
      MapEntry entry;
      entry.tail_index =
          static_cast<std::size_t>(order_it - tail_order_.begin());
      MapEntry* sibling = nullptr;
      if (num_dml_ops_ > 0 && !maps_.empty()) sibling = &maps_.begin()->second;
      if (sibling != nullptr) {
        // The cohort's layout history includes ripple updates, which a
        // replay from the current base cannot reproduce: clone a fully
        // aligned sibling and regather this tail's values by rid.
        Align(sibling);
        AIDX_ASSIGN_OR_RETURN(std::vector<T> tail,
                              GatherTailByRid(*sibling->map, tail_span));
        entry.map = std::make_unique<CrackerMap<T>>(*sibling->map, std::move(tail));
        entry.ops_pos = ops_.size();
        ++stats_.maps_cloned;
      } else {
        AIDX_ASSIGN_OR_RETURN(const auto head_span, ColumnSpan(head_name_));
        entry.map = std::make_unique<CrackerMap<T>>(head_span, tail_span,
                                                    table_->row_ids(), options_.kernel);
        if (num_dml_ops_ == 0) {
          entry.ops_pos = 0;  // a fresh map replays the whole (select) log
        } else {
          // Empty cohort after updates: the base already reflects every
          // logged DML op, so this map defines the cohort layout — replay
          // the selects only, skip the already-applied updates.
          for (const LogOp& op : ops_) {
            if (op.kind != LogOp::Kind::kSelect) continue;
            entry.map->Select(op.pred);
            ++stats_.alignment_replays;
          }
          entry.ops_pos = ops_.size();
        }
      }
      ++stats_.maps_created;
      map_it = maps_.emplace(name, std::move(entry)).first;
    }
    map_it->second.last_used = ++clock_;
    return &map_it->second;
  }

  void Align(MapEntry* entry) {
    while (entry->ops_pos < ops_.size()) {
      const LogOp& op = ops_[entry->ops_pos];
      switch (op.kind) {
        case LogOp::Kind::kSelect:
          entry->map->Select(op.pred);
          ++stats_.alignment_replays;
          break;
        case LogOp::Kind::kInsert:
          entry->map->RippleInsert(op.head_value, op.tails[entry->tail_index],
                                   op.rid);
          break;
        case LogOp::Kind::kDelete: {
          const bool removed = entry->map->RippleDelete(op.head_value, op.rid);
          AIDX_DCHECK(removed) << "logged delete missing from map";
          (void)removed;
          break;
        }
      }
      ++entry->ops_pos;
    }
  }

  void AlignAll() {
    for (auto& [_, entry] : maps_) Align(&entry);
  }

  std::size_t PerMapBytes() const {
    return table_->num_rows() * CrackerMap<T>::kBytesPerRow;
  }

  /// Evicts LRU maps (never `pinned` ones) until `incoming` extra bytes fit
  /// in the budget.
  Status EnsureBudgetFor(std::size_t incoming,
                         const std::vector<std::string>& pinned) {
    if (incoming > options_.storage_budget_bytes) {
      return Status::ResourceExhausted(
          "storage budget " + std::to_string(options_.storage_budget_bytes) +
          " B cannot hold even one map (" + std::to_string(incoming) + " B)");
    }
    while (MemoryUsageBytes() + incoming > options_.storage_budget_bytes) {
      auto victim = maps_.end();
      for (auto it = maps_.begin(); it != maps_.end(); ++it) {
        if (std::find(pinned.begin(), pinned.end(), it->first) != pinned.end()) {
          continue;
        }
        if (victim == maps_.end() || it->second.last_used < victim->second.last_used) {
          victim = it;
        }
      }
      if (victim == maps_.end()) {
        return Status::ResourceExhausted(
            "storage budget too small for the maps this query projects");
      }
      maps_.erase(victim);
      ++stats_.maps_evicted;
    }
    return Status::OK();
  }

  Options options_;
  Table* table_;
  std::string head_name_;
  std::vector<std::string> tail_order_;  // registration order
  std::unordered_map<std::string, MapEntry> maps_;
  std::vector<LogOp> ops_;
  std::size_t num_select_ops_ = 0;
  std::size_t num_dml_ops_ = 0;
  SidewaysStats stats_;
  std::uint64_t clock_ = 0;
};

}  // namespace aidx
