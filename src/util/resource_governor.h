// ResourceGovernor: a per-database soft memory budget over the engine's
// auxiliary state — sideways projection maps and pending update stores
// (delta buffers, pending merge runs, striped write buckets).
//
// The budget is SOFT: nothing here ever fails a query or a write. The
// governor answers two questions — "is this total over budget?" and "may
// this much more be admitted on top of it?" — and the database reacts by
// degrading: shed the sideways map cache (maps are pure acceleration state
// and rebuild on demand) and fall back to scan-plus-crack-later for
// projections. That mirrors the paper's stance that adaptive index state
// is an investment, never a correctness dependency, so under pressure the
// engine gives the memory back and keeps answering queries at scan speed.
//
// The governor keeps no usage gauges: the owning structures already know
// their exact sizes, so the database sums them fresh at each decision and
// passes the total in. A total computed on the spot cannot go stale after
// DML or leak on an early-return path. The governor counts what the
// database did about pressure (denied admissions, sheds); like the
// Database that owns it, it is externally serialized.
#pragma once

#include <cstddef>
#include <limits>

namespace aidx {

class ResourceGovernor {
 public:
  static constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

  /// Soft budget in bytes; kUnlimited disables every pressure reaction.
  explicit ResourceGovernor(std::size_t budget_bytes = kUnlimited)
      : budget_bytes_(budget_bytes) {}

  std::size_t budget_bytes() const { return budget_bytes_; }
  void set_budget_bytes(std::size_t bytes) { budget_bytes_ = bytes; }
  bool unlimited() const { return budget_bytes_ == kUnlimited; }

  /// True when `used_bytes` of usage exceeds the budget.
  bool OverBudget(std::size_t used_bytes) const {
    return !unlimited() && used_bytes > budget_bytes_;
  }

  /// Admission check: would `incoming_bytes` more fit on top of
  /// `used_bytes`? Overflow-safe for any pair of sizes. Denials are
  /// counted but carry no obligation beyond "degrade".
  bool Admit(std::size_t used_bytes, std::size_t incoming_bytes) {
    if (unlimited()) return true;
    if (incoming_bytes <= budget_bytes_ && used_bytes <= budget_bytes_ - incoming_bytes) {
      return true;
    }
    ++admission_denials_;
    return false;
  }

  /// Records that the owner gave memory back after a denial.
  void CountShed() { ++sheds_; }

  std::size_t admission_denials() const { return admission_denials_; }
  std::size_t sheds() const { return sheds_; }

 private:
  std::size_t budget_bytes_;
  std::size_t admission_denials_ = 0;
  std::size_t sheds_ = 0;
};

}  // namespace aidx
