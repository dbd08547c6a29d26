// ResourceGovernor: a per-database soft memory budget over the engine's
// auxiliary state — sideways projection maps, pending merge runs / update
// stores, and the striped write buckets.
//
// The budget is SOFT: nothing here ever fails a query or a write. The
// governor answers two questions — "are we over budget?" and "may this
// much more be admitted?" — and the database reacts by degrading: shed the
// sideways map cache (maps are pure acceleration state and rebuild on
// demand) and fall back to scan-plus-crack-later for projections. That
// mirrors the paper's stance that adaptive index state is an investment,
// never a correctness dependency, so under pressure the engine gives the
// memory back and keeps answering queries at scan speed.
//
// Usage accounting is component-tagged absolute gauges (SetUsage), not
// charge/release pairs: the owning structures already know their exact
// sizes, and a gauge cannot leak on an early-return path. All reads are
// relaxed atomics so hot paths can probe pressure for free.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <mutex>
#include <utility>

#include "util/macros.h"

namespace aidx {

enum class ResourceComponent : int {
  kSidewaysMaps = 0,
  kPendingUpdates = 1,
  kWriteBuffers = 2,
};
inline constexpr int kNumResourceComponents = 3;

class ResourceGovernor {
 public:
  static constexpr std::size_t kUnlimited = std::numeric_limits<std::size_t>::max();

  struct Options {
    /// Soft budget in bytes across all components; kUnlimited disables
    /// every pressure reaction.
    std::size_t soft_budget_bytes = kUnlimited;
  };

  ResourceGovernor() = default;
  explicit ResourceGovernor(Options options) : options_(options) {}

  AIDX_DISALLOW_COPY_AND_ASSIGN(ResourceGovernor);

  std::size_t budget_bytes() const { return options_.soft_budget_bytes; }
  void set_budget_bytes(std::size_t bytes) { options_.soft_budget_bytes = bytes; }
  bool unlimited() const { return options_.soft_budget_bytes == kUnlimited; }

  /// Updates the absolute usage gauge of one component.
  void SetUsage(ResourceComponent component, std::size_t bytes) {
    usage_[static_cast<int>(component)].store(bytes, std::memory_order_relaxed);
  }

  std::size_t UsageOf(ResourceComponent component) const {
    return usage_[static_cast<int>(component)].load(std::memory_order_relaxed);
  }

  std::size_t used_bytes() const {
    std::size_t total = 0;
    for (const auto& gauge : usage_) total += gauge.load(std::memory_order_relaxed);
    return total;
  }

  bool UnderPressure() const { return OverBudget(used_bytes()); }

  /// True when `bytes` of usage would exceed the budget — UnderPressure
  /// over a total the caller computed fresh instead of the last gauges.
  bool OverBudget(std::size_t bytes) const {
    return !unlimited() && bytes > options_.soft_budget_bytes;
  }

  /// Admission check: would `incoming_bytes` more fit under the budget?
  /// Denials are counted but carry no obligation beyond "degrade".
  bool Admit(std::size_t incoming_bytes) {
    if (unlimited()) return true;
    const std::size_t used = used_bytes();
    if (incoming_bytes <= options_.soft_budget_bytes &&
        used <= options_.soft_budget_bytes - incoming_bytes) {
      return true;
    }
    admission_denials_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Installed by the owner; invoked by MaybeShed to give memory back
  /// (the database sheds its sideways map cache here).
  void SetPressureCallback(std::function<void()> callback) {
    const std::lock_guard<std::mutex> guard(mu_);
    pressure_callback_ = std::move(callback);
  }

  /// Runs the pressure callback when current usage plus `incoming_bytes`
  /// would overflow the budget; returns true when a shed was attempted.
  /// Callers re-check Admit afterwards.
  bool MaybeShed(std::size_t incoming_bytes = 0) {
    if (unlimited()) return false;
    const bool over = incoming_bytes > options_.soft_budget_bytes ||
                      used_bytes() > options_.soft_budget_bytes - incoming_bytes;
    if (!over) return false;
    std::function<void()> callback;
    {
      const std::lock_guard<std::mutex> guard(mu_);
      callback = pressure_callback_;
    }
    if (callback) {
      sheds_.fetch_add(1, std::memory_order_relaxed);
      callback();
      return true;
    }
    return false;
  }

  std::size_t admission_denials() const {
    return admission_denials_.load(std::memory_order_relaxed);
  }
  std::size_t sheds() const { return sheds_.load(std::memory_order_relaxed); }

 private:
  Options options_;
  std::array<std::atomic<std::size_t>, kNumResourceComponents> usage_{};
  std::atomic<std::size_t> admission_denials_{0};
  std::atomic<std::size_t> sheds_{0};
  std::mutex mu_;
  std::function<void()> pressure_callback_;
};

}  // namespace aidx
