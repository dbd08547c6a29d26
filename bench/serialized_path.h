// SerializedAccessPath: coarse-latched sharing of an adaptive structure.
//
// Concurrency control for adaptive indexing is one of the tutorial's *open
// research topics* (§2, "Open Topics"): every query is also a write, so
// classic shared-read locking does not apply. This wrapper is the baseline
// any real solution must beat — one exclusive latch serializing all
// queries — making any AccessPath safe to share across threads without
// changing its adaptive behaviour. It stays outside the library:
// bench_e11 measures the piece-latched parallel column against it, and
// integration_test checks that it keeps a crack path exact under threads.
#pragma once

#include <memory>
#include <mutex>
#include <utility>

#include "exec/access_path.h"

namespace aidx {

template <ColumnValue T>
class SerializedAccessPath final : public AccessPath<T> {
 public:
  explicit SerializedAccessPath(std::unique_ptr<AccessPath<T>> inner)
      : inner_(std::move(inner)) {
    AIDX_CHECK(inner_ != nullptr);
  }

  std::string name() const override { return inner_->name() + "+latch"; }

  std::size_t Count(const RangePredicate<T>& pred) override {
    const std::lock_guard<std::mutex> guard(latch_);
    return inner_->Count(pred);
  }

  SumAcc<T> SumPartial(const RangePredicate<T>& pred) override {
    const std::lock_guard<std::mutex> guard(latch_);
    return inner_->SumPartial(pred);
  }

  row_id_t Insert(T value) override {
    const std::lock_guard<std::mutex> guard(latch_);
    return inner_->Insert(value);
  }

  bool Delete(T value) override {
    const std::lock_guard<std::mutex> guard(latch_);
    return inner_->Delete(value);
  }

  void InsertBatch(std::span<const T> values) override {
    const std::lock_guard<std::mutex> guard(latch_);
    inner_->InsertBatch(values);
  }

  std::size_t DeleteBatch(std::span<const T> values) override {
    const std::lock_guard<std::mutex> guard(latch_);
    return inner_->DeleteBatch(values);
  }

  UpdateStats update_stats() const override {
    const std::lock_guard<std::mutex> guard(latch_);
    return inner_->update_stats();
  }

 private:
  std::unique_ptr<AccessPath<T>> inner_;
  mutable std::mutex latch_;
};

/// Wraps a freshly built strategy in the serializing latch.
template <ColumnValue T>
std::unique_ptr<AccessPath<T>> MakeSerializedAccessPath(std::span<const T> base,
                                                        const StrategyConfig& config) {
  return std::make_unique<SerializedAccessPath<T>>(MakeAccessPath<T>(base, config));
}

}  // namespace aidx
