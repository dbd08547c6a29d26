// One operation of a workload stream and what store A answered.
#pragma once

#include <cstddef>
#include <cstdint>

#include "oracle.h"

namespace bench {

enum class OpType : std::uint8_t { kCount, kSum, kSelect, kInsert, kDelete, kRebalance };

inline bool IsRead(OpType t) {
  return t == OpType::kCount || t == OpType::kSum || t == OpType::kSelect;
}

struct Op {
  OpType type = OpType::kCount;
  bool pcrack = false;    // reads: pcrack(4x1) instead of crack
  Pred pred{};            // reads
  std::int64_t key = 0;   // insert / delete
  std::int64_t payload = 0;  // insert: the row's second column
  std::size_t from = 0;   // rebalance: move keys [lo, hi) from -> to
  std::size_t to = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

struct Answer {
  bool ok = false;
  std::uint64_t count = 0;  // Count; rows moved by a rebalance
  double sum = 0.0;         // Sum
  TupleDigest digest;       // SelectProject
  bool deleted = false;     // Delete
  std::uint64_t cuts = 0;   // rebalance: cuts carried
};

}  // namespace bench
