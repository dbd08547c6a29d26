// Independent answer models the benchmark checks the engine against. They
// share no code with the engine beyond the predicate type and are only
// consulted outside timed sections (the op log is replayed after the
// measured phase).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sideways/sideways.h"
#include "storage/predicate.h"

namespace bench {

using Pred = aidx::RangePredicate<std::int64_t>;

/// Order-independent fingerprint of a multiset of projected (a, b) tuples.
struct TupleDigest {
  std::uint64_t rows = 0;
  std::uint64_t hash = 0;

  void Add(std::int64_t a, std::int64_t b);
  friend bool operator==(const TupleDigest&, const TupleDigest&) = default;
};

/// Digest of a SelectProject result whose tails are exactly (a, b).
TupleDigest DigestOf(const aidx::ProjectionResult<std::int64_t>& result);

/// COUNT and SUM of key values over [0, domain), under inserts and deletes:
/// a multiplicity per key plus Fenwick trees over 64-key blocks, so a range
/// query costs O(log(domain / 64) + 128).
class KeyOracle {
 public:
  KeyOracle(std::int64_t domain, std::span<const std::int64_t> keys);

  void Insert(std::int64_t key);
  /// Removes one occurrence; false when the key is absent.
  bool Delete(std::int64_t key);

  std::uint64_t Count(const Pred& pred) const;
  std::int64_t Sum(const Pred& pred) const;
  /// Keys in [lo, hi).
  std::uint64_t CountHalfOpen(std::int64_t lo, std::int64_t hi) const;

 private:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t sum = 0;
  };
  /// Count and sum of keys strictly below `x` (x clamped to [0, domain]).
  Totals Below(std::int64_t x) const;
  /// Inclusive-exclusive key interval a predicate selects, clamped.
  void Bounds(const Pred& pred, std::int64_t* lo, std::int64_t* hi) const;
  void Adjust(std::int64_t key, std::int64_t delta);

  std::int64_t domain_;
  std::vector<std::uint32_t> multiplicity_;
  std::vector<std::uint64_t> block_count_;  // Fenwick, 1-based
  std::vector<std::int64_t> block_sum_;     // Fenwick, 1-based
};

/// The (k, a, b) rows of a read-only table, for SelectProject answers.
class TupleOracle {
 public:
  struct Row {
    std::int64_t k;
    std::int64_t a;
    std::int64_t b;
  };
  explicit TupleOracle(std::vector<Row> rows);

  TupleDigest Digest(const Pred& pred) const;

 private:
  std::vector<Row> rows_;  // sorted by k
};

}  // namespace bench
