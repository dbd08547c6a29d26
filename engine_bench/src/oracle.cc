#include "oracle.h"

#include <algorithm>
#include <limits>

#include "harness.h"

namespace bench {

namespace {

constexpr int kBlockBits = 6;
constexpr std::int64_t kBlock = std::int64_t{1} << kBlockBits;

std::uint64_t Mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void TupleDigest::Add(std::int64_t a, std::int64_t b) {
  ++rows;
  hash += Mix64(static_cast<std::uint64_t>(a) ^ Mix64(static_cast<std::uint64_t>(b)));
}

TupleDigest DigestOf(const aidx::ProjectionResult<std::int64_t>& result) {
  TupleDigest digest;
  if (result.columns.size() != 2) return digest;
  const auto& a = result.columns[0];
  const auto& b = result.columns[1];
  if (a.size() != result.num_rows || b.size() != result.num_rows) return digest;
  for (std::size_t r = 0; r < result.num_rows; ++r) digest.Add(a[r], b[r]);
  return digest;
}

KeyOracle::KeyOracle(std::int64_t domain, std::span<const std::int64_t> keys)
    : domain_(domain),
      multiplicity_(static_cast<std::size_t>(domain), 0),
      block_count_(static_cast<std::size_t>((domain + kBlock - 1) / kBlock) + 1, 0),
      block_sum_(block_count_.size(), 0) {
  for (const std::int64_t k : keys) {
    if (k < 0 || k >= domain_) Fatal("oracle: key outside the domain");
    ++multiplicity_[static_cast<std::size_t>(k)];
    const std::size_t block = static_cast<std::size_t>(k >> kBlockBits) + 1;
    ++block_count_[block];
    block_sum_[block] += k;
  }
  // Linear-time Fenwick construction from per-block totals.
  for (std::size_t i = 1; i < block_count_.size(); ++i) {
    const std::size_t parent = i + (i & (~i + 1));
    if (parent < block_count_.size()) {
      block_count_[parent] += block_count_[i];
      block_sum_[parent] += block_sum_[i];
    }
  }
}

void KeyOracle::Adjust(std::int64_t key, std::int64_t delta) {
  for (std::size_t i = static_cast<std::size_t>(key >> kBlockBits) + 1;
       i < block_count_.size(); i += i & (~i + 1)) {
    block_count_[i] += static_cast<std::uint64_t>(delta);
    block_sum_[i] += delta * key;
  }
}

void KeyOracle::Insert(std::int64_t key) {
  if (key < 0 || key >= domain_) Fatal("oracle: insert outside the domain");
  auto& m = multiplicity_[static_cast<std::size_t>(key)];
  if (m == std::numeric_limits<std::uint32_t>::max()) Fatal("oracle: multiplicity overflow");
  ++m;
  Adjust(key, 1);
}

bool KeyOracle::Delete(std::int64_t key) {
  if (key < 0 || key >= domain_) return false;
  auto& m = multiplicity_[static_cast<std::size_t>(key)];
  if (m == 0) return false;
  --m;
  Adjust(key, -1);
  return true;
}

KeyOracle::Totals KeyOracle::Below(std::int64_t x) const {
  x = std::clamp<std::int64_t>(x, 0, domain_);
  Totals t;
  const std::int64_t full_blocks = x >> kBlockBits;
  for (std::size_t i = static_cast<std::size_t>(full_blocks); i > 0; i -= i & (~i + 1)) {
    t.count += block_count_[i];
    t.sum += block_sum_[i];
  }
  for (std::int64_t k = full_blocks << kBlockBits; k < x; ++k) {
    const std::uint32_t m = multiplicity_[static_cast<std::size_t>(k)];
    t.count += m;
    t.sum += static_cast<std::int64_t>(m) * k;
  }
  return t;
}

void KeyOracle::Bounds(const Pred& pred, std::int64_t* lo, std::int64_t* hi) const {
  using aidx::BoundKind;
  *lo = 0;
  *hi = domain_;
  if (pred.low_kind == BoundKind::kInclusive) *lo = pred.low;
  if (pred.low_kind == BoundKind::kExclusive) {
    *lo = pred.low == std::numeric_limits<std::int64_t>::max() ? domain_ : pred.low + 1;
  }
  if (pred.high_kind == BoundKind::kExclusive) *hi = pred.high;
  if (pred.high_kind == BoundKind::kInclusive) {
    *hi = pred.high == std::numeric_limits<std::int64_t>::max() ? domain_ : pred.high + 1;
  }
  *lo = std::clamp<std::int64_t>(*lo, 0, domain_);
  *hi = std::clamp<std::int64_t>(*hi, 0, domain_);
  if (*hi < *lo) *hi = *lo;
}

std::uint64_t KeyOracle::CountHalfOpen(std::int64_t lo, std::int64_t hi) const {
  if (hi <= lo) return 0;
  return Below(hi).count - Below(lo).count;
}

std::uint64_t KeyOracle::Count(const Pred& pred) const {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  Bounds(pred, &lo, &hi);
  return CountHalfOpen(lo, hi);
}

std::int64_t KeyOracle::Sum(const Pred& pred) const {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  Bounds(pred, &lo, &hi);
  return Below(hi).sum - Below(lo).sum;
}

TupleOracle::TupleOracle(std::vector<Row> rows) : rows_(std::move(rows)) {
  std::sort(rows_.begin(), rows_.end(),
            [](const Row& x, const Row& y) { return x.k < y.k; });
}

TupleDigest TupleOracle::Digest(const Pred& pred) const {
  TupleDigest digest;
  auto it = rows_.begin();
  if (pred.low_kind != aidx::BoundKind::kUnbounded) {
    it = std::lower_bound(rows_.begin(), rows_.end(), pred.low,
                          [](const Row& r, std::int64_t v) { return r.k < v; });
    // An exclusive low bound excludes the rows equal to it.
    while (it != rows_.end() && it->k == pred.low && !pred.Matches(it->k)) ++it;
  }
  for (; it != rows_.end() && pred.Matches(it->k); ++it) digest.Add(it->a, it->b);
  return digest;
}

}  // namespace bench
