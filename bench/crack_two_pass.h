// The pre-single-pass crack-in-three: crack on lo_cut, then re-crack the
// upper remainder on hi_cut. Not a product kernel — crack_kernel_test
// oracles the single-pass CrackInThree against it, and bench_e12's
// three_way section measures what retiring it bought.
#pragma once

#include <span>

#include "core/crack_ops.h"

namespace aidx {

template <ColumnValue T, typename Payload = row_id_t>
ThreeWaySplit CrackInThreeTwoPass(std::span<T> values, std::span<Payload> row_ids,
                                  const Cut<T>& lo_cut, const Cut<T>& hi_cut,
                                  CrackKernel kernel = CrackKernel::kAuto) {
  AIDX_DCHECK(!(hi_cut < lo_cut));
  AIDX_DCHECK(row_ids.empty() || row_ids.size() == values.size());
  const std::size_t lower = CrackInTwo<T, Payload>(values, row_ids, lo_cut, kernel);
  const std::size_t middle =
      lower + CrackInTwo<T, Payload>(
                  values.subspan(lower),
                  row_ids.empty() ? row_ids : row_ids.subspan(lower), hi_cut, kernel);
  return {lower, middle};
}

}  // namespace aidx
