#include "sparse/coo.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sparse/csr.hpp"

namespace esrp {

CooBuilder::CooBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  ESRP_CHECK_MSG(rows >= 0 && cols >= 0,
                 "matrix dimensions must be non-negative, got " << rows << "x"
                                                                << cols);
  ESRP_CHECK_MSG(rows <= kMaxDim && cols <= kMaxDim,
                 "matrix dimensions " << rows << "x" << cols
                                      << " exceed the supported maximum of "
                                      << kMaxDim << " rows or columns");
}

void CooBuilder::add(index_t i, index_t j, real_t v) {
  ESRP_CHECK_MSG(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                 "triplet (" << i << "," << j << ") outside " << rows_ << "x"
                             << cols_);
  entries_.push_back({static_cast<std::uint64_t>(i) << 32 |
                          static_cast<std::uint64_t>(j),
                      v});
}

void CooBuilder::add_sym(index_t i, index_t j, real_t v) {
  add(i, j, v);
  if (i != j) add(j, i, v);
}

CsrMatrix CooBuilder::to_csr() const {
  std::vector<Entry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });

  std::vector<index_t> row_ptr(static_cast<std::size_t>(rows_) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  col_idx.reserve(sorted.size());
  values.reserve(sorted.size());

  std::size_t k = 0;
  while (k < sorted.size()) {
    const std::uint64_t key = sorted[k].key;
    real_t acc = 0;
    while (k < sorted.size() && sorted[k].key == key) {
      acc += sorted[k].value;
      ++k;
    }
    if (acc != real_t{0}) {
      col_idx.push_back(static_cast<index_t>(key & 0xffffffffu));
      values.push_back(acc);
      ++row_ptr[static_cast<std::size_t>(key >> 32) + 1];
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r)
    row_ptr[r + 1] += row_ptr[r];

  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

} // namespace esrp
