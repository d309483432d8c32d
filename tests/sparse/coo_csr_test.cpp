#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace esrp {
namespace {

CsrMatrix small_example() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  CooBuilder b(3, 3);
  b.add(0, 0, 2);
  b.add(0, 1, -1);
  b.add(1, 0, -1);
  b.add(1, 1, 2);
  b.add(1, 2, -1);
  b.add(2, 1, -1);
  b.add(2, 2, 2);
  return b.to_csr();
}

TEST(CooBuilder, BuildsExpectedCsr) {
  const CsrMatrix a = small_example();
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 7);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0);
}

TEST(CooBuilder, DuplicatesAreSummed) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1);
  b.add(0, 0, 2.5);
  const CsrMatrix a = b.to_csr();
  EXPECT_EQ(a.nnz(), 1);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
}

TEST(CooBuilder, CancellingDuplicatesAreDropped) {
  CooBuilder b(2, 2);
  b.add(1, 1, 4);
  b.add(1, 1, -4);
  b.add(0, 1, 1);
  const CsrMatrix a = b.to_csr();
  EXPECT_EQ(a.nnz(), 1);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0);
}

TEST(CooBuilder, AddSymAddsMirrorEntry) {
  CooBuilder b(3, 3);
  b.add_sym(0, 2, 5);
  b.add_sym(1, 1, 7); // diagonal: added once
  const CsrMatrix a = b.to_csr();
  EXPECT_DOUBLE_EQ(a.at(0, 2), 5);
  EXPECT_DOUBLE_EQ(a.at(2, 0), 5);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 7);
  EXPECT_EQ(a.nnz(), 3);
}

TEST(CooBuilder, OutOfRangeTripletThrows) {
  CooBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1), Error);
  EXPECT_THROW(b.add(0, -1, 1), Error);
}

/// The (row, col, value) triplet sort CooBuilder performed before it packed
/// keys — kept as the oracle the packed sort must reproduce bit for bit.
struct Triplet {
  index_t row;
  index_t col;
  real_t value;
};

CsrMatrix triplet_sort_csr(index_t rows, index_t cols,
                           std::vector<Triplet> sorted) {
  std::sort(sorted.begin(), sorted.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::vector<index_t> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  std::size_t k = 0;
  while (k < sorted.size()) {
    const index_t i = sorted[k].row;
    const index_t j = sorted[k].col;
    real_t acc = 0;
    while (k < sorted.size() && sorted[k].row == i && sorted[k].col == j) {
      acc += sorted[k].value;
      ++k;
    }
    if (acc != real_t{0}) {
      col_idx.push_back(j);
      values.push_back(acc);
      ++row_ptr[static_cast<std::size_t>(i) + 1];
    }
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r)
    row_ptr[r + 1] += row_ptr[r];
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

TEST(CooBuilder, PackedSortMatchesTripletSortBitwise) {
  // Heavy duplicates in shuffled order: the sum of each (i, j) group rounds
  // differently under a different order, so bitwise equality pins the
  // permutation of equal keys, not only the set of entries. Every fifth
  // group also gets exact cancellations, and the last row holds only an
  // explicit zero.
  const index_t rows = 37, cols = 29;
  Rng rng(2024);
  std::vector<Triplet> triplets;
  for (int t = 0; t < 6000; ++t) {
    const auto i = static_cast<index_t>(rng.next_below(rows - 1));
    const auto j = static_cast<index_t>(rng.next_below(cols));
    const real_t v = rng.uniform(-1, 1) * (t % 7 == 0 ? 1e8 : 1.0);
    triplets.push_back({i, j, v});
    if ((i + j) % 5 == 0) triplets.push_back({i, j, -v});
  }
  triplets.push_back({rows - 1, cols - 1, 0.0});
  for (std::size_t k = triplets.size(); k > 1; --k)
    std::swap(triplets[k - 1], triplets[rng.next_below(k)]);

  CooBuilder b(rows, cols);
  for (const Triplet& t : triplets) b.add(t.row, t.col, t.value);
  const CsrMatrix got = b.to_csr();
  const CsrMatrix want = triplet_sort_csr(rows, cols, triplets);
  ASSERT_TRUE(std::equal(got.row_ptr().begin(), got.row_ptr().end(),
                         want.row_ptr().begin(), want.row_ptr().end()));
  ASSERT_TRUE(std::equal(got.col_idx().begin(), got.col_idx().end(),
                         want.col_idx().begin(), want.col_idx().end()));
  ASSERT_EQ(got.values().size(), want.values().size());
  EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                        got.values().size_bytes()),
            0);
  EXPECT_TRUE(got.row_cols(rows - 1).empty()); // lone explicit zero dropped
}

TEST(CooBuilder, RejectsDimensionsBeyondThePackedKey) {
  EXPECT_NO_THROW(CooBuilder(CooBuilder::kMaxDim, CooBuilder::kMaxDim));
  EXPECT_THROW(CooBuilder(CooBuilder::kMaxDim + 1, 1), Error);
  EXPECT_THROW(CooBuilder(1, CooBuilder::kMaxDim + 1), Error);
}

TEST(CooBuilder, EmptyMatrixProducesValidCsr) {
  CooBuilder b(4, 4);
  const CsrMatrix a = b.to_csr();
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_EQ(a.rows(), 4);
}

TEST(Csr, RowAccessorsAreSortedAndConsistent) {
  const CsrMatrix a = small_example();
  const auto cols = a.row_cols(1);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
  const auto vals = a.row_vals(1);
  EXPECT_DOUBLE_EQ(vals[0], -1);
  EXPECT_DOUBLE_EQ(vals[1], 2);
  EXPECT_DOUBLE_EQ(vals[2], -1);
}

TEST(Csr, SpmvMatchesHandComputation) {
  const CsrMatrix a = small_example();
  const Vector x{1, 2, 3};
  Vector y(3);
  a.spmv(x, y);
  EXPECT_EQ(y, (Vector{0, 0, 4}));
}

TEST(Csr, SpmvRowsComputesPartialProduct) {
  const CsrMatrix a = small_example();
  const Vector x{1, 2, 3};
  Vector y(2);
  a.spmv_rows(1, 3, x, y);
  EXPECT_EQ(y, (Vector{0, 4}));
}

TEST(Csr, TransposeOfSymmetricEqualsOriginal) {
  const CsrMatrix a = small_example();
  const CsrMatrix at = a.transpose();
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(at.at(i, j), a.at(i, j));
}

TEST(Csr, TransposeOfRectangular) {
  CooBuilder b(2, 3);
  b.add(0, 2, 1);
  b.add(1, 0, 5);
  const CsrMatrix at = b.to_csr().transpose();
  EXPECT_EQ(at.rows(), 3);
  EXPECT_EQ(at.cols(), 2);
  EXPECT_DOUBLE_EQ(at.at(2, 0), 1);
  EXPECT_DOUBLE_EQ(at.at(0, 1), 5);
}

TEST(Csr, DiagonalExtractsStoredAndMissingEntries) {
  CooBuilder b(3, 3);
  b.add(0, 0, 4);
  b.add(2, 2, 9);
  const Vector d = b.to_csr().diagonal();
  EXPECT_EQ(d, (Vector{4, 0, 9}));
}

TEST(Csr, IsSymmetricDetectsAsymmetry) {
  EXPECT_TRUE(small_example().is_symmetric());
  CooBuilder b(2, 2);
  b.add(0, 1, 1);
  EXPECT_FALSE(b.to_csr().is_symmetric());
}

TEST(Csr, HalfBandwidthOfTridiagonalIsOne) {
  EXPECT_EQ(small_example().half_bandwidth(), 1);
}

TEST(Csr, NnzWithinBandCountsDiagonalBand) {
  const CsrMatrix a = small_example();
  EXPECT_EQ(a.nnz_within_band(0), 3);  // diagonal only
  EXPECT_EQ(a.nnz_within_band(1), 7);  // everything
}

TEST(Csr, InvalidRowPtrThrows) {
  // row_ptr not covering all entries
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), Error);
}

TEST(Csr, UnsortedColumnsThrow) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 1.0}), Error);
}

TEST(Csr, IdentityFactory) {
  const CsrMatrix eye = csr_identity(4, 2.5);
  EXPECT_EQ(eye.nnz(), 4);
  for (index_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(eye.at(i, i), 2.5);
  Vector y(4);
  eye.spmv(Vector{1, 2, 3, 4}, y);
  EXPECT_EQ(y, (Vector{2.5, 5, 7.5, 10}));
}

} // namespace
} // namespace esrp
