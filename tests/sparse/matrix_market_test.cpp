#include "sparse/matrix_market.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

TEST(MatrixMarket, ParsesGeneralCoordinate) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "2 3 3\n"
      "1 1 1.5\n"
      "2 3 -2\n"
      "1 2 4\n");
  const CsrMatrix a = read_matrix_market(in);
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -2);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 4);
}

TEST(MatrixMarket, SymmetricFilesAreExpanded) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2\n"
      "2 1 -1\n"
      "3 3 5\n");
  const CsrMatrix a = read_matrix_market(in);
  EXPECT_EQ(a.nnz(), 4); // off-diagonal mirrored, diagonals not duplicated
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1);
  EXPECT_TRUE(a.is_symmetric());
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::istringstream in("1 1 0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(MatrixMarket, RejectsUnsupportedFormat) {
  std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(MatrixMarket, RejectsUnparsableSizeLine) {
  for (const char* size_line : {"2 2 x\n", "2 2\n", "2 x 1\n", "2 2 -1\n"}) {
    std::istringstream in(std::string("%%MatrixMarket matrix coordinate real "
                                      "general\n") +
                          size_line + "1 1 1.0\n");
    EXPECT_THROW(read_matrix_market(in), Error) << size_line;
  }
}

TEST(MatrixMarket, RejectsEntryCountAboveDimensions) {
  // 2 x 3 has six positions; a seventh entry cannot exist.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 3 7\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
  // A count near the index range is refused before anything is sized.
  std::istringstream huge(
      "%%MatrixMarket matrix coordinate real general\n"
      "4 4 9223372036854775807\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(huge), Error);
}

TEST(MatrixMarket, RejectsNonFiniteValues) {
  for (const char* value : {"nan", "inf", "-inf", "1e400"}) {
    std::istringstream in(
        std::string("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n"
                    "1 1 1.0\n"
                    "2 2 ") +
        value + "\n");
    try {
      read_matrix_market(in);
      ADD_FAILURE() << value << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
          << e.what();
    }
  }
}

TEST(MatrixMarket, RoundTripPreservesMatrix) {
  const CsrMatrix a = banded_spd(25, 4, 0.5, /*seed=*/77);
  std::ostringstream out;
  write_matrix_market(out, a);
  std::istringstream in(out.str());
  const CsrMatrix b = read_matrix_market(in);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.nnz(), a.nnz());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j : a.row_cols(i)) EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
}

TEST(MatrixMarket, FileRoundTrip) {
  const CsrMatrix a = laplace1d(6);
  const std::string path = testing::TempDir() + "/esrp_mm_test.mtx";
  write_matrix_market_file(path, a);
  const CsrMatrix b = read_matrix_market_file(path);
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_DOUBLE_EQ(b.at(3, 2), -1);
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/path.mtx"), Error);
}

} // namespace
} // namespace esrp
