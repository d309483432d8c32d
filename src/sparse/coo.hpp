// Coordinate-format (triplet) builder for sparse matrices. All assembly
// (generators, Matrix Market reader, test fixtures) goes through CooBuilder,
// which deduplicates by summing and converts to CSR.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace esrp {

class CsrMatrix;

class CooBuilder {
public:
  /// Largest row or column count a builder accepts: indices must fit the
  /// 32-bit halves of the packed sort key.
  static constexpr index_t kMaxDim = index_t{1} << 32;

  /// Throws esrp::Error unless 0 <= rows, cols <= kMaxDim.
  CooBuilder(index_t rows, index_t cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  /// Number of raw (possibly duplicate) triplets added so far.
  std::size_t triplet_count() const { return entries_.size(); }

  /// Queue the triplet (i, j, v); duplicates are summed at conversion time.
  void add(index_t i, index_t j, real_t v);

  /// Queue (i, j, v) and, if i != j, also (j, i, v). Convenient for
  /// assembling symmetric operators from their lower/upper triangle.
  void add_sym(index_t i, index_t j, real_t v);

  /// Sort, combine duplicates, drop explicit zeros, and emit CSR.
  /// The builder remains usable afterwards (its triplets are untouched).
  CsrMatrix to_csr() const;

private:
  /// A triplet as one 16-byte record: key = row << 32 | col, so comparing
  /// keys gives exactly the (row, col) lexicographic outcome. std::sort thus
  /// makes the same comparisons and applies the same permutation as it
  /// would to (row, col, value) triplets, and duplicates are summed in the
  /// same order — the packing changes bytes moved, not results.
  struct Entry {
    std::uint64_t key;
    real_t value;
  };

  index_t rows_;
  index_t cols_;
  std::vector<Entry> entries_;
};

} // namespace esrp
