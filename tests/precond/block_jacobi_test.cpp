#include "precond/block_jacobi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/parallel.hpp"
#include "precond/jacobi.hpp"
#include "sparse/coo.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

TEST(UniformBlocks, FewestBlocksUnderCap) {
  // 25 rows, cap 10 -> 3 blocks of sizes 9,8,8.
  const auto starts = uniform_blocks(0, 25, 10);
  EXPECT_EQ(starts, (std::vector<index_t>{0, 9, 17, 25}));
}

TEST(UniformBlocks, ExactMultiple) {
  const auto starts = uniform_blocks(5, 25, 10);
  EXPECT_EQ(starts, (std::vector<index_t>{5, 15, 25}));
}

TEST(UniformBlocks, EmptyRange) {
  EXPECT_EQ(uniform_blocks(3, 3, 10), (std::vector<index_t>{3}));
}

TEST(UniformBlocks, CapOneGivesSingletons) {
  EXPECT_EQ(uniform_blocks(0, 3, 1), (std::vector<index_t>{0, 1, 2, 3}));
}

TEST(BlockJacobi, BlocksAlignWithNodeBoundaries) {
  const CsrMatrix a = poisson2d(8, 8); // 64 rows
  const BlockRowPartition part(64, 4); // 16 per node
  BlockJacobiPreconditioner p(a, part, 10);
  const auto& starts = p.block_starts();
  // Node boundaries 16, 32, 48 must appear among the block boundaries.
  for (index_t boundary : {16, 32, 48}) {
    EXPECT_TRUE(std::find(starts.begin(), starts.end(), boundary) !=
                starts.end());
  }
  // No block exceeds the cap.
  for (std::size_t k = 0; k + 1 < starts.size(); ++k)
    EXPECT_LE(starts[k + 1] - starts[k], 10);
}

TEST(BlockJacobi, ActionIsExactInverseOnEachBlock) {
  const CsrMatrix a = banded_spd(24, 2, 1.0, 5);
  BlockJacobiPreconditioner p(a, /*max_block_size=*/6);
  const CsrMatrix* act = p.action_matrix();
  ASSERT_NE(act, nullptr);
  // For each block B: act_block * B = I.
  const auto& starts = p.block_starts();
  const DenseMatrix ad = DenseMatrix::from_csr(a);
  const DenseMatrix pd = DenseMatrix::from_csr(*act);
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    const index_t lo = starts[k], hi = starts[k + 1];
    const index_t len = hi - lo;
    DenseMatrix b(len, len), inv(len, len);
    for (index_t i = 0; i < len; ++i)
      for (index_t j = 0; j < len; ++j) {
        b(i, j) = ad(lo + i, lo + j);
        inv(i, j) = pd(lo + i, lo + j);
      }
    const DenseMatrix prod = inv.multiply(b);
    EXPECT_LT(prod.max_abs_diff(DenseMatrix::identity(len)), 1e-10);
  }
}

TEST(BlockJacobi, ActionMatrixIsSymmetric) {
  const CsrMatrix a = poisson3d(3, 3, 3);
  BlockJacobiPreconditioner p(a, 10);
  EXPECT_TRUE(p.action_matrix()->is_symmetric(1e-10));
}

TEST(BlockJacobi, BlockSizeOneEqualsPointJacobi) {
  const CsrMatrix a = banded_spd(15, 3, 0.6, 8);
  BlockJacobiPreconditioner p(a, 1);
  const Vector d = a.diagonal();
  Vector r(15, 1), z(15);
  p.apply(r, z);
  for (std::size_t i = 0; i < 15; ++i)
    EXPECT_NEAR(z[i], 1.0 / d[i], 1e-14);
}

TEST(BlockJacobi, ApplySolvesBlockSystems) {
  // For block-diagonal A (bandwidth smaller than block size), the block
  // Jacobi action is the full inverse: A * (P r) = r.
  const CsrMatrix a = banded_spd(20, 1, 1.0, 3);
  BlockJacobiPreconditioner p(a, 20); // one block = full matrix
  Rng rng(4);
  Vector r(20), z(20), az(20);
  for (auto& v : r) v = rng.uniform(-1, 1);
  p.apply(r, z);
  a.spmv(z, az);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(az[i], r[i], 1e-10);
}

TEST(BlockJacobi, NodeLocalRowsNeverCrossNodeBoundary) {
  const CsrMatrix a = diffusion3d_27pt(4, 4, 4, 10, 6);
  const BlockRowPartition part(64, 5);
  BlockJacobiPreconditioner p(a, part, 10);
  const CsrMatrix* act = p.action_matrix();
  for (rank_t s = 0; s < 5; ++s) {
    for (index_t i = part.begin(s); i < part.end(s); ++i) {
      for (index_t j : act->row_cols(i)) {
        EXPECT_GE(j, part.begin(s));
        EXPECT_LT(j, part.end(s));
      }
    }
  }
}

TEST(BlockJacobi, PaperDefaultBlockSizeIsTen) {
  const CsrMatrix a = poisson2d(10, 10);
  const BlockRowPartition part(100, 4);
  BlockJacobiPreconditioner p(a, part);
  const auto& starts = p.block_starts();
  for (std::size_t k = 0; k + 1 < starts.size(); ++k)
    EXPECT_LE(starts[k + 1] - starts[k], 10);
}

// --- Bitwise oracles ------------------------------------------------------

/// Textbook Cholesky inverse through the checked DenseMatrix accessors, one
/// solve vector per column: the loops the library's raw-pointer Cholesky
/// must reproduce bit for bit.
DenseMatrix reference_inverse(const DenseMatrix& a) {
  const index_t n = a.rows();
  DenseMatrix l(n, n);
  for (index_t j = 0; j < n; ++j) {
    real_t diag = a(j, j);
    for (index_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    const real_t ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (index_t i = j + 1; i < n; ++i) {
      real_t acc = a(i, j);
      for (index_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / ljj;
    }
  }
  DenseMatrix inv(n, n);
  for (index_t j = 0; j < n; ++j) {
    Vector y(static_cast<std::size_t>(n), 0);
    y[static_cast<std::size_t>(j)] = 1;
    for (index_t i = 0; i < n; ++i) {
      real_t acc = y[static_cast<std::size_t>(i)];
      for (index_t k = 0; k < i; ++k)
        acc -= l(i, k) * y[static_cast<std::size_t>(k)];
      y[static_cast<std::size_t>(i)] = acc / l(i, i);
    }
    for (index_t i = n - 1; i >= 0; --i) {
      real_t acc = y[static_cast<std::size_t>(i)];
      for (index_t k = i + 1; k < n; ++k)
        acc -= l(k, i) * y[static_cast<std::size_t>(k)];
      y[static_cast<std::size_t>(i)] = acc / l(i, i);
    }
    for (index_t i = 0; i < n; ++i) inv(i, j) = y[static_cast<std::size_t>(i)];
  }
  return inv;
}

/// P and M assembled triplet by triplet through CooBuilder from the same
/// block boundaries — the construction the direct CSR build replaces.
std::pair<CsrMatrix, CsrMatrix> coo_oracle(const CsrMatrix& a,
                                           const std::vector<index_t>& starts) {
  CooBuilder inv_builder(a.rows(), a.rows());
  CooBuilder mat_builder(a.rows(), a.rows());
  for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
    const index_t lo = starts[b], hi = starts[b + 1];
    if (hi == lo) continue;
    DenseMatrix block(hi - lo, hi - lo);
    for (index_t i = lo; i < hi; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] < lo || cols[k] >= hi) continue;
        block(i - lo, cols[k] - lo) = vals[k];
        mat_builder.add(i, cols[k], vals[k]);
      }
    }
    const DenseMatrix inv = reference_inverse(block);
    for (index_t bi = 0; bi < hi - lo; ++bi)
      for (index_t bj = 0; bj < hi - lo; ++bj)
        if (inv(bi, bj) != real_t{0})
          inv_builder.add(lo + bi, lo + bj, inv(bi, bj));
  }
  return {inv_builder.to_csr(), mat_builder.to_csr()};
}

bool same_bits(std::span<const real_t> x, std::span<const real_t> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
}

void expect_same_csr(const CsrMatrix& got, const CsrMatrix& want,
                     const std::string& what) {
  EXPECT_TRUE(std::equal(got.row_ptr().begin(), got.row_ptr().end(),
                         want.row_ptr().begin(), want.row_ptr().end()))
      << what;
  EXPECT_TRUE(std::equal(got.col_idx().begin(), got.col_idx().end(),
                         want.col_idx().begin(), want.col_idx().end()))
      << what;
  EXPECT_TRUE(same_bits(got.values(), want.values())) << what;
}

/// r with negative entries and exact zeros (every fifth entry, and -0.0
/// every seventh), the inputs the panel padding argument must survive.
Vector signed_rhs_with_zeros(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector r(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < r.size(); ++i)
    r[i] = i % 5 == 0 ? 0.0 : i % 7 == 0 ? -0.0 : rng.uniform(-2, 1);
  return r;
}

struct PanelCase {
  std::string name;
  CsrMatrix a;
};

std::vector<PanelCase> panel_cases() {
  std::vector<PanelCase> cases;
  cases.push_back({"poisson3d_6", poisson3d(6, 6, 6)});
  cases.push_back({"banded_151", banded_spd(151, 6, 0.7, 11)});
  cases.push_back({"emilia_4", emilia_like(4, 4, 5).matrix});
  cases.push_back({"diffusion27_5", diffusion3d_27pt(5, 5, 5, 10, 6)});
  return cases;
}

/// Partitions of n rows: uneven node counts (n not divisible) and explicit
/// offsets with empty ranks (first, middle and last).
std::vector<BlockRowPartition> panel_partitions(index_t n) {
  std::vector<BlockRowPartition> parts;
  parts.emplace_back(n, 1);
  parts.emplace_back(n, 7);
  parts.emplace_back(n, 13);
  parts.emplace_back(std::vector<index_t>{0, 0, n / 3, n / 3, n / 3 + 5, n, n});
  return parts;
}

struct ThreadScope {
  explicit ThreadScope(int threads) { set_num_threads(threads); }
  ~ThreadScope() { set_num_threads(1); }
};

TEST(BlockJacobiDirectBuild, PAndMMatchCooOracleBitwise) {
  for (const PanelCase& c : panel_cases()) {
    for (const index_t bs : {1, 3, 4, 10, 17, 64}) {
      {
        const BlockJacobiPreconditioner p(c.a, bs);
        const auto [p_ref, m_ref] = coo_oracle(c.a, p.block_starts());
        const std::string what = c.name + " single-domain bs=" +
                                 std::to_string(bs);
        expect_same_csr(*p.action_matrix(), p_ref, what + " P");
        expect_same_csr(*p.matrix_form(), m_ref, what + " M");
      }
      for (const BlockRowPartition& part : panel_partitions(c.a.rows())) {
        const BlockJacobiPreconditioner p(c.a, part, bs);
        const auto [p_ref, m_ref] = coo_oracle(c.a, p.block_starts());
        const std::string what = c.name + " nodes=" +
                                 std::to_string(part.num_nodes()) +
                                 " bs=" + std::to_string(bs);
        expect_same_csr(*p.action_matrix(), p_ref, what + " P");
        expect_same_csr(*p.matrix_form(), m_ref, what + " M");
      }
    }
  }
}

TEST(BlockJacobiDirectBuild, ExplicitZerosOfAStayOutOfM) {
  // A caller-built CSR may store zeros; M drops them like COO assembly did.
  std::vector<index_t> row_ptr{0, 2, 4, 6};
  std::vector<index_t> col_idx{0, 1, 0, 1, 1, 2};
  std::vector<real_t> values{4, 0.0, -0.0, 3, 1, 5};
  // Row 2 couples to column 1 across the 2|1 block split below.
  const CsrMatrix a(3, 3, std::move(row_ptr), std::move(col_idx),
                    std::move(values));
  const BlockRowPartition part(std::vector<index_t>{0, 2, 3});
  const BlockJacobiPreconditioner p(a, part, 10);
  const auto [p_ref, m_ref] = coo_oracle(a, p.block_starts());
  expect_same_csr(*p.action_matrix(), p_ref, "P");
  expect_same_csr(*p.matrix_form(), m_ref, "M");
  EXPECT_EQ(p.matrix_form()->nnz(), 3);
}

TEST(BlockJacobiPanels, ApplyAndPerRankApplyMatchCsrSpmvBitwise) {
  for (const int threads : {1, 4}) {
    const ThreadScope scope(threads);
    for (const PanelCase& c : panel_cases()) {
      const index_t n = c.a.rows();
      const Vector r = signed_rhs_with_zeros(n, 17);
      for (const index_t bs : {1, 3, 4, 10, 17, 64}) {
        const std::string tag = c.name + " bs=" + std::to_string(bs) +
                                " threads=" + std::to_string(threads);
        {
          const BlockJacobiPreconditioner p(c.a, bs);
          Vector want(r.size()), got(r.size());
          p.action_matrix()->spmv(r, want);
          p.apply(r, got);
          EXPECT_TRUE(same_bits(got, want)) << tag << " single-domain";
        }
        for (const BlockRowPartition& part : panel_partitions(n)) {
          const BlockJacobiPreconditioner p(c.a, part, bs);
          const std::string what =
              tag + " nodes=" + std::to_string(part.num_nodes());
          Vector want(r.size()), got(r.size());
          p.action_matrix()->spmv(r, want);
          p.apply(r, got);
          EXPECT_TRUE(same_bits(got, want)) << what;
          // Per rank, on the rank's own slices.
          Vector per_rank(r.size(), -1);
          for (rank_t s = 0; s < part.num_nodes(); ++s) {
            const auto lo = static_cast<std::size_t>(part.begin(s));
            const auto len = static_cast<std::size_t>(part.local_size(s));
            p.apply_rows(part.begin(s), part.end(s),
                         std::span<const real_t>(r).subspan(lo, len),
                         std::span<real_t>(per_rank).subspan(lo, len));
          }
          EXPECT_TRUE(same_bits(per_rank, want)) << what << " per rank";
        }
      }
    }
  }
}

TEST(BlockJacobiPanels, PerRankApplyOnRangesThatCutPanels) {
  // After a shrink or rejoin the rank ranges are block-aligned but need not
  // be panel-aligned: block size 3 against 4-row panels cuts panels, and
  // the per-rank result must still equal the global apply.
  const CsrMatrix a = banded_spd(60, 2, 1.0, 3);
  const BlockJacobiPreconditioner p(a, 3);
  const Vector r = signed_rhs_with_zeros(60, 5);
  Vector want(60);
  p.apply(r, want);
  for (const std::vector<index_t>& offsets :
       {std::vector<index_t>{0, 6, 9, 30, 30, 51, 60},
        std::vector<index_t>{0, 3, 6, 9, 12, 15, 18, 60}}) {
    const BlockRowPartition part(offsets);
    check_node_local(p, part);
    Vector got(60, -1);
    for (rank_t s = 0; s < part.num_nodes(); ++s) {
      const auto lo = static_cast<std::size_t>(part.begin(s));
      const auto len = static_cast<std::size_t>(part.local_size(s));
      p.apply_rows(part.begin(s), part.end(s),
                   std::span<const real_t>(r).subspan(lo, len),
                   std::span<real_t>(got).subspan(lo, len));
    }
    EXPECT_TRUE(same_bits(got, want)) << offsets[1];
  }
}

TEST(BlockJacobiPanels, PerRankApplyRefusesARangeThatSplitsABlock) {
  const CsrMatrix a = banded_spd(24, 2, 1.0, 3);
  const BlockJacobiPreconditioner p(a, 6);
  const BlockRowPartition part(std::vector<index_t>{0, 4, 24});
  EXPECT_THROW(check_node_local(p, part), Error);
  Vector r(4, 1), z(4);
  EXPECT_THROW(p.apply_rows(0, 4, r, z), Error);
}

TEST(BlockJacobiPanels, CsrRowsDefaultServesPointJacobiAndIdentity) {
  // The default apply_rows walks the action's CSR rows: bitwise equal to
  // that matrix's SpMV (which the distributed solvers always used), with
  // the two-flops-per-entry cost.
  const CsrMatrix a = banded_spd(30, 3, 0.8, 9);
  const JacobiPreconditioner jac(a);
  const IdentityPreconditioner id(30);
  const Vector r = signed_rhs_with_zeros(30, 2);
  for (const Preconditioner* p :
       std::initializer_list<const Preconditioner*>{&jac, &id}) {
    Vector want(30), got(30);
    p->action_matrix()->spmv(r, want);
    p->apply_rows(10, 20, std::span<const real_t>(r).subspan(10, 10),
                  std::span<real_t>(got).subspan(10, 10));
    EXPECT_TRUE(same_bits(std::span<const real_t>(got).subspan(10, 10),
                          std::span<const real_t>(want).subspan(10, 10)))
        << p->name();
    EXPECT_EQ(p->apply_rows_flops(10, 20), 20.0) << p->name();
  }
}

} // namespace
} // namespace esrp
