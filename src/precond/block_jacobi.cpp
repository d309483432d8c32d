#include "precond/block_jacobi.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "parallel/parallel.hpp"
#include "sparse/dense.hpp"

namespace esrp {

namespace {

constexpr index_t kLanes = kSimdLanes;

} // namespace

std::vector<index_t> uniform_blocks(index_t lo, index_t hi,
                                    index_t max_block_size) {
  ESRP_CHECK(lo <= hi);
  ESRP_CHECK(max_block_size >= 1);
  std::vector<index_t> starts{lo};
  const index_t len = hi - lo;
  if (len == 0) return starts;
  const index_t nblocks = (len + max_block_size - 1) / max_block_size;
  const index_t base = len / nblocks;
  const index_t extra = len % nblocks;
  starts.reserve(static_cast<std::size_t>(nblocks) + 1);
  index_t pos = lo;
  for (index_t b = 0; b < nblocks; ++b) {
    pos += base + (b < extra ? 1 : 0);
    starts.push_back(pos);
  }
  ESRP_CHECK(starts.back() == hi);
  return starts;
}

BlockJacobiPreconditioner::BlockJacobiPreconditioner(
    const CsrMatrix& a, const BlockRowPartition& part, index_t max_block_size) {
  ESRP_CHECK(a.rows() == a.cols());
  ESRP_CHECK(a.rows() == part.global_size());
  starts_ = {0};
  std::vector<index_t> node_ends;
  node_ends.reserve(static_cast<std::size_t>(part.num_nodes()));
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const auto node_blocks = uniform_blocks(part.begin(s), part.end(s),
                                            max_block_size);
    starts_.insert(starts_.end(), node_blocks.begin() + 1, node_blocks.end());
    node_ends.push_back(part.end(s));
  }
  build(a, node_ends);
}

BlockJacobiPreconditioner::BlockJacobiPreconditioner(const CsrMatrix& a,
                                                     index_t max_block_size) {
  ESRP_CHECK(a.rows() == a.cols());
  starts_ = uniform_blocks(0, a.rows(), max_block_size);
  const index_t n = a.rows();
  build(a, std::span<const index_t>(&n, 1));
}

void BlockJacobiPreconditioner::build(const CsrMatrix& a,
                                      std::span<const index_t> node_ends) {
  const index_t n = a.rows();
  const auto a_ptr = a.row_ptr();
  const auto a_col = a.col_idx();
  const auto a_val = a.values();

  // Exact output sizes: M keeps A's nonzero in-block entries, P at most the
  // len^2 entries of each inverse block.
  std::size_t m_nnz = 0, p_cap = 0;
  for (std::size_t b = 0; b + 1 < starts_.size(); ++b) {
    const index_t lo = starts_[b], hi = starts_[b + 1];
    p_cap += static_cast<std::size_t>((hi - lo) * (hi - lo));
    for (index_t i = lo; i < hi; ++i)
      for (auto k = static_cast<std::size_t>(a_ptr[i]);
           k < static_cast<std::size_t>(a_ptr[i + 1]); ++k)
        if (a_col[k] >= lo && a_col[k] < hi && a_val[k] != real_t{0}) ++m_nnz;
  }
  std::vector<index_t> p_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> m_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> p_col, m_col;
  std::vector<real_t> p_val, m_val;
  p_col.reserve(p_cap);
  p_val.reserve(p_cap);
  m_col.reserve(m_nnz);
  m_val.reserve(m_nnz);

  // Blocks tile [0, n) in row order and each (i, j) is written once, so the
  // rows come out sorted and complete. Zeros are skipped exactly as the
  // COO assembly's drop-zero pass would.
  for (std::size_t b = 0; b + 1 < starts_.size(); ++b) {
    const index_t lo = starts_[b], hi = starts_[b + 1];
    const index_t len = hi - lo;
    if (len == 0) continue;
    const auto ulen = static_cast<std::size_t>(len);
    DenseMatrix block(len, len);
    real_t* bd = block.data();
    for (index_t i = lo; i < hi; ++i) {
      for (auto k = static_cast<std::size_t>(a_ptr[i]);
           k < static_cast<std::size_t>(a_ptr[i + 1]); ++k) {
        const index_t j = a_col[k];
        if (j < lo || j >= hi) continue;
        bd[static_cast<std::size_t>(j - lo) * ulen +
           static_cast<std::size_t>(i - lo)] = a_val[k];
        if (a_val[k] != real_t{0}) {
          m_col.push_back(j);
          m_val.push_back(a_val[k]);
        }
      }
      m_ptr[static_cast<std::size_t>(i) + 1] =
          static_cast<index_t>(m_col.size());
    }
    const DenseMatrix inv = Cholesky(block).inverse();
    const real_t* id = inv.data();
    for (std::size_t bi = 0; bi < ulen; ++bi) {
      for (std::size_t bj = 0; bj < ulen; ++bj) {
        const real_t v = id[bj * ulen + bi];
        if (v != real_t{0}) {
          p_col.push_back(lo + static_cast<index_t>(bj));
          p_val.push_back(v);
        }
      }
      p_ptr[static_cast<std::size_t>(lo) + bi + 1] =
          static_cast<index_t>(p_col.size());
    }
  }
  p_ = CsrMatrix(n, n, std::move(p_ptr), std::move(p_col), std::move(p_val));
  m_ = CsrMatrix(n, n, std::move(m_ptr), std::move(m_col), std::move(m_val));
  build_panels(node_ends);
}

void BlockJacobiPreconditioner::build_panels(
    std::span<const index_t> node_ends) {
  const index_t n = p_.rows();
  const auto p_ptr = p_.row_ptr();
  const auto p_col = p_.col_idx();
  const auto p_val = p_.values();

  panel_row_.assign(1, 0);
  panel_val_.assign(1, 0);
  panel_col_.clear();
  panel_vals_.clear();
  std::size_t block = 0; // index into starts_ of the block holding `row0`
  index_t node_lo = 0;
  for (const index_t node_hi : node_ends) {
    for (index_t row0 = node_lo; row0 < node_hi; row0 += kLanes) {
      const index_t rows = std::min(kLanes, node_hi - row0);
      index_t block_start[kLanes];
      index_t width = 0;
      for (index_t l = 0; l < rows; ++l) {
        while (starts_[block + 1] <= row0 + l) ++block;
        block_start[l] = starts_[block];
        width = std::max(width, starts_[block + 1] - starts_[block]);
      }
      // Clamp each window into the node: a short block's window may reach
      // past its own block, never past the node.
      index_t col[kLanes];
      for (index_t l = 0; l < kLanes; ++l)
        col[l] = l < rows ? std::min(block_start[l], node_hi - width)
                          : col[rows - 1];
      const std::size_t off = panel_vals_.size();
      panel_vals_.resize(off + static_cast<std::size_t>(kLanes * width), 0);
      for (index_t l = 0; l < rows; ++l) {
        const index_t i = row0 + l;
        for (auto k = static_cast<std::size_t>(p_ptr[i]);
             k < static_cast<std::size_t>(p_ptr[i + 1]); ++k)
          panel_vals_[off + static_cast<std::size_t>(
                                kLanes * (p_col[k] - col[l]) + l)] = p_val[k];
      }
      panel_col_.insert(panel_col_.end(), col, col + kLanes);
      panel_row_.push_back(row0 + rows);
      panel_val_.push_back(static_cast<index_t>(panel_vals_.size()));
    }
    node_lo = node_hi;
  }
  ESRP_CHECK(node_lo == n);
}

void BlockJacobiPreconditioner::apply_panels(index_t p_begin, index_t p_end,
                                             index_t lo, index_t hi,
                                             std::span<const real_t> r,
                                             std::span<real_t> z) const {
  for (index_t q = p_begin; q < p_end; ++q) {
    const auto uq = static_cast<std::size_t>(q);
    const index_t row0 = panel_row_[uq], row1 = panel_row_[uq + 1];
    const real_t* v = panel_vals_.data() + panel_val_[uq];
    const index_t width = (panel_val_[uq + 1] - panel_val_[uq]) / kLanes;
    const index_t* c = panel_col_.data() + kLanes * q;
    if (row0 >= lo && row1 <= hi && c[0] >= lo && c[kLanes - 1] + width <= hi) {
      // Vector path: every lane's window lies in r. Lane l sums its row in
      // column order; only the x addressing differs between the cases.
      const real_t* x = r.data() + (c[0] - lo);
      Vec4 acc = Vec4::zero();
      if (c[kLanes - 1] == c[0]) {
        for (index_t k = 0; k < width; ++k)
          acc = acc + Vec4::load(v + kLanes * k) * Vec4::broadcast(x[k]);
      } else if (c[1] == c[0] + 1 && c[2] == c[0] + 2 && c[3] == c[0] + 3) {
        for (index_t k = 0; k < width; ++k)
          acc = acc + Vec4::load(v + kLanes * k) * Vec4::load(x + k);
      } else {
        const index_t d1 = c[1] - c[0], d2 = c[2] - c[0], d3 = c[3] - c[0];
        for (index_t k = 0; k < width; ++k)
          acc = acc + Vec4::load(v + kLanes * k) *
                          Vec4::set(x[k], x[k + d1], x[k + d2], x[k + d3]);
      }
      real_t* y = z.data() + (row0 - lo);
      if (row1 - row0 == kLanes) {
        acc.store(y);
      } else {
        real_t out[kLanes];
        acc.store(out);
        std::copy(out, out + (row1 - row0), y);
      }
      continue;
    }
    // Scalar path for a panel cut by [lo, hi): same per-row sums, reading
    // only the columns r holds — the rest must be zeros of P.
    for (index_t i = std::max(row0, lo); i < std::min(row1, hi); ++i) {
      const index_t l = i - row0;
      real_t acc = 0;
      for (index_t k = 0; k < width; ++k) {
        const real_t vk = v[kLanes * k + l];
        const index_t col = c[l] + k;
        if (col >= lo && col < hi)
          acc += vk * r[static_cast<std::size_t>(col - lo)];
        else
          ESRP_CHECK_MSG(vk == real_t{0},
                         "block Jacobi row " << i << " couples column " << col
                                             << " outside [" << lo << ", "
                                             << hi << ")");
      }
      z[static_cast<std::size_t>(i - lo)] = acc;
    }
  }
}

void BlockJacobiPreconditioner::apply(std::span<const real_t> r,
                                      std::span<real_t> z) const {
  const index_t n = p_.rows();
  ESRP_CHECK(static_cast<index_t>(r.size()) == n && r.size() == z.size());
  // Each panel owns its rows of z and computes them exactly as serially, so
  // the result is bitwise identical at any thread count.
  const auto panels = static_cast<index_t>(panel_row_.size()) - 1;
  const index_t grain = std::max<index_t>(64, adaptive_grain(panels, 8));
  parallel_for(index_t{0}, panels, grain, [&](index_t lo, index_t hi) {
    apply_panels(lo, hi, 0, n, r, z);
  });
}

void BlockJacobiPreconditioner::apply_rows(index_t lo, index_t hi,
                                           std::span<const real_t> r,
                                           std::span<real_t> z) const {
  ESRP_CHECK(0 <= lo && lo <= hi && hi <= p_.rows());
  ESRP_CHECK(static_cast<index_t>(r.size()) == hi - lo && r.size() == z.size());
  if (lo == hi) return;
  // Panels are in row order: from the one holding row lo up to the last
  // one starting before hi.
  const auto rows = panel_row_.begin();
  const auto first =
      std::upper_bound(rows, panel_row_.end(), lo) - rows - 1;
  const auto last = std::lower_bound(rows, panel_row_.end(), hi) - rows;
  apply_panels(static_cast<index_t>(first), static_cast<index_t>(last), lo, hi,
               r, z);
}

} // namespace esrp
