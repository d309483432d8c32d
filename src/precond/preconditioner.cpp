#include "precond/preconditioner.hpp"

#include "common/error.hpp"

namespace esrp {

void Preconditioner::apply_rows(index_t lo, index_t hi,
                                std::span<const real_t> r,
                                std::span<real_t> z) const {
  const CsrMatrix* p = action_matrix();
  ESRP_CHECK_MSG(p != nullptr, "preconditioner \"" << name()
                                   << "\" has no explicit action to apply "
                                      "per rank");
  ESRP_CHECK(0 <= lo && lo <= hi && hi <= p->rows());
  ESRP_CHECK(static_cast<index_t>(r.size()) == hi - lo && r.size() == z.size());
  const auto row_ptr = p->row_ptr();
  const auto col_idx = p->col_idx();
  const auto values = p->values();
  for (index_t i = lo; i < hi; ++i) {
    const auto b = static_cast<std::size_t>(row_ptr[i]);
    const auto e = static_cast<std::size_t>(row_ptr[i + 1]);
    ESRP_CHECK_MSG(b == e || (col_idx[b] >= lo && col_idx[e - 1] < hi),
                   "preconditioner action row " << i << " leaves [" << lo
                                                << ", " << hi << ")");
    real_t acc = 0;
    for (std::size_t k = b; k < e; ++k)
      acc += values[k] * r[static_cast<std::size_t>(col_idx[k] - lo)];
    z[static_cast<std::size_t>(i - lo)] = acc;
  }
}

double Preconditioner::apply_rows_flops(index_t lo, index_t hi) const {
  const CsrMatrix* p = action_matrix();
  ESRP_CHECK(p != nullptr);
  const auto row_ptr = p->row_ptr();
  return static_cast<double>(2 * (row_ptr[hi] - row_ptr[lo]));
}

void check_node_local(const Preconditioner& precond,
                      const BlockRowPartition& part) {
  const CsrMatrix* p = precond.action_matrix();
  ESRP_CHECK_MSG(p != nullptr,
                 "the distributed solvers require a preconditioner with an "
                 "explicit action matrix (e.g. block Jacobi)");
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const index_t lo = part.begin(s), hi = part.end(s);
    for (index_t i = lo; i < hi; ++i) {
      const auto cols = p->row_cols(i);
      ESRP_CHECK_MSG(cols.empty() || (cols.front() >= lo && cols.back() < hi),
                     "preconditioner action row "
                         << i << " crosses the boundary of node " << s
                         << " — use node-aligned block Jacobi");
    }
  }
}

} // namespace esrp
