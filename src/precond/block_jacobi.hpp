// Block Jacobi preconditioner (the paper's choice, §5): non-overlapping
// diagonal blocks, every block contained within a single node's index range,
// uniformly sized with as few blocks as possible under a maximum block size
// (paper: 10). Each block of A is inverted densely (Cholesky), so the
// preconditioner action P = blockdiag(B_1^{-1}, ..., B_m^{-1}) is available
// as an explicit sparse matrix — which is what the ESR/ESRP reconstruction
// (Alg. 2) requires, and which makes P_{I_f, I\I_f} = 0 whenever whole nodes
// fail.
//
// P and M are written block by block straight into CSR arrays: blocks are
// visited in row order and every (i, j) occurs once, so no triplet sort is
// needed and the result equals a CooBuilder assembly bit for bit.
//
// apply() and apply_rows() do not stream P's CSR. They run over dense
// 4-row panels of the inverse blocks: consecutive rows of one node, four
// abreast, where lane l walks its own row over a window of `width`
// consecutive columns starting at (or, at a node's end, just before) the
// row's block start. Values sit panel by panel, column step by column
// step, lane-interleaved — no column-index stream, one vector multiply-add
// per step. A window always lies inside the node range of the partition
// the preconditioner was built on, and panels never cross its node
// boundaries. Window entries outside a row's block, stored zeros of the
// inverse and missing lanes hold 0.0; each lane accumulates its row serially
// in column order from +0.0, so those entries add ±0.0 and never change the
// sum (the SELL-C-σ padding argument, sparse/sell.hpp). The result is bitwise
// equal to P's CSR SpMV for finite r — validate_spec rejects non-finite
// right-hand sides and initial guesses at the API boundary.
#pragma once

#include <span>
#include <vector>

#include "partition/partition.hpp"
#include "precond/preconditioner.hpp"

namespace esrp {

class BlockJacobiPreconditioner final : public Preconditioner {
public:
  /// Node-aligned blocks: within each node's range, uses as few uniformly
  /// sized blocks as possible with size <= max_block_size.
  BlockJacobiPreconditioner(const CsrMatrix& a, const BlockRowPartition& part,
                            index_t max_block_size = 10);

  /// Single-domain variant (no partition): blocks tile [0, n).
  BlockJacobiPreconditioner(const CsrMatrix& a, index_t max_block_size = 10);

  std::string name() const override { return "block_jacobi"; }
  index_t dim() const override { return p_.rows(); }
  void apply(std::span<const real_t> r, std::span<real_t> z) const override;
  /// Panel apply restricted to one rank's rows. Panels inside [lo, hi)
  /// whose windows stay inside it take the vector path; the rest (a rank
  /// range cut after a shrink or rejoin) fall back to per-row loops that
  /// skip columns outside [lo, hi), which must hold zeros.
  void apply_rows(index_t lo, index_t hi, std::span<const real_t> r,
                  std::span<real_t> z) const override;
  const CsrMatrix* action_matrix() const override { return &p_; }
  /// The block Jacobi matrix M = blockdiag(B_1, ..., B_m) (the diagonal
  /// blocks of A themselves): the "preconditioner itself" formulation.
  const CsrMatrix* matrix_form() const override { return &m_; }
  double apply_flops() const override { return 2.0 * static_cast<double>(p_.nnz()); }

  /// Block boundaries: blocks are [starts[k], starts[k+1]).
  const std::vector<index_t>& block_starts() const { return starts_; }
  index_t num_blocks() const { return static_cast<index_t>(starts_.size()) - 1; }

private:
  /// Factor every block and emit P, M and the panels. `node_ends` lists the
  /// exclusive end row of every node range, in order (one entry, n, for the
  /// single-domain variant).
  void build(const CsrMatrix& a, std::span<const index_t> node_ends);
  void build_panels(std::span<const index_t> node_ends);
  /// Panels [p_begin, p_end) into z, where r and z hold rows [lo, hi).
  void apply_panels(index_t p_begin, index_t p_end, index_t lo, index_t hi,
                    std::span<const real_t> r, std::span<real_t> z) const;

  std::vector<index_t> starts_;
  CsrMatrix p_; ///< inverse blocks (the action, z = P r)
  CsrMatrix m_; ///< original blocks (the matrix form, M z = r)

  // Dense panels of P (see the header comment). Panel q covers rows
  // [panel_row_[q], panel_row_[q + 1]) (1..4 rows); its values are
  // panel_vals_[panel_val_[q] .. panel_val_[q + 1]), entry (step k, lane l)
  // at offset 4k + l, so width = (panel_val_[q + 1] - panel_val_[q]) / 4;
  // lane l's window starts at column panel_col_[4q + l]. Lane columns are
  // non-decreasing, and missing lanes repeat the last row's window.
  std::vector<index_t> panel_row_;
  std::vector<index_t> panel_val_;
  std::vector<index_t> panel_col_;
  std::vector<real_t> panel_vals_;
};

/// Split [lo, hi) into the fewest uniformly sized pieces of size <=
/// max_block_size; returns the piece boundaries including both endpoints.
/// Exposed for testing.
std::vector<index_t> uniform_blocks(index_t lo, index_t hi,
                                    index_t max_block_size);

} // namespace esrp
