// Communication plan for the distributed sparse matrix-vector product.
//
// With block-row distribution, computing y = A p on node l requires the
// entries of p at every column index that appears in l's rows. The plan
// precomputes, for every ordered node pair (s, l), the set I_{s,l} of indices
// owned by s that l needs (paper §2.2). The plan is static: it depends only
// on the sparsity pattern and the partition, and is built once per solve.
//
// It also fixes the standard distributed-CSR local numbering: node l works
// on a compact buffer [owned | ghosts] of local_size(l) entries — its own
// slice of p followed by its sorted ghosts(l) — and every nonzero of l's rows
// carries a local column id into that buffer. Because owners hold contiguous
// index ranges, each I_{s,l} is one contiguous run of ghosts(l), so the halo
// exchange writes each transfer list at a fixed offset.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "partition/index_set.hpp"
#include "partition/partition.hpp"
#include "sparse/csr.hpp"

namespace esrp {

/// One sender->receiver transfer list.
struct SendList {
  rank_t to = -1;
  IndexSet indices; ///< global indices owned by the sender
  /// Position of indices[0] in the receiver's plan-ordered held entries:
  /// within its sorted ghosts for an SpMV halo list, within its
  /// RedundantCopy values (ghosts, then augmentation receipts) for an ASpMV
  /// augmentation list. The entries of a list land contiguously from there.
  std::size_t offset = 0;
};

class SpmvPlan {
public:
  SpmvPlan(const CsrMatrix& a, const BlockRowPartition& part);

  const BlockRowPartition& partition() const { return *part_; }

  /// Transfer lists of node s (I_{s,l} for every l with a non-empty set),
  /// ordered by receiver rank.
  const std::vector<SendList>& sends(rank_t s) const;

  /// I_{s,l}: indices node s must send to node l (empty if none).
  const IndexSet& send_set(rank_t s, rank_t l) const;

  /// All ghost indices node l receives (union over senders), sorted.
  const IndexSet& ghosts(rank_t l) const;

  /// Entries of node l's compact [owned | ghosts] buffer.
  std::size_t local_size(rank_t l) const;

  /// y := A[rows of l, :] p, reading p from node l's compact buffer
  /// `local` (local_size(l) entries). Each row accumulates its nonzeros in
  /// the same order as CsrMatrix::spmv_rows, so the result is bitwise equal
  /// to the global-numbered product. `a` must be the plan's matrix.
  void local_spmv(const CsrMatrix& a, rank_t l, std::span<const real_t> local,
                  std::span<real_t> y) const;

  /// m(i): number of *other* nodes the regular SpMV sends entry i to.
  int multiplicity(index_t i) const;

  /// Number of nonzeros in the rows owned by `s` (flops = 2x this).
  index_t local_nnz(rank_t s) const;

  /// Total entries transferred per SpMV over all node pairs.
  std::uint64_t total_entries_sent() const;

  /// Paper §2.2: the regular SpMV provides full single-failure redundancy
  /// iff every entry is sent to at least one other node (m(i) >= 1 for all
  /// i). Most matrices fail this — hence the ASpMV.
  bool provides_full_redundancy() const;

private:
  const BlockRowPartition* part_;
  std::vector<std::vector<SendList>> sends_;   // [s] -> lists
  std::vector<IndexSet> ghosts_;               // [l] -> ghost indices
  /// [nnz] -> local column id, parallel to the matrix's col_idx(): row i's
  /// entries index the buffer of owner(i).
  std::vector<local_index_t> local_cols_;
  std::vector<int> multiplicity_;              // [i]
  std::vector<index_t> local_nnz_;             // [s]
  IndexSet empty_;
};

} // namespace esrp
