#include "comm/spmv_plan.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace esrp {

SpmvPlan::SpmvPlan(const CsrMatrix& a, const BlockRowPartition& part)
    : part_(&part) {
  ESRP_CHECK_MSG(a.rows() == a.cols(), "SpMV plan requires a square matrix");
  ESRP_CHECK_MSG(a.rows() == part.global_size(),
                 "matrix size does not match partition");
  const rank_t n_nodes = part.num_nodes();
  const index_t m = a.rows();
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();

  ghosts_.assign(static_cast<std::size_t>(n_nodes), {});
  sends_.assign(static_cast<std::size_t>(n_nodes), {});
  local_nnz_.assign(static_cast<std::size_t>(n_nodes), 0);
  multiplicity_.assign(static_cast<std::size_t>(m), 0);
  local_cols_.resize(col_idx.size());
  // slot[j]: local id of ghost column j on the node being numbered.
  std::vector<local_index_t> slot(static_cast<std::size_t>(m), 0);

  for (rank_t l = 0; l < n_nodes; ++l) {
    const index_t lo = part.begin(l), hi = part.end(l);
    const auto nz_lo = static_cast<std::size_t>(row_ptr[lo]);
    const auto nz_hi = static_cast<std::size_t>(row_ptr[hi]);
    local_nnz_[static_cast<std::size_t>(l)] =
        static_cast<index_t>(nz_hi - nz_lo);

    // ghosts(l): the off-node column indices of node l's rows.
    IndexSet& ghosts = ghosts_[static_cast<std::size_t>(l)];
    for (std::size_t k = nz_lo; k < nz_hi; ++k) {
      const index_t j = col_idx[k];
      if (j < lo || j >= hi) ghosts.push_back(j);
    }
    std::sort(ghosts.begin(), ghosts.end());
    ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
    const auto owned = static_cast<std::size_t>(hi - lo);
    ESRP_CHECK_MSG(owned + ghosts.size() <=
                       static_cast<std::size_t>(
                           std::numeric_limits<local_index_t>::max()),
                   "node " << l
                           << "'s local buffer exceeds the local index range");

    // Local numbering: owned columns first, then ghosts in sorted order.
    for (std::size_t g = 0; g < ghosts.size(); ++g) {
      slot[static_cast<std::size_t>(ghosts[g])] =
          static_cast<local_index_t>(owned + g);
      ++multiplicity_[static_cast<std::size_t>(ghosts[g])];
    }
    for (std::size_t k = nz_lo; k < nz_hi; ++k) {
      const index_t j = col_idx[k];
      local_cols_[k] = (j >= lo && j < hi)
                           ? static_cast<local_index_t>(j - lo)
                           : slot[static_cast<std::size_t>(j)];
    }

    // Owners hold contiguous ranges, so I_{s,l} is the run of ghosts(l)
    // inside [begin(s), end(s)). Receivers are visited in ascending order,
    // which keeps every sends(s) ordered by receiver rank.
    for (auto run = ghosts.begin(); run != ghosts.end();) {
      const rank_t s = part.owner(*run);
      ESRP_CHECK(s != l); // ghosts exclude the receiver's own range
      const auto run_end = std::lower_bound(run, ghosts.end(), part.end(s));
      sends_[static_cast<std::size_t>(s)].push_back(
          SendList{l, IndexSet(run, run_end),
                   static_cast<std::size_t>(run - ghosts.begin())});
      run = run_end;
    }
  }
}

const std::vector<SendList>& SpmvPlan::sends(rank_t s) const {
  ESRP_CHECK(s >= 0 && s < part_->num_nodes());
  return sends_[static_cast<std::size_t>(s)];
}

const IndexSet& SpmvPlan::send_set(rank_t s, rank_t l) const {
  for (const SendList& sl : sends(s))
    if (sl.to == l) return sl.indices;
  return empty_;
}

const IndexSet& SpmvPlan::ghosts(rank_t l) const {
  ESRP_CHECK(l >= 0 && l < part_->num_nodes());
  return ghosts_[static_cast<std::size_t>(l)];
}

std::size_t SpmvPlan::local_size(rank_t l) const {
  return static_cast<std::size_t>(part_->local_size(l)) + ghosts(l).size();
}

void SpmvPlan::local_spmv(const CsrMatrix& a, rank_t l,
                          std::span<const real_t> local,
                          std::span<real_t> y) const {
  ESRP_CHECK(local.size() == local_size(l));
  const index_t lo = part_->begin(l), hi = part_->end(l);
  ESRP_CHECK(static_cast<index_t>(y.size()) == hi - lo);
  a.spmv_rows_local(lo, hi, local_cols_, local, y);
}

int SpmvPlan::multiplicity(index_t i) const {
  ESRP_CHECK(i >= 0 && i < part_->global_size());
  return multiplicity_[static_cast<std::size_t>(i)];
}

index_t SpmvPlan::local_nnz(rank_t s) const {
  ESRP_CHECK(s >= 0 && s < part_->num_nodes());
  return local_nnz_[static_cast<std::size_t>(s)];
}

std::uint64_t SpmvPlan::total_entries_sent() const {
  std::uint64_t total = 0;
  for (const auto& lists : sends_)
    for (const SendList& sl : lists) total += sl.indices.size();
  return total;
}

bool SpmvPlan::provides_full_redundancy() const {
  return std::all_of(multiplicity_.begin(), multiplicity_.end(),
                     [](int v) { return v >= 1; });
}

} // namespace esrp
