// Augmentation plan for the ASpMV (paper §2.2.1).
//
// Goal: after one augmented SpMV, every input-vector entry must reside on at
// least phi nodes *other than its owner*, so that any simultaneous failure of
// up to phi nodes leaves at least one copy alive.
//
// Designated destinations are the phi nearest ring neighbors (paper Eq. 1):
//     d_{s,k} = (s + ceil(k/2)) mod N   if k odd
//             = (s - k/2) mod N         if k even.
//
// For each entry i of node s we traverse k = 1..phi and send i to d_{s,k}
// unless (a) the regular SpMV already sends it there, or (b) the number of
// distinct receivers reached so far (regular multiplicity m(i) plus
// augmented sends) already meets phi.
//
// NOTE on the paper's set formula: the printed condition
// `m(i) - g(i) < phi - k` leaves an entry with m(i)=g(i)=0 one copy short of
// the stated "at least phi nodes" guarantee (k = phi yields 0 < 0, false).
// We implement the greedy traversal the surrounding text describes, which
// restores the invariant and never oversends; see DESIGN.md §3.2 and the
// property tests in tests/comm/.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/spmv_plan.hpp"

namespace esrp {

/// Where the values of a RedundantCopy live: for each holder, the global
/// indices of the off-owner entries it holds after an exchange, in plan
/// order — a sorted ghost run (its SpMV halo receipts) followed by a sorted
/// augmentation run — and where that holder's values start in the copy's
/// flat value buffer (holders back to back in rank order). Immutable once
/// built: an AspmvPlan and every copy captured through it share one
/// instance, so copies outlive a repartition that replaces the plan.
class CopyLayout {
public:
  /// `held[h]` is holder h's ghost run (its first `ghost_count[h]` entries)
  /// followed by its augmentation run. Each run must be strictly increasing
  /// and the runs disjoint: a holder receives an entry at most once per
  /// exchange.
  CopyLayout(std::vector<IndexSet> held, std::vector<std::size_t> ghost_count);

  rank_t num_holders() const { return static_cast<rank_t>(held_.size()); }

  /// Global indices held by `h`, in value order.
  std::span<const index_t> held(rank_t h) const;

  /// Position of entry i in held(h), or -1 if h does not hold it.
  std::ptrdiff_t find(rank_t h, index_t i) const;

  /// Offset of holder h's values in a copy's flat value buffer.
  std::size_t begin(rank_t h) const;
  /// Length of every holder's values together: the flat buffer's size.
  std::size_t total() const { return begin_.back(); }

private:
  std::vector<IndexSet> held_;
  std::vector<std::size_t> ghost_count_;
  std::vector<std::size_t> begin_; ///< [holder], plus the total at the end
};

/// Paper Eq. 1: k-th designated destination of node s (k in 1..phi).
rank_t designated_destination(rank_t s, int k, rank_t num_nodes);

/// Strategy for choosing the designated destinations d_{s,k}. The paper
/// uses the ring neighbors of Eq. 1 and notes that placement optimization
/// "taking [sparsity pattern and topology] into consideration" is ongoing
/// work (§2.2.1); halo_affine is one such optimization: it prefers nodes
/// that already receive the most regular SpMV traffic from s, so augmented
/// entries piggyback on existing messages instead of opening new routes.
enum class AspmvPlacement { ring, halo_affine };

class AspmvPlan {
public:
  /// Build the augmentation on top of a regular SpMV plan. `phi >= 1` is the
  /// number of simultaneous node failures to survive; phi must be < N.
  AspmvPlan(const SpmvPlan& base, int phi,
            AspmvPlacement placement = AspmvPlacement::ring);
  /// The plan keeps a reference to `base`; passing a temporary would leave
  /// it dangling.
  AspmvPlan(SpmvPlan&&, int, AspmvPlacement = AspmvPlacement::ring) = delete;

  const SpmvPlan& base() const { return *base_; }
  int phi() const { return phi_; }
  AspmvPlacement placement() const { return placement_; }

  /// The designated destinations d_{s,1..phi} chosen for node s.
  const std::vector<rank_t>& destinations_of(rank_t s) const;

  /// Number of (sender, destination) routes that carry augmentation traffic
  /// but no regular SpMV traffic (new messages a real network would pay a
  /// latency for; halo_affine minimizes these).
  std::size_t new_routes() const;

  /// R^c_{s,k}-style transfer lists of node s: entries sent *in addition* to
  /// the regular SpMV traffic, grouped per designated destination.
  const std::vector<SendList>& extra_sends(rank_t s) const;

  /// All nodes holding a copy of entry i after an ASpMV (regular SpMV
  /// receivers plus augmented destinations; never includes the owner).
  /// Sorted ascending.
  std::vector<rank_t> receivers_of(index_t i) const;

  /// Total extra entries transferred per ASpMV relative to the regular SpMV.
  std::uint64_t total_extra_entries() const;

  /// Per-holder layout of the copies an ASpMV (or a dissemination) through
  /// this plan captures: holder h keeps base().ghosts(h), then the
  /// augmentation entries it receives. Every SendList offset of the base
  /// plan and of extra_sends() points into it.
  const std::shared_ptr<const CopyLayout>& copy_layout() const {
    return layout_;
  }

private:
  const SpmvPlan* base_;
  int phi_;
  AspmvPlacement placement_;
  std::vector<std::vector<SendList>> extra_; // [s] -> per-destination lists
  std::vector<std::vector<rank_t>> dests_;   // [s] -> d_{s,1..phi}
  std::shared_ptr<const CopyLayout> layout_;
};

} // namespace esrp
