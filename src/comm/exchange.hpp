// Execution of the distributed (A)SpMV over the simulated cluster, including
// the capture of redundant copies (paper §2.2.2).
//
// A RedundantCopy is the abstract p' of the paper: the entries of one search
// direction that live on nodes *other than their owner* after an (A)SpMV.
// For a regular SpMV these are exactly the halo entries; the ASpMV adds the
// augmentation traffic so that every entry has at least phi off-owner copies.
//
// Data layout: each node works on a compact [owned | ghosts] buffer in the
// SpmvPlan's local numbering, and a copy stores one flat value buffer in
// the order the AspmvPlan's CopyLayout fixes: per holder, the ghosts, then
// the augmentation receipts. Capture gathers the augmentation entries into
// the holder tails, then copies each ghost buffer into its head while
// sealing the holder, so every value is written once and read once more.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "comm/aspmv_plan.hpp"
#include "comm/spmv_plan.hpp"
#include "common/fnv.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "sparse/csr.hpp"

namespace esrp {

/// Off-owner copies of one search-direction vector: one flat value buffer,
/// holder h's values at layout->begin(h) in the order layout->held(h)
/// names them (the holder's sorted ghosts, then its sorted augmentation
/// receipts). The indices and offsets live in the shared, immutable
/// layout; the copy stores the values plus per-holder seals and dropped
/// flags.
class RedundantCopy {
public:
  RedundantCopy() = default;
  /// A copy built from per-holder arrays: `values[h]` holds the entries
  /// layout->held(h) names, in that order. Seals every holder's values.
  RedundantCopy(index_t tag, std::shared_ptr<const CopyLayout> layout,
                const std::vector<Vector>& values);

  index_t tag() const { return tag_; }
  bool valid() const { return tag_ >= 0; }

  /// Recompute every surviving holder's seal and compare against the seal
  /// taken when its values were written. True iff all match — a mismatch
  /// means the stored bytes changed since the exchange (silent corruption
  /// of the redundant state), so this copy must not feed a reconstruction.
  bool verify(std::span<const rank_t> failed) const;

  /// Fault injection: flip `bit` of the stored value of global entry `i` on
  /// its lowest-ranked holder WITHOUT refreshing the seal — the corruption
  /// verify() must later detect. Returns the holder rank, or -1 if no
  /// holder stores entry `i`.
  rank_t corrupt(index_t i, int bit);

  /// Entries held by `holder` whose global index lies in the sorted set
  /// `wanted`; used by the recovery gather.
  std::vector<std::pair<index_t, real_t>> held_in(
      rank_t holder, std::span<const index_t> wanted) const;

  /// Value of entry i on the lowest-ranked holder not in `failed`
  /// (deterministic choice of the sending survivor). nullopt if no copy
  /// survived — with a correct plan this means more than phi nodes failed.
  std::optional<std::pair<rank_t, real_t>> find_surviving(
      index_t i, std::span<const rank_t> failed) const;

  /// Number of (holder, entry) pairs stored, dropped holders excluded
  /// (diagnostics).
  std::size_t total_entries() const;

  /// Discard everything held by the given ranks — the copies a node failure
  /// destroys along with the node. The holders are marked dropped; their
  /// storage is freed with the copy.
  void drop_holders(std::span<const rank_t> ranks);

private:
  friend class ExchangeEngine;

  /// A copy with uninitialized values; the filler writes every holder's
  /// values and seals each through fill_and_seal().
  RedundantCopy(index_t tag, std::shared_ptr<const CopyLayout> layout);

  std::span<real_t> values(rank_t h);
  std::span<const real_t> values(rank_t h) const;
  /// Copy `head` to the front of holder h's values and seal the holder in
  /// the same pass; the rest of its values must already be written.
  void fill_and_seal(rank_t h, std::span<const real_t> head);
  /// Position of entry i in holder h's values, or -1 (also once dropped).
  std::ptrdiff_t find(rank_t h, index_t i) const;

  index_t tag_ = -1;
  std::shared_ptr<const CopyLayout> layout_;
  std::unique_ptr<real_t[]> values_; ///< every holder, back to back
  /// Per-holder word-wise seals, taken as the values are written. Per
  /// holder (not whole-copy) so that verify() can skip the holders a
  /// failure dropped and still compare the survivors.
  std::vector<BulkSeal> seals_;
  std::vector<char> dropped_; ///< [holder]: lost with its node
};

/// Drives halo exchanges and local products for one matrix on one cluster.
/// Owns one compact [owned | ghosts] buffer per node in the plan's local
/// numbering — O(n + halo) in total — so one engine should be reused
/// across iterations.
class ExchangeEngine {
public:
  ExchangeEngine(const CsrMatrix& a, const SpmvPlan& plan, SimCluster& cluster);

  /// y := A p using the regular SpMV. Charges halo messages and local
  /// compute, then completes the superstep. Pass `complete_step = false` to
  /// leave the superstep open so the caller can overlap further work with
  /// it (e.g. the pipelined solver's non-blocking allreduce).
  void spmv(const DistVector& p, DistVector& y, bool complete_step = true);

  /// y := A p using the augmented SpMV: regular halo traffic plus the
  /// augmentation sends of `aug`; every off-owner receipt is captured into
  /// the returned RedundantCopy (tagged with `tag`) — each holder's ghost
  /// buffer plus the augmentation entries, in aug.copy_layout() order,
  /// sealed as they are written.
  RedundantCopy aspmv(const AspmvPlan& aug, const DistVector& p, index_t tag,
                      DistVector& y);

  /// Disseminate redundant off-owner copies of `p` per the plan WITHOUT
  /// computing a product — the pipelined solver's ESR storage stage, where
  /// the iteration's SpMV input is m = P w rather than the search direction
  /// the reconstruction needs (ref. [16]). Sends the regular halo lists
  /// plus the augmentation lists (none of it feeds a product), so the
  /// returned copy has the same layout and >= phi off-owner coverage as an
  /// aspmv() capture. All messages are charged as aspmv_extra: on a real
  /// cluster this is pure redundancy traffic that cannot piggyback on an
  /// existing exchange of p. Completes the superstep.
  RedundantCopy disseminate(const AspmvPlan& aug, const DistVector& p,
                            index_t tag);

  const SpmvPlan& plan() const { return *plan_; }

private:
  void halo_exchange(const DistVector& p);
  void local_products(DistVector& y);
  /// Charge the message carrying `sl` from node s.
  void charge(rank_t s, const SendList& sl, CommCategory cat);
  /// Node l's [owned | ghosts] buffer.
  std::span<real_t> local(rank_t l);

  const CsrMatrix* a_;
  const SpmvPlan* plan_;
  SimCluster* cluster_;
  /// All nodes' [owned | ghosts] buffers, back to back; node l's starts at
  /// local_begin_[l].
  Vector local_;
  std::vector<std::size_t> local_begin_;
};

} // namespace esrp
