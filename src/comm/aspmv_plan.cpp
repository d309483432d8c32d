#include "comm/aspmv_plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esrp {

CopyLayout::CopyLayout(std::vector<IndexSet> held,
                       std::vector<std::size_t> ghost_count)
    : held_(std::move(held)), ghost_count_(std::move(ghost_count)) {
  ESRP_CHECK(held_.size() == ghost_count_.size());
  begin_.assign(held_.size() + 1, 0);
  for (std::size_t h = 0; h < held_.size(); ++h) {
    begin_[h + 1] = begin_[h] + held_[h].size();
    const std::span<const index_t> idx = held_[h];
    ESRP_CHECK(ghost_count_[h] <= idx.size());
    const auto ghosts = idx.first(ghost_count_[h]);
    const auto augmented = idx.subspan(ghost_count_[h]);
    // One receipt per holder per exchange: regular and augmented sends to
    // one destination are disjoint, and no entry is sent twice to it.
    ESRP_CHECK_MSG(is_index_set(ghosts) && is_index_set(augmented) &&
                       set_intersection(ghosts, augmented).empty(),
                   "holder " << h << " would receive an entry twice");
  }
}

std::span<const index_t> CopyLayout::held(rank_t h) const {
  ESRP_CHECK(h >= 0 && h < num_holders());
  return held_[static_cast<std::size_t>(h)];
}

std::ptrdiff_t CopyLayout::find(rank_t h, index_t i) const {
  const std::span<const index_t> idx = held(h);
  const auto mid = idx.begin() + static_cast<std::ptrdiff_t>(
                                     ghost_count_[static_cast<std::size_t>(h)]);
  for (const auto& [lo, hi] :
       {std::pair{idx.begin(), mid}, std::pair{mid, idx.end()}}) {
    const auto it = std::lower_bound(lo, hi, i);
    if (it != hi && *it == i) return it - idx.begin();
  }
  return -1;
}

std::size_t CopyLayout::begin(rank_t h) const {
  ESRP_CHECK(h >= 0 && h < num_holders());
  return begin_[static_cast<std::size_t>(h)];
}

rank_t designated_destination(rank_t s, int k, rank_t num_nodes) {
  ESRP_CHECK(num_nodes > 0);
  ESRP_CHECK(k >= 1);
  const auto n = static_cast<index_t>(num_nodes);
  index_t d;
  if (k % 2 == 1) {
    d = (static_cast<index_t>(s) + (k + 1) / 2) % n;
  } else {
    d = (static_cast<index_t>(s) - k / 2 % n + n) % n;
  }
  return static_cast<rank_t>(d);
}

namespace {

/// halo_affine destination choice: nodes already receiving the most regular
/// traffic from s first (piggyback), ring order as the tie-break/filler.
std::vector<rank_t> halo_affine_destinations(const SpmvPlan& base, rank_t s,
                                             int phi, rank_t n_nodes) {
  std::vector<rank_t> dests;
  dests.reserve(static_cast<std::size_t>(phi));
  // Regular receivers sorted by descending traffic volume.
  std::vector<std::pair<std::size_t, rank_t>> by_volume;
  by_volume.reserve(base.sends(s).size());
  for (const SendList& sl : base.sends(s))
    by_volume.emplace_back(sl.indices.size(), sl.to);
  std::sort(by_volume.begin(), by_volume.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& [volume, to] : by_volume) {
    if (static_cast<int>(dests.size()) == phi) break;
    dests.push_back(to);
  }
  // Fill up with ring neighbors not already chosen.
  for (int k = 1; static_cast<int>(dests.size()) < phi; ++k) {
    const rank_t d = designated_destination(s, k, n_nodes);
    if (std::find(dests.begin(), dests.end(), d) == dests.end())
      dests.push_back(d);
  }
  return dests;
}

} // namespace

AspmvPlan::AspmvPlan(const SpmvPlan& base, int phi, AspmvPlacement placement)
    : base_(&base), phi_(phi), placement_(placement) {
  const BlockRowPartition& part = base.partition();
  const rank_t n_nodes = part.num_nodes();
  ESRP_CHECK_MSG(phi >= 1, "phi must be at least 1");
  ESRP_CHECK_MSG(phi < n_nodes,
                 "phi (" << phi << ") must be smaller than the node count ("
                         << n_nodes << ")");

  extra_.assign(static_cast<std::size_t>(n_nodes), {});
  dests_.assign(static_cast<std::size_t>(n_nodes), {});
  for (rank_t s = 0; s < n_nodes; ++s) {
    // Per-destination accumulation for this sender.
    std::vector<IndexSet> to_dest(static_cast<std::size_t>(phi));
    std::vector<rank_t>& dests = dests_[static_cast<std::size_t>(s)];
    if (placement == AspmvPlacement::ring) {
      dests.resize(static_cast<std::size_t>(phi));
      for (int k = 1; k <= phi; ++k) {
        dests[static_cast<std::size_t>(k - 1)] =
            designated_destination(s, k, n_nodes);
      }
    } else {
      dests = halo_affine_destinations(base, s, phi, n_nodes);
    }
    // The designated destinations d_{s,1..phi} are pairwise distinct and
    // never the owner itself.
    for (int k = 0; k < phi; ++k) ESRP_CHECK(dests[static_cast<std::size_t>(k)] != s);

    for (index_t i = part.begin(s); i < part.end(s); ++i) {
      int reached = base.multiplicity(i); // distinct regular receivers
      if (reached >= phi) continue;
      for (int k = 1; k <= phi && reached < phi; ++k) {
        const rank_t d = dests[static_cast<std::size_t>(k - 1)];
        if (set_contains(base.send_set(s, d), i)) continue; // already regular
        to_dest[static_cast<std::size_t>(k - 1)].push_back(i);
        ++reached;
      }
      ESRP_CHECK_MSG(reached >= phi,
                     "entry " << i << " cannot reach " << phi
                              << " receivers — designated destinations "
                                 "exhausted (phi too close to N?)");
    }

    for (int k = 0; k < phi; ++k) {
      if (to_dest[static_cast<std::size_t>(k)].empty()) continue;
      extra_[static_cast<std::size_t>(s)].push_back(
          SendList{dests[static_cast<std::size_t>(k)],
                   std::move(to_dest[static_cast<std::size_t>(k)])});
    }
  }

  // Copy layout: each holder's ghosts, then the augmentation entries it
  // receives. Senders are visited in ascending rank and own ascending index
  // ranges, so appending their lists keeps the augmentation run sorted.
  std::vector<IndexSet> held(static_cast<std::size_t>(n_nodes));
  std::vector<std::size_t> ghost_count(static_cast<std::size_t>(n_nodes));
  for (rank_t h = 0; h < n_nodes; ++h) {
    held[static_cast<std::size_t>(h)] = base.ghosts(h);
    ghost_count[static_cast<std::size_t>(h)] = base.ghosts(h).size();
  }
  for (auto& lists : extra_) {
    for (SendList& sl : lists) {
      IndexSet& dst = held[static_cast<std::size_t>(sl.to)];
      sl.offset = dst.size();
      dst.insert(dst.end(), sl.indices.begin(), sl.indices.end());
    }
  }
  layout_ = std::make_shared<const CopyLayout>(std::move(held),
                                               std::move(ghost_count));
}

const std::vector<SendList>& AspmvPlan::extra_sends(rank_t s) const {
  ESRP_CHECK(s >= 0 && s < base_->partition().num_nodes());
  return extra_[static_cast<std::size_t>(s)];
}

const std::vector<rank_t>& AspmvPlan::destinations_of(rank_t s) const {
  ESRP_CHECK(s >= 0 && s < base_->partition().num_nodes());
  return dests_[static_cast<std::size_t>(s)];
}

std::size_t AspmvPlan::new_routes() const {
  std::size_t routes = 0;
  const rank_t n_nodes = base_->partition().num_nodes();
  for (rank_t s = 0; s < n_nodes; ++s) {
    for (const SendList& sl : extra_sends(s)) {
      if (base_->send_set(s, sl.to).empty()) ++routes;
    }
  }
  return routes;
}

std::vector<rank_t> AspmvPlan::receivers_of(index_t i) const {
  const BlockRowPartition& part = base_->partition();
  const rank_t s = part.owner(i);
  std::vector<rank_t> out;
  for (const SendList& sl : base_->sends(s))
    if (set_contains(sl.indices, i)) out.push_back(sl.to);
  for (const SendList& sl : extra_sends(s))
    if (set_contains(sl.indices, i)) out.push_back(sl.to);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t AspmvPlan::total_extra_entries() const {
  std::uint64_t total = 0;
  for (const auto& lists : extra_)
    for (const SendList& sl : lists) total += sl.indices.size();
  return total;
}

} // namespace esrp
