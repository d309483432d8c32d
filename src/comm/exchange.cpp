#include "comm/exchange.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "netsim/failure.hpp"
#include "parallel/parallel.hpp"

namespace esrp {

namespace {

BulkSeal seal_of(std::span<const real_t> values) {
  return BulkHash().words(values.data(), values.size()).seal();
}

/// Per-holder value arrays sized by `layout`, zero-filled.
std::vector<Vector> sized_values(const CopyLayout& layout) {
  std::vector<Vector> values(static_cast<std::size_t>(layout.num_holders()));
  for (rank_t h = 0; h < layout.num_holders(); ++h)
    values[static_cast<std::size_t>(h)].resize(layout.held(h).size());
  return values;
}

/// Write the entries of `sl` contiguously from `dst`; `owned` is the
/// sender's slice, starting at global index `lo`.
void gather(const SendList& sl, std::span<const real_t> owned, index_t lo,
            real_t* dst) {
  for (std::size_t k = 0; k < sl.indices.size(); ++k)
    dst[k] = owned[static_cast<std::size_t>(sl.indices[k] - lo)];
}

} // namespace

RedundantCopy::RedundantCopy(index_t tag,
                             std::shared_ptr<const CopyLayout> layout,
                             std::vector<Vector> values)
    : tag_(tag), layout_(std::move(layout)), values_(std::move(values)) {
  ESRP_CHECK(layout_ != nullptr);
  ESRP_CHECK(static_cast<rank_t>(values_.size()) == layout_->num_holders());
  seals_.reserve(values_.size());
  for (rank_t h = 0; h < layout_->num_holders(); ++h) {
    const Vector& v = values_[static_cast<std::size_t>(h)];
    ESRP_CHECK(v.size() == layout_->held(h).size());
    seals_.push_back(seal_of(v));
  }
}

std::ptrdiff_t RedundantCopy::find(rank_t h, index_t i) const {
  if (values_[static_cast<std::size_t>(h)].empty()) return -1;
  return layout_->find(h, i);
}

bool RedundantCopy::verify(std::span<const rank_t> failed) const {
  for (rank_t h = 0; h < static_cast<rank_t>(values_.size()); ++h) {
    if (rank_in(failed, h)) continue;
    if (seal_of(values_[static_cast<std::size_t>(h)]) !=
        seals_[static_cast<std::size_t>(h)])
      return false;
  }
  return true;
}

rank_t RedundantCopy::corrupt(index_t i, int bit) {
  ESRP_CHECK(bit >= 0 && bit < 64);
  for (rank_t h = 0; h < static_cast<rank_t>(values_.size()); ++h) {
    const std::ptrdiff_t pos = find(h, i);
    if (pos < 0) continue;
    real_t& v =
        values_[static_cast<std::size_t>(h)][static_cast<std::size_t>(pos)];
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(real_t));
    std::memcpy(&bits, &v, sizeof(bits));
    bits ^= (std::uint64_t{1} << bit);
    std::memcpy(&v, &bits, sizeof(bits));
    return h;
  }
  return -1;
}

std::vector<std::pair<index_t, real_t>> RedundantCopy::held_in(
    rank_t holder, std::span<const index_t> wanted) const {
  ESRP_CHECK(holder >= 0 && holder < static_cast<rank_t>(values_.size()));
  const Vector& values = values_[static_cast<std::size_t>(holder)];
  std::vector<std::pair<index_t, real_t>> out;
  for (index_t i : wanted) {
    const std::ptrdiff_t pos = find(holder, i);
    if (pos >= 0) out.emplace_back(i, values[static_cast<std::size_t>(pos)]);
  }
  return out;
}

std::optional<std::pair<rank_t, real_t>> RedundantCopy::find_surviving(
    index_t i, std::span<const rank_t> failed) const {
  for (rank_t h = 0; h < static_cast<rank_t>(values_.size()); ++h) {
    if (rank_in(failed, h)) continue;
    const std::ptrdiff_t pos = find(h, i);
    if (pos >= 0)
      return std::make_pair(h, values_[static_cast<std::size_t>(h)]
                                      [static_cast<std::size_t>(pos)]);
  }
  return std::nullopt;
}

std::size_t RedundantCopy::total_entries() const {
  std::size_t n = 0;
  for (const Vector& v : values_) n += v.size();
  return n;
}

void RedundantCopy::drop_holders(std::span<const rank_t> ranks) {
  for (rank_t s : ranks) {
    ESRP_CHECK(s >= 0 && s < static_cast<rank_t>(values_.size()));
    Vector().swap(values_[static_cast<std::size_t>(s)]);
    // Re-seal the emptied holder: dropping a holder is a legitimate mutation
    // (the node died, its copies with it), so a later verify() against a
    // different failed set must not misread it as corruption.
    seals_[static_cast<std::size_t>(s)] = seal_of({});
  }
}

ExchangeEngine::ExchangeEngine(const CsrMatrix& a, const SpmvPlan& plan,
                               SimCluster& cluster)
    : a_(&a), plan_(&plan), cluster_(&cluster) {
  const BlockRowPartition& part = plan.partition();
  ESRP_CHECK(&part == &cluster.partition());
  local_begin_.resize(static_cast<std::size_t>(part.num_nodes()) + 1, 0);
  for (rank_t l = 0; l < part.num_nodes(); ++l)
    local_begin_[static_cast<std::size_t>(l) + 1] =
        local_begin_[static_cast<std::size_t>(l)] + plan.local_size(l);
  local_.resize(local_begin_.back());
}

std::span<real_t> ExchangeEngine::local(rank_t l) {
  const auto b = local_begin_[static_cast<std::size_t>(l)];
  return {local_.data() + b, local_begin_[static_cast<std::size_t>(l) + 1] - b};
}

void ExchangeEngine::charge(rank_t s, const SendList& sl, CommCategory cat) {
  cluster_->send(s, sl.to, sl.indices.size() * CostParams::bytes_per_scalar,
                 cat);
}

void ExchangeEngine::halo_exchange(const DistVector& p) {
  const BlockRowPartition& part = plan_->partition();
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const auto owned = p.local(s);
    const index_t lo = part.begin(s);
    std::copy(owned.begin(), owned.end(), local(s).begin());
    for (const SendList& sl : plan_->sends(s)) {
      charge(s, sl, CommCategory::spmv_halo);
      gather(sl, owned, lo,
             local(sl.to).data() + part.local_size(sl.to) + sl.offset);
    }
  }
}

void ExchangeEngine::local_products(DistVector& y) {
  // Each node's product writes only its own slice of y and reads its own
  // local buffer, so nodes parallelize freely (the halo exchange that
  // filled the buffers already completed). The node slice is the unit of
  // work, no nested row chunking.
  const BlockRowPartition& part = plan_->partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  parallel_for(index_t{0}, nodes, adaptive_grain(nodes),
               [&](index_t lo, index_t hi) {
                 for (index_t i = lo; i < hi; ++i) {
                   const auto s = static_cast<rank_t>(i);
                   plan_->local_spmv(*a_, s, local(s), y.local(s));
                   cluster_->add_compute(
                       s, 2.0 * static_cast<double>(plan_->local_nnz(s)));
                 }
               });
}

void ExchangeEngine::spmv(const DistVector& p, DistVector& y,
                          bool complete_step) {
  halo_exchange(p);
  local_products(y);
  if (complete_step) cluster_->complete_step();
}

RedundantCopy ExchangeEngine::aspmv(const AspmvPlan& aug, const DistVector& p,
                                    index_t tag, DistVector& y) {
  const BlockRowPartition& part = plan_->partition();
  ESRP_CHECK(&aug.base() == plan_);
  halo_exchange(p);

  // Capture: every holder's ghost buffer is the head of its copy ...
  const CopyLayout& layout = *aug.copy_layout();
  std::vector<Vector> values(static_cast<std::size_t>(part.num_nodes()));
  for (rank_t h = 0; h < part.num_nodes(); ++h) {
    const auto ghosts =
        local(h).subspan(static_cast<std::size_t>(part.local_size(h)));
    Vector& held = values[static_cast<std::size_t>(h)];
    held.reserve(layout.held(h).size());
    held.assign(ghosts.begin(), ghosts.end());
    held.resize(layout.held(h).size());
  }
  // ... and the augmentation traffic — pure redundancy, never read by the
  // local products — fills the tail.
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const auto owned = p.local(s);
    for (const SendList& sl : aug.extra_sends(s)) {
      charge(s, sl, CommCategory::aspmv_extra);
      gather(sl, owned, part.begin(s),
             values[static_cast<std::size_t>(sl.to)].data() + sl.offset);
    }
  }

  local_products(y);
  cluster_->complete_step();
  return RedundantCopy(tag, aug.copy_layout(), std::move(values));
}

RedundantCopy ExchangeEngine::disseminate(const AspmvPlan& aug,
                                          const DistVector& p, index_t tag) {
  const BlockRowPartition& part = plan_->partition();
  ESRP_CHECK(&aug.base() == plan_);
  std::vector<Vector> values = sized_values(*aug.copy_layout());
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const auto owned = p.local(s);
    // Halo-list receivers first, then the augmentation top-up — the same
    // layout an aspmv() capture fills, but every send is a dedicated
    // redundancy message here.
    for (const auto* lists : {&plan_->sends(s), &aug.extra_sends(s)}) {
      for (const SendList& sl : *lists) {
        charge(s, sl, CommCategory::aspmv_extra);
        gather(sl, owned, part.begin(s),
               values[static_cast<std::size_t>(sl.to)].data() + sl.offset);
      }
    }
  }
  cluster_->complete_step();
  return RedundantCopy(tag, aug.copy_layout(), std::move(values));
}

} // namespace esrp
