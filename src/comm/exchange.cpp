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

/// Write the entries of `sl` contiguously from `dst`; `owned` is the
/// sender's slice, starting at global index `lo`.
void gather(const SendList& sl, std::span<const real_t> owned, index_t lo,
            real_t* dst) {
  for (std::size_t k = 0; k < sl.indices.size(); ++k)
    dst[k] = owned[static_cast<std::size_t>(sl.indices[k] - lo)];
}

} // namespace

RedundantCopy::RedundantCopy(index_t tag,
                             std::shared_ptr<const CopyLayout> layout)
    : tag_(tag), layout_(std::move(layout)) {
  ESRP_CHECK(layout_ != nullptr);
  values_ = std::make_unique_for_overwrite<real_t[]>(layout_->total());
  const auto holders = static_cast<std::size_t>(layout_->num_holders());
  seals_.resize(holders);
  dropped_.assign(holders, 0);
}

RedundantCopy::RedundantCopy(index_t tag,
                             std::shared_ptr<const CopyLayout> layout,
                             const std::vector<Vector>& values)
    : RedundantCopy(tag, std::move(layout)) {
  ESRP_CHECK(static_cast<rank_t>(values.size()) == layout_->num_holders());
  for (rank_t h = 0; h < layout_->num_holders(); ++h) {
    const Vector& v = values[static_cast<std::size_t>(h)];
    ESRP_CHECK(v.size() == layout_->held(h).size());
    fill_and_seal(h, v);
  }
}

std::span<real_t> RedundantCopy::values(rank_t h) {
  return {values_.get() + layout_->begin(h), layout_->held(h).size()};
}

std::span<const real_t> RedundantCopy::values(rank_t h) const {
  return {values_.get() + layout_->begin(h), layout_->held(h).size()};
}

void RedundantCopy::fill_and_seal(rank_t h, std::span<const real_t> head) {
  const std::span<real_t> v = values(h);
  ESRP_CHECK(head.size() <= v.size());
  seals_[static_cast<std::size_t>(h)] =
      BulkHash()
          .copy_words(v.data(), head.data(), head.size())
          .words(v.data() + head.size(), v.size() - head.size())
          .seal();
}

std::ptrdiff_t RedundantCopy::find(rank_t h, index_t i) const {
  if (dropped_[static_cast<std::size_t>(h)]) return -1;
  return layout_->find(h, i);
}

bool RedundantCopy::verify(std::span<const rank_t> failed) const {
  for (rank_t h = 0; h < static_cast<rank_t>(seals_.size()); ++h) {
    if (dropped_[static_cast<std::size_t>(h)] || rank_in(failed, h)) continue;
    if (seal_of(values(h)) != seals_[static_cast<std::size_t>(h)])
      return false;
  }
  return true;
}

rank_t RedundantCopy::corrupt(index_t i, int bit) {
  ESRP_CHECK(bit >= 0 && bit < 64);
  for (rank_t h = 0; h < static_cast<rank_t>(seals_.size()); ++h) {
    const std::ptrdiff_t pos = find(h, i);
    if (pos < 0) continue;
    real_t& v = values(h)[static_cast<std::size_t>(pos)];
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
  ESRP_CHECK(holder >= 0 && holder < static_cast<rank_t>(seals_.size()));
  const std::span<const real_t> held = values(holder);
  std::vector<std::pair<index_t, real_t>> out;
  for (index_t i : wanted) {
    const std::ptrdiff_t pos = find(holder, i);
    if (pos >= 0) out.emplace_back(i, held[static_cast<std::size_t>(pos)]);
  }
  return out;
}

std::optional<std::pair<rank_t, real_t>> RedundantCopy::find_surviving(
    index_t i, std::span<const rank_t> failed) const {
  for (rank_t h = 0; h < static_cast<rank_t>(seals_.size()); ++h) {
    if (rank_in(failed, h)) continue;
    const std::ptrdiff_t pos = find(h, i);
    if (pos >= 0)
      return std::make_pair(h, values(h)[static_cast<std::size_t>(pos)]);
  }
  return std::nullopt;
}

std::size_t RedundantCopy::total_entries() const {
  std::size_t n = 0;
  for (rank_t h = 0; h < static_cast<rank_t>(seals_.size()); ++h)
    if (!dropped_[static_cast<std::size_t>(h)]) n += layout_->held(h).size();
  return n;
}

void RedundantCopy::drop_holders(std::span<const rank_t> ranks) {
  for (rank_t s : ranks) {
    ESRP_CHECK(s >= 0 && s < static_cast<rank_t>(seals_.size()));
    dropped_[static_cast<std::size_t>(s)] = 1;
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

  // Capture: the augmentation traffic — pure redundancy, never read by the
  // local products — fills each holder's tail ...
  RedundantCopy copy(tag, aug.copy_layout());
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const auto owned = p.local(s);
    for (const SendList& sl : aug.extra_sends(s)) {
      charge(s, sl, CommCategory::aspmv_extra);
      gather(sl, owned, part.begin(s), copy.values(sl.to).data() + sl.offset);
    }
  }
  // ... and its ghost buffer is copied into the head as the holder is
  // sealed.
  for (rank_t h = 0; h < part.num_nodes(); ++h)
    copy.fill_and_seal(
        h, local(h).subspan(static_cast<std::size_t>(part.local_size(h))));

  local_products(y);
  cluster_->complete_step();
  return copy;
}

RedundantCopy ExchangeEngine::disseminate(const AspmvPlan& aug,
                                          const DistVector& p, index_t tag) {
  const BlockRowPartition& part = plan_->partition();
  ESRP_CHECK(&aug.base() == plan_);
  RedundantCopy copy(tag, aug.copy_layout());
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const auto owned = p.local(s);
    // Halo-list receivers first, then the augmentation top-up — the same
    // layout an aspmv() capture fills, but every send is a dedicated
    // redundancy message here.
    for (const auto* lists : {&plan_->sends(s), &aug.extra_sends(s)}) {
      for (const SendList& sl : *lists) {
        charge(s, sl, CommCategory::aspmv_extra);
        gather(sl, owned, part.begin(s),
               copy.values(sl.to).data() + sl.offset);
      }
    }
  }
  for (rank_t h = 0; h < part.num_nodes(); ++h) copy.fill_and_seal(h, {});
  cluster_->complete_step();
  return copy;
}

} // namespace esrp
