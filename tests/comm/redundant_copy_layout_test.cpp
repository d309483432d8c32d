// Layout properties of the compact distributed data path, for ring and
// halo_affine placement at phi in {1, 3, 8} on small poisson2d, poisson3d
// and emilia problems:
//  - every (holder, i) pair of AspmvPlan::receivers_of is found through
//    find_surviving and held_in with the value p[i], and nothing else is;
//  - find_surviving picks the lowest surviving holder, before and after
//    drop_holders;
//  - disseminate captures the same coverage as aspmv;
//  - every SendList offset points at its entries in the receiver's layout;
//  - the local-numbered product is bitwise equal to CsrMatrix::spmv_rows on
//    every rank, and the engine's product to the sequential one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>

#include "comm/exchange.hpp"
#include "common/rng.hpp"
#include "netsim/failure.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

constexpr rank_t kNodes = 12;

CsrMatrix make_matrix(const std::string& name) {
  if (name == "poisson2d") return poisson2d(12, 12);
  if (name == "poisson3d") return poisson3d(6, 6, 5);
  if (name == "emilia") return emilia_like(5, 5, 5).matrix;
  throw Error("unknown matrix " + name);
}

bool same_bits(real_t a, real_t b) {
  return std::memcmp(&a, &b, sizeof(real_t)) == 0;
}

using LayoutCase = std::tuple<std::string, AspmvPlacement, int>;

class RedundantCopyLayout : public ::testing::TestWithParam<LayoutCase> {
protected:
  RedundantCopyLayout()
      : a_(make_matrix(std::get<0>(GetParam()))),
        part_(a_.rows(), kNodes),
        cluster_(part_),
        plan_(a_, part_),
        aug_(plan_, std::get<2>(GetParam()), std::get<1>(GetParam())),
        engine_(a_, plan_, cluster_),
        p_(static_cast<std::size_t>(a_.rows())) {
    Rng rng(17);
    for (real_t& v : p_) v = rng.uniform(-1, 1);
  }

  RedundantCopy capture() {
    DistVector pd(part_, p_), y(part_);
    return engine_.aspmv(aug_, pd, 3, y);
  }

  /// held[h] = every i whose receivers_of(i) contains h, ascending.
  std::vector<IndexSet> expected_holdings() const {
    std::vector<IndexSet> held(static_cast<std::size_t>(kNodes));
    for (index_t i = 0; i < a_.rows(); ++i)
      for (rank_t h : aug_.receivers_of(i))
        held[static_cast<std::size_t>(h)].push_back(i);
    return held;
  }

  CsrMatrix a_;
  BlockRowPartition part_;
  SimCluster cluster_;
  SpmvPlan plan_;
  AspmvPlan aug_;
  ExchangeEngine engine_;
  Vector p_;
};

TEST_P(RedundantCopyLayout, EveryReceiverPairIsHeldWithItsValue) {
  const RedundantCopy copy = capture();
  const std::vector<IndexSet> expected = expected_holdings();
  const IndexSet all = index_range(0, a_.rows());
  std::size_t pairs = 0;
  for (rank_t h = 0; h < kNodes; ++h) {
    const IndexSet& want = expected[static_cast<std::size_t>(h)];
    pairs += want.size();
    const auto got = copy.held_in(h, all);
    ASSERT_EQ(got.size(), want.size()) << "holder " << h;
    // Everyone but h failed: h must be the survivor for each of its entries.
    std::vector<rank_t> others;
    for (rank_t r = 0; r < kNodes; ++r)
      if (r != h) others.push_back(r);
    for (std::size_t k = 0; k < want.size(); ++k) {
      const index_t i = want[k];
      EXPECT_EQ(got[k].first, i);
      EXPECT_TRUE(same_bits(got[k].second, p_[static_cast<std::size_t>(i)]));
      const auto hit = copy.find_surviving(i, others);
      ASSERT_TRUE(hit.has_value()) << "holder " << h << ", entry " << i;
      EXPECT_EQ(hit->first, h);
      EXPECT_TRUE(same_bits(hit->second, p_[static_cast<std::size_t>(i)]));
    }
  }
  EXPECT_EQ(copy.total_entries(), pairs);
  EXPECT_TRUE(copy.verify({}));
}

TEST_P(RedundantCopyLayout, FindSurvivingPicksTheLowestSurvivingHolder) {
  RedundantCopy copy = capture();
  const auto lowest_outside = [](const std::vector<rank_t>& receivers,
                                 std::span<const rank_t> gone) {
    for (rank_t r : receivers)
      if (!rank_in(gone, r)) return r;
    return rank_t{-1};
  };
  const std::vector<rank_t> window = contiguous_ranks(2, 3, kNodes);
  for (index_t i = 0; i < a_.rows(); ++i) {
    const std::vector<rank_t> receivers = aug_.receivers_of(i);
    const auto first = copy.find_surviving(i, {});
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->first, receivers.front());
    const auto hit = copy.find_surviving(i, window);
    const rank_t want = lowest_outside(receivers, window);
    EXPECT_EQ(hit ? hit->first : rank_t{-1}, want) << "entry " << i;
  }

  const std::vector<rank_t> dropped{0, 5};
  copy.drop_holders(dropped);
  EXPECT_TRUE(copy.verify({}));
  for (index_t i = 0; i < a_.rows(); ++i) {
    const std::vector<rank_t> receivers = aug_.receivers_of(i);
    const auto hit = copy.find_surviving(i, {});
    const rank_t want = lowest_outside(receivers, dropped);
    EXPECT_EQ(hit ? hit->first : rank_t{-1}, want) << "entry " << i;
    if (hit) {
      EXPECT_TRUE(same_bits(hit->second, p_[static_cast<std::size_t>(i)]));
    }
  }
}

TEST_P(RedundantCopyLayout, DisseminateMatchesAspmvCoverage) {
  const RedundantCopy captured = capture();
  const DistVector pd(part_, p_);
  const RedundantCopy spread = engine_.disseminate(aug_, pd, 4);
  EXPECT_EQ(spread.total_entries(), captured.total_entries());
  const IndexSet all = index_range(0, a_.rows());
  for (rank_t h = 0; h < kNodes; ++h) {
    const auto a = captured.held_in(h, all);
    const auto b = spread.held_in(h, all);
    ASSERT_EQ(a.size(), b.size()) << "holder " << h;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].first, b[k].first);
      EXPECT_TRUE(same_bits(a[k].second, b[k].second));
    }
  }
  EXPECT_TRUE(spread.verify({}));
}

TEST_P(RedundantCopyLayout, SendListOffsetsPointIntoTheReceiverLayout) {
  const CopyLayout& layout = *aug_.copy_layout();
  for (rank_t s = 0; s < kNodes; ++s) {
    for (const SendList& sl : plan_.sends(s)) {
      const IndexSet& ghosts = plan_.ghosts(sl.to);
      ASSERT_LE(sl.offset + sl.indices.size(), ghosts.size());
      EXPECT_TRUE(std::equal(
          sl.indices.begin(), sl.indices.end(),
          ghosts.begin() + static_cast<std::ptrdiff_t>(sl.offset)));
    }
    for (const SendList& sl : aug_.extra_sends(s)) {
      const auto held = layout.held(sl.to);
      ASSERT_LE(sl.offset + sl.indices.size(), held.size());
      EXPECT_GE(sl.offset, plan_.ghosts(sl.to).size());
      EXPECT_TRUE(std::equal(
          sl.indices.begin(), sl.indices.end(),
          held.begin() + static_cast<std::ptrdiff_t>(sl.offset)));
    }
  }
}

TEST_P(RedundantCopyLayout, LocalProductIsBitwiseEqualToSpmvRows) {
  for (rank_t l = 0; l < kNodes; ++l) {
    const index_t lo = part_.begin(l), hi = part_.end(l);
    Vector local(p_.begin() + lo, p_.begin() + hi);
    for (index_t g : plan_.ghosts(l))
      local.push_back(p_[static_cast<std::size_t>(g)]);
    ASSERT_EQ(local.size(), plan_.local_size(l));
    Vector y(static_cast<std::size_t>(hi - lo)), y_ref(y.size());
    plan_.local_spmv(a_, l, local, y);
    a_.spmv_rows(lo, hi, p_, y_ref);
    for (std::size_t k = 0; k < y.size(); ++k)
      EXPECT_TRUE(same_bits(y[k], y_ref[k])) << "rank " << l << ", row " << k;
  }
  DistVector pd(part_, p_), yd(part_);
  engine_.spmv(pd, yd);
  Vector y_seq(p_.size());
  a_.spmv(p_, y_seq);
  const Vector y_dist = yd.gather_global();
  for (std::size_t i = 0; i < y_seq.size(); ++i)
    EXPECT_TRUE(same_bits(y_dist[i], y_seq[i])) << "row " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Placements, RedundantCopyLayout,
    ::testing::Combine(::testing::Values("poisson2d", "poisson3d", "emilia"),
                       ::testing::Values(AspmvPlacement::ring,
                                         AspmvPlacement::halo_affine),
                       ::testing::Values(1, 3, 8)),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == AspmvPlacement::ring ? "_ring"
                                                              : "_affine") +
             "_phi" + std::to_string(std::get<2>(info.param));
    });

} // namespace
} // namespace esrp
