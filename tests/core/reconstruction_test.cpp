// Direct tests of the Alg. 2 reconstruction: build a consistent synthetic
// PCG state (r = b - A x, z = P r, p_cur = z + beta p_prev), destroy the
// failed nodes' slices, and verify the reconstruction recovers the exact
// lost entries from the surviving data plus the redundant copies.
#include "core/reconstruction.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

Vector random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

struct SyntheticState {
  Vector x, r, z, p_prev, p_cur, b;
  real_t beta;
};

SyntheticState make_state(const CsrMatrix& a, const Preconditioner& precond,
                          std::uint64_t seed) {
  const index_t n = a.rows();
  SyntheticState st;
  st.x = random_vector(n, seed);
  st.b = random_vector(n, seed + 1);
  st.p_prev = random_vector(n, seed + 2);
  st.beta = 0.37;
  st.r.resize(static_cast<std::size_t>(n));
  a.spmv(st.x, st.r);
  for (std::size_t i = 0; i < st.r.size(); ++i) st.r[i] = st.b[i] - st.r[i];
  st.z.resize(static_cast<std::size_t>(n));
  precond.apply(st.r, st.z);
  st.p_cur.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < st.z.size(); ++i)
    st.p_cur[i] = st.z[i] + st.beta * st.p_prev[i];
  return st;
}

/// Redundant copy holding all entries of `values` on `holder` (a surviving
/// node in the tests).
RedundantCopy full_copy(index_t tag, rank_t num_nodes, rank_t holder,
                        std::span<const real_t> values) {
  const auto n = static_cast<std::size_t>(num_nodes);
  std::vector<IndexSet> held(n);
  held[static_cast<std::size_t>(holder)] =
      index_range(0, static_cast<index_t>(values.size()));
  std::vector<Vector> held_values(n);
  held_values[static_cast<std::size_t>(holder)].assign(values.begin(),
                                                       values.end());
  return RedundantCopy(
      tag,
      std::make_shared<const CopyLayout>(std::move(held),
                                         std::vector<std::size_t>(n, 0)),
      std::move(held_values));
}

class ReconstructionFixture : public ::testing::Test {
protected:
  ReconstructionFixture()
      : a_(poisson2d(6, 6)),
        part_(a_.rows(), 6),
        cluster_(part_),
        precond_(a_, part_, 6),
        state_(make_state(a_, precond_, 99)) {}

  ReconstructionInputs make_inputs(const std::vector<rank_t>& failed,
                                   const RedundantCopy& prev,
                                   const RedundantCopy& cur,
                                   const DistVector& x_star,
                                   const DistVector& r_star) {
    ReconstructionInputs in;
    in.a = &a_;
    in.p_action = precond_.action_matrix();
    in.part = &part_;
    in.failed = failed;
    in.p_prev = &prev;
    in.p_cur = &cur;
    in.beta_prev = state_.beta;
    in.x_star = &x_star;
    in.r_star = &r_star;
    in.b_global = state_.b;
    return in;
  }

  CsrMatrix a_;
  BlockRowPartition part_;
  SimCluster cluster_;
  BlockJacobiPreconditioner precond_;
  SyntheticState state_;
};

TEST_F(ReconstructionFixture, RecoversExactLostEntries) {
  const std::vector<rank_t> failed{2};
  const rank_t holder = 4;
  const RedundantCopy prev = full_copy(9, 6, holder, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, holder, state_.p_cur);

  DistVector x_star(part_, state_.x), r_star(part_, state_.r);
  x_star.zero_ranks(failed); // reconstruction must not read failed slices
  r_star.zero_ranks(failed);

  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.lost, part_.owned_by(failed));
  for (std::size_t k = 0; k < out.lost.size(); ++k) {
    const auto i = static_cast<std::size_t>(out.lost[k]);
    EXPECT_NEAR(out.p_f[k], state_.p_cur[i], 1e-12);
    EXPECT_NEAR(out.z_f[k], state_.z[i], 1e-12);
    EXPECT_NEAR(out.r_f[k], state_.r[i], 1e-9);
    EXPECT_NEAR(out.x_f[k], state_.x[i], 1e-8);
  }
}

TEST_F(ReconstructionFixture, MultipleFailedNodes) {
  const std::vector<rank_t> failed{0, 1, 5};
  const rank_t holder = 3;
  const RedundantCopy prev = full_copy(0, 6, holder, state_.p_prev);
  const RedundantCopy cur = full_copy(1, 6, holder, state_.p_cur);
  DistVector x_star(part_, state_.x), r_star(part_, state_.r);
  x_star.zero_ranks(failed);
  r_star.zero_ranks(failed);
  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.lost.size(),
            static_cast<std::size_t>(part_.local_size(0) +
                                     part_.local_size(1) +
                                     part_.local_size(5)));
  for (std::size_t k = 0; k < out.lost.size(); ++k) {
    const auto i = static_cast<std::size_t>(out.lost[k]);
    EXPECT_NEAR(out.x_f[k], state_.x[i], 1e-8);
    EXPECT_NEAR(out.r_f[k], state_.r[i], 1e-9);
  }
}

TEST_F(ReconstructionFixture, MissingCopyReportsFailure) {
  const std::vector<rank_t> failed{2};
  // Copies held only on rank 2 itself -> destroyed with the failure.
  RedundantCopy prev = full_copy(9, 6, /*holder=*/2, state_.p_prev);
  RedundantCopy cur = full_copy(10, 6, /*holder=*/2, state_.p_cur);
  prev.drop_holders(failed);
  cur.drop_holders(failed);
  DistVector x_star(part_, state_.x), r_star(part_, state_.r);
  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  EXPECT_FALSE(out.ok);
}

TEST_F(ReconstructionFixture, ChargesRecoveryCommunication) {
  const std::vector<rank_t> failed{3};
  const RedundantCopy prev = full_copy(9, 6, 0, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 0, state_.p_cur);
  DistVector x_star(part_, state_.x), r_star(part_, state_.r);
  const double t0 = cluster_.modeled_time();
  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  ASSERT_TRUE(out.ok);
  EXPECT_GT(cluster_.ledger().totals(CommCategory::recovery).messages, 0u);
  EXPECT_GT(cluster_.modeled_time(), t0);
  EXPECT_GT(out.flops, 0);
  EXPECT_GT(out.inner_iterations_matrix, 0);
}

TEST_F(ReconstructionFixture, BlockJacobiMakesPreconditionerSolveTrivial) {
  // With node-aligned block Jacobi, P_{I_f, I\I_f} = 0, so the inner solve
  // for r works on a block-diagonal SPD system and converges quickly.
  const std::vector<rank_t> failed{1};
  const RedundantCopy prev = full_copy(9, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur);
  DistVector x_star(part_, state_.x), r_star(part_, state_.r);
  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  ASSERT_TRUE(out.ok);
  // The extracted P_{I_f,I_f} has blocks of size <= 6 and its block Jacobi
  // inner preconditioner inverts them exactly: few iterations needed.
  EXPECT_LE(out.inner_iterations_precond, 10);
}

TEST_F(ReconstructionFixture, MatrixFormulationRecoversExactly) {
  // The "preconditioner itself" formulation of [20]: r_f comes from a
  // direct multiplication with M, no inner solve.
  const std::vector<rank_t> failed{2};
  const RedundantCopy prev = full_copy(9, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur);
  DistVector x_star(part_, state_.x), r_star(part_, state_.r);
  DistVector z_star(part_, state_.z);
  x_star.zero_ranks(failed);
  r_star.zero_ranks(failed);
  z_star.zero_ranks(failed);

  ReconstructionInputs in = make_inputs(failed, prev, cur, x_star, r_star);
  in.formulation = PrecondFormulation::matrix;
  in.p_matrix = precond_.matrix_form();
  in.z_star = &z_star;
  const ReconstructionOutput out = reconstruct_state(in, cluster_);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.inner_iterations_precond, 0); // no inner solve for r
  EXPECT_GT(out.inner_iterations_matrix, 0);  // x still needs one
  for (std::size_t k = 0; k < out.lost.size(); ++k) {
    const auto i = static_cast<std::size_t>(out.lost[k]);
    EXPECT_NEAR(out.r_f[k], state_.r[i], 1e-11);
    EXPECT_NEAR(out.x_f[k], state_.x[i], 1e-8);
  }
}

TEST_F(ReconstructionFixture, FormulationsAgree) {
  const std::vector<rank_t> failed{0, 3};
  const RedundantCopy prev = full_copy(9, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur);
  DistVector x_star(part_, state_.x), r_star(part_, state_.r);
  DistVector z_star(part_, state_.z);

  ReconstructionInputs inv = make_inputs(failed, prev, cur, x_star, r_star);
  const ReconstructionOutput a = reconstruct_state(inv, cluster_);

  ReconstructionInputs mat = make_inputs(failed, prev, cur, x_star, r_star);
  mat.formulation = PrecondFormulation::matrix;
  mat.p_matrix = precond_.matrix_form();
  mat.z_star = &z_star;
  const ReconstructionOutput b = reconstruct_state(mat, cluster_);

  ASSERT_TRUE(a.ok && b.ok);
  for (std::size_t k = 0; k < a.lost.size(); ++k) {
    EXPECT_NEAR(a.r_f[k], b.r_f[k], 1e-10);
    EXPECT_NEAR(a.x_f[k], b.x_f[k], 1e-8);
  }
  // The matrix form does strictly less floating-point work.
  EXPECT_LT(b.flops, a.flops);
}

TEST_F(ReconstructionFixture, MatrixFormulationRequiresInputs) {
  const std::vector<rank_t> failed{2};
  const RedundantCopy prev = full_copy(9, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur);
  DistVector x_star(part_, state_.x), r_star(part_, state_.r);
  ReconstructionInputs in = make_inputs(failed, prev, cur, x_star, r_star);
  in.formulation = PrecondFormulation::matrix; // p_matrix/z_star missing
  EXPECT_THROW(reconstruct_state(in, cluster_), Error);
}

TEST_F(ReconstructionFixture, MismatchedCopyTagsRejected) {
  const std::vector<rank_t> failed{2};
  const RedundantCopy prev = full_copy(5, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur); // not 5+1
  DistVector x_star(part_, state_.x), r_star(part_, state_.r);
  EXPECT_THROW(reconstruct_state(
                   make_inputs(failed, prev, cur, x_star, r_star), cluster_),
               Error);
}

} // namespace
} // namespace esrp
