// End-to-end tests of the resilient distributed PCG: correctness of the
// failure-free solver, exact state reconstruction after injected failures,
// trajectory preservation, and the edge cases of the storage-stage protocol.
#include "core/resilient_pcg.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "core/metrics.hpp"
#include "precond/block_jacobi.hpp"
#include "solver/pcg.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

struct SolveSystem {
  CsrMatrix a;
  Vector b;
  BlockRowPartition part;

  SolveSystem(CsrMatrix matrix, rank_t nodes)
      : a(std::move(matrix)), b(xp::make_rhs(a)), part(a.rows(), nodes) {}
};

ResilientSolveResult run(SolveSystem& s, const ResilienceOptions& opts,
                         SimCluster* cluster_out = nullptr,
                         IterationHook hook = {}) {
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  if (hook) solver.set_iteration_hook(std::move(hook));
  ResilientSolveResult res = solver.solve(s.b);
  if (cluster_out) *cluster_out = cluster;
  return res;
}

TEST(ResilientPcg, PlainDistributedSolveMatchesSequentialPcg) {
  SolveSystem s(poisson2d(10, 10), 8);
  ResilienceOptions opts;
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);

  BlockJacobiPreconditioner seq_precond(s.a, s.part, 10);
  Vector x_seq(s.b.size(), 0);
  const PcgResult seq = pcg_solve(s.a, s.b, x_seq, &seq_precond);
  ASSERT_TRUE(seq.converged);
  // Same operator, same preconditioner, same trajectory: iteration counts
  // match and iterates agree to rounding.
  EXPECT_EQ(res.trajectory_iterations, seq.iterations);
  EXPECT_LT(vec_rel_diff_inf(res.x, x_seq), 1e-10);
}

TEST(ResilientPcg, SolutionSatisfiesTrueResidualTolerance) {
  SolveSystem s(poisson3d(5, 5, 4), 10);
  ResilienceOptions opts;
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, EsrpFailureFreeFollowsSameTrajectory) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions plain;
  const ResilientSolveResult ref = run(s, plain);

  for (index_t T : {1, 5, 20}) {
    ResilienceOptions opts;
    opts.strategy = Strategy::esrp;
    opts.interval = T;
    opts.phi = 2;
    const ResilientSolveResult res = run(s, opts);
    ASSERT_TRUE(res.converged) << "T=" << T;
    EXPECT_EQ(res.trajectory_iterations, ref.trajectory_iterations);
    EXPECT_EQ(res.x, ref.x); // identical arithmetic, bitwise equal
  }
}

TEST(ResilientPcg, EsrpFailureFreeCostsMoreThanPlainButLessThanEsr) {
  SolveSystem s(poisson2d(16, 16), 8);
  ResilienceOptions plain;
  SimCluster c0(s.part);
  const double t_plain = run(s, plain).modeled_time;

  ResilienceOptions esr;
  esr.strategy = Strategy::esrp;
  esr.interval = 1;
  esr.phi = 3;
  const double t_esr = run(s, esr).modeled_time;

  ResilienceOptions esrp;
  esrp.strategy = Strategy::esrp;
  esrp.interval = 20;
  esrp.phi = 3;
  const double t_esrp = run(s, esrp).modeled_time;

  EXPECT_GT(t_esr, t_plain);
  EXPECT_GT(t_esrp, t_plain);
  EXPECT_LT(t_esrp, t_esr); // the paper's headline effect
}

TEST(ResilientPcg, EsrSingleFailureExactStateReconstruction) {
  SolveSystem s(poisson2d(10, 10), 8);

  // Reference trajectory: record the state at every iteration.
  std::map<index_t, Vector> ref_x, ref_r, ref_p;
  ResilienceOptions plain;
  const ResilientSolveResult ref =
      run(s, plain, nullptr,
          [&](index_t j, const DistVector& x, const DistVector& r,
              const DistVector&, const DistVector& p) {
            ref_x[j] = x.gather_global();
            ref_r[j] = r.gather_global();
            ref_p[j] = p.gather_global();
          });
  ASSERT_TRUE(ref.converged);
  const index_t c = ref.trajectory_iterations;

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 1; // classic ESR
  opts.phi = 1;
  opts.failure.iteration = c / 2;
  opts.failure.ranks = {3};

  real_t max_dev = 0;
  const ResilientSolveResult res =
      run(s, opts, nullptr,
          [&](index_t j, const DistVector& x, const DistVector& r,
              const DistVector&, const DistVector& p) {
            if (!ref_x.count(j)) return;
            max_dev = std::max(max_dev, vec_rel_diff_inf(x.gather_global(),
                                                         ref_x.at(j)));
            max_dev = std::max(max_dev, vec_rel_diff_inf(r.gather_global(),
                                                         ref_r.at(j)));
            max_dev = std::max(max_dev, vec_rel_diff_inf(p.gather_global(),
                                                         ref_p.at(j)));
          });
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  // ESR reconstructs the *current* iteration: no rollback.
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 0);
  // The whole trajectory (including every post-recovery state) stays within
  // inner-solve accuracy of the undisturbed run.
  EXPECT_LT(max_dev, 1e-6);
  EXPECT_NEAR(static_cast<double>(res.trajectory_iterations),
              static_cast<double>(c), 1);
}

TEST(ResilientPcg, EsrpRollsBackToLastStorageStage) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions plain;
  const index_t c = run(s, plain).trajectory_iterations;
  ASSERT_GT(c, 25);

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.failure.iteration = 18; // inside (10, 20): last stage completed at 11
  opts.failure.ranks = {1, 2};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].restored_to, 11);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 7);
  EXPECT_NEAR(static_cast<double>(res.trajectory_iterations),
              static_cast<double>(c), 1);
  // redone iterations + the recovery body itself
  EXPECT_EQ(res.executed_iterations, res.trajectory_iterations + 7 + 1);
}

TEST(ResilientPcg, FailureDuringStorageStageUsesPreviousStage) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  // j = 20 is a first-storage iteration: p'(20) has been pushed but the
  // stage is incomplete; recovery must reach back to state 11 (Fig. 1).
  opts.failure.iteration = 20;
  opts.failure.ranks = {4, 5};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 11);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 9);
}

TEST(ResilientPcg, FailureAtSecondStorageIterationRecoversInPlace) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  opts.failure.iteration = 21; // second storage iteration of stage 2
  opts.failure.ranks = {6};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].restored_to, 21);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 0);
}

TEST(ResilientPcg, FailureBeforeFirstStorageStageRestartsFromScratch) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  opts.failure.iteration = 5; // first stage completes at iteration 11
  opts.failure.ranks = {0};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 0);
}

TEST(ResilientPcg, MoreFailuresThanPhiForcesRestart) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 1;
  opts.phi = 1;
  opts.failure.iteration = 20;
  opts.failure.ranks = {2, 3}; // psi = 2 > phi = 1
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged); // still converges, just expensively
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
}

TEST(ResilientPcg, TwoSlotQueueAblationForcesRestartMidStage) {
  // With capacity 2 the previous stage's pair is evicted by the first push
  // of the next stage — exactly the failure mode the 3-slot design avoids.
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  opts.queue_capacity = 2;
  opts.failure.iteration = 20; // right after the first push of stage 2
  opts.failure.ranks = {3};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);

  // The 3-slot default recovers from the very same scenario.
  opts.queue_capacity = 3;
  const ResilientSolveResult ok = run(s, opts);
  ASSERT_EQ(ok.recoveries.size(), 1u);
  EXPECT_FALSE(ok.recoveries[0].restarted_from_scratch);
}

TEST(ResilientPcg, ImcrRestoresCheckpointExactly) {
  SolveSystem s(poisson2d(12, 12), 8);
  std::map<index_t, Vector> ref_x;
  ResilienceOptions plain;
  const ResilientSolveResult ref =
      run(s, plain, nullptr,
          [&](index_t j, const DistVector& x, const DistVector&,
              const DistVector&, const DistVector&) {
            ref_x[j] = x.gather_global();
          });
  const index_t c = ref.trajectory_iterations;
  ASSERT_GT(c, 25);

  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 10;
  opts.phi = 2;
  opts.failure.iteration = 18;
  opts.failure.ranks = {1, 2};
  real_t max_dev = 0;
  const ResilientSolveResult res =
      run(s, opts, nullptr,
          [&](index_t j, const DistVector& x, const DistVector&,
              const DistVector&, const DistVector&) {
            if (ref_x.count(j))
              max_dev = std::max(max_dev, vec_rel_diff_inf(x.gather_global(),
                                                           ref_x.at(j)));
          });
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].restored_to, 10);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 8);
  // Checkpoint restore is bitwise: zero deviation on the whole trajectory.
  EXPECT_EQ(max_dev, 0);
  EXPECT_EQ(res.trajectory_iterations, c);
}

TEST(ResilientPcg, ImcrBeforeFirstCheckpointRestarts) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 10;
  opts.phi = 1;
  opts.failure.iteration = 4;
  opts.failure.ranks = {2};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
}

TEST(ResilientPcg, StrategyNoneWithFailureRestartsAndStillConverges) {
  SolveSystem s(poisson2d(10, 10), 8);
  ResilienceOptions plain;
  const ResilientSolveResult ref = run(s, plain);
  const index_t c = ref.trajectory_iterations;
  ResilienceOptions opts;
  opts.failure.iteration = c / 2;
  opts.failure.ranks = {0};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
  // Roughly half the solve is thrown away and redone.
  EXPECT_GT(res.modeled_time, 1.3 * ref.modeled_time);
  EXPECT_EQ(res.executed_iterations, c + c / 2 + 1);
}

TEST(ResilientPcg, RecoveryCommIsChargedUnderRecoveryCategory) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  opts.failure.iteration = 18;
  opts.failure.ranks = {5};
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  const ResilientSolveResult res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  EXPECT_GT(cluster.ledger().totals(CommCategory::recovery).messages, 0u);
  EXPECT_GT(cluster.ledger().totals(CommCategory::aspmv_extra).bytes, 0u);
  EXPECT_EQ(cluster.ledger().totals(CommCategory::checkpoint).bytes, 0u);
}

TEST(ResilientPcg, ImcrChargesCheckpointTraffic) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 10;
  opts.phi = 3;
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  ASSERT_TRUE(solver.solve(s.b).converged);
  EXPECT_GT(cluster.ledger().totals(CommCategory::checkpoint).bytes, 0u);
  EXPECT_EQ(cluster.ledger().totals(CommCategory::aspmv_extra).bytes, 0u);
}

TEST(ResilientPcg, ResidualDriftStaysSmallAfterRecovery) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.failure.iteration = 18;
  opts.failure.ranks = {3, 4};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  const real_t drift = residual_drift(s.a, s.b, res.x, res.r);
  EXPECT_LT(std::abs(drift), 0.5);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, MatrixFormulationRecoversOnSameTrajectory) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions base;
  base.strategy = Strategy::esrp;
  base.interval = 10;
  base.phi = 2;
  base.failure.iteration = 18;
  base.failure.ranks = {1, 2};

  const ResilientSolveResult inv = run(s, base);
  ResilienceOptions mat = base;
  mat.precond_formulation = PrecondFormulation::matrix;
  const ResilientSolveResult res = run(s, mat);
  ASSERT_TRUE(inv.converged && res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].inner_iterations_precond, 0);
  // Same trajectory, same solution (within reconstruction accuracy).
  EXPECT_NEAR(static_cast<double>(res.trajectory_iterations),
              static_cast<double>(inv.trajectory_iterations), 1);
  EXPECT_LT(vec_rel_diff_inf(res.x, inv.x), 1e-6);
  // The matrix formulation's recovery is cheaper (one inner solve fewer).
  EXPECT_LE(res.recoveries[0].modeled_time, inv.recoveries[0].modeled_time);
}

TEST(ResilientPcg, IntervalTwoBehavesLikeDensestPeriodicStorage) {
  // The paper notes T = 2 is pointless (ESR is better) but it must still be
  // *correct*: every iteration belongs to some storage stage, so any
  // failure after the first full stage recovers with minimal rollback.
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 2;
  opts.phi = 2;
  opts.failure.iteration = 17; // odd: a second-storage iteration
  opts.failure.ranks = {2, 3};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_LE(res.recoveries[0].wasted_iterations, 2);
}

TEST(ResilientPcg, TwoFailureEventsBothRecover) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions plain;
  const ResilientSolveResult ref = run(s, plain);
  const index_t c = ref.trajectory_iterations;
  ASSERT_GT(c, 30);

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.phi = 2;
  opts.failure.iteration = 13;
  opts.failure.ranks = {1, 2};
  FailureEvent second;
  second.iteration = 28;
  second.ranks = {5, 6};
  opts.extra_failures.push_back(second);

  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 2u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_FALSE(res.recoveries[1].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].failed_at, 13);
  EXPECT_EQ(res.recoveries[1].failed_at, 28);
  EXPECT_NEAR(static_cast<double>(res.trajectory_iterations),
              static_cast<double>(c), 2);
  EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), 1e-5);
}

TEST(ResilientPcg, SecondFailureBeforeRedundancyReplenishedRestarts) {
  // Both events hit the same ranks' redundancy holders before the next
  // storage stage completes: the second recovery has no copies left for
  // some entries and must restart.
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 20;
  opts.phi = 1;
  opts.failure.iteration = 23;
  opts.failure.ranks = {3};
  FailureEvent second;
  second.iteration = 24; // between stages: holders of node 4 not refreshed
  second.ranks = {4};    // ring holder of node 3's copies
  opts.extra_failures.push_back(second);
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 2u);
  // Either outcome for event 2 is protocol-legal, but the solve must end
  // correctly; with phi=1 and adjacent holders, expect the restart path.
  EXPECT_TRUE(res.recoveries[1].restarted_from_scratch ||
              res.recoveries[1].restored_to >= 0);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, DuplicateEventIterationsRejected) {
  SolveSystem s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions opts;
  opts.failure.iteration = 5;
  opts.failure.ranks = {0};
  FailureEvent dup;
  dup.iteration = 5;
  dup.ranks = {1};
  opts.extra_failures.push_back(dup);
  EXPECT_THROW(ResilientPcg(s.a, precond, cluster, opts), Error);
}

TEST(ResilientPcg, ResidualReplacementImprovesDrift) {
  SolveSystem s(diffusion3d_27pt(6, 6, 6, 1e3, 5, 1e-4), 8);
  ResilienceOptions plain;
  const ResilientSolveResult raw = run(s, plain);
  ResilienceOptions rr;
  rr.residual_replacement = 50;
  const ResilientSolveResult replaced = run(s, rr);
  ASSERT_TRUE(raw.converged && replaced.converged);
  const real_t drift_raw =
      std::abs(residual_drift(s.a, s.b, raw.x, raw.r));
  const real_t drift_replaced =
      std::abs(residual_drift(s.a, s.b, replaced.x, replaced.r));
  // With periodic replacement the recursive residual tracks the true one.
  EXPECT_LE(drift_replaced, drift_raw + 1e-12);
  // And the true solution quality is at least as good.
  EXPECT_LT(true_relative_residual(s.a, s.b, replaced.x), 2e-8);
}

TEST(ResilientPcg, ResidualReplacementKeepsEsrpRecoveryWorking) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.residual_replacement = 15;
  opts.failure.iteration = 18;
  opts.failure.ranks = {1, 2};
  const ResilientSolveResult res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, NoSpareRecoveryContinuesOnSurvivors) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions plain;
  const ResilientSolveResult ref = run(s, plain);

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.spare_nodes = false;
  opts.failure.iteration = 18;
  opts.failure.ranks = {3, 4};

  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  const ResilientSolveResult res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 11);
  // Same trajectory and solution as the undisturbed run.
  EXPECT_NEAR(static_cast<double>(res.trajectory_iterations),
              static_cast<double>(ref.trajectory_iterations), 1);
  EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), 1e-6);
  // The failed ranks retired: their ranges were absorbed by rank 2.
  const BlockRowPartition& np = solver.current_partition();
  EXPECT_EQ(np.local_size(3), 0);
  EXPECT_EQ(np.local_size(4), 0);
  EXPECT_EQ(np.local_size(2), 3 * s.part.local_size(2));
  EXPECT_EQ(np.active_nodes(), 6);
}

TEST(ResilientPcg, NoSpareRecoveryOfLeadingBlock) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 3;
  opts.spare_nodes = false;
  opts.failure.iteration = 25;
  opts.failure.ranks = {0, 1, 2};
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  const ResilientSolveResult res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  // Rank 3 adopts the leading block.
  EXPECT_EQ(solver.current_partition().owner(0), 3);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, NoSpareRestartAlsoShrinksThePartition) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  opts.spare_nodes = false;
  opts.failure.iteration = 5; // before the first storage stage
  opts.failure.ranks = {6};
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  const ResilientSolveResult res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(solver.current_partition().local_size(6), 0);
}

TEST(ResilientPcg, NoSparesRejectedForImcr) {
  SolveSystem s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.spare_nodes = false;
  EXPECT_THROW(ResilientPcg(s.a, precond, cluster, opts), Error);
}

TEST(ResilientPcg, RequiresExplicitPreconditionerAction) {
  SolveSystem s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  // SSOR has no action matrix: the distributed solver must refuse it.
  class NoAction final : public Preconditioner {
  public:
    explicit NoAction(index_t n) : n_(n) {}
    std::string name() const override { return "noaction"; }
    index_t dim() const override { return n_; }
    void apply(std::span<const real_t> r, std::span<real_t> z) const override {
      std::copy(r.begin(), r.end(), z.begin());
    }
    double apply_flops() const override { return 0; }

  private:
    index_t n_;
  } precond(s.a.rows());
  ResilienceOptions opts;
  EXPECT_THROW(ResilientPcg(s.a, precond, cluster, opts), Error);
}

TEST(ResilientPcg, InvalidFailureRanksRejected) {
  SolveSystem s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions opts;
  opts.failure.iteration = 3;
  opts.failure.ranks = {7}; // out of range for 4 nodes
  EXPECT_THROW(ResilientPcg(s.a, precond, cluster, opts), Error);
}

// --- Classic ESR (T = 1) storage: the star snapshot is taken only on the
// failure path. These pins were recorded with a solver that stored the
// snapshot eagerly at every iteration; the records, the x/r hashes and the
// modeled time must not move by a bit.

/// A RecoveryRecord's outcome fields, pinned exactly (modeled time as
/// hexfloat).
struct PinnedRecord {
  index_t failed_at, restored_to, wasted_iterations;
  double modeled_time;
  index_t inner_precond, inner_matrix;
  bool restarted_from_scratch;
  RecoveryRung rung;
  index_t copies_verified, ranks_lost;
};

struct PinnedSolve {
  index_t iterations, executed;
  double modeled_time;
  std::uint64_t x_hash, r_hash;
};

std::uint64_t hash_of(const Vector& v) {
  return fnv1a(v.data(), v.size() * sizeof(real_t));
}

void expect_pinned(const ResilientSolveResult& res, const PinnedSolve& want,
                   std::span<const PinnedRecord> records) {
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.trajectory_iterations, want.iterations);
  EXPECT_EQ(res.executed_iterations, want.executed);
  EXPECT_EQ(res.modeled_time, want.modeled_time);
  EXPECT_EQ(hash_of(res.x), want.x_hash);
  EXPECT_EQ(hash_of(res.r), want.r_hash);
  ASSERT_EQ(res.recoveries.size(), records.size());
  for (std::size_t k = 0; k < records.size(); ++k) {
    SCOPED_TRACE(k);
    const RecoveryRecord& got = res.recoveries[k];
    const PinnedRecord& pin = records[k];
    EXPECT_EQ(got.failed_at, pin.failed_at);
    EXPECT_EQ(got.restored_to, pin.restored_to);
    EXPECT_EQ(got.wasted_iterations, pin.wasted_iterations);
    EXPECT_EQ(got.modeled_time, pin.modeled_time);
    EXPECT_EQ(got.inner_iterations_precond, pin.inner_precond);
    EXPECT_EQ(got.inner_iterations_matrix, pin.inner_matrix);
    EXPECT_EQ(got.restarted_from_scratch, pin.restarted_from_scratch);
    EXPECT_EQ(got.rung, pin.rung);
    EXPECT_EQ(got.attempted, std::vector<RecoveryRung>{pin.rung});
    EXPECT_EQ(got.copies_verified, pin.copies_verified);
    EXPECT_EQ(got.copies_corrupt, 0);
    EXPECT_EQ(got.checkpoints_corrupt, 0);
    EXPECT_EQ(got.ranks_lost, pin.ranks_lost);
    EXPECT_EQ(got.ranks_absorbed, 0);
    EXPECT_EQ(got.ranks_rejoined, 0);
  }
}

ResilienceOptions classic_esr() {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 1;
  opts.phi = 2;
  return opts;
}

TEST(ResilientPcg, ClassicEsrFailureAtIterationZeroIsPinned) {
  // No copy pair exists yet, so the snapshot taken on the failure path is
  // not recoverable and the ladder lands on the scratch rung.
  SolveSystem s(poisson2d(10, 10), 8);
  ResilienceOptions opts = classic_esr();
  opts.failure = FailureEvent{0, contiguous_ranks(2, 2, 8)};
  const PinnedRecord records[] = {
      {0, 0, 0, 0x1.240eca6a94p-26, 0, 0, true, RecoveryRung::scratch, 0, 2}};
  expect_pinned(run(s, opts),
                {30, 31, 0x1.08240baefd07p-10, 0x1cdbb5fd76fbec99ull,
                 0x99631efd69fc70b3ull},
                records);
}

TEST(ResilientPcg, ClassicEsrFailureRightAfterReExecutionIsPinned) {
  // The reconstruction at 7 leaves the repaired star state in the snapshot
  // slot; iteration 7 is re-executed and the failure at 8 must reconstruct
  // from a snapshot of iteration 8, not from the stale slot.
  SolveSystem s(poisson2d(10, 10), 8);
  ResilienceOptions opts = classic_esr();
  opts.failure = FailureEvent{7, contiguous_ranks(2, 2, 8)};
  opts.extra_failures.push_back(FailureEvent{8, contiguous_ranks(5, 2, 8)});
  const PinnedRecord records[] = {
      {7, 7, 0, 0x1.b9255f91df30cp-14, 3, 21, false, RecoveryRung::reconstruct,
       2, 2},
      {8, 8, 0, 0x1.b96a17c17fcc4p-14, 3, 21, false, RecoveryRung::reconstruct,
       2, 2}};
  expect_pinned(run(s, opts),
                {30, 32, 0x1.448f52ce16141p-10, 0xf52a9f22bc8fe458ull,
                 0x2dbda054feafd05full},
                records);
}

TEST(ResilientPcg, ClassicEsrFailureAtAnSdcFlipIterationIsPinned) {
  // The failure check precedes the SDC injection: the node failure at 6 is
  // reconstructed from the unflipped state, and the flip lands when
  // iteration 6 is re-executed — the residual replacement at 9 flags it.
  SolveSystem s(poisson2d(10, 10), 8);
  ResilienceOptions opts = classic_esr();
  opts.residual_replacement = 5;
  opts.failure = FailureEvent{6, contiguous_ranks(3, 2, 8)};
  SdcEvent flip;
  flip.iteration = 6;
  flip.target = "p";
  flip.index = 37;
  flip.bit = 51;
  opts.sdc_events.push_back(flip);
  const PinnedRecord records[] = {
      {6, 6, 0, 0x1.db10f02dc912ap-14, 5, 21, false, RecoveryRung::reconstruct,
       2, 2}};
  const ResilientSolveResult res = run(s, opts);
  expect_pinned(res,
                {37, 38, 0x1.7e47db403ffd1p-10, 0x97d0101eaf735dedull,
                 0x9f60f269b317d359ull},
                records);
  ASSERT_EQ(res.sdc.size(), 1u);
  EXPECT_EQ(res.sdc[0].rank, 2);
  EXPECT_TRUE(res.sdc[0].detected);
  EXPECT_EQ(res.sdc[0].detected_at, 9);
  EXPECT_EQ(res.sdc[0].discrepancy, 0x1.02305310bdceep-5);
}

} // namespace
} // namespace esrp
