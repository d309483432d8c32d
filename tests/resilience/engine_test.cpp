// Unit tests of the solver-agnostic ResilienceEngine: storage-stage
// cadence, event scheduling, snapshot slots, checkpoint bookkeeping, and
// the recovery orchestration over a stub SolverState client — including
// storage-stage replenishment of the redundancy queue after a recovery.
#include "resilience/engine.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

constexpr rank_t kNodes = 6;
constexpr index_t kRows = 24;

/// A real capture: a phi=1 ASpMV of the constant vector `value` with the
/// 1D Laplacian over kNodes nodes — every entry has one off-owner copy,
/// enough structure for queue bookkeeping tests (the engine never reads the
/// entries itself).
RedundantCopy make_copy(index_t tag, real_t value = 1.0) {
  const CsrMatrix a = laplace1d(kRows);
  const BlockRowPartition part(kRows, kNodes);
  SimCluster cluster(part);
  const SpmvPlan plan(a, part);
  const AspmvPlan aug(plan, 1);
  ExchangeEngine engine(a, plan, cluster);
  DistVector p(part), y(part);
  p.set_from_global(Vector(kRows, value));
  return engine.aspmv(aug, p, tag, y);
}

/// A stub solver: one state vector + one scalar, hooks that count calls.
struct StubSolver {
  explicit StubSolver(const BlockRowPartition& part) : v(part) {}

  SolverState state() { return SolverState{{&v}, {}, {&beta}}; }

  ResilienceEngine::Client client() {
    ResilienceEngine::Client c;
    c.state = [this] { return state(); };
    c.restart = [this] { ++restarts; };
    c.reconstruct = [this](StateSnapshot& stars, const RedundantCopy& prev,
                           const RedundantCopy& cur,
                           std::span<const rank_t> failed, RecoveryRecord&) {
      ++reconstructions;
      last_prev_tag = prev.tag();
      last_cur_tag = cur.tag();
      last_failed.assign(failed.begin(), failed.end());
      last_beta_star = stars.scalar(0);
      if (!reconstruct_ok) return false;
      // Roll the live vector back to the snapshot, as a real solver would.
      stars.restore_vectors(state());
      beta = stars.scalar(0);
      return true;
    };
    return c;
  }

  DistVector v;
  real_t beta = 0;
  int restarts = 0;
  int reconstructions = 0;
  bool reconstruct_ok = true;
  index_t last_prev_tag = -1;
  index_t last_cur_tag = -1;
  real_t last_beta_star = 0;
  std::vector<rank_t> last_failed;
};

class EngineFixture : public ::testing::Test {
protected:
  EngineFixture() : part_(kRows, kNodes), cluster_(part_), solver_(part_) {}

  static ResilienceEngine::Config config() {
    ResilienceEngine::Config cfg;
    cfg.checkpoint_vectors = 1;
    cfg.checkpoint_scalars = 1;
    return cfg;
  }

  ResilienceEngine make_engine(ResilienceOptions opts,
                               ResilienceEngine::Config cfg = config()) {
    ResilienceEngine engine(opts, part_, cfg);
    engine.begin_solve(cluster_);
    return engine;
  }

  BlockRowPartition part_;
  SimCluster cluster_;
  StubSolver solver_;
};

TEST_F(EngineFixture, StoragePlanMatchesAlg3Cadence) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  ResilienceEngine engine = make_engine(opts);
  // No stage before the first full interval.
  for (index_t j : {0, 1, 4}) EXPECT_FALSE(engine.storage_plan(j).store());
  EXPECT_TRUE(engine.storage_plan(5).first_store);
  EXPECT_TRUE(engine.storage_plan(6).second_store);
  EXPECT_FALSE(engine.storage_plan(7).store());
  EXPECT_TRUE(engine.storage_plan(10).first_store);

  ResilienceOptions esr = opts;
  esr.interval = 1; // classic ESR: a full (second) store every iteration
  ResilienceEngine esr_engine = make_engine(esr);
  for (index_t j : {0, 1, 7}) {
    EXPECT_TRUE(esr_engine.storage_plan(j).second_store);
    EXPECT_FALSE(esr_engine.storage_plan(j).first_store);
  }

  ResilienceOptions none;
  ResilienceEngine none_engine = make_engine(none);
  EXPECT_FALSE(none_engine.storage_plan(5).store());
}

TEST_F(EngineFixture, PendingEventFiresExactlyOnce) {
  ResilienceOptions opts;
  opts.failure = FailureEvent{3, {1}};
  opts.extra_failures.push_back(FailureEvent{7, {2, 3}});
  ResilienceEngine engine = make_engine(opts);
  EXPECT_EQ(engine.pending_event(2), nullptr);
  const FailureEvent* first = engine.pending_event(3);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->ranks, std::vector<rank_t>{1});
  // A rolled-back re-execution of iteration 3 must not re-fire the event.
  EXPECT_EQ(engine.pending_event(3), nullptr);
  ASSERT_NE(engine.pending_event(7), nullptr);
  // begin_solve resets the schedule.
  engine.begin_solve(cluster_);
  EXPECT_NE(engine.pending_event(3), nullptr);
}

TEST_F(EngineFixture, InvalidEventSchedulesRejected) {
  ResilienceOptions out_of_range;
  out_of_range.failure = FailureEvent{3, {kNodes}};
  EXPECT_THROW(ResilienceEngine(out_of_range, part_, config()), Error);

  ResilienceOptions duplicate;
  duplicate.failure = FailureEvent{3, {1}};
  duplicate.extra_failures.push_back(FailureEvent{3, {2}});
  EXPECT_THROW(ResilienceEngine(duplicate, part_, config()), Error);

  // All-ranks-fail is a *valid* schedule since the recovery ladder: it
  // resolves deterministically to the scratch rung instead of being
  // rejected up front.
  ResilienceOptions all_fail;
  all_fail.failure = FailureEvent{3, {0, 1, 2, 3, 4, 5}};
  EXPECT_NO_THROW(ResilienceEngine(all_fail, part_, config()));

  ResilienceOptions no_spare_imcr;
  no_spare_imcr.strategy = Strategy::imcr;
  no_spare_imcr.spare_nodes = false;
  EXPECT_THROW(ResilienceEngine(no_spare_imcr, part_, config()), Error);
}

TEST_F(EngineFixture, SnapshotSlotsEvictOldestAndCarryExtraScalars) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  ResilienceEngine::Config cfg = config();
  cfg.snapshot_slots = 2;
  cfg.snapshot_extra_scalars = 1;
  ResilienceEngine engine = make_engine(opts, cfg);

  solver_.beta = 0.25;
  engine.save_snapshot(5, solver_.state());
  solver_.beta = 0.5;
  engine.save_snapshot(6, solver_.state());
  EXPECT_TRUE(engine.has_snapshot(5));
  EXPECT_TRUE(engine.has_snapshot(6));
  engine.set_snapshot_scalar(6, 1, 7.5); // the extra slot
  engine.save_snapshot(7, solver_.state());
  EXPECT_FALSE(engine.has_snapshot(5)); // evicted beyond the two slots
  EXPECT_TRUE(engine.has_snapshot(6) && engine.has_snapshot(7));
  // Amending an evicted tag is a harmless no-op.
  engine.set_snapshot_scalar(5, 1, 1.0);
}

TEST_F(EngineFixture, CheckpointDueSkipsRecapturedTag) {
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 4;
  ResilienceEngine engine = make_engine(opts);
  EXPECT_FALSE(engine.checkpoint_due(0)); // j = 0 is never checkpointed
  EXPECT_FALSE(engine.checkpoint_due(3));
  ASSERT_TRUE(engine.checkpoint_due(4));
  engine.store_checkpoint(4, solver_.state());
  // The tag check: a rollback that re-executes iteration 4 must not
  // re-checkpoint identical state.
  EXPECT_FALSE(engine.checkpoint_due(4));
  EXPECT_TRUE(engine.checkpoint_due(8));
}

TEST_F(EngineFixture, ImcrRecoveryRestoresCheckpointState) {
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 4;
  opts.phi = 2;
  opts.failure = FailureEvent{6, {2}};
  ResilienceEngine engine = make_engine(opts);

  Vector filled(kRows, 3.5);
  solver_.v.set_from_global(filled);
  solver_.beta = 0.125;
  engine.store_checkpoint(4, solver_.state());
  solver_.beta = 99; // drifts past the checkpoint

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(6), 6, solver_.client(), record);
  EXPECT_EQ(resume, 4);
  EXPECT_EQ(record.restored_to, 4);
  EXPECT_EQ(record.wasted_iterations, 2);
  EXPECT_FALSE(record.restarted_from_scratch);
  EXPECT_EQ(solver_.v.gather_global(), filled);
  EXPECT_DOUBLE_EQ(solver_.beta, 0.125);
  EXPECT_EQ(solver_.restarts, 0);
}

TEST_F(EngineFixture, EsrpRecoveryHandsSnapshotAndCopyPairToClient) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.failure = FailureEvent{8, {2, 3}};
  ResilienceEngine engine = make_engine(opts);

  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  solver_.beta = 0.75;
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(8), 8, solver_.client(), record);
  EXPECT_EQ(resume, 6);
  EXPECT_EQ(solver_.reconstructions, 1);
  // Trailing pairing: target 6 consumes copies (5, 6).
  EXPECT_EQ(solver_.last_prev_tag, 5);
  EXPECT_EQ(solver_.last_cur_tag, 6);
  EXPECT_EQ(solver_.last_failed, (std::vector<rank_t>{2, 3}));
  EXPECT_DOUBLE_EQ(solver_.last_beta_star, 0.75);
  EXPECT_FALSE(record.restarted_from_scratch);
  EXPECT_EQ(record.wasted_iterations, 2);
}

TEST_F(EngineFixture, LeadingPairingConsumesForwardCopyPair) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.failure = FailureEvent{8, {1}};
  ResilienceEngine::Config cfg = config();
  cfg.pairing = ResilienceEngine::CopyPairing::leading;
  ResilienceEngine engine = make_engine(opts, cfg);

  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(5, solver_.state());
  engine.set_recoverable(5);

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(8), 8, solver_.client(), record);
  EXPECT_EQ(resume, 5);
  EXPECT_EQ(solver_.last_prev_tag, 5);
  EXPECT_EQ(solver_.last_cur_tag, 6);
}

TEST_F(EngineFixture, ScratchRestartClearsStrategyState) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.failure = FailureEvent{3, {1}}; // before any storage stage
  ResilienceEngine engine = make_engine(opts);

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(3), 3, solver_.client(), record);
  EXPECT_EQ(resume, 0);
  EXPECT_TRUE(record.restarted_from_scratch);
  EXPECT_EQ(record.wasted_iterations, 3);
  EXPECT_EQ(solver_.restarts, 1);
  EXPECT_EQ(solver_.reconstructions, 0);
  EXPECT_TRUE(engine.queue_tags().empty());
  EXPECT_EQ(engine.last_recoverable(), -1);
}

TEST_F(EngineFixture, FailedReconstructionFallsBackToScratch) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.failure = FailureEvent{8, {2}};
  ResilienceEngine engine = make_engine(opts);
  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);
  solver_.reconstruct_ok = false; // a redundant copy did not survive

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(8), 8, solver_.client(), record);
  EXPECT_EQ(resume, 0);
  EXPECT_EQ(solver_.reconstructions, 1);
  EXPECT_EQ(solver_.restarts, 1);
  EXPECT_TRUE(record.restarted_from_scratch);
}

TEST_F(EngineFixture, StorageStagesReplenishTheQueueAfterRecovery) {
  // The multi-event guarantee: after a rollback, the following storage
  // stages push fresh copies and re-arm the recoverable target, so a second
  // failure recovers from the *new* stage instead of the consumed one.
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.queue_capacity = 3;
  opts.failure = FailureEvent{8, {2}};
  opts.extra_failures.push_back(FailureEvent{13, {4}});
  ResilienceEngine engine = make_engine(opts);

  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);

  RecoveryRecord first;
  ASSERT_EQ(engine.recover(*engine.pending_event(8), 8, solver_.client(),
                           first),
            6);

  // Re-execution reaches the next stage: re-pushed + fresh copies.
  engine.push_copy(make_copy(10));
  engine.push_copy(make_copy(11));
  engine.save_snapshot(11, solver_.state());
  engine.set_recoverable(11);
  EXPECT_EQ(engine.queue_tags(), (std::vector<index_t>{6, 10, 11}));
  EXPECT_EQ(engine.last_recoverable(), 11);

  RecoveryRecord second;
  ASSERT_EQ(engine.recover(*engine.pending_event(13), 13, solver_.client(),
                           second),
            11);
  EXPECT_EQ(solver_.last_prev_tag, 10);
  EXPECT_EQ(solver_.last_cur_tag, 11);
  EXPECT_FALSE(second.restarted_from_scratch);
  EXPECT_EQ(second.wasted_iterations, 2);
}

TEST_F(EngineFixture, CallbacksFireAroundRecovery) {
  ResilienceOptions opts;
  opts.failure = FailureEvent{4, {1}};
  ResilienceEngine engine = make_engine(opts);
  int failures = 0;
  int recoveries = 0;
  engine.set_failure_callback([&](const FailureEvent& e) {
    ++failures;
    EXPECT_EQ(e.iteration, 4);
  });
  engine.set_recovery_callback([&](const RecoveryRecord& rec) {
    ++recoveries;
    EXPECT_TRUE(rec.restarted_from_scratch);
  });
  RecoveryRecord record;
  engine.recover(*engine.pending_event(4), 4, solver_.client(), record);
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(recoveries, 1);
}

TEST_F(EngineFixture, AllRanksFailingLandsOnScratchDeterministically) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.failure = FailureEvent{8, {0, 1, 2, 3, 4, 5}};
  ResilienceEngine engine = make_engine(opts);
  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(8), 8, solver_.client(), record);
  // Every holder of every copy died with the cluster: reconstruction finds
  // no surviving data and the ladder bottoms out at scratch.
  EXPECT_EQ(resume, 0);
  EXPECT_TRUE(record.restarted_from_scratch);
  EXPECT_EQ(record.rung, RecoveryRung::scratch);
  EXPECT_EQ(record.ranks_lost, 6);
  EXPECT_EQ(solver_.restarts, 1);
}

TEST_F(EngineFixture, ScratchPolicySkipsExactRungs) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.policy = recovery_policy_from_string("scratch");
  opts.failure = FailureEvent{8, {2}};
  ResilienceEngine engine = make_engine(opts);
  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(8), 8, solver_.client(), record);
  // Perfectly recoverable state, but the policy says scratch only.
  EXPECT_EQ(resume, 0);
  EXPECT_EQ(solver_.reconstructions, 0);
  EXPECT_EQ(record.rung, RecoveryRung::scratch);
  EXPECT_EQ(record.attempted, (std::vector<RecoveryRung>{
                                  RecoveryRung::scratch}));
}

TEST_F(EngineFixture, OlderSnapshotRungRecoversWhenNewestPairIsGone) {
  // Two snapshot slots (the pipelined layout): when the newest target's
  // copy pair is unusable, rung 2 walks back to the older stored snapshot
  // and reconstructs there — still bitwise-exact, just further back.
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.failure = FailureEvent{13, {2}};
  ResilienceEngine::Config cfg = config();
  cfg.snapshot_slots = 2;
  ResilienceEngine engine = make_engine(opts, cfg);

  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  solver_.beta = 0.5;
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);
  engine.push_copy(make_copy(11)); // tag 10 never stored: pair incomplete
  solver_.beta = 0.75;
  engine.save_snapshot(11, solver_.state());
  engine.set_recoverable(11);

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(13), 13, solver_.client(), record);
  EXPECT_EQ(resume, 6);
  EXPECT_EQ(record.rung, RecoveryRung::older_snapshot);
  EXPECT_EQ(record.restored_to, 6);
  EXPECT_EQ(record.wasted_iterations, 7);
  EXPECT_FALSE(record.restarted_from_scratch);
  EXPECT_DOUBLE_EQ(solver_.beta, 0.5); // rolled back to the older stars
  // The exact-only policy would have refused that walk-back.
  EXPECT_EQ(solver_.last_prev_tag, 5);
  EXPECT_EQ(solver_.last_cur_tag, 6);
}

TEST_F(EngineFixture, ExactPolicyRefusesOlderSnapshots) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.policy = recovery_policy_from_string("exact");
  opts.failure = FailureEvent{13, {2}};
  ResilienceEngine::Config cfg = config();
  cfg.snapshot_slots = 2;
  ResilienceEngine engine = make_engine(opts, cfg);

  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);
  engine.push_copy(make_copy(11));
  engine.save_snapshot(11, solver_.state());
  engine.set_recoverable(11);

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(13), 13, solver_.client(), record);
  EXPECT_EQ(resume, 0);
  EXPECT_EQ(record.rung, RecoveryRung::scratch);
  EXPECT_EQ(solver_.reconstructions, 0);
}

TEST_F(EngineFixture, RetryBudgetCollapsesCascadesToScratch) {
  // Two failures inside one storage period with max_attempts = 1: the
  // second recovery has made no storage progress since the first, so the
  // ladder deterministically collapses to scratch instead of thrashing.
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.policy.max_attempts = 1;
  opts.failure = FailureEvent{8, {2}};
  opts.extra_failures.push_back(FailureEvent{9, {4}});
  ResilienceEngine engine = make_engine(opts);
  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);

  RecoveryRecord first;
  ASSERT_EQ(engine.recover(*engine.pending_event(8), 8, solver_.client(),
                           first),
            6);
  EXPECT_EQ(first.rung, RecoveryRung::reconstruct);

  // No set_recoverable between the events: the budget is exhausted.
  RecoveryRecord second;
  EXPECT_EQ(engine.recover(*engine.pending_event(9), 9, solver_.client(),
                           second),
            0);
  EXPECT_EQ(second.rung, RecoveryRung::scratch);
  EXPECT_TRUE(second.restarted_from_scratch);
  EXPECT_EQ(solver_.reconstructions, 1); // rung 1 never ran the second time
}

TEST_F(EngineFixture, StorageProgressResetsTheRetryBudget) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.policy.max_attempts = 1;
  opts.failure = FailureEvent{8, {2}};
  opts.extra_failures.push_back(FailureEvent{13, {4}});
  ResilienceEngine engine = make_engine(opts);
  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);

  RecoveryRecord first;
  ASSERT_EQ(engine.recover(*engine.pending_event(8), 8, solver_.client(),
                           first),
            6);

  // The re-executed iterations reach the next storage stage: the advanced
  // recoverable tag resets the budget, so the second failure still gets the
  // full ladder.
  engine.push_copy(make_copy(10));
  engine.push_copy(make_copy(11));
  engine.save_snapshot(11, solver_.state());
  engine.set_recoverable(11);

  RecoveryRecord second;
  EXPECT_EQ(engine.recover(*engine.pending_event(13), 13, solver_.client(),
                           second),
            11);
  EXPECT_EQ(second.rung, RecoveryRung::reconstruct);
}

TEST_F(EngineFixture, ShrinkPolicyRepartitionsOnUnrecoverableFailure) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.policy = recovery_policy_from_string("shrink");
  opts.failure = FailureEvent{3, {1}}; // before any storage stage
  ResilienceEngine engine = make_engine(opts);

  int repartitions = 0;
  ResilienceEngine::Client client = solver_.client();
  client.repartition = [&](std::span<const rank_t> failed) {
    ++repartitions;
    EXPECT_EQ(failed.size(), 1u);
  };

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(3), 3, client, record);
  EXPECT_EQ(resume, 0);
  EXPECT_EQ(repartitions, 1);
  EXPECT_EQ(record.rung, RecoveryRung::shrink);
  EXPECT_TRUE(record.restarted_from_scratch); // restart on the shrunken map
  EXPECT_EQ(record.ranks_absorbed, 1);
  EXPECT_EQ(engine.retired_ranks(), (std::vector<rank_t>{1}));
}

TEST_F(EngineFixture, RejoinRungReExpandsAtTheNextStorageStage) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.policy = recovery_policy_from_string("shrink");
  opts.failure = FailureEvent{3, {1}};
  ResilienceEngine engine = make_engine(opts);

  int rejoins = 0;
  ResilienceEngine::Client client = solver_.client();
  client.repartition = [](std::span<const rank_t>) {};
  client.rejoin = [&] { ++rejoins; };

  RecoveryRecord shrink_record;
  engine.recover(*engine.pending_event(3), 3, client, shrink_record);
  ASSERT_EQ(engine.retired_ranks().size(), 1u);

  // Not a storage-stage boundary: no rejoin yet.
  RecoveryRecord r1;
  EXPECT_FALSE(engine.try_rejoin(4, client, r1));
  EXPECT_EQ(rejoins, 0);

  RecoveryRecord r2;
  ASSERT_TRUE(engine.try_rejoin(5, client, r2));
  EXPECT_EQ(rejoins, 1);
  EXPECT_EQ(r2.rung, RecoveryRung::rejoin);
  EXPECT_EQ(r2.ranks_rejoined, 1);
  EXPECT_EQ(r2.wasted_iterations, 0);
  EXPECT_TRUE(engine.retired_ranks().empty());
  // Stale shrunken-map strategy state was dropped.
  EXPECT_TRUE(engine.queue_tags().empty());
  EXPECT_EQ(engine.last_recoverable(), -1);

  // Nothing retired anymore: the next boundary is a no-op.
  RecoveryRecord r3;
  EXPECT_FALSE(engine.try_rejoin(10, client, r3));
}

TEST_F(EngineFixture, RecoveryZeroesFailedRanksBeforeReconstruction) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.failure = FailureEvent{8, {2}};
  ResilienceEngine engine = make_engine(opts);
  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  solver_.v.set_from_global(Vector(kRows, 2.0));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);

  ResilienceEngine::Client client = solver_.client();
  client.reconstruct = [&](StateSnapshot& stars, const RedundantCopy&,
                           const RedundantCopy&, std::span<const rank_t>,
                           RecoveryRecord&) {
    // The failure wiped rank 2's slices of both the live vector and the
    // snapshot before the client runs.
    for (real_t x : solver_.v.local(2)) EXPECT_EQ(x, 0.0);
    for (real_t x : stars.vec(0).local(2)) EXPECT_EQ(x, 0.0);
    for (real_t x : stars.vec(0).local(1)) EXPECT_EQ(x, 2.0);
    return true;
  };
  RecoveryRecord record;
  EXPECT_EQ(engine.recover(*engine.pending_event(8), 8, client, record), 6);
}

} // namespace
} // namespace esrp
