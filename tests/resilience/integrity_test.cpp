// Integrity-checked redundant state: word-wise seals on redundancy-queue
// copies and IMCR checkpoints, byte-flip injection through the SdcEvent
// "pcopy" / "checkpoint" targets, and the recovery ladder's
// detect-demote-record behavior when corrupted state would otherwise be
// consumed — at the component level, the engine level, and end-to-end
// through esrp::solve.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/solve.hpp"
#include "comm/exchange.hpp"
#include "common/error.hpp"
#include "partition/index_set.hpp"
#include "resilience/checkpoint_store.hpp"
#include "resilience/engine.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

constexpr rank_t kNodes = 6;
constexpr index_t kRows = 24;

/// A real capture: a phi=1 ASpMV of the constant vector `value` with the
/// 1D Laplacian over kNodes nodes, so every entry has one off-owner copy.
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

// ------------------------------------------------------------ components --

TEST(RedundantCopyIntegrity, ByteFlipBreaksVerification) {
  RedundantCopy copy = make_copy(5);
  EXPECT_TRUE(copy.verify({}));

  const rank_t holder = copy.corrupt(0, 51);
  ASSERT_GE(holder, 0);
  EXPECT_FALSE(copy.verify({}));

  // When the corrupted holder itself is among the failed ranks its copy is
  // gone anyway — the surviving holders still verify.
  const std::vector<rank_t> failed{holder};
  EXPECT_TRUE(copy.verify(failed));
}

TEST(RedundantCopyIntegrity, DroppedHoldersAreNotCorruption) {
  RedundantCopy copy = make_copy(5);
  const std::vector<rank_t> failed{2};
  copy.drop_holders(failed);
  // A failure legitimately erases holders' lists; later verification
  // against a *different* failed set must not read that as corruption.
  EXPECT_TRUE(copy.verify({}));
}

/// A capture's seals cover both parts of every holder's values: the ghost
/// head, copied from the halo buffer while the holder is sealed, and the
/// augmentation tail, gathered before it. One flipped bit in either, right
/// after capture, must fail verification — for an ASpMV capture and for a
/// dissemination alike.
TEST(RedundantCopyIntegrity, FlipInGhostHeadOrAugmentationTailIsDetected) {
  const CsrMatrix a = laplace1d(kRows);
  const BlockRowPartition part(kRows, kNodes);
  SimCluster cluster(part);
  const SpmvPlan plan(a, part);
  const AspmvPlan aug(plan, 2); // phi = 2 > the halo's one copy: tails exist
  ExchangeEngine engine(a, plan, cluster);
  Vector values(kRows);
  for (index_t i = 0; i < kRows; ++i)
    values[static_cast<std::size_t>(i)] = 0.5 + static_cast<real_t>(i);
  DistVector p(part, values), y(part);

  for (const bool in_tail : {false, true}) {
    // corrupt() flips the entry on its lowest-ranked holder: pick the first
    // entry that holder stores in the wanted part of its values.
    index_t entry = -1;
    rank_t holder = -1;
    for (index_t i = 0; i < kRows && entry < 0; ++i) {
      const std::vector<rank_t> receivers = aug.receivers_of(i);
      if (receivers.empty()) continue;
      if (set_contains(plan.ghosts(receivers.front()), i) != in_tail) {
        entry = i;
        holder = receivers.front();
      }
    }
    ASSERT_GE(entry, 0) << "in_tail=" << in_tail;
    for (const bool disseminated : {false, true}) {
      SCOPED_TRACE(testing::Message() << "in_tail=" << in_tail
                                      << " disseminated=" << disseminated);
      RedundantCopy copy = disseminated ? engine.disseminate(aug, p, 3)
                                        : engine.aspmv(aug, p, 3, y);
      ASSERT_TRUE(copy.verify({}));
      EXPECT_EQ(copy.corrupt(entry, 0), holder);
      EXPECT_FALSE(copy.verify({}));
      const std::vector<rank_t> failed{holder};
      EXPECT_TRUE(copy.verify(failed));
    }
  }
}

TEST(RedundantCopyIntegrity, CorruptReportsMissingEntries) {
  RedundantCopy copy = make_copy(5);
  EXPECT_EQ(copy.corrupt(kRows + 100, 51), -1);
}

TEST(CheckpointStoreIntegrity, ByteFlipBreaksVerification) {
  BlockRowPartition part(kRows, kNodes);
  SimCluster cluster(part);
  DistVector v(part);
  v.set_from_global(Vector(kRows, 2.5));
  real_t beta = 0.125;
  const SolverState state{{&v}, {}, {&beta}};

  CheckpointStore store(part, 1, 1, 1);
  store.store(4, state, cluster);
  EXPECT_TRUE(store.verify());

  const rank_t owner = store.corrupt(0, 7, 31);
  EXPECT_EQ(owner, part.owner(7));
  EXPECT_FALSE(store.verify());

  // Re-storing reseals: the next checkpoint is trustworthy again.
  store.store(8, state, cluster);
  EXPECT_TRUE(store.verify());
}

// ---------------------------------------------------------------- engine --

/// Same stub as engine_test: one state vector + one scalar.
struct StubSolver {
  explicit StubSolver(const BlockRowPartition& part) : v(part) {}

  SolverState state() { return SolverState{{&v}, {}, {&beta}}; }

  ResilienceEngine::Client client() {
    ResilienceEngine::Client c;
    c.state = [this] { return state(); };
    c.restart = [this] { ++restarts; };
    c.reconstruct = [this](StateSnapshot& stars, const RedundantCopy&,
                           const RedundantCopy&, std::span<const rank_t>,
                           RecoveryRecord&) {
      ++reconstructions;
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
};

class IntegrityEngineFixture : public ::testing::Test {
protected:
  IntegrityEngineFixture()
      : part_(kRows, kNodes), cluster_(part_), solver_(part_) {}

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

TEST_F(IntegrityEngineFixture, CorruptQueueCopyIsDetectedAndDemoted) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.failure = FailureEvent{8, {2}};
  ResilienceEngine engine = make_engine(opts);
  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);

  // The "pcopy" SdcEvent target flips a bit in the newest copy (tag 6 —
  // the `cur` half of the reconstruction pair) without touching its seal.
  SdcEvent flip;
  flip.iteration = 7;
  flip.target = "pcopy";
  flip.index = 0;
  flip.bit = 51;
  EXPECT_GE(engine.corrupt_redundant_state(flip), 0);

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(8), 8, solver_.client(), record);

  // The corruption is detected at verification time, the reconstruct rung
  // is demoted, and — with no other rung available — the ladder lands on
  // scratch. The record reports all of it honestly.
  EXPECT_EQ(solver_.reconstructions, 0);
  EXPECT_EQ(resume, 0);
  EXPECT_TRUE(record.restarted_from_scratch);
  EXPECT_EQ(record.rung, RecoveryRung::scratch);
  EXPECT_GE(record.copies_corrupt, 1);
  ASSERT_GE(record.attempted.size(), 2u);
  EXPECT_EQ(record.attempted.front(), RecoveryRung::reconstruct);
  EXPECT_EQ(record.attempted.back(), RecoveryRung::scratch);
}

TEST_F(IntegrityEngineFixture, CorruptCheckpointIsDetectedAndDemoted) {
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 4;
  opts.phi = 2;
  opts.failure = FailureEvent{6, {2}};
  ResilienceEngine engine = make_engine(opts);

  solver_.v.set_from_global(Vector(kRows, 3.5));
  solver_.beta = 0.125;
  engine.store_checkpoint(4, solver_.state());

  SdcEvent flip;
  flip.iteration = 5;
  flip.target = "checkpoint";
  flip.index = 3;
  flip.bit = 40;
  EXPECT_GE(engine.corrupt_redundant_state(flip), 0);

  RecoveryRecord record;
  const index_t resume =
      engine.recover(*engine.pending_event(6), 6, solver_.client(), record);

  // verify() fails, so the corrupted checkpoint is demoted instead of
  // silently restoring poisoned state.
  EXPECT_EQ(resume, 0);
  EXPECT_TRUE(record.restarted_from_scratch);
  EXPECT_EQ(record.rung, RecoveryRung::scratch);
  EXPECT_EQ(record.checkpoints_corrupt, 1);
  EXPECT_EQ(record.attempted,
            (std::vector<RecoveryRung>{RecoveryRung::checkpoint,
                                       RecoveryRung::scratch}));
  EXPECT_EQ(solver_.restarts, 1);
}

TEST_F(IntegrityEngineFixture, IntactStateVerifiesAndRecordsCounts) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.failure = FailureEvent{8, {2}};
  ResilienceEngine engine = make_engine(opts);
  engine.push_copy(make_copy(5));
  engine.push_copy(make_copy(6));
  engine.save_snapshot(6, solver_.state());
  engine.set_recoverable(6);

  RecoveryRecord record;
  EXPECT_EQ(
      engine.recover(*engine.pending_event(8), 8, solver_.client(), record),
      6);
  EXPECT_EQ(record.rung, RecoveryRung::reconstruct);
  EXPECT_EQ(record.copies_verified, 2);
  EXPECT_EQ(record.copies_corrupt, 0);
}

TEST_F(IntegrityEngineFixture, CorruptionOfAbsentStateIsReportedAsMiss) {
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  ResilienceEngine engine = make_engine(opts);
  SdcEvent flip;
  flip.iteration = 3;
  flip.target = "pcopy";
  EXPECT_EQ(engine.corrupt_redundant_state(flip), -1); // empty queue

  ResilienceOptions imcr;
  imcr.strategy = Strategy::imcr;
  ResilienceEngine engine2 = make_engine(imcr);
  flip.target = "checkpoint";
  EXPECT_EQ(engine2.corrupt_redundant_state(flip), -1); // nothing stored

  flip.target = "p"; // live vectors are the solver's job, not the engine's
  EXPECT_THROW(engine2.corrupt_redundant_state(flip), Error);
}

// ------------------------------------------------------------ end-to-end --

/// Small deterministic esrp run shared by the end-to-end tests.
SolveSpec esrp_spec() {
  SolveSpec spec;
  spec.matrix = "poisson2d:16,16";
  spec.solver = "resilient-pcg";
  spec.precond = "block-jacobi";
  spec.nodes = 8;
  spec.strategy = Strategy::esrp;
  spec.interval = 5;
  spec.rtol = 1e-8;
  return spec;
}

TEST(IntegrityEndToEnd, CorruptCopyConsumedByRecoveryIsDetected) {
  // Flip a bit of the newest redundancy-queue copy right after a storage
  // stage, then fail a rank before the next stage: the recovery verifies
  // the pair, detects the flip, demotes the reconstruct rung, and the SDC
  // record is honestly marked detected at the recovery iteration.
  SolveSpec spec = esrp_spec();
  SdcEvent flip;
  flip.iteration = 12; // after the (10, 11) storage stage completes
  flip.target = "pcopy";
  flip.index = 0;
  flip.bit = 51;
  spec.sdc_events.push_back(flip);
  spec.failures.push_back(FailureEvent{13, {2}});

  const SolveReport report = esrp::solve(spec);
  EXPECT_TRUE(report.converged);
  ASSERT_EQ(report.recoveries.size(), 1u);
  const RecoveryRecord& rec = report.recoveries[0];
  EXPECT_NE(rec.rung, RecoveryRung::reconstruct);
  EXPECT_GE(rec.copies_corrupt, 1);
  ASSERT_EQ(report.sdc.size(), 1u);
  EXPECT_TRUE(report.sdc[0].detected);
  EXPECT_EQ(report.sdc[0].detected_at, 13);

  // The reference run without the flip reconstructs exactly — same inputs,
  // intact redundancy.
  SolveSpec clean = esrp_spec();
  clean.failures.push_back(FailureEvent{13, {2}});
  const SolveReport ref = esrp::solve(clean);
  ASSERT_EQ(ref.recoveries.size(), 1u);
  EXPECT_EQ(ref.recoveries[0].rung, RecoveryRung::reconstruct);
  EXPECT_EQ(ref.recoveries[0].copies_corrupt, 0);
  ASSERT_TRUE(report.converged && ref.converged);
  // Both runs end at the same answer: the ladder's scratch floor is slower,
  // never wrong.
  EXPECT_LE(report.final_relres, spec.rtol);
  EXPECT_LE(ref.final_relres, spec.rtol);
}

TEST(IntegrityEndToEnd, CorruptCheckpointFallsBackHonestly) {
  SolveSpec spec = esrp_spec();
  spec.strategy = Strategy::imcr;
  SdcEvent flip;
  flip.iteration = 12; // after the checkpoint at 10
  flip.target = "checkpoint";
  flip.index = 0;
  flip.bit = 51;
  spec.sdc_events.push_back(flip);
  spec.failures.push_back(FailureEvent{13, {2}});

  const SolveReport report = esrp::solve(spec);
  EXPECT_TRUE(report.converged);
  ASSERT_EQ(report.recoveries.size(), 1u);
  const RecoveryRecord& rec = report.recoveries[0];
  EXPECT_EQ(rec.rung, RecoveryRung::scratch);
  EXPECT_EQ(rec.checkpoints_corrupt, 1);
  EXPECT_TRUE(rec.restarted_from_scratch);
  ASSERT_EQ(report.sdc.size(), 1u);
  EXPECT_TRUE(report.sdc[0].detected);
  EXPECT_LE(report.final_relres, spec.rtol);
}

} // namespace
} // namespace esrp
