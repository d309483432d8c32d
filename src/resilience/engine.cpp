#include "resilience/engine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esrp {

ResilienceEngine::ResilienceEngine(ResilienceOptions opts,
                                   const BlockRowPartition& part, Config cfg)
    : opts_(std::move(opts)), cfg_(cfg), queue_(opts_.queue_capacity) {
  ESRP_CHECK_MSG(opts_.interval >= 1, "checkpoint interval must be >= 1");
  ESRP_CHECK_MSG(opts_.spare_nodes || opts_.strategy == Strategy::esrp,
                 "no-spare recovery is only defined for ESR/ESRP (ref. [22])");
  ESRP_CHECK(cfg_.snapshot_slots >= 1);
  ESRP_CHECK_MSG(opts_.policy.max_attempts >= 1,
                 "recovery policy max_attempts must be >= 1");

  // One validation surface for every schedule shape (netsim/failure.cpp):
  // half-specified events, non-increasing iterations, duplicate or
  // out-of-range ranks all throw here. An event may fail all ranks — the
  // ladder resolves that to a deterministic scratch restart.
  events_ = merge_failure_schedule(opts_.failure, opts_.extra_failures,
                                   part.num_nodes());
  event_done_.assign(events_.size(), false);

  if (opts_.strategy == Strategy::imcr) {
    ESRP_CHECK(cfg_.checkpoint_vectors >= 1);
    checkpoint_ = std::make_unique<CheckpointStore>(
        part, opts_.phi, cfg_.checkpoint_vectors, cfg_.checkpoint_scalars);
  }
}

void ResilienceEngine::begin_solve(SimCluster& cluster) {
  cluster_ = &cluster;
  queue_.clear();
  snapshots_.clear();
  last_recoverable_ = -1;
  retry_count_ = 0;
  event_done_.assign(events_.size(), false);
}

const FailureEvent* ResilienceEngine::pending_event(index_t j) {
  for (std::size_t e = 0; e < events_.size(); ++e) {
    if (!event_done_[e] && events_[e].iteration == j) {
      event_done_[e] = true;
      return &events_[e];
    }
  }
  return nullptr;
}

ResilienceEngine::StoragePlan ResilienceEngine::storage_plan(index_t j) const {
  StoragePlan plan;
  if (opts_.strategy != Strategy::esrp) return plan;
  const index_t T = opts_.interval;
  if (T == 1) {
    plan.second_store = true; // classic ESR: full storage every iteration
  } else if (j >= T && j % T == 0) {
    plan.first_store = true;
  } else if (j >= T + 1 && j % T == 1) {
    plan.second_store = true;
  }
  return plan;
}

void ResilienceEngine::save_snapshot(index_t tag, const SolverState& state) {
  ESRP_CHECK(cluster_ != nullptr);
  for (StateSnapshot& s : snapshots_) {
    if (s.tag() == tag) {
      s.recapture(tag, state); // rollback re-execution: replace in place
      return;
    }
  }
  if (snapshots_.size() >= cfg_.snapshot_slots) {
    StateSnapshot oldest = std::move(snapshots_.front());
    snapshots_.erase(snapshots_.begin());
    // Reuse the evicted slot's allocation when it still matches the live
    // layout (it does except right after a no-spare repartition).
    if (oldest.num_vectors() == state.vectors.size() &&
        oldest.num_vectors() > 0 &&
        &oldest.vec(0).partition() == &cluster_->partition()) {
      oldest.recapture(tag, state);
      snapshots_.push_back(std::move(oldest));
      return;
    }
  }
  snapshots_.emplace_back(tag, state, cluster_->partition(),
                          cfg_.snapshot_extra_scalars);
}

void ResilienceEngine::set_snapshot_scalar(index_t tag, std::size_t k,
                                           real_t v) {
  if (StateSnapshot* s = find_snapshot(tag)) s->set_scalar(k, v);
}

const StateSnapshot* ResilienceEngine::find_snapshot(index_t tag) const {
  for (const StateSnapshot& s : snapshots_)
    if (s.tag() == tag) return &s;
  return nullptr;
}

StateSnapshot* ResilienceEngine::find_snapshot(index_t tag) {
  for (StateSnapshot& s : snapshots_)
    if (s.tag() == tag) return &s;
  return nullptr;
}

bool ResilienceEngine::checkpoint_due(index_t j) const {
  return opts_.strategy == Strategy::imcr && checkpoint_ != nullptr && j > 0 &&
         j % opts_.interval == 0 && checkpoint_->tag() != j;
}

void ResilienceEngine::store_checkpoint(index_t j, const SolverState& state) {
  ESRP_CHECK(cluster_ != nullptr && checkpoint_ != nullptr);
  // Storing a strictly newer checkpoint is recovery progress: it resets the
  // cascading-failure retry budget just like set_recoverable advancing the
  // ESRP tag does.
  if (j > checkpoint_->tag()) retry_count_ = 0;
  checkpoint_->store(j, state, *cluster_);
}

void ResilienceEngine::repartition_with_snapshots(
    std::span<const rank_t> failed, const Client& client,
    RecoveryRecord& record) {
  ESRP_CHECK_MSG(client.repartition,
                 "no-spare recovery needs a repartition hook");
  // Extract the snapshots before the client replaces the partition objects
  // their DistVectors reference.
  std::vector<std::vector<Vector>> saved;
  saved.reserve(snapshots_.size());
  for (const StateSnapshot& s : snapshots_) saved.push_back(s.gather_all());
  client.repartition(failed);
  const BlockRowPartition& np = cluster_->partition();
  for (std::size_t i = 0; i < snapshots_.size(); ++i)
    snapshots_[i].rebuild(np, saved[i]);
  // The IMCR store's slices (and its partition pointer) describe the old
  // ownership map; rebuild it empty on the new one.
  if (checkpoint_) {
    checkpoint_ = std::make_unique<CheckpointStore>(
        np, opts_.phi, cfg_.checkpoint_vectors, cfg_.checkpoint_scalars);
  }
  record.ranks_absorbed += static_cast<index_t>(failed.size());
  for (rank_t s : failed)
    if (!rank_in(retired_, s)) retired_.push_back(s);
  std::sort(retired_.begin(), retired_.end());
}

bool ResilienceEngine::try_reconstruct_at(index_t target, RecoveryRung rung,
                                          std::span<const rank_t> failed,
                                          const Client& client,
                                          RecoveryRecord& record,
                                          index_t& resume) {
  // With the default three-slot queue the copy pair for the target is
  // always present; a two-slot queue (ablation) can have evicted it, and
  // an older snapshot may have outlived its pair entirely.
  const index_t off = cfg_.pairing == CopyPairing::leading ? 1 : 0;
  const RedundantCopy* prev = queue_.find(target - 1 + off);
  const RedundantCopy* cur = queue_.find(target + off);
  if (!prev || !cur) return false;
  record.attempted.push_back(rung);
  StateSnapshot* stars = find_snapshot(target);
  // A missing star snapshot demotes to the next rung (historically a hard
  // abort; under the ladder it is just one more unusable input).
  if (stars == nullptr) return false;
  // Integrity gate: a copy whose surviving holders no longer match the
  // seals taken at capture has been silently corrupted at rest and must
  // not feed the reconstruction.
  const bool prev_ok = prev->verify(failed);
  const bool cur_ok = cur->verify(failed);
  record.copies_verified += static_cast<index_t>(prev_ok) +
                            static_cast<index_t>(cur_ok);
  record.copies_corrupt += static_cast<index_t>(!prev_ok) +
                           static_cast<index_t>(!cur_ok);
  if (!prev_ok || !cur_ok) return false;
  ESRP_CHECK(client.reconstruct);
  if (!client.reconstruct(*stars, *prev, *cur, failed, record)) return false;
  resume = target;
  record.rung = rung;
  return true;
}

index_t ResilienceEngine::recover(const FailureEvent& event, index_t j_fail,
                                  const Client& client,
                                  RecoveryRecord& record) {
  ESRP_CHECK(cluster_ != nullptr && client.state && client.restart);
  if (on_failure_) on_failure_(event);
  const std::span<const rank_t> failed = event.ranks;
  record.failed_at = j_fail;
  record.ranks_lost = static_cast<index_t>(failed.size());

  // Data loss: all dynamic data of the failed ranks disappears — the live
  // vectors and scratch, the star snapshots, and every redundant copy the
  // failed ranks were holding for other nodes. (The IMCR store models the
  // holder loss through the surviving-buddy check.)
  const SolverState st = client.state();
  for (DistVector* v : st.vectors) v->zero_ranks(failed);
  for (DistVector* v : st.scratch) v->zero_ranks(failed);
  for (StateSnapshot& s : snapshots_) s.zero_ranks(failed);
  queue_.drop_holders(failed);

  const double t0 = cluster_->modeled_time();
  const RecoveryPolicy& policy = opts_.policy;
  // Bounded retry for cascades: every recovery with no storage progress
  // since the last one (no recoverable tag advanced, no checkpoint stored)
  // burns one attempt; past the cap the ladder collapses to the scratch
  // rung instead of thrashing inside one recovery window.
  ++retry_count_;
  const bool exhausted = retry_count_ > policy.max_attempts;
  // With zero survivors no redundant state survives either (every copy
  // holder and checkpoint buddy died with the cluster): the exact rungs are
  // unreachable by construction, and the ladder drops straight to scratch.
  const bool any_survivor =
      !surviving_ranks(failed, cluster_->partition().num_nodes()).empty();
  bool recovered = false;
  index_t resume = 0;

  // Rung 1 — exact reconstruction at the newest recoverable iteration.
  if (!exhausted && !recovered && any_survivor && policy.try_reconstruct &&
      opts_.strategy == Strategy::esrp && last_recoverable_ >= 0) {
    recovered = try_reconstruct_at(last_recoverable_,
                                   RecoveryRung::reconstruct, failed, client,
                                   record, resume);
  }

  // Rung 2 — older stored snapshots, newest first: still bitwise-exact,
  // just further back. Each candidate needs its own intact copy pair.
  if (!exhausted && !recovered && any_survivor && policy.try_older_snapshot &&
      opts_.strategy == Strategy::esrp) {
    for (auto it = snapshots_.rbegin();
         it != snapshots_.rend() && !recovered; ++it) {
      if (it->tag() == last_recoverable_) continue; // rung 1 tried it
      recovered = try_reconstruct_at(it->tag(), RecoveryRung::older_snapshot,
                                     failed, client, record, resume);
    }
  }

  // Rung 3 — IMCR buddy-checkpoint restore, gated on the content checksum
  // taken at store time.
  if (!exhausted && !recovered && any_survivor && policy.try_checkpoint &&
      checkpoint_ && checkpoint_->has_checkpoint()) {
    record.attempted.push_back(RecoveryRung::checkpoint);
    if (!checkpoint_->verify()) {
      ++record.checkpoints_corrupt;
    } else if (checkpoint_->restore(failed, st, *cluster_)) {
      resume = checkpoint_->tag();
      recovered = true;
      record.rung = RecoveryRung::checkpoint;
    }
  }

  if (recovered && !opts_.spare_nodes) {
    // No spare nodes (ref. [22]): surviving neighbors absorb the failed
    // ranks' ranges; the solve continues on the repartitioned cluster.
    repartition_with_snapshots(failed, client, record);
  }

  if (!recovered) {
    // Rung 4 — repartition-shrink: no recoverable redundant state, but the
    // survivors can absorb the failed ranges and restart the solve on the
    // shrunken ownership map (repeatable across events). Needs survivors
    // and a client that can repartition.
    const bool shrink = !exhausted && policy.shrink_on_unrecoverable &&
                        client.repartition != nullptr && any_survivor;
    if (shrink) {
      repartition_with_snapshots(failed, client, record);
    } else if (!opts_.spare_nodes && any_survivor) {
      // Historical no-spare scratch path: the restart also runs on the
      // shrunken map. With no survivors at all the repartition is
      // impossible — the restart runs on the full cluster instead.
      repartition_with_snapshots(failed, client, record);
    }
    // Rung 5 — scratch restart, the deterministic floor of the ladder (the
    // fate of an unprotected solver, paper §1). Always reachable: an
    // all-ranks failure or an exhausted retry budget lands here.
    client.restart();
    queue_.clear();
    snapshots_.clear();
    last_recoverable_ = -1;
    resume = 0;
    record.restarted_from_scratch = true;
    record.rung = shrink ? RecoveryRung::shrink : RecoveryRung::scratch;
    record.attempted.push_back(record.rung);
    retry_count_ = 0; // a restart is progress: the cascade window is over
  }

  record.restored_to = resume;
  record.wasted_iterations = j_fail - resume;
  record.modeled_time = cluster_->modeled_time() - t0;
  if (on_recovery_) on_recovery_(record);
  return resume;
}

bool ResilienceEngine::try_rejoin(index_t j, const Client& client,
                                  RecoveryRecord& record) {
  if (!opts_.policy.rejoin || retired_.empty() || !client.rejoin ||
      j <= 0 || j % opts_.interval != 0) {
    return false;
  }
  ESRP_CHECK(cluster_ != nullptr);
  const double t0 = cluster_->modeled_time();
  client.rejoin();
  // The strategy state captured on the shrunken partition is stale; drop
  // it and let the following storage stages / checkpoints replenish it on
  // the re-expanded map.
  queue_.clear();
  snapshots_.clear();
  last_recoverable_ = -1;
  retry_count_ = 0;
  if (checkpoint_) {
    checkpoint_ = std::make_unique<CheckpointStore>(
        cluster_->partition(), opts_.phi, cfg_.checkpoint_vectors,
        cfg_.checkpoint_scalars);
  }
  record.failed_at = j;
  record.restored_to = j;
  record.wasted_iterations = 0;
  record.rung = RecoveryRung::rejoin;
  record.attempted.push_back(RecoveryRung::rejoin);
  record.ranks_rejoined = static_cast<index_t>(retired_.size());
  retired_.clear();
  record.modeled_time = cluster_->modeled_time() - t0;
  if (on_recovery_) on_recovery_(record);
  return true;
}

rank_t ResilienceEngine::corrupt_redundant_state(const SdcEvent& e) {
  if (e.target == "pcopy") return queue_.corrupt_newest(e.index, e.bit);
  if (e.target == "checkpoint") {
    if (!checkpoint_ || !checkpoint_->has_checkpoint()) return -1;
    return checkpoint_->corrupt(0, e.index, e.bit);
  }
  ESRP_CHECK_MSG(false, "SdcEvent target \"" << e.target
                        << "\" does not name redundant state "
                           "(expected \"pcopy\" or \"checkpoint\")");
  return -1;
}

} // namespace esrp
