#include "core/resilient_pcg.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/fused.hpp"
#include "common/timer.hpp"
#include "core/reconstruction.hpp"
#include "parallel/parallel.hpp"

namespace esrp {

namespace {

/// Chunk size for elementwise loops over simulated nodes (axpy, xpby,
/// preconditioner application). Each node's slice is a full BLAS-1/SpMV
/// work item, so even a single node per task amortizes the dispatch cost
/// on realistic (>= 1k rows/node) problems.
index_t node_grain(rank_t num_nodes) {
  return adaptive_grain(static_cast<index_t>(num_nodes));
}

/// Reductions over nodes use a FIXED grain of one rank per chunk: chunk
/// boundaries never move with the thread count, so the distributed dots —
/// and with them whole solver trajectories — are bitwise identical across
/// all thread counts >= 2 (docs/parallelism.md). One task per rank is fine:
/// a rank's slice dot dwarfs a task dispatch.
constexpr index_t kNodeReduceGrain = 1;

/// Engine configuration of the classic solver: one star snapshot of
/// {x, r, z, p} + beta, with the trailing copy pairing of Alg. 2 (z^(t)
/// derives from copies p'^(t-1), p'^(t)).
ResilienceEngine::Config classic_engine_config() {
  ResilienceEngine::Config cfg;
  cfg.snapshot_slots = 1;
  cfg.pairing = ResilienceEngine::CopyPairing::trailing;
  cfg.checkpoint_vectors = 4;
  cfg.checkpoint_scalars = 1;
  return cfg;
}

} // namespace

ResilientPcg::ResilientPcg(const CsrMatrix& a, const Preconditioner& precond,
                           SimCluster& cluster, ResilienceOptions opts,
                           const SpmvPlan* shared_plan,
                           const AspmvPlan* shared_aug)
    : a_(&a),
      precond_(&precond),
      cluster_(&cluster),
      opts_(opts),
      orig_part_(&cluster.partition()),
      resilience_(opts, cluster.partition(), classic_engine_config()) {
  ESRP_CHECK(a.rows() == a.cols());
  ESRP_CHECK(a.rows() == cluster.partition().global_size());
  if (shared_plan != nullptr) {
    ESRP_CHECK_MSG(&shared_plan->partition() == &cluster.partition(),
                   "shared SpmvPlan was built on a different partition than "
                   "the cluster's");
    plan_ = shared_plan;
  } else {
    owned_plan_ = std::make_unique<SpmvPlan>(a, cluster.partition());
    plan_ = owned_plan_.get();
  }
  if (shared_aug != nullptr) {
    ESRP_CHECK_MSG(&shared_aug->base() == plan_ && shared_aug->phi() == opts.phi,
                   "shared AspmvPlan does not match the SpMV plan / phi of "
                   "this solve");
    aug_ = shared_aug;
  } else {
    owned_aug_ = std::make_unique<AspmvPlan>(*plan_, opts.phi);
    aug_ = owned_aug_.get();
  }
  engine_ = std::make_unique<ExchangeEngine>(a, *plan_, cluster);
  ESRP_CHECK_MSG(precond.action_matrix() != nullptr,
                 "the distributed solver requires a preconditioner with an "
                 "explicit action matrix (e.g. block Jacobi)");
  if (opts.strategy == Strategy::esrp &&
      opts.precond_formulation == PrecondFormulation::matrix) {
    ESRP_CHECK_MSG(precond.matrix_form() != nullptr,
                   "the matrix formulation requires "
                   "Preconditioner::matrix_form()");
  }
  ESRP_CHECK(precond.dim() == a.rows());
  ESRP_CHECK(opts.rtol > 0 && opts.inner_rtol > 0);
  ESRP_CHECK(opts_.residual_replacement >= 0);
  ESRP_CHECK(opts_.sdc_threshold > 0);
  for (const SdcEvent& e : opts_.sdc_events) {
    if (!e.enabled()) continue;
    ESRP_CHECK_MSG(e.target == "p" || e.target == "x" || e.target == "r" ||
                       e.target == "checkpoint" || e.target == "pcopy",
                   "SDC target must be p, x, r, checkpoint, or pcopy, got '"
                       << e.target << "'");
    ESRP_CHECK_MSG(e.index >= 0 && e.index < a.rows(),
                   "SDC entry " << e.index << " outside [0, " << a.rows()
                                << ")");
    ESRP_CHECK_MSG(e.bit >= 0 && e.bit < 64,
                   "SDC bit " << e.bit << " outside [0, 64)");
  }
  check_node_local(precond, cluster.partition());
}

SolverState ResilientPcg::solver_state() {
  return SolverState{{x_.get(), r_.get(), z_.get(), p_.get()},
                     {ap_.get()},
                     {&beta_}};
}

void ResilientPcg::rebuild_on_partition(const BlockRowPartition& np,
                                        const Vector& xg, const Vector& rg,
                                        const Vector& zg, const Vector& pg) {
  cluster_->set_partition(np);

  // Any borrowed (shared) plans refer to the old partition; from here on
  // the solver owns its plans.
  owned_plan_ = std::make_unique<SpmvPlan>(*a_, np);
  plan_ = owned_plan_.get();
  owned_aug_ = std::make_unique<AspmvPlan>(*plan_, opts_.phi);
  aug_ = owned_aug_.get();
  engine_ = std::make_unique<ExchangeEngine>(*a_, *plan_, *cluster_);
  check_node_local(*precond_, np);

  x_ = std::make_unique<DistVector>(np, xg);
  r_ = std::make_unique<DistVector>(np, rg);
  z_ = std::make_unique<DistVector>(np, zg);
  p_ = std::make_unique<DistVector>(np, pg);
  ap_ = std::make_unique<DistVector>(np);
}

void ResilientPcg::repartition(std::span<const rank_t> failed) {
  // Gather the current state, absorb the failed ranks' ranges into their
  // surviving neighbors, and rebuild everything partition-dependent. The
  // accounting approximation: adopters already received the reconstructed
  // entries during the recovery gather, so no extra migration messages are
  // charged (DESIGN.md). The engine's star snapshots migrate around this
  // hook (ResilienceEngine::recover).
  const Vector xg = x_->gather_global();
  const Vector rg = r_->gather_global();
  const Vector zg = z_->gather_global();
  const Vector pg = p_->gather_global();

  auto shrunk = std::make_unique<BlockRowPartition>(
      absorb_ranks(cluster_->partition(), failed));
  rebuild_on_partition(*shrunk, xg, rg, zg, pg);
  // The previous owned partition (if any) stays referenced until the
  // rebuild above re-seated everything onto the new one.
  owned_part_ = std::move(shrunk);
}

void ResilientPcg::rejoin_full_cluster() {
  // The retired ranks came back: redistribute the live state onto the
  // construction-time partition and continue the trajectory exactly. The
  // engine drops its strategy state around this hook (try_rejoin) — the
  // following storage stages replenish it on the re-expanded map.
  const Vector xg = x_->gather_global();
  const Vector rg = r_->gather_global();
  const Vector zg = z_->gather_global();
  const Vector pg = p_->gather_global();
  rebuild_on_partition(*orig_part_, xg, rg, zg, pg);
  owned_part_.reset();
}

real_t ResilientPcg::dot(const DistVector& a, const DistVector& b) {
  // Nodes are reduced in rank order over fixed chunks (parallel_reduce), so
  // the global dot is reproducible run-to-run at any fixed thread count.
  const BlockRowPartition& part = cluster_->partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  const real_t total = parallel_reduce(
      index_t{0}, nodes, kNodeReduceGrain, real_t{0},
      [&](index_t lo, index_t hi) {
        real_t acc = 0;
        for (index_t i = lo; i < hi; ++i) {
          const auto s = static_cast<rank_t>(i);
          acc += vec_dot(a.local(s), b.local(s));
          cluster_->add_compute(s,
                                2.0 * static_cast<double>(part.local_size(s)));
        }
        return acc;
      });
  cluster_->allreduce(1, CommCategory::allreduce);
  return total;
}

std::pair<real_t, real_t> ResilientPcg::dot2(const DistVector& a,
                                             const DistVector& b,
                                             const DistVector& c,
                                             const DistVector& d) {
  const BlockRowPartition& part = cluster_->partition();
  using Pair = std::pair<real_t, real_t>;
  const auto nodes = static_cast<index_t>(part.num_nodes());
  const Pair total = parallel_reduce(
      index_t{0}, nodes, kNodeReduceGrain, Pair{0, 0},
      [&](index_t lo, index_t hi) {
        Pair acc{0, 0};
        for (index_t i = lo; i < hi; ++i) {
          const auto s = static_cast<rank_t>(i);
          acc.first += vec_dot(a.local(s), b.local(s));
          acc.second += vec_dot(c.local(s), d.local(s));
          cluster_->add_compute(s,
                                4.0 * static_cast<double>(part.local_size(s)));
        }
        return acc;
      },
      [](Pair x, Pair y) {
        return Pair{x.first + y.first, x.second + y.second};
      });
  cluster_->allreduce(2, CommCategory::allreduce);
  return total;
}

void ResilientPcg::axpy2(DistVector& y1, real_t a1, const DistVector& x1,
                         DistVector& y2, real_t a2, const DistVector& x2) {
  const BlockRowPartition& part = cluster_->partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  parallel_for(index_t{0}, nodes, node_grain(part.num_nodes()),
               [&](index_t lo, index_t hi) {
                 for (index_t i = lo; i < hi; ++i) {
                   const auto s = static_cast<rank_t>(i);
                   fused_axpy2(y1.local(s), a1, x1.local(s), y2.local(s), a2,
                               x2.local(s));
                   cluster_->add_compute(
                       s, 4.0 * static_cast<double>(part.local_size(s)));
                 }
               });
}

void ResilientPcg::xpby(DistVector& y, const DistVector& x, real_t beta) {
  const BlockRowPartition& part = cluster_->partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  parallel_for(index_t{0}, nodes, node_grain(part.num_nodes()),
               [&](index_t lo, index_t hi) {
                 for (index_t i = lo; i < hi; ++i) {
                   const auto s = static_cast<rank_t>(i);
                   vec_xpby(y.local(s), x.local(s), beta);
                   cluster_->add_compute(
                       s, 2.0 * static_cast<double>(part.local_size(s)));
                 }
               });
}

void ResilientPcg::apply_precond(const DistVector& r, DistVector& z) {
  const BlockRowPartition& part = cluster_->partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  parallel_for(index_t{0}, nodes, node_grain(part.num_nodes()),
               [&](index_t lo, index_t hi) {
                 for (index_t i = lo; i < hi; ++i) {
                   const auto s = static_cast<rank_t>(i);
                   const index_t row_lo = part.begin(s);
                   const index_t row_hi = part.end(s);
                   precond_->apply_rows(row_lo, row_hi, r.local(s),
                                        z.local(s));
                   cluster_->add_compute(
                       s, precond_->apply_rows_flops(row_lo, row_hi));
                 }
               });
}

void ResilientPcg::initialize_state(std::span<const real_t> b,
                                    std::span<const real_t> x0) {
  const BlockRowPartition& part = cluster_->partition();
  if (x0.empty()) {
    x_->zero_all();
    // r(0) = b with a zero initial guess: no SpMV needed.
    r_->set_from_global(b);
  } else {
    x_->set_from_global(x0);
    engine_->spmv(*x_, *r_);
    DistVector b_dist(part, b);
    const auto nodes = static_cast<index_t>(part.num_nodes());
    parallel_for(index_t{0}, nodes, node_grain(part.num_nodes()),
                 [&](index_t lo, index_t hi) {
                   for (index_t i = lo; i < hi; ++i) {
                     const auto s = static_cast<rank_t>(i);
                     vec_sub(b_dist.local(s), r_->local(s), r_->local(s));
                     cluster_->add_compute(
                         s, static_cast<double>(part.local_size(s)));
                   }
                 });
  }
  apply_precond(*r_, *z_);
  p_->copy_from(*z_);
  beta_ = 0;
  cluster_->complete_step();
}

bool ResilientPcg::reconstruct_lost(StateSnapshot& stars,
                                    const RedundantCopy& prev,
                                    const RedundantCopy& cur,
                                    std::span<const rank_t> failed,
                                    std::span<const real_t> b,
                                    RecoveryRecord& record) {
  const BlockRowPartition& part = cluster_->partition();
  ReconstructionInputs in;
  in.a = a_;
  in.p_action = precond_->action_matrix();
  in.formulation = opts_.precond_formulation;
  in.p_matrix = precond_->matrix_form();
  in.z_star = &stars.vec(2);
  in.part = &part;
  in.failed = failed;
  in.p_prev = &prev;
  in.p_cur = &cur;
  in.beta_prev = stars.scalar(0); // beta^(j*-1), captured with the snapshot
  in.x_star = &stars.vec(0);
  in.r_star = &stars.vec(1);
  in.b_global = b;
  in.inner_rtol = opts_.inner_rtol;
  in.inner_max_iterations = opts_.inner_max_iterations;
  in.inner_block_size = opts_.inner_block_size;
  const ReconstructionOutput out = reconstruct_state(in, *cluster_);
  if (!out.ok) return false;

  // Survivors roll back to the star copies; replacements receive the
  // reconstructed entries.
  x_->copy_from(stars.vec(0));
  r_->copy_from(stars.vec(1));
  z_->copy_from(stars.vec(2));
  p_->copy_from(stars.vec(3));
  write_lost_entries(*x_, out.lost, out.x_f);
  write_lost_entries(*r_, out.lost, out.r_f);
  write_lost_entries(*z_, out.lost, out.z_f);
  write_lost_entries(*p_, out.lost, out.p_f);
  // The replacements' star copies are the state just reconstructed.
  stars.vec(0).copy_from(*x_);
  stars.vec(1).copy_from(*r_);
  stars.vec(2).copy_from(*z_);
  stars.vec(3).copy_from(*p_);
  beta_ = stars.scalar(0);
  record.inner_iterations_precond = out.inner_iterations_precond;
  record.inner_iterations_matrix = out.inner_iterations_matrix;
  return true;
}

void ResilientPcg::inject_sdc(index_t j, ResilientSolveResult& result) {
  static_assert(sizeof(real_t) == sizeof(std::uint64_t),
                "bit-flip injection assumes 64-bit reals");
  for (std::size_t k = 0; k < opts_.sdc_events.size(); ++k) {
    const SdcEvent& e = opts_.sdc_events[k];
    if (sdc_fired_[k] || !e.enabled() || e.iteration != j) continue;
    sdc_fired_[k] = 1;
    if (e.target == "checkpoint" || e.target == "pcopy") {
      // Redundant-state corruption: the flip lands in the stored buddy
      // checkpoint / the newest redundancy-queue copy and lies dormant
      // until a recovery consults (and checksum-rejects) it. rank = -1
      // means there was nothing to corrupt yet — still reported honestly.
      SdcRecord rec;
      rec.event = e;
      rec.rank = resilience_.corrupt_redundant_state(e);
      result.sdc.push_back(rec);
      if (sdc_callback_) sdc_callback_(rec);
      continue;
    }
    const BlockRowPartition& cp = cluster_->partition();
    DistVector* v = e.target == "x" ? x_.get()
                    : e.target == "r" ? r_.get()
                                      : p_.get();
    const rank_t owner = cp.owner(e.index);
    const index_t loc = cp.to_local(e.index);
    auto slice = v->local(owner);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &slice[static_cast<std::size_t>(loc)], sizeof bits);
    bits ^= std::uint64_t{1} << e.bit;
    std::memcpy(&slice[static_cast<std::size_t>(loc)], &bits, sizeof bits);
    SdcRecord rec;
    rec.event = e;
    rec.rank = owner;
    result.sdc.push_back(rec);
    if (sdc_callback_) sdc_callback_(rec);
  }
}

ResilientSolveResult ResilientPcg::solve(std::span<const real_t> b,
                                         std::span<const real_t> x0) {
  const BlockRowPartition& part = cluster_->partition();
  const index_t n = a_->rows();
  ESRP_CHECK(static_cast<index_t>(b.size()) == n);
  ESRP_CHECK(x0.empty() || static_cast<index_t>(x0.size()) == n);
  const index_t T = opts_.interval;

  WallTimer timer;
  const double model_t0 = cluster_->modeled_time();
  ResilientSolveResult result;

  x_ = std::make_unique<DistVector>(part);
  r_ = std::make_unique<DistVector>(part);
  z_ = std::make_unique<DistVector>(part);
  p_ = std::make_unique<DistVector>(part);
  ap_ = std::make_unique<DistVector>(part);
  resilience_.begin_solve(*cluster_);
  beta_dstar_ = 0;
  sdc_fired_.assign(opts_.sdc_events.size(), 0);

  // The SolverState contract plus the classic-recurrence hooks the engine
  // orchestrates on a failure.
  ResilienceEngine::Client client;
  client.state = [this] { return solver_state(); };
  client.restart = [this, b, x0] {
    initialize_state(b, x0);
    beta_dstar_ = 0;
  };
  client.repartition = [this](std::span<const rank_t> failed) {
    repartition(failed);
  };
  client.rejoin = [this] { rejoin_full_cluster(); };
  client.reconstruct = [this, b](StateSnapshot& stars,
                                 const RedundantCopy& prev,
                                 const RedundantCopy& cur,
                                 std::span<const rank_t> failed,
                                 RecoveryRecord& record) {
    return reconstruct_lost(stars, prev, cur, failed, b, record);
  };

  DistVector b_dist(part, b);
  const real_t bnorm = std::sqrt(dot(b_dist, b_dist));
  ESRP_CHECK_MSG(bnorm > 0, "right-hand side must be non-zero");

  initialize_state(b, x0);
  // <r,z> and ||r||^2 merged into one sweep + one allreduce (the unfused
  // pair posted two single-scalar allreduces).
  auto [rz, rr0] = dot2(*r_, *z_, *r_, *r_);
  real_t rnorm = std::sqrt(rr0);

  index_t j = 0;
  index_t executed = 0;

  while (true) {
    result.final_relres = rnorm / bnorm;
    // The sequential solvers' callback contract: the observer sees the
    // converging check and every executed body, but not the bare
    // iteration-cap exit (their loop bound ends without a final callback).
    if (result.final_relres < opts_.rtol) {
      if (progress_) progress_(j, result.final_relres);
      result.converged = true;
      break;
    }
    if (executed >= opts_.max_iterations) break;
    if (progress_) progress_(j, result.final_relres);

    if (hook_) hook_(j, *x_, *r_, *z_, *p_);

    // --- Rejoin rung: at a storage-cadence iteration, retired ranks come
    // back and the solve re-expands onto the full cluster (policy-gated;
    // no-op under the default policy). ---
    {
      RecoveryRecord rejoin_rec;
      if (resilience_.try_rejoin(j, client, rejoin_rec))
        result.recoveries.push_back(rejoin_rec);
    }

    // --- Storage / checkpoint phase (Alg. 3 lines 4-12) ---
    const ResilienceEngine::StoragePlan stores = resilience_.storage_plan(j);
    if (resilience_.checkpoint_due(j))
      resilience_.store_checkpoint(j, solver_state());

    // --- SpMV phase ---
    if (stores.store()) {
      resilience_.push_copy(engine_->aspmv(*aug_, *p_, j, *ap_));
      if (stores.second_store) {
        // beta currently holds beta^(j-1), the value Alg. 2 needs; for
        // T >= 3 it equals the beta** captured at the end of iteration mT.
        if (T > 1 && j > T + 1) ESRP_CHECK(beta_ == beta_dstar_);
        // At T = 1 the live state *is* the star state until the CG update
        // below, and the next store would replace the single snapshot slot
        // before any failure check reads it — so the snapshot is taken
        // only on the failure path.
        if (T > 1) resilience_.save_snapshot(j, solver_state());
        if (resilience_.has_copy(j - 1)) resilience_.set_recoverable(j);
      }
    } else {
      engine_->spmv(*p_, *ap_);
    }

    // --- Failure injection (paper §4: zero out at the marked iteration) ---
    if (const FailureEvent* event = resilience_.pending_event(j)) {
      if (stores.second_store && T == 1)
        resilience_.save_snapshot(j, solver_state());
      RecoveryRecord record;
      j = resilience_.recover(*event, j, client, record);
      // A redundant-state corruption (SDC target checkpoint/pcopy) is
      // detected exactly when a recovery checksum-rejects the state it
      // corrupted — mirror that verdict into the pending SDC records.
      if (record.copies_corrupt > 0 || record.checkpoints_corrupt > 0) {
        for (SdcRecord& rec : result.sdc) {
          if (rec.detected) continue;
          if ((rec.event.target == "pcopy" && record.copies_corrupt > 0) ||
              (rec.event.target == "checkpoint" &&
               record.checkpoints_corrupt > 0)) {
            rec.detected = true;
            rec.detected_at = record.failed_at;
          }
        }
      }
      result.recoveries.push_back(record);
      const auto [rz_rec, rr_rec] = dot2(*r_, *z_, *r_, *r_);
      rz = rz_rec;
      rnorm = std::sqrt(rr_rec);
      ++executed;
      continue;
    }

    // --- SDC injection (scenario lab): the flip lands after the SpMV, so
    // a corrupted p desynchronizes the x update from the r update and the
    // damage is observable as recursive-vs-true residual drift. ---
    if (!opts_.sdc_events.empty()) inject_sdc(j, result);

    // --- CG updates (Alg. 3 lines 13-18) ---
    const real_t pap = dot(*p_, *ap_);
    ESRP_CHECK_MSG(pap > 0, "p^T A p <= 0 at iteration " << j);
    const real_t alpha = rz / pap;
    axpy2(*x_, alpha, *p_, *r_, -alpha, *ap_);
    apply_precond(*r_, *z_);
    const auto [rz_next, rr] = dot2(*r_, *z_, *r_, *r_);
    beta_ = rz_next / rz;
    rz = rz_next;
    rnorm = std::sqrt(rr);
    xpby(*p_, *z_, beta_);
    if (opts_.strategy == Strategy::esrp && T > 1 && stores.first_store)
      beta_dstar_ = beta_; // the paper's beta** = beta^(mT)

    // --- Residual replacement (van der Vorst & Ye, the paper's [27]) ---
    if (opts_.residual_replacement > 0 &&
        (j + 1) % opts_.residual_replacement == 0) {
      engine_->spmv(*x_, *ap_); // ap_ reused as scratch for A x
      // Index b by global offset: a no-spare recovery may have changed the
      // partition since b_dist was built.
      const BlockRowPartition& cp = cluster_->partition();
      const auto cn = static_cast<index_t>(cp.num_nodes());
      parallel_for(index_t{0}, cn, node_grain(cp.num_nodes()),
                   [&](index_t lo, index_t hi) {
                     for (index_t i = lo; i < hi; ++i) {
                       const auto sr = static_cast<rank_t>(i);
                       auto rs = r_->local(sr);
                       vec_sub(b.subspan(static_cast<std::size_t>(cp.begin(sr)),
                                         rs.size()),
                               ap_->local(sr), rs);
                       cluster_->add_compute(
                           sr, static_cast<double>(cp.local_size(sr)));
                     }
                   });
      apply_precond(*r_, *z_);
      const auto [rz_new, rr_new] = dot2(*r_, *z_, *r_, *r_);
      rz = rz_new;
      const real_t rnorm_recursive = rnorm;
      rnorm = std::sqrt(rr_new);
      // SDC detection: a large relative gap between the recursive residual
      // norm and the freshly recomputed one means the recurrences and the
      // true state disagree — the signature of a bit-flip. Benign drift
      // (Eq. 2 of the paper) is orders of magnitude below the threshold.
      if (!result.sdc.empty()) {
        const real_t gap = std::abs(rnorm_recursive - rnorm) /
                           std::max(rnorm, real_t{1e-300});
        for (SdcRecord& rec : result.sdc) {
          if (rec.detected) continue;
          rec.discrepancy = std::max(rec.discrepancy, gap);
          if (gap > opts_.sdc_threshold) {
            rec.detected = true;
            rec.detected_at = j;
          }
        }
      }
    }
    cluster_->complete_step();

    ++j;
    ++executed;
  }

  result.trajectory_iterations = j;
  result.executed_iterations = executed;
  result.modeled_time = cluster_->modeled_time() - model_t0;
  result.wall_seconds = timer.seconds();
  result.x = x_->gather_global();
  result.r = r_->gather_global();
  return result;
}

} // namespace esrp
