#include "api/solve.hpp"

#include <cstdint>
#include <optional>
#include <utility>

#include "api/registry.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/metrics.hpp"
#include "core/resilient_pcg.hpp"
#include "netsim/cluster.hpp"
#include "parallel/parallel.hpp"
#include "pipelined/dist_pipelined_pcg.hpp"
#include "pipelined/pipelined_pcg.hpp"
#include "scenario/cluster_shape.hpp"
#include "solver/pcg.hpp"
#include "xp/experiment.hpp"

namespace esrp {

namespace {

/// Apply spec.threads for the duration of one solve and restore the global
/// setting afterwards (threads = -1 keeps the caller's setting untouched).
class ThreadOverride {
public:
  explicit ThreadOverride(int threads) {
    if (threads >= 0) {
      saved_ = num_threads();
      set_num_threads(threads);
    }
  }
  ~ThreadOverride() {
    if (saved_ >= 0) set_num_threads(saved_);
  }
  ThreadOverride(const ThreadOverride&) = delete;
  ThreadOverride& operator=(const ThreadOverride&) = delete;

private:
  int saved_ = -1;
};

/// The preconditioner for this solve: the prepared handle's factorization
/// when one was injected, else a fresh factorization (stored in `owned`).
/// Both paths factorize from the same inputs, so they are interchangeable
/// bitwise — the service's warm path just skips the work.
const Preconditioner& resolve_precond(const SolveContext& ctx,
                                      const BlockRowPartition* part,
                                      std::unique_ptr<Preconditioner>& owned) {
  if (ctx.prepared != nullptr && ctx.prepared->precond != nullptr)
    return *ctx.prepared->precond;
  owned = precond_registry().get(ctx.spec.precond).make(
      PrecondContext{ctx.a, part, ctx.spec});
  return *owned;
}

IterationCallback iteration_adapter(SolverObserver* observer) {
  if (!observer) return {};
  return [observer](index_t j, real_t relres) {
    observer->on_iteration(j, relres);
  };
}

// ------------------------------------------------- sequential solvers ----

SolveReport run_pcg(const SolveContext& ctx) {
  const SolveSpec& spec = ctx.spec;
  std::unique_ptr<Preconditioner> owned;
  const Preconditioner& precond = resolve_precond(ctx, nullptr, owned);
  Vector x(static_cast<std::size_t>(ctx.a.rows()), 0);
  if (!spec.x0.empty()) vec_copy(spec.x0, x);

  PcgOptions opts;
  opts.rtol = spec.rtol;
  opts.max_iterations = spec.max_iterations;
  WallTimer timer;
  const PcgResult res = pcg_solve(ctx.a, ctx.b, x, &precond, opts,
                                  iteration_adapter(ctx.observer));

  SolveReport report;
  report.converged = res.converged;
  report.iterations = res.iterations;
  report.executed_iterations = res.iterations;
  report.final_relres = res.final_relres;
  report.flops = res.flops;
  report.wall_seconds = timer.seconds();
  report.x = std::move(x);
  return report;
}

SolveReport run_pipelined(const SolveContext& ctx) {
  const SolveSpec& spec = ctx.spec;
  std::unique_ptr<Preconditioner> owned;
  const Preconditioner& precond = resolve_precond(ctx, nullptr, owned);
  Vector x(static_cast<std::size_t>(ctx.a.rows()), 0);
  if (!spec.x0.empty()) vec_copy(spec.x0, x);

  PipelinedPcgOptions opts;
  opts.rtol = spec.rtol;
  opts.max_iterations = spec.max_iterations;
  WallTimer timer;
  const PipelinedPcgResult res = pipelined_pcg_solve(
      ctx.a, ctx.b, x, &precond, opts, iteration_adapter(ctx.observer));

  SolveReport report;
  report.converged = res.converged;
  report.iterations = res.iterations;
  report.executed_iterations = res.iterations;
  report.final_relres = res.final_relres;
  report.flops = res.flops;
  report.wall_seconds = timer.seconds();
  report.x = std::move(x);
  return report;
}

// ------------------------------------------------ distributed solvers ----

/// Residual-accuracy metrics shared by the distributed drivers.
void finish_distributed(const SolveContext& ctx, SolveReport& report) {
  report.nodes = ctx.spec.nodes;
  report.drift = residual_drift(ctx.a, ctx.b, report.x, report.r);
  report.true_relres = true_relative_residual(ctx.a, ctx.b, report.x);
}

CostParams cluster_cost(const SolveContext& ctx) {
  return ctx.spec.calibrated_cost ? xp::calibrated_cost(ctx.a, ctx.spec.nodes)
                                  : CostParams{};
}

/// Base cost parameters shaped by the spec's cluster-shape key (empty =
/// homogeneous, charging bitwise identically to the plain CostParams path).
HeterogeneousCostModel cluster_model(const SolveContext& ctx) {
  return resolve_cluster_shape(ctx.spec.cluster_shape, cluster_cost(ctx),
                               ctx.spec.nodes);
}

/// Partition for a distributed solve: the prepared handle's (so the shared
/// plans' partition identity checks hold) or a locally built one. Both are
/// the same deterministic block-row split of (rows, nodes).
const BlockRowPartition& resolve_partition(
    const SolveContext& ctx, std::optional<BlockRowPartition>& local) {
  if (ctx.prepared != nullptr && ctx.prepared->part != nullptr) {
    ESRP_CHECK_MSG(ctx.prepared->part->num_nodes() == ctx.spec.nodes &&
                       ctx.prepared->part->global_size() == ctx.a.rows(),
                   "prepared partition does not match this spec's "
                   "(rows, nodes)");
    return *ctx.prepared->part;
  }
  local.emplace(ctx.a.rows(), ctx.spec.nodes);
  return *local;
}

SolveReport run_resilient(const SolveContext& ctx) {
  const SolveSpec& spec = ctx.spec;
  std::optional<BlockRowPartition> local_part;
  const BlockRowPartition& part = resolve_partition(ctx, local_part);
  SimCluster cluster(part, cluster_model(ctx));
  std::unique_ptr<Preconditioner> owned;
  const Preconditioner& precond = resolve_precond(ctx, &part, owned);

  ResilienceOptions opts;
  opts.strategy = spec.strategy;
  opts.interval = spec.interval;
  opts.phi = spec.phi;
  opts.queue_capacity = spec.queue_capacity;
  opts.rtol = spec.rtol;
  if (spec.max_iterations > 0) opts.max_iterations = spec.max_iterations;
  opts.precond_formulation = spec.formulation;
  opts.spare_nodes = spec.spare_nodes;
  opts.residual_replacement = spec.residual_replacement;
  opts.policy = recovery_policy_from_string(spec.recovery_policy);
  opts.extra_failures = spec.failures;
  opts.sdc_events = spec.sdc_events;
  opts.sdc_threshold = spec.sdc_threshold;

  // Shared plans ride along only when they match this solve (same phi);
  // otherwise the solver builds its own, exactly as before.
  const SpmvPlan* plan =
      ctx.prepared != nullptr ? ctx.prepared->spmv : nullptr;
  const AspmvPlan* aug = nullptr;
  if (plan != nullptr && ctx.prepared->aspmv != nullptr &&
      ctx.prepared->aspmv->phi() == opts.phi)
    aug = ctx.prepared->aspmv;
  ResilientPcg solver(ctx.a, precond, cluster, opts, plan, aug);
  if (SolverObserver* obs = ctx.observer) {
    solver.set_progress_callback(
        [obs](index_t j, real_t relres) { obs->on_iteration(j, relres); });
    solver.set_failure_callback(
        [obs](const FailureEvent& e) { obs->on_failure(e); });
    solver.set_recovery_callback(
        [obs](const RecoveryRecord& rec) { obs->on_recovery(rec); });
    // SDC injections surface as on_failure events with cause = sdc, so one
    // observer hook sees the full fault timeline.
    solver.set_sdc_callback([obs](const SdcRecord& rec) {
      FailureEvent e;
      e.iteration = rec.event.iteration;
      e.ranks = {rec.rank};
      e.cause = FailureCause::sdc;
      obs->on_failure(e);
    });
  }
  ResilientSolveResult res = solver.solve(ctx.b, spec.x0);

  SolveReport report;
  report.converged = res.converged;
  report.iterations = res.trajectory_iterations;
  report.executed_iterations = res.executed_iterations;
  report.final_relres = res.final_relres;
  report.modeled_time = res.modeled_time;
  report.wall_seconds = res.wall_seconds;
  report.recoveries = std::move(res.recoveries);
  report.sdc = std::move(res.sdc);
  report.x = std::move(res.x);
  report.r = std::move(res.r);
  finish_distributed(ctx, report);
  return report;
}

SolveReport run_dist_pipelined(const SolveContext& ctx) {
  const SolveSpec& spec = ctx.spec;
  std::optional<BlockRowPartition> local_part;
  const BlockRowPartition& part = resolve_partition(ctx, local_part);
  SimCluster cluster(part, cluster_model(ctx));
  std::unique_ptr<Preconditioner> owned;
  const Preconditioner& precond = resolve_precond(ctx, &part, owned);

  DistPipelinedOptions opts;
  opts.rtol = spec.rtol;
  if (spec.max_iterations > 0) opts.max_iterations = spec.max_iterations;
  opts.strategy = spec.strategy;
  opts.interval = spec.interval;
  opts.phi = spec.phi;
  opts.queue_capacity = spec.queue_capacity;
  opts.precond_formulation = spec.formulation;
  opts.spare_nodes = spec.spare_nodes;
  opts.residual_replacement = spec.residual_replacement;
  opts.policy = recovery_policy_from_string(spec.recovery_policy);
  opts.extra_failures = spec.failures;

  const SpmvPlan* plan =
      ctx.prepared != nullptr ? ctx.prepared->spmv : nullptr;
  const AspmvPlan* aug = nullptr;
  if (plan != nullptr && ctx.prepared->aspmv != nullptr &&
      ctx.prepared->aspmv->phi() == opts.phi)
    aug = ctx.prepared->aspmv;
  DistPipelinedPcg solver(ctx.a, precond, cluster, opts, plan, aug);
  if (SolverObserver* obs = ctx.observer) {
    solver.set_progress_callback(
        [obs](index_t j, real_t relres) { obs->on_iteration(j, relres); });
    solver.set_failure_callback(
        [obs](const FailureEvent& e) { obs->on_failure(e); });
    solver.set_recovery_callback(
        [obs](const RecoveryRecord& rec) { obs->on_recovery(rec); });
  }
  WallTimer timer;
  DistPipelinedResult res = solver.solve(ctx.b);

  SolveReport report;
  report.converged = res.converged;
  report.iterations = res.trajectory_iterations;
  report.executed_iterations = res.executed_iterations;
  report.final_relres = res.final_relres;
  report.modeled_time = res.modeled_time;
  report.wall_seconds = timer.seconds();
  report.recoveries = std::move(res.recoveries);
  report.x = std::move(res.x);
  report.r = std::move(res.r);
  finish_distributed(ctx, report);
  return report;
}

} // namespace

Registry<SolverEntry>& solver_registry() {
  static Registry<SolverEntry>* reg = [] {
    auto* r = new Registry<SolverEntry>("solver");
    r->add("pcg", "sequential preconditioned CG (paper Alg. 1)",
           SolverEntry{.run = run_pcg, .supports_batched_rhs = true});
    r->add("pipelined",
           "sequential pipelined PCG (Ghysels & Vanroose, one fused "
           "reduction)",
           SolverEntry{.run = run_pipelined});
    r->add("resilient-pcg",
           "distributed PCG on the simulated cluster with ESRP/IMCR "
           "recovery (paper Alg. 3)",
           SolverEntry{.run = run_resilient,
                       .distributed = true,
                       .max_failure_events = SIZE_MAX,
                       .supports_esrp = true,
                       .supports_no_spare = true,
                       .supports_sdc = true,
                       .supports_shrink = true});
    r->add("dist-pipelined",
           "distributed pipelined PCG (communication hiding) with "
           "ESRP/IMCR recovery (ref. [16])",
           SolverEntry{.run = run_dist_pipelined,
                       .distributed = true,
                       .max_failure_events = SIZE_MAX,
                       .supports_esrp = true,
                       .supports_no_spare = false,
                       .supports_residual_replacement = false,
                       .supports_x0 = false});
    return r;
  }();
  return *reg;
}

namespace detail {

SolveReport run_resolved(const SolveSpec& spec, const CsrMatrix& a,
                         const std::string& name, std::span<const real_t> b,
                         SolverObserver* observer,
                         const PreparedParts* prepared) {
  const SolverEntry& entry = solver_registry().get(spec.solver);
  ESRP_CHECK_MSG(a.rows() == a.cols(), "solve() needs a square matrix");
  ESRP_CHECK_MSG(static_cast<index_t>(b.size()) == a.rows(),
                 "rhs size " << b.size() << " does not match matrix dimension "
                             << a.rows());
  ESRP_CHECK_MSG(spec.x0.empty() ||
                     static_cast<index_t>(spec.x0.size()) == a.rows(),
                 "x0 size " << spec.x0.size()
                            << " does not match matrix dimension "
                            << a.rows());

  SolveReport report = entry.run(SolveContext{a, b, spec, observer, prepared});
  report.solver = spec.solver;
  report.precond = spec.precond;
  report.matrix = name;
  report.rows = a.rows();
  report.nnz = a.nnz();
  return report;
}

} // namespace detail

SolveReport solve(const SolveSpec& spec, SolverObserver* observer) {
  validate_spec(spec);
  if (spec.matrix_data != nullptr) check_finite_matrix(*spec.matrix_data);
  if (!spec.rhs_batch.empty())
    throw Error("batched right-hand sides (rhs_batch) are solved through "
                "SolveService::solve_batched, not esrp::solve");

  // Resolve the problem: borrowed matrix or registry-built one.
  TestProblem built;
  const CsrMatrix* a = spec.matrix_data;
  std::string name = spec.matrix_name.empty() ? "custom" : spec.matrix_name;
  if (a == nullptr) {
    built = resolve_matrix(spec.matrix);
    a = &built.matrix;
    name = built.name;
  }

  Vector rhs_storage;
  std::span<const real_t> b = spec.rhs;
  if (b.empty()) {
    rhs_storage = xp::make_rhs(*a);
    b = rhs_storage;
  }

  const ThreadOverride threads(spec.threads);
  return detail::run_resolved(spec, *a, name, b, observer, nullptr);
}

} // namespace esrp
