// The unified solver front door: one declarative `SolveSpec` describing the
// whole experiment grid point — problem x solver x preconditioner x
// resilience strategy x failure schedule x threads, all as plain data — and
// one `SolveReport` subsuming the per-solver result structs
// (`PcgResult`, `PipelinedPcgResult`, `ResilientSolveResult`,
// `DistPipelinedResult`). `esrp::solve(spec)` (api/solve.hpp) dispatches
// through the string-keyed registries in api/registry.hpp, so a new solver,
// preconditioner, or matrix generator becomes reachable from the CLI, the
// examples, and the experiment harness by registering one factory.
//
// The spec is decomposed into three sub-structs along the service layer's
// prepare/solve split (service/solve_service.hpp):
//
//   ProblemSpec  — what gets *prepared* once and amortized: the operator,
//                  its partition shape, and the preconditioner factorization.
//   SolverConfig — how to iterate: solver choice, tolerances, resilience
//                  strategy, and cost-accounting knobs.
//   RunSpec      — what varies per solve: right-hand side(s), initial
//                  guess, fault schedule, and the thread budget.
//
// `SolveSpec` remains the flat all-in-one type (it inherits all three), so
// every existing call site keeps compiling and `spec.rtol`-style member
// access is unchanged. New code targeting the service layer should build the
// sub-structs directly; the monolithic `SolveSpec` is retained for the
// facade and will not grow new fields outside its three bases.
//
// Lifetime: the spans (`rhs`, `x0`) and the `matrix_data` pointer are
// borrowed by default — they must stay alive for the duration of the
// solve() call. To hand ownership to the spec instead (safe across scopes,
// queues, and sessions), use `RunSpec::take_rhs` / `RunSpec::take_x0`;
// copies and moves of an owning spec re-point the spans into their own
// storage, and debug builds poison freed storage with NaN so a dangling
// span trips validate_spec's liveness check instead of corrupting a solve.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/vec.hpp"
#include "netsim/failure.hpp"
#include "resilience/options.hpp"

namespace esrp {

/// The amortizable part of a solve: everything `SolveService::prepare` turns
/// into a cached `ProblemHandle` (assembled matrix, node partition,
/// communication plans, factorized preconditioner). Two specs with equal
/// fields prepare to the same handle (see service/plan_cache.hpp).
struct ProblemSpec {
  // --- operator --------------------------------------------------------
  /// Matrix registry key (api/registry.hpp): "emilia", "audikw",
  /// "poisson2d:NX,NY", "poisson3d:NX,NY,NZ", "laplace1d:N",
  /// "mm:<file.mtx>". Ignored when `matrix_data` is set.
  std::string matrix;
  /// In-memory matrix (for callers that assembled their own operator);
  /// takes precedence over `matrix`. Borrowed by the facade (must outlive
  /// solve()); the service layer copies it into the prepared handle.
  const CsrMatrix* matrix_data = nullptr;
  /// Report label when `matrix_data` is used (defaults to "custom").
  std::string matrix_name;

  // --- partition shape --------------------------------------------------
  /// Simulated cluster size (paper: 128). Determines the block-row
  /// partition, so it is part of the prepared problem, not the run.
  rank_t nodes = 128;

  // --- preconditioner ---------------------------------------------------
  /// Preconditioner registry key: "identity", "jacobi", "block-jacobi",
  /// "ssor", "ic0". The factorization is the expensive prepared artifact.
  std::string precond = "block-jacobi";
  index_t block_size = 10;  ///< block Jacobi block size (paper: 10)
  real_t ssor_omega = 1.0;  ///< SSOR relaxation factor, in (0, 2)
  real_t ic0_shift = 0.0;   ///< IC(0) diagonal shift
};

/// How to iterate on a prepared problem: solver choice, convergence
/// criteria, the resilience strategy, and cost-model accounting knobs.
/// Changing these never forces a re-factorization (except `phi` and a
/// distributed/sequential solver switch, which shape the prepared plans —
/// the plan cache keys on those two derived facts).
struct SolverConfig {
  /// Solver registry key: "pcg", "pipelined", "resilient-pcg",
  /// "dist-pipelined".
  std::string solver = "resilient-pcg";
  real_t rtol = 1e-8;        ///< convergence: ||r||_2 / ||b||_2 < rtol
  index_t max_iterations = 0; ///< 0 = the solver's own default cap

  // --- simulated cluster accounting (distributed solvers only) ----------
  /// Use xp::calibrated_cost (the paper-regime cost model) instead of the
  /// physical-default CostParams.
  bool calibrated_cost = true;
  /// Cluster-shape registry key (scenario/cluster_shape.hpp):
  /// "homogeneous", "straggler:count=2,factor=4",
  /// "slow-rack:start=0,count=4,factor=8", "slow-links:factor=2".
  /// Empty = homogeneous. Shapes change accounting only — the
  /// floating-point trajectory is identical on every shape.
  std::string cluster_shape;

  // --- resilience (distributed solvers only) ---------------------------
  Strategy strategy = Strategy::none;
  index_t interval = 20;          ///< checkpoint interval T (1 = classic ESR)
  int phi = 1;                    ///< redundant copies / survivable failures
  std::size_t queue_capacity = 3; ///< ESRP redundancy-queue slots
  PrecondFormulation formulation = PrecondFormulation::inverse;
  bool spare_nodes = true;        ///< false: survivors absorb failed ranks
  index_t residual_replacement = 0; ///< recompute r = b - A x every k iters
  /// Recovery-ladder policy preset (resilience/options.hpp,
  /// recovery_policy_from_string): "ladder" (default; every exact rung,
  /// bitwise-compatible with the historical path), "exact" (reconstruct or
  /// scratch), "checkpoint" (IMCR restore or scratch), "scratch", or
  /// "shrink" (ladder plus repartition-shrink and rank rejoin — needs a
  /// solver with `supports_shrink`).
  std::string recovery_policy = "ladder";
};

/// The per-solve inputs: right-hand side(s), initial guess, fault schedule,
/// and the thread budget. Cheap to build per run; never cached.
///
/// `rhs` and `x0` are borrowed spans by default. `take_rhs` / `take_x0`
/// switch them to owned storage: the RunSpec then carries the data across
/// copies, moves, and asynchronous sessions, re-pointing the spans into the
/// copy's own buffer. Debug builds poison owned storage with NaN on
/// destruction, so a span that outlived its owner is caught by
/// validate_spec's finite-input check instead of silently dereferencing
/// freed memory.
struct RunSpec {
  /// Right-hand side; empty = the deterministic pseudo-random
  /// xp::make_rhs(a) every experiment uses. Borrowed unless take_rhs
  /// transferred ownership.
  std::span<const real_t> rhs;
  /// Initial guess; empty = zero vector. Borrowed unless take_x0
  /// transferred ownership.
  std::span<const real_t> x0;

  /// Batched right-hand sides for `SolveService::solve_batched`: k systems
  /// A x_i = b_i sharing every SpMV sweep (CsrMatrix::spmv_multi). Owned.
  /// Mutually exclusive with `rhs`; only solvers whose registry entry sets
  /// `supports_batched_rhs` accept a non-empty batch, and the facade
  /// esrp::solve rejects it (batching is a service-layer feature).
  std::vector<Vector> rhs_batch;

  /// Failure schedule: each event fires once at its iteration. Events must
  /// be fully specified (iteration >= 0, non-empty ranks) with pairwise
  /// distinct iterations. Both distributed solvers support multi-event
  /// schedules (redundancy is replenished by later storage stages).
  std::vector<FailureEvent> failures;

  /// Silent-data-corruption schedule ("resilient-pcg" only): each event
  /// flips one bit of one vector entry at its iteration. Detection rides
  /// on residual replacement — pair with residual_replacement > 0 or the
  /// flips stay (honestly reported as) undetected.
  std::vector<SdcEvent> sdc_events;
  /// Relative recursive-vs-recomputed residual-norm gap above which a
  /// residual-replacement step flags a corruption.
  real_t sdc_threshold = 1e-3;

  /// Kernel threads for this solve: -1 = keep the current global setting,
  /// 0 = all hardware threads, n = exactly n. Through the facade the
  /// previous *global* setting is restored when solve() returns; through
  /// the service layer this is a per-session thread budget that never
  /// touches the global setting (parallel.hpp ThreadBudget).
  int threads = -1;

  /// Move `v` into owned storage and point `rhs` at it. The data now lives
  /// exactly as long as this RunSpec (and its copies), closing the
  /// borrowed-span lifetime footgun.
  void take_rhs(Vector v);
  /// Move `v` into owned storage and point `x0` at it.
  void take_x0(Vector v);

  /// True when `rhs` points into this spec's own storage (take_rhs path).
  bool owns_rhs() const;
  /// True when `x0` points into this spec's own storage (take_x0 path).
  bool owns_x0() const;

  RunSpec() = default;
  RunSpec(const RunSpec& other);
  RunSpec(RunSpec&& other) noexcept;
  RunSpec& operator=(const RunSpec& other);
  RunSpec& operator=(RunSpec&& other) noexcept;
  ~RunSpec();

private:
  // Owned backing stores for the take_rhs/take_x0 path; empty while the
  // spans borrow. Copies re-point the public spans into their own buffers
  // iff the source spans pointed into the source's buffers (a span the
  // caller re-seated to external data is copied verbatim).
  Vector rhs_storage_;
  Vector x0_storage_;
};

/// The historical flat spec — all three sub-structs in one type, so every
/// pre-split call site (`spec.matrix`, `spec.rtol`, `spec.rhs`, ...)
/// compiles unchanged.
///
/// Deprecation note: new code should prefer the sub-structs — build a
/// ProblemSpec + SolverConfig once, `SolveService::prepare` them, and issue
/// RunSpecs against the handle (service/solve_service.hpp). SolveSpec stays
/// as the facade's and the CLI's declarative surface, and any SolveSpec
/// slices implicitly to each of its three bases.
struct SolveSpec : ProblemSpec, SolverConfig, RunSpec {};

/// One result type for every solver. Fields a solver does not produce stay
/// at their defaults: sequential solvers leave `nodes` = 0, `modeled_time`
/// = 0 and `r` empty; distributed solvers leave `flops` = 0 (their work is
/// accounted in modeled time instead).
struct SolveReport {
  std::string solver;  ///< resolved solver key
  std::string precond; ///< resolved preconditioner key
  std::string matrix;  ///< problem name
  index_t rows = 0;
  index_t nnz = 0;
  rank_t nodes = 0; ///< simulated cluster size (0 for sequential solvers)

  bool converged = false;
  index_t iterations = 0;          ///< trajectory iterations at convergence
  index_t executed_iterations = 0; ///< bodies executed incl. redone ones
  real_t final_relres = 0;
  double flops = 0;        ///< total flops (sequential solvers)
  double modeled_time = 0; ///< cluster modeled time [s]
  double wall_seconds = 0; ///< host wall time (reference only)

  std::vector<RecoveryRecord> recoveries;
  std::vector<SdcRecord> sdc; ///< one record per injected bit-flip
  Vector x; ///< solution
  Vector r; ///< recursive residual (distributed solvers; for Eq. 2)
  real_t drift = 0;       ///< residual drift (paper Eq. 2), when r is known
  real_t true_relres = 0; ///< ||b - A x||_2 / ||b||_2 (distributed solvers)

  /// Total rollback distance across all recoveries.
  index_t wasted_iterations() const;
  /// Modeled time spent inside recoveries.
  double recovery_modeled_time() const;
  /// True iff any recovery fell back to a scratch restart.
  bool restarted_from_scratch() const;
};

/// Observer hooks shared by every solver behind the facade (replacing the
/// solver-specific `IterationCallback` / `IterationHook` one-offs). All
/// defaults are no-ops; override what you need.
class SolverObserver {
public:
  virtual ~SolverObserver() = default;

  /// Every convergence check: (trajectory iteration j, ||r||_2 / ||b||_2)
  /// — once per executed iteration body plus the final (converging) check,
  /// identically across all registered solvers. After a recovery, j jumps
  /// back — the rollback.
  virtual void on_iteration(index_t /*iteration*/, real_t /*relres*/) {}

  /// A failure event fired (before any recovery work).
  virtual void on_failure(const FailureEvent& /*event*/) {}

  /// A recovery completed (reconstruction, checkpoint restore, or scratch
  /// restart — see the record).
  virtual void on_recovery(const RecoveryRecord& /*record*/) {}
};

/// Check every invariant of a spec that can be checked without building the
/// problem: key existence in all three registries (with "did you mean"
/// suggestions), positive tolerances/intervals/sizes, phi vs nodes, a
/// well-formed failure schedule, and finite rhs/x0/rhs_batch entries (the
/// error names the vector and index; in debug builds this also catches
/// NaN-poisoned spans whose owning RunSpec has been destroyed).
/// Throws esrp::Error; solve() calls this first.
void validate_spec(const SolveSpec& spec);

/// Check a caller-supplied matrix (`matrix_data`) for NaN and infinite
/// values; the error names the first bad entry's row and column. One pass
/// over the values, so esrp::solve runs it per call and
/// SolveService::prepare once per cache miss (a hit's matrix was checked
/// when its handle was built). Throws esrp::Error.
void check_finite_matrix(const CsrMatrix& a);

} // namespace esrp
