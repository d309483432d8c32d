// Google-benchmark micro benches of the kernels that determine the
// simulator's wall-clock cost: sequential SpMV, the distributed SpMV and
// ASpMV exchanges, the block Jacobi apply, a full resilient PCG iteration,
// checkpoint storage, one Alg. 2 state reconstruction, the thread scaling
// of the parallel SpMV / BLAS-1 kernels (1/2/4/8 threads, operands
// first-touched under the kernels' own partition), the SELL-C-σ SpMV vs.
// CSR (with a SUMMARY assertion that SELL never loses), the fused
// iteration kernels vs. their separate-kernel baselines (with a SUMMARY
// assertion that fusion is not slower at large n), and the esrp::solve
// facade's end-to-end dispatch overhead vs. the direct call.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "api/registry.hpp"
#include "api/solve.hpp"
#include "comm/exchange.hpp"
#include "common/fused.hpp"
#include "common/timer.hpp"
#include "resilience/checkpoint_store.hpp"
#include "core/reconstruction.hpp"
#include "parallel/parallel.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/jacobi.hpp"
#include "solver/pcg.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/sell.hpp"
#include "xp/experiment.hpp"

namespace {

using namespace esrp;

const CsrMatrix& test_matrix() {
  static const CsrMatrix a = emilia_like(16, 16, 16).matrix; // 4096 rows
  return a;
}

/// Large instance for the thread-scaling benches: 262,144 rows and ~1.8M
/// nnz, so even 8-way row chunks stream enough memory to amortize dispatch.
const CsrMatrix& scaling_matrix() {
  static const CsrMatrix a = poisson3d(64, 64, 64);
  return a;
}

/// SELL-C-σ mirror of scaling_matrix(), built once (the registry's
/// `format=sell` path amortizes conversion the same way via ProblemHandle).
const SellMatrix& sell_scaling_matrix() {
  static const SellMatrix s(scaling_matrix(), kDefaultSellSigma);
  return s;
}

/// First-touch operand for the scaling benches: default-initialized storage
/// (no serial zero-fill from the Vector constructor) whose pages are first
/// written under the *same* parallel_for partition the elementwise kernels
/// use. On a NUMA machine that places each thread's slice on its own node;
/// construct it after set_num_threads so the partition matches the run.
struct FirstTouch {
  FirstTouch(std::size_t n, real_t value)
      : data(new real_t[n]), size(n) {
    const auto in = static_cast<index_t>(n);
    parallel_for(index_t{0}, in, elementwise_grain(in),
                 [&](index_t lo, index_t hi) {
                   for (index_t i = lo; i < hi; ++i)
                     data[static_cast<std::size_t>(i)] = value;
                 });
  }
  /// First-touch placement, then parallel copy of `src` into it.
  FirstTouch(std::span<const real_t> src) : FirstTouch(src.size(), 0) {
    vec_copy(src, span());
  }
  std::span<real_t> span() { return {data.get(), size}; }
  std::span<const real_t> span() const { return {data.get(), size}; }
  std::unique_ptr<real_t[]> data;
  std::size_t size;
};

void BM_SequentialSpmv(benchmark::State& state) {
  const CsrMatrix& a = test_matrix();
  const Vector x = xp::make_rhs(a);
  Vector y(x.size());
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SequentialSpmv);

void BM_DistributedSpmv(benchmark::State& state) {
  const CsrMatrix& a = test_matrix();
  const auto nodes = static_cast<rank_t>(state.range(0));
  const BlockRowPartition part(a.rows(), nodes);
  SimCluster cluster(part);
  const SpmvPlan plan(a, part);
  ExchangeEngine engine(a, plan, cluster);
  DistVector x(part, xp::make_rhs(a)), y(part);
  for (auto _ : state) {
    engine.spmv(x, y);
    benchmark::DoNotOptimize(&y);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_DistributedSpmv)->Arg(16)->Arg(64)->Arg(128);

void BM_DistributedAspmv(benchmark::State& state) {
  const CsrMatrix& a = test_matrix();
  const BlockRowPartition part(a.rows(), 64);
  SimCluster cluster(part);
  const SpmvPlan plan(a, part);
  const AspmvPlan aug(plan, static_cast<int>(state.range(0)));
  ExchangeEngine engine(a, plan, cluster);
  DistVector x(part, xp::make_rhs(a)), y(part);
  index_t tag = 0;
  for (auto _ : state) {
    RedundantCopy copy = engine.aspmv(aug, x, tag++, y);
    benchmark::DoNotOptimize(copy.total_entries());
  }
}
BENCHMARK(BM_DistributedAspmv)->Arg(1)->Arg(3)->Arg(8);

void BM_BlockJacobiApply(benchmark::State& state) {
  const CsrMatrix& a = test_matrix();
  const BlockJacobiPreconditioner precond(
      a, static_cast<index_t>(state.range(0)));
  const Vector r = xp::make_rhs(a);
  Vector z(r.size());
  for (auto _ : state) {
    precond.apply(r, z);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_BlockJacobiApply)->Arg(1)->Arg(10)->Arg(64);

/// The esrp-recover/imcr-recover problem: emilia_like 32^3 (32,768 rows).
const CsrMatrix& emilia32_matrix() {
  static const CsrMatrix a = emilia_like(32, 32, 32).matrix;
  return a;
}

/// Cold block-Jacobi factorization as a distributed prepare runs it:
/// 128 node-aligned ranges, blocks of at most 10 rows.
void BM_BlockJacobiBuild(benchmark::State& state) {
  const CsrMatrix& a = emilia32_matrix();
  const BlockRowPartition part(a.rows(), 128);
  for (auto _ : state) {
    const BlockJacobiPreconditioner precond(a, part, 10);
    benchmark::DoNotOptimize(precond.action_matrix());
  }
  state.SetItemsProcessed(state.iterations() * a.rows());
}
BENCHMARK(BM_BlockJacobiBuild)->Unit(benchmark::kMillisecond);

/// CooBuilder::to_csr on the triplet stream of an edge-based assembly of
/// emilia_like 32^3 (what the generator produces): per off-diagonal pair
/// two diagonal and two off-diagonal triplets, then a diagonal shift —
/// about two triplets per stored entry, many of them duplicates.
void BM_CooToCsr(benchmark::State& state) {
  const CsrMatrix& a = emilia32_matrix();
  CooBuilder b(a.rows(), a.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] <= i) continue;
      b.add(i, i, -vals[k]);
      b.add(cols[k], cols[k], -vals[k]);
      b.add(i, cols[k], vals[k]);
      b.add(cols[k], i, vals[k]);
    }
  }
  for (index_t i = 0; i < a.rows(); ++i) b.add(i, i, 1);
  for (auto _ : state) {
    const CsrMatrix m = b.to_csr();
    benchmark::DoNotOptimize(m.values().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(b.triplet_count()));
}
BENCHMARK(BM_CooToCsr)->Unit(benchmark::kMillisecond);

void BM_CheckpointStore(benchmark::State& state) {
  const CsrMatrix& a = test_matrix();
  const BlockRowPartition part(a.rows(), 64);
  SimCluster cluster(part);
  CheckpointStore store(part, static_cast<int>(state.range(0)), 4, 1);
  DistVector x(part, xp::make_rhs(a));
  real_t beta = 0.5;
  const SolverState st{{&x, &x, &x, &x}, {}, {&beta}};
  index_t tag = 0;
  for (auto _ : state) {
    store.store(tag++, st, cluster);
  }
}
BENCHMARK(BM_CheckpointStore)->Arg(1)->Arg(3)->Arg(8);

void BM_Reconstruction(benchmark::State& state) {
  const CsrMatrix& a = test_matrix();
  const auto psi = static_cast<rank_t>(state.range(0));
  const rank_t nodes = 64;
  const BlockRowPartition part(a.rows(), nodes);
  const BlockJacobiPreconditioner precond(a, part, 10);
  const Vector b = xp::make_rhs(a);

  // Consistent synthetic state (see tests/core/reconstruction_test.cpp).
  Vector x(b.size(), 0.25), r(b.size()), z(b.size()), p_prev(b.size(), 0.5);
  a.spmv(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  precond.apply(r, z);
  Vector p_cur(b.size());
  for (std::size_t i = 0; i < z.size(); ++i)
    p_cur[i] = z[i] + 0.37 * p_prev[i];

  const std::vector<rank_t> failed = contiguous_ranks(8, psi, nodes);
  // Each entry held psi+1 ranks past its owner: a block of psi failures
  // never takes an entry together with its copy.
  std::vector<IndexSet> held(static_cast<std::size_t>(nodes));
  std::vector<Vector> prev_values(held.size()), cur_values(held.size());
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto holder =
        static_cast<std::size_t>((part.owner(i) + psi + 1) % nodes);
    held[holder].push_back(i);
    prev_values[holder].push_back(p_prev[static_cast<std::size_t>(i)]);
    cur_values[holder].push_back(p_cur[static_cast<std::size_t>(i)]);
  }
  const auto layout = std::make_shared<const CopyLayout>(
      std::move(held),
      std::vector<std::size_t>(static_cast<std::size_t>(nodes), 0));
  const RedundantCopy prev(9, layout, std::move(prev_values));
  const RedundantCopy cur(10, layout, std::move(cur_values));
  DistVector x_star(part, x), r_star(part, r);

  for (auto _ : state) {
    SimCluster cluster(part);
    ReconstructionInputs in;
    in.a = &a;
    in.p_action = precond.action_matrix();
    in.part = &part;
    in.failed = failed;
    in.p_prev = &prev;
    in.p_cur = &cur;
    in.beta_prev = 0.37;
    in.x_star = &x_star;
    in.r_star = &r_star;
    in.b_global = b;
    const ReconstructionOutput out = reconstruct_state(in, cluster);
    benchmark::DoNotOptimize(out.x_f.data());
  }
}
BENCHMARK(BM_Reconstruction)->Arg(1)->Arg(3)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Amortized solve-only wall cost per iteration on 64 simulated nodes, no
/// failure. The variants share one problem so their ratios read directly:
/// esr_t1 / none is classic ESR's per-iteration overhead (redundancy capture
/// every iteration), esrp_t20 / none the periodic variant's. Ten solves per
/// variant: with three, esr_t1 / none read 1.27x in one run and 1.49x in the
/// next on the same code.
void BM_FullResilientIteration(benchmark::State& state, Strategy strategy,
                               index_t interval) {
  const CsrMatrix& a = test_matrix();
  const Vector b = xp::make_rhs(a);
  for (auto _ : state) {
    xp::RunConfig cfg;
    cfg.strategy = strategy;
    cfg.interval = interval;
    cfg.phi = 3;
    cfg.num_nodes = 64;
    const xp::RunOutcome out = xp::run_experiment(a, b, cfg);
    state.SetIterationTime(out.wall_seconds /
                           static_cast<double>(out.executed));
    benchmark::DoNotOptimize(out.modeled_time);
  }
  state.SetLabel("wall seconds per PCG iteration on 64 simulated nodes");
}
BENCHMARK_CAPTURE(BM_FullResilientIteration, none, Strategy::none, 20)
    ->UseManualTime()->Iterations(10)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullResilientIteration, esr_t1, Strategy::esrp, 1)
    ->UseManualTime()->Iterations(10)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullResilientIteration, esrp_t20, Strategy::esrp, 20)
    ->UseManualTime()->Iterations(10)->Unit(benchmark::kMillisecond);

// --- Facade dispatch overhead (api_redesign acceptance: the declarative
// SolveSpec -> esrp::solve path must cost < 1% over calling the solver
// directly — the spec is data, validation is O(fields), and the registries
// dispatch once per solve, so anything above noise would be a regression).

/// Matrix/rhs shared by the facade benches: large enough that a solve takes
/// milliseconds (dwarfing timer noise), small enough to iterate quickly.
const CsrMatrix& facade_matrix() {
  static const CsrMatrix a = poisson2d(64, 64);
  return a;
}

Vector run_direct_pcg(const CsrMatrix& a, const Vector& b) {
  const JacobiPreconditioner precond(a);
  Vector x(b.size(), 0);
  pcg_solve(a, b, x, &precond);
  return x;
}

SolveReport run_facade_pcg(const CsrMatrix& a, const Vector& b) {
  SolveSpec spec;
  spec.matrix_data = &a;
  spec.rhs = b;
  spec.solver = "pcg";
  spec.precond = "jacobi";
  return esrp::solve(spec);
}

void BM_DirectEndToEndSolve(benchmark::State& state) {
  const CsrMatrix& a = facade_matrix();
  const Vector b = xp::make_rhs(a);
  for (auto _ : state) {
    const Vector x = run_direct_pcg(a, b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_DirectEndToEndSolve)->Unit(benchmark::kMillisecond);

void BM_FacadeEndToEndSolve(benchmark::State& state) {
  const CsrMatrix& a = facade_matrix();
  const Vector b = xp::make_rhs(a);
  for (auto _ : state) {
    const SolveReport report = run_facade_pcg(a, b);
    benchmark::DoNotOptimize(report.x.data());
  }
}
BENCHMARK(BM_FacadeEndToEndSolve)->Unit(benchmark::kMillisecond);

void BM_FacadeOverheadAssert(benchmark::State& state) {
  // One-sided bound, stable on noisy shared runners: the facade's additive
  // per-solve work (spec validation, the matrix_data finiteness scan and
  // the three registry lookups — the dispatch layer; the solve itself and
  // the vectors are shared/moved) is
  // measured in a tight loop where microseconds resolve cleanly, then
  // compared against the *fastest observed* direct solve. Differencing two
  // full solve timings would put the quantity under test far below the
  // noise floor. run_benches.sh greps the log for the "ERROR OCCURRED"
  // marker SkipWithError leaves, so a regression fails the bench job.
  const CsrMatrix& a = facade_matrix();
  const Vector b = xp::make_rhs(a);
  SolveSpec spec;
  spec.matrix_data = &a;
  spec.rhs = b;
  spec.solver = "pcg";
  spec.precond = "jacobi";
  (void)run_direct_pcg(a, b); // warm caches

  double best_direct = 1e300;
  double per_dispatch = 0;
  for (auto _ : state) {
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer direct_timer;
      const Vector x = run_direct_pcg(a, b);
      benchmark::DoNotOptimize(x.data());
      best_direct = std::min(best_direct, direct_timer.seconds());
    }
    constexpr int kDispatchReps = 1000;
    WallTimer dispatch_timer;
    for (int rep = 0; rep < kDispatchReps; ++rep) {
      validate_spec(spec);
      check_finite_matrix(a); // esrp::solve checks a caller's matrix_data
      benchmark::DoNotOptimize(&solver_registry().get(spec.solver));
      benchmark::DoNotOptimize(&precond_registry().get(spec.precond));
    }
    per_dispatch = dispatch_timer.seconds() / kDispatchReps;
  }
  const double overhead = per_dispatch / best_direct;
  char label[96];
  std::snprintf(label, sizeof label,
                "dispatch %.2f us = %.4f%% of a %.2f ms solve",
                1e6 * per_dispatch, 100 * overhead, 1e3 * best_direct);
  state.SetLabel(label);
  if (overhead > 0.01)
    state.SkipWithError(label);
}
BENCHMARK(BM_FacadeOverheadAssert)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// --- Thread scaling (tentpole acceptance: spmv >= 2x at 4 threads on a
// >= 1M-nnz generator matrix, on hardware with >= 4 cores). Each variant
// pins the global thread count for its run and restores serial at the end,
// so the argument doubles as the reported x-axis.

// --- Kernel fusion (perf_opt acceptance: the fused multi-dot and the
// fused spmv+dot must not lose to their separate-kernel baselines at large
// n — they touch the same bytes in fewer sweeps). The paired benches report
// both sides for the perf trajectory; BM_FusedKernelAssert turns the
// comparison into a SUMMARY failure via the same SkipWithError channel as
// BM_FacadeOverheadAssert.

/// 4M-element operands: each dot streams 64 MB, far beyond LLC, so the
/// sweep count — not arithmetic — sets the runtime.
constexpr std::size_t kFusedDotLen = std::size_t{1} << 22;

const Vector& fused_bench_vector(int which) {
  static const Vector v[3] = {Vector(kFusedDotLen, 0.5),
                              Vector(kFusedDotLen, -0.25),
                              Vector(kFusedDotLen, 1.25)};
  return v[which];
}

void BM_Dot3Separate(benchmark::State& state) {
  set_num_threads(static_cast<int>(state.range(0)));
  const Vector& r = fused_bench_vector(0);
  const Vector& u = fused_bench_vector(1);
  const Vector& w = fused_bench_vector(2);
  real_t sink = 0;
  for (auto _ : state) {
    sink += vec_dot(r, u) + vec_dot(w, u) + vec_dot(r, r);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(3 * kFusedDotLen));
  set_num_threads(1);
}
BENCHMARK(BM_Dot3Separate)->Arg(1)->Arg(4)->UseRealTime();

void BM_Dot3Fused(benchmark::State& state) {
  set_num_threads(static_cast<int>(state.range(0)));
  const Vector& r = fused_bench_vector(0);
  const Vector& u = fused_bench_vector(1);
  const Vector& w = fused_bench_vector(2);
  real_t sink = 0;
  for (auto _ : state) {
    const auto [gamma, delta, rr] = vec_dot3(r, u, w, u, r, r);
    sink += gamma + delta + rr;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(3 * kFusedDotLen));
  set_num_threads(1);
}
BENCHMARK(BM_Dot3Fused)->Arg(1)->Arg(4)->UseRealTime();

void BM_SpmvThenDot(benchmark::State& state) {
  const CsrMatrix& a = scaling_matrix();
  set_num_threads(static_cast<int>(state.range(0)));
  const Vector p = xp::make_rhs(a);
  Vector y(p.size());
  real_t sink = 0;
  for (auto _ : state) {
    a.spmv(p, y);
    sink += vec_dot(p, y);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
  set_num_threads(1);
}
BENCHMARK(BM_SpmvThenDot)->Arg(1)->Arg(4)->UseRealTime();

void BM_SpmvDotFused(benchmark::State& state) {
  const CsrMatrix& a = scaling_matrix();
  set_num_threads(static_cast<int>(state.range(0)));
  const Vector p = xp::make_rhs(a);
  Vector y(p.size());
  real_t sink = 0;
  for (auto _ : state) {
    sink += a.spmv_dot(p, y);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
  set_num_threads(1);
}
BENCHMARK(BM_SpmvDotFused)->Arg(1)->Arg(4)->UseRealTime();

void BM_FusedKernelAssert(benchmark::State& state) {
  // Best-of-5 wall time for each side, compared with a noise margin: on a
  // quiet machine the fused multi-dot approaches a 3x sweep reduction, so
  // "not slower than 1.15x the separate sequence" fails only on a real
  // regression (e.g. a chunking change that serializes the fused path).
  const CsrMatrix& a = scaling_matrix();
  const Vector& r = fused_bench_vector(0);
  const Vector& u = fused_bench_vector(1);
  const Vector& w = fused_bench_vector(2);
  const Vector p = xp::make_rhs(a);
  Vector y(p.size());

  auto best_of = [](int reps, auto&& fn) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
      WallTimer t;
      fn();
      best = std::min(best, t.seconds());
    }
    return best;
  };

  real_t sink = 0;
  double dot_sep = 0, dot_fused = 0, spmv_sep = 0, spmv_fused = 0;
  for (auto _ : state) {
    dot_sep = best_of(5, [&] {
      sink += vec_dot(r, u) + vec_dot(w, u) + vec_dot(r, r);
    });
    dot_fused = best_of(5, [&] {
      const auto [g, d, n2] = vec_dot3(r, u, w, u, r, r);
      sink += g + d + n2;
    });
    spmv_sep = best_of(5, [&] {
      a.spmv(p, y);
      sink += vec_dot(p, y);
    });
    spmv_fused = best_of(5, [&] { sink += a.spmv_dot(p, y); });
    benchmark::DoNotOptimize(sink);
  }

  char label[128];
  std::snprintf(label, sizeof label,
                "dot3 fused/sep %.2f, spmv_dot fused/sep %.2f",
                dot_fused / dot_sep, spmv_fused / spmv_sep);
  state.SetLabel(label);
  if (dot_fused > 1.15 * dot_sep || spmv_fused > 1.15 * spmv_sep)
    state.SkipWithError(label);
}
BENCHMARK(BM_FusedKernelAssert)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SpmvThreadScaling(benchmark::State& state) {
  const CsrMatrix& a = scaling_matrix();
  set_num_threads(static_cast<int>(state.range(0)));
  const Vector rhs = xp::make_rhs(a);
  const FirstTouch x(rhs);
  FirstTouch y(rhs.size(), 0);
  for (auto _ : state) {
    a.spmv(x.span(), y.span());
    benchmark::DoNotOptimize(y.data.get());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(a.nnz() * (sizeof(real_t) + sizeof(index_t))));
  set_num_threads(1);
}
BENCHMARK(BM_SpmvThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- SELL-C-σ (perf_opt acceptance: at large n the chunked, lane-parallel
// SELL kernels must beat row-serial CSR on the same matrix while staying
// bitwise identical — the parity side is pinned by tests/sparse/sell_test;
// these benches plus BM_SellSpeedupAssert pin the speed side).

void BM_SpmvSellThreadScaling(benchmark::State& state) {
  const CsrMatrix& a = scaling_matrix();
  const SellMatrix& s = sell_scaling_matrix();
  set_num_threads(static_cast<int>(state.range(0)));
  const Vector rhs = xp::make_rhs(a);
  const FirstTouch x(rhs);
  FirstTouch y(rhs.size(), 0);
  for (auto _ : state) {
    s.spmv(x.span(), y.span());
    benchmark::DoNotOptimize(y.data.get());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
  // The actual matrix stream: padded values plus the run-compressed column
  // stream (one 32-bit base per position in packed chunks).
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(s.padded_entries() * sizeof(real_t) +
                           s.col_stream_entries() * sizeof(std::int32_t)));
  set_num_threads(1);
}
BENCHMARK(BM_SpmvSellThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SpmvDotSellFused(benchmark::State& state) {
  const SellMatrix& s = sell_scaling_matrix();
  set_num_threads(static_cast<int>(state.range(0)));
  const Vector rhs = xp::make_rhs(scaling_matrix());
  const FirstTouch p(rhs);
  FirstTouch y(rhs.size(), 0);
  real_t sink = 0;
  for (auto _ : state) {
    sink += s.spmv_dot(p.span(), y.span());
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * s.nnz());
  set_num_threads(1);
}
BENCHMARK(BM_SpmvDotSellFused)->Arg(1)->Arg(4)->UseRealTime();

void BM_SellSpeedupAssert(benchmark::State& state) {
  // Best-of-5 single-thread wall time, SELL vs CSR spmv on the 1.8M-nnz
  // stencil. The gate is deliberately below the typical measured win so it
  // only fires on a real regression (SELL falling behind CSR), not on
  // machine-to-machine bandwidth differences; the actual ratio lands in the
  // label and the BENCH_*.json trajectory.
  const CsrMatrix& a = scaling_matrix();
  const SellMatrix& s = sell_scaling_matrix();
  const Vector p = xp::make_rhs(a);
  Vector y(p.size());

  auto best_of = [](int reps, auto&& fn) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
      WallTimer t;
      fn();
      best = std::min(best, t.seconds());
    }
    return best;
  };

  double csr = 0, sell = 0;
  for (auto _ : state) {
    csr = best_of(5, [&] { a.spmv(p, y); });
    sell = best_of(5, [&] { s.spmv(p, y); });
    benchmark::DoNotOptimize(y.data());
  }
  char label[96];
  std::snprintf(label, sizeof label, "sell speedup %.2fx over csr spmv",
                csr / sell);
  state.SetLabel(label);
  if (sell > csr)
    state.SkipWithError(label);
}
BENCHMARK(BM_SellSpeedupAssert)->Iterations(1)->Unit(benchmark::kMillisecond);

/// DRAM-sized BLAS-1 operands: the old 262,144-element vectors (4 MB) fit
/// in many LLCs, so the 1-thread numbers flattered cache bandwidth and the
/// scaling curve under-reported the memory wall. 2^22 doubles = 32 MB per
/// operand streams from DRAM, and at kReduceGrain = 2^14 a dot still cuts
/// into 256 chunks — plenty to feed 8 threads.
constexpr std::size_t kBlas1Len = std::size_t{1} << 22;

void BM_DotThreadScaling(benchmark::State& state) {
  set_num_threads(static_cast<int>(state.range(0)));
  const FirstTouch x(kBlas1Len, 0.25);
  const FirstTouch y(kBlas1Len, 0.5);
  real_t sink = 0;
  for (auto _ : state) {
    sink += vec_dot(x.span(), y.span());
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBlas1Len));
  set_num_threads(1);
}
BENCHMARK(BM_DotThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_AxpyThreadScaling(benchmark::State& state) {
  set_num_threads(static_cast<int>(state.range(0)));
  const FirstTouch x(kBlas1Len, 0.25);
  FirstTouch y(kBlas1Len, 0.5);
  for (auto _ : state) {
    vec_axpy(y.span(), 1e-9, x.span());
    benchmark::DoNotOptimize(y.data.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBlas1Len));
  set_num_threads(1);
}
BENCHMARK(BM_AxpyThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

} // namespace
