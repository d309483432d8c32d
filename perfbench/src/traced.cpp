// The traced per-layer run (--trace 1). Separate from the timed runs, it
//
//  1. times each setup layer once more on the workload's matrix (generate,
//     SELL conversion, partition, SpMV/ASpMV plans, preconditioner factor)
//     and the service's cold and warm prepare;
//  2. runs one direct ResilientPcg solve on its own SimCluster with the
//     prepared partition, plans and preconditioner, and reads the exact
//     per-category communication totals from SimCluster::ledger();
//  3. alternates untraced and traced service requests, the traced ones
//     recording spans around prepare/solve plus one span per iteration and
//     recovery from the SolverObserver callbacks; the median difference is
//     the tracing overhead;
//  4. times direct calls into each layer (kernels, ExchangeEngine,
//     RedundantCopy, CheckpointStore, reconstruct_state) on the prepared
//     partition, plans and preconditioner, and attributes the solve's wall
//     time to them: share = calls per solve x per-call time / solve wall.
//     The calls per solve come from the program: the direct solve's ledger
//     totals divided by the ledger entries one probed call makes, the
//     recovery records, and the observer's loop passes.
//
// Per-call probe times are properties of the matrix and are measured on
// every workload; whether a workload exercises a layer shows in its call
// counts, bytes, messages and shares, which read zero where it does not.
#include <algorithm>
#include <array>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>

#include "api/registry.hpp"
#include "bench.hpp"
#include "comm/aspmv_plan.hpp"
#include "comm/exchange.hpp"
#include "comm/spmv_plan.hpp"
#include "common/error.hpp"
#include "common/fused.hpp"
#include "core/reconstruction.hpp"
#include "core/resilient_pcg.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "partition/partition.hpp"
#include "resilience/checkpoint_store.hpp"
#include "service/problem_handle.hpp"
#include "sparse/sell.hpp"
#include "xp/experiment.hpp"

namespace perfbench {
namespace {

/// Probe repetitions stop after this much time (at least kMinReps calls).
constexpr double kProbeBudgetS = 0.15;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 40;
/// Traced and untraced requests each, even when one outlasts --seconds.
constexpr int kMinTracedRequests = 2;

/// Median per-call seconds of `fn`, one span per call. The first call is a
/// warm-up and is not counted. `cycle` runs untimed before every call: one
/// pass over a solve iteration's data (matrix, preconditioner, vectors), so
/// each call meets the cache state it has inside a solve — hot when that
/// data fits the cache, streamed from memory when it does not — instead of
/// whatever the previous repetition left behind.
double probe(Tracer& tr, const std::string& name, const std::function<void()>& fn,
             const std::function<void()>& cycle = {}) {
  fn();
  std::vector<double> t;
  double total = 0;
  while (static_cast<int>(t.size()) < kMinReps ||
         (total < kProbeBudgetS && static_cast<int>(t.size()) < kMaxReps)) {
    if (cycle) cycle();
    Scope s(&tr, name);
    const auto t0 = SolveClock::clock::now();
    fn();
    t.push_back(seconds_between(t0, SolveClock::clock::now()));
    total += t.back();
  }
  return median(t);
}

esrp::SolveSpec full_spec(const Workload& w) {
  esrp::SolveSpec spec;
  static_cast<esrp::ProblemSpec&>(spec) = w.problem;
  static_cast<esrp::SolverConfig&>(spec) = w.config;
  return spec;
}

double csr_bytes(const esrp::CsrMatrix& m) {
  return static_cast<double>(m.nnz()) * (sizeof(index_t) + sizeof(real_t)) +
         static_cast<double>(m.rows() + 1) * sizeof(index_t);
}

/// Bytes one SpMV streams, computed from the stored format: matrix plus
/// x and y.
double spmv_bytes(const esrp::CsrMatrix& a) {
  const double vecs = 2.0 * static_cast<double>(a.rows()) * sizeof(real_t);
  if (const esrp::SellMatrix* s = a.sell())
    return static_cast<double>(s->padded_entries()) * sizeof(real_t) +
           static_cast<double>(s->col_stream_entries()) * 4 + vecs;
  return csr_bytes(a) + vecs;
}

std::uint64_t messages(const esrp::CommLedger& l, esrp::CommCategory c) {
  return l.totals(c).messages;
}

/// Ledger messages one call adds, per category: the call's footprint,
/// against which a solve's ledger totals count its calls.
struct Footprint {
  double spmv_halo = 0, aspmv_extra = 0, checkpoint = 0;
};

Footprint footprint(const esrp::SimCluster& cluster, const std::function<void()>& call) {
  const esrp::CommLedger before = cluster.ledger();
  call();
  const esrp::CommLedger& after = cluster.ledger();
  auto delta = [&](esrp::CommCategory c) {
    return static_cast<double>(messages(after, c) - messages(before, c));
  };
  return {delta(esrp::CommCategory::spmv_halo),
          delta(esrp::CommCategory::aspmv_extra),
          delta(esrp::CommCategory::checkpoint)};
}

double ratio(double total, double per_call) {
  return per_call > 0 ? total / per_call : 0;
}

} // namespace

int run_traced(const Options& opt, const Workload& w) {
  Tracer tr;
  Metrics m;
  auto put = [&](const std::string& name, double v, const std::string& unit) {
    m.push_back({name, Metric{v, unit}});
  };
  long attempted = 0, failed = 0;
  esrp::SolveService svc;

  // --- 1. setup layers -------------------------------------------------
  std::vector<double> miss, hit;
  esrp::PrepareResult prepared;
  for (int k = 0; k < 3; ++k) {
    svc.clear_cache();
    Scope s(&tr, "service.prepare_miss");
    const auto t0 = SolveClock::clock::now();
    prepared = svc.prepare(w.problem, w.config);
    miss.push_back(seconds_between(t0, SolveClock::clock::now()));
  }
  for (int k = 0; k < 5; ++k) {
    Scope s(&tr, "service.prepare_hit");
    const auto t0 = SolveClock::clock::now();
    ESRP_CHECK(svc.prepare(w.problem, w.config).cache_hit);
    hit.push_back(seconds_between(t0, SolveClock::clock::now()));
  }
  const esrp::ProblemHandle& handle = *prepared.handle;
  const esrp::CsrMatrix& a = handle.matrix();
  const esrp::SolveSpec spec = full_spec(w);
  const std::string base_key = w.problem.matrix.substr(0, w.problem.matrix.find(';'));
  const esrp::PrecondEntry& pe = esrp::precond_registry().get(w.problem.precond);

  // The layer probes run on the handle's partition, plans and
  // preconditioner. service-seq's handle has none, so it gets its own on
  // the distributed workloads' cluster shape.
  const int phi = handle.distributed() ? w.config.phi : kClusterPhi;
  std::unique_ptr<esrp::BlockRowPartition> own_part;
  std::unique_ptr<esrp::SpmvPlan> own_plan;
  std::unique_ptr<esrp::AspmvPlan> own_aug;
  std::unique_ptr<esrp::Preconditioner> own_pre;
  esrp::PreparedParts parts = handle.parts();
  if (!handle.distributed()) {
    own_part = std::make_unique<esrp::BlockRowPartition>(a.rows(), kClusterNodes);
    own_plan = std::make_unique<esrp::SpmvPlan>(a, *own_part);
    own_aug = std::make_unique<esrp::AspmvPlan>(*own_plan, phi);
    own_pre = pe.make(esrp::PrecondContext{a, own_part.get(), spec});
    parts = {own_part.get(), own_plan.get(), own_aug.get(), own_pre.get()};
  }
  const esrp::BlockRowPartition& part = *parts.part;
  const esrp::rank_t nodes = part.num_nodes();

  const double generate_s = probe(tr, "sparse.generate", [&] {
    esrp::TestProblem p = esrp::resolve_matrix(base_key);
  });
  const double sell_s = probe(tr, "sparse.sell_convert", [&] {
    const esrp::SellMatrix s(a);
  });
  const double partition_s = probe(tr, "partition.build", [&] {
    const esrp::BlockRowPartition p(a.rows(), nodes);
  });
  const double plan_s = probe(tr, "comm.plan", [&] {
    const esrp::SpmvPlan plan(a, part);
    const esrp::AspmvPlan aug(plan, phi);
  });
  // Factorized as the handle was: partition-aligned when distributed.
  const esrp::BlockRowPartition* factor_part =
      handle.distributed() ? handle.parts().part : nullptr;
  const double factor_s = probe(tr, "precond.factor", [&] {
    auto p = pe.make(esrp::PrecondContext{a, factor_part, spec});
  });

  // --- 2. exact communication totals from a direct solve ----------------
  const RunInputs inputs = make_inputs(w, a.rows(), opt.seed);
  esrp::CommLedger ledger;
  double direct_modeled = 0;
  esrp::Vector direct_x;
  if (handle.distributed()) {
    Scope s(&tr, "direct.resilient_pcg");
    esrp::SimCluster cluster(part, esrp::xp::calibrated_cost(a, nodes));
    esrp::ResilienceOptions ro;
    ro.strategy = w.config.strategy;
    ro.interval = w.config.interval;
    ro.phi = w.config.phi;
    ro.rtol = w.config.rtol;
    ro.extra_failures = inputs.failures;
    esrp::ResilientPcg solver(a, handle.precond(), cluster, ro, parts.spmv,
                              parts.aspmv);
    esrp::ResilientSolveResult res = solver.solve(inputs.rhs);
    ledger = cluster.ledger();
    direct_modeled = res.modeled_time;
    direct_x = std::move(res.x);
  }

  // --- 3. untraced and traced requests -----------------------------------
  std::vector<double> untraced, traced, init, iter, dispatch, recov;
  esrp::SolveReport last_report;
  std::size_t last_passes = 0;
  Expected first;
  bool have_first = false;
  const auto start = SolveClock::clock::now();
  for (std::int64_t req = 0;
       static_cast<int>(traced.size()) < kMinTracedRequests ||
       seconds_between(start, SolveClock::clock::now()) < opt.seconds;
       ++req) {
    const bool tracing = req % 2 == 1;
    const esrp::RunSpec run = make_run(inputs);
    SolveClock clock(tracing ? &tr : nullptr);
    Tracer* t = tracing ? &tr : nullptr;
    tr.set_request(tracing ? req : -1);
    esrp::SolveReport report;
    const auto t0 = SolveClock::clock::now();
    SolveClock::clock::time_point t_solve, t_end;
    {
      Scope request(t, "request");
      esrp::PrepareResult h;
      {
        Scope s(t, "service.prepare_hit");
        h = svc.prepare(w.problem, w.config);
      }
      Scope s(t, "service.solve");
      t_solve = SolveClock::clock::now();
      report = svc.solve(*h.handle, run, &clock);
      t_end = SolveClock::clock::now();
    }
    const double wall = seconds_between(t0, SolveClock::clock::now());
    tr.set_request(-1);
    if (!have_first) {
      first = expected_of(report);
      have_first = true;
    }
    ++attempted;
    failed += check_report(w, report, first, first, a, inputs.rhs);
    if (!tracing) {
      untraced.push_back(wall);
      continue;
    }
    traced.push_back(wall);
    const double span = seconds_between(clock.first, clock.last);
    init.push_back(seconds_between(t_solve, clock.first));
    iter.push_back(span / std::max<double>(1, static_cast<double>(clock.calls) - 1));
    dispatch.push_back(seconds_between(t_solve, t_end) - span);
    recov.push_back(clock.recovery_seconds / wall);
    last_report = std::move(report);
    last_passes = clock.calls - 1;
  }
  if (handle.distributed() &&
      (direct_x != first.x || direct_modeled != first.modeled_time)) {
    ++failed;
    std::cerr << "check failed [" << w.name
              << "]: direct ResilientPcg solve differs from the service solve\n";
  }
  const double solve_wall = median(traced);

  // --- 4. per-call probes on the prepared partition ----------------------
  const std::size_t n = static_cast<std::size_t>(a.rows());
  esrp::Vector x(n), y(n), z(n), r(n), cy(n), cz(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = inputs.rhs[i];
    r[i] = 0.5 * inputs.rhs[(i * 7) % n];
  }
  const auto cycle = [&] {
    a.spmv(r, cy);
    handle.precond().apply(x, cz);
  };
  const double spmv_s = probe(tr, "sparse.spmv", [&] { a.spmv(x, y); }, cycle);
  const double apply_s =
      probe(tr, "precond.apply", [&] { handle.precond().apply(r, z); }, cycle);
  real_t sink = 0;
  const double dot2_s = probe(tr, "common.dot2", [&] {
    sink += esrp::vec_dot2(x, y, r, z).first;
  }, cycle);
  const double axpy2_s = probe(tr, "common.fused_axpy2", [&] {
    esrp::fused_axpy2(y, 1e-3, x, z, -1e-3, r);
  }, cycle);

  const esrp::AspmvPlan& aug = *parts.aspmv;
  esrp::SimCluster cluster(part, esrp::xp::calibrated_cost(a, nodes));
  esrp::ExchangeEngine engine(a, *parts.spmv, cluster);
  esrp::DistVector dx(part, x), dr(part, r), dz(part, z), dp(part, x), dy(part);
  const Footprint per_spmv = footprint(cluster, [&] { engine.spmv(dp, dy); });
  const double xspmv_s =
      probe(tr, "comm.exchange_spmv", [&] { engine.spmv(dp, dy); }, cycle);
  esrp::RedundantCopy prev;
  const Footprint per_aspmv =
      footprint(cluster, [&] { prev = engine.aspmv(aug, dp, 0, dy); });
  esrp::RedundantCopy cur;
  const double aspmv_s =
      probe(tr, "comm.exchange_aspmv", [&] { cur = engine.aspmv(aug, dp, 1, dy); }, cycle);
  const double verify_s =
      probe(tr, "comm.copy_verify", [&] { sink += cur.verify({}) ? 1 : 0; }, cycle);

  real_t beta = 0.25;
  const esrp::SolverState state{{&dx, &dr, &dz, &dp}, {}, {&beta}};
  esrp::CheckpointStore store(part, phi, 4, 1);
  const Footprint per_store = footprint(cluster, [&] { store.store(20, state, cluster); });
  const double store_s =
      probe(tr, "resilience.checkpoint_store", [&] { store.store(20, state, cluster); }, cycle);
  const double ckverify_s =
      probe(tr, "resilience.checkpoint_verify", [&] { sink += store.verify() ? 1 : 0; }, cycle);
  const std::vector<esrp::rank_t> lost = esrp::contiguous_ranks(nodes / 2, phi, nodes);
  const double restore_s = probe(tr, "resilience.checkpoint_restore", [&] {
    ESRP_CHECK(store.restore(lost, state, cluster));
  }, cycle);
  esrp::ReconstructionInputs in;
  in.a = &a;
  in.p_action = parts.precond->action_matrix();
  in.part = &part;
  in.failed = lost;
  in.p_prev = &prev;
  in.p_cur = &cur;
  in.beta_prev = beta;
  in.x_star = &dx;
  in.r_star = &dr;
  in.b_global = inputs.rhs;
  const double reconstruct_s = probe(tr, "core.reconstruct", [&] {
    ESRP_CHECK(esrp::reconstruct_state(in, cluster).ok);
  }, cycle);
  if (!(sink == sink)) return 1; // keeps the probed results observable

  // --- attribution --------------------------------------------------------
  // Calls per solve. Exchange and checkpoint calls: the direct solve's
  // ledger totals over one call's footprint (an ASpMV also sends the SpMV
  // halo). Recovery calls: the recovery records. Kernels: one call per
  // loop pass, the observer's on_iteration calls but the converging check.
  // A distributed solve's SpMV runs inside the exchange calls, so
  // sparse.spmv is attributed on service-seq only.
  const double aspmv_calls =
      ratio(static_cast<double>(messages(ledger, esrp::CommCategory::aspmv_extra)),
            per_aspmv.aspmv_extra);
  const double spmv_calls =
      ratio(static_cast<double>(messages(ledger, esrp::CommCategory::spmv_halo)) -
                aspmv_calls * per_aspmv.spmv_halo,
            per_spmv.spmv_halo);
  const double store_calls =
      ratio(static_cast<double>(messages(ledger, esrp::CommCategory::checkpoint)),
            per_store.checkpoint);
  double verify_calls = 0, restore_calls = 0, reconstruct_calls = 0;
  for (const esrp::RecoveryRecord& rec : last_report.recoveries) {
    verify_calls += static_cast<double>(rec.copies_verified);
    restore_calls += rec.rung == esrp::RecoveryRung::checkpoint ? 1 : 0;
    reconstruct_calls += rec.rung == esrp::RecoveryRung::reconstruct ? 1 : 0;
  }
  const double passes = static_cast<double>(last_passes);
  const std::array<std::pair<const char*, double>, 10> shares = {{
      {"share.sparse_spmv", handle.distributed() ? 0 : passes * spmv_s},
      {"share.precond_apply", passes * apply_s},
      {"share.common_dot2", passes * dot2_s},
      {"share.common_fused_axpy2", passes * axpy2_s},
      {"share.comm_spmv", spmv_calls * xspmv_s},
      {"share.comm_aspmv", aspmv_calls * aspmv_s},
      {"share.comm_copy_verify", verify_calls * verify_s},
      {"share.resilience_checkpoint_store", store_calls * store_s},
      {"share.resilience_checkpoint_restore", restore_calls * restore_s},
      {"share.core_reconstruct", reconstruct_calls * reconstruct_s},
  }};

  const esrp::PlanCache::Stats cs = svc.cache_stats();
  put("sparse.generate_s", generate_s, "s");
  put("sparse.sell_convert_s", sell_s, "s");
  put("partition.build_s", partition_s, "s");
  put("comm.plan_s", plan_s, "s");
  put("precond.factor_s", factor_s, "s");
  put("service.prepare_miss_s", median(miss), "s");
  put("service.prepare_hit_s", median(hit), "s");
  put("service.dispatch_s", median(dispatch), "s");
  put("service.cache_hits", static_cast<double>(cs.hits), "count");
  put("service.cache_misses", static_cast<double>(cs.misses), "count");
  put("solver.init_s", median(init), "s");
  put("solver.iter_ms", 1e3 * median(iter), "ms");
  put("comm.exchange_spmv_ms", 1e3 * xspmv_s, "ms");
  put("comm.exchange_aspmv_ms", 1e3 * aspmv_s, "ms");
  put("comm.copy_verify_ms", 1e3 * verify_s, "ms");
  for (esrp::CommCategory cat :
       {esrp::CommCategory::spmv_halo, esrp::CommCategory::aspmv_extra,
        esrp::CommCategory::checkpoint, esrp::CommCategory::recovery,
        esrp::CommCategory::allreduce}) {
    const std::string n = "comm." + esrp::to_string(cat);
    put(n + "_bytes", static_cast<double>(ledger.totals(cat).bytes), "bytes");
    put(n + "_messages", static_cast<double>(ledger.totals(cat).messages), "count");
  }
  // Modeled time is the cost model's deterministic output, not a host
  // measurement, hence its own unit.
  put("netsim.modeled_s", first.modeled_time, "model-s");
  put("core.reconstruct_ms", 1e3 * reconstruct_s, "ms");
  index_t inner_p = 0, inner_a = 0, verified = 0, scratch = 0;
  for (const esrp::RecoveryRecord& rec : last_report.recoveries) {
    inner_p += rec.inner_iterations_precond;
    inner_a += rec.inner_iterations_matrix;
    verified += rec.copies_verified;
    scratch += rec.restarted_from_scratch ? 1 : 0;
  }
  put("resilience.inner_iterations_precond", static_cast<double>(inner_p), "count");
  put("resilience.inner_iterations_matrix", static_cast<double>(inner_a), "count");
  put("resilience.copies_verified", static_cast<double>(verified), "count");
  put("resilience.checkpoint_store_ms", 1e3 * store_s, "ms");
  put("resilience.checkpoint_verify_ms", 1e3 * ckverify_s, "ms");
  put("resilience.checkpoint_restore_ms", 1e3 * restore_s, "ms");
  put("resilience.wasted_iterations",
      static_cast<double>(last_report.wasted_iterations()), "count");
  put("resilience.scratch_restarts", static_cast<double>(scratch), "count");
  put("resilience.recovery_pct", 100 * median(recov), "%");
  put("sparse.spmv_ms", 1e3 * spmv_s, "ms");
  put("sparse.spmv_gbs", spmv_bytes(a) / spmv_s / 1e9, "GB/s");
  put("precond.apply_ms", 1e3 * apply_s, "ms");
  const esrp::CsrMatrix* act = handle.precond().action_matrix();
  put("precond.apply_gbs",
      ((act != nullptr ? csr_bytes(*act) : 0.0) +
       2.0 * static_cast<double>(a.rows()) * sizeof(real_t)) / apply_s / 1e9,
      "GB/s");
  put("common.dot2_ms", 1e3 * dot2_s, "ms");
  put("common.fused_axpy2_ms", 1e3 * axpy2_s, "ms");
  double attributed = 0;
  for (const auto& [name, seconds] : shares) {
    put(name, 100 * seconds / solve_wall, "%");
    attributed += seconds;
  }
  put("share.unattributed", 100 * (1 - attributed / solve_wall), "%");
  put("trace.overhead_pct", 100 * (solve_wall / median(untraced) - 1), "%");

  // --- outputs: span file and per-layer table ---------------------------
  if (!opt.trace_out.empty()) {
    tr.write_chrome_json(opt.trace_out);
    std::ofstream table(opt.trace_out + ".table.txt");
    table << "# " << w.name << " seed " << opt.seed << ": per-layer metrics\n";
    for (const auto& [name, metric] : m)
      table << std::left << std::setw(40) << name << std::right << std::setw(18)
            << metric.value << "  " << metric.unit << '\n';
    table << "# span self time (duration minus children)\n";
    for (const auto& [name, st] : tr.self_seconds())
      table << std::left << std::setw(40) << name << std::right << std::setw(18)
            << st.first << "  s over " << st.second << " spans\n";
    std::cerr << "per-layer table: " << opt.trace_out << ".table.txt\n";
  }

  std::ostringstream ctx;
  ctx << "{" << context_fields(w, handle) << ", \"seed\": " << opt.seed
      << ", \"traced_samples\": " << traced.size()
      << ", \"untraced_samples\": " << untraced.size()
      << ", \"untraced_solve_s\": " << json_num(median(untraced))
      << ", \"traced_solve_s\": " << json_num(solve_wall)
      << ", \"spans\": " << tr.spans().size() << "}";
  print_result(ctx.str(), failed == 0, attempted, failed, m);
  return 0;
}

} // namespace perfbench
