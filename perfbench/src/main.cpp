// The repository benchmark program. One process runs one workload:
//
//   esrp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <span file>]
//   esrp_perfbench --triad          (memory-bandwidth probe, prints GB/s)
//
// --trace 0 is the timed end-to-end run: a closed loop with one client
// issuing SolveService prepare (a cache hit) + solve requests at one kernel
// thread. --trace 1 is the separate traced run of traced.cpp. perfbench/run.py
// builds this program and wraps it with the run context.
#include <algorithm>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/solve.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "parallel/parallel.hpp"
#include "service/problem_handle.hpp"

namespace perfbench {
namespace {

/// Cold prepares per run, at least; setup_s is their median.
constexpr int kColdPrepares = 9;
/// Share of the measured time given to cold prepares. They are spread
/// between the timed requests rather than run as one block: the host's
/// memory bandwidth shifts on a scale of about a second, and one block
/// sampled a single phase of it (per-run setup medians then split into two
/// modes 35% apart on a 4-vCPU KVM guest).
constexpr double kSetupShare = 0.15;
/// Timed requests per run even when one request outlasts --seconds.
constexpr int kMinRequests = 3;

/// STREAM triad a = b + s c over three 64 MiB arrays, well above the
/// ~8-32 MiB per-array cliff where single-thread bandwidth halves on a
/// 4-vCPU KVM Xeon guest. Prints the median of five passes in GB/s.
int run_triad() {
  const std::size_t n = std::size_t{8} << 20;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  std::vector<double> rates;
  for (int pass = 0; pass < 6; ++pass) {
    const auto t0 = SolveClock::clock::now();
    const double s = 0.5 + pass;
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = seconds_between(t0, SolveClock::clock::now());
    if (pass > 0) rates.push_back(3.0 * sizeof(double) * static_cast<double>(n) / dt / 1e9);
  }
  if (a[n / 2] != 1.0 + 5.5 * 2.0) return 1;
  std::cout << json_num(median(rates)) << '\n';
  return 0;
}

} // namespace

int run_timed(const Options& opt, const Workload& w) {
  esrp::SolveService svc;

  // One cold prepare: the previous handle is dropped first, so the peak RSS
  // never holds two, and the new one serves the warm requests that follow.
  std::vector<double> setup;
  esrp::PrepareResult prepared;
  auto cold_prepare = [&] {
    prepared = {};
    svc.clear_cache();
    const auto t0 = SolveClock::clock::now();
    prepared = svc.prepare(w.problem, w.config);
    setup.push_back(seconds_between(t0, SolveClock::clock::now()));
    ESRP_CHECK(!prepared.cache_hit);
  };
  cold_prepare();
  const index_t rows = prepared.handle->matrix().rows();
  const RunInputs inputs = make_inputs(w, rows, opt.seed);

  long attempted = 0, failed = 0;

  // Untimed warm-up request; it is also the run's first request, which
  // every later one must reproduce bitwise.
  const esrp::SolveReport warm = svc.solve(*prepared.handle, make_run(inputs));
  const Expected first = expected_of(warm);
  // The peak of one prepare and one solve. Read now: the cold prepares below
  // churn the heap, and the reference solve builds its own copy of the
  // problem, neither of which a serving process does.
  const double rss = peak_rss_mb();

  std::vector<double> solve, recovery;
  double setup_spent = 0, solve_spent = 0;
  const auto start = SolveClock::clock::now();
  while (static_cast<int>(solve.size()) < kMinRequests ||
         static_cast<int>(setup.size()) < kColdPrepares ||
         seconds_between(start, SolveClock::clock::now()) < opt.seconds) {
    while (setup_spent < kSetupShare * (setup_spent + solve_spent)) {
      cold_prepare();
      setup_spent += setup.back();
    }
    const esrp::RunSpec run = make_run(inputs);
    SolveClock clock;
    const auto t0 = SolveClock::clock::now();
    const esrp::PrepareResult hit = svc.prepare(w.problem, w.config);
    const esrp::SolveReport report = svc.solve(*hit.handle, run, &clock);
    solve.push_back(seconds_between(t0, SolveClock::clock::now()));
    solve_spent += solve.back();
    recovery.push_back(clock.recovery_seconds);
    ++attempted;
    if (!hit.cache_hit) {
      ++failed;
      std::cerr << "check failed [" << w.name << "]: prepare missed the cache\n";
    }
    failed += check_report(w, report, first, first, hit.handle->matrix(), inputs.rhs);
  }
  const esrp::ProblemHandle& handle = *prepared.handle;

  // Untimed failure-free strategy-none reference with the same rhs. The
  // timed requests reproduce the warm-up bitwise, so checking the warm-up
  // against it checks them all.
  Expected reference = first;
  ++attempted;
  if (handle.distributed()) {
    const esrp::SolveSpec ref_spec = reference_spec(w, inputs);
    ESRP_CHECK(ref_spec.strategy == esrp::Strategy::none && ref_spec.failures.empty());
    const esrp::SolveReport ref = esrp::solve(ref_spec);
    reference = expected_of(ref);
    // ESR, ESRP and IMCR all add communication to the cost model, so a
    // reference that really ran without a strategy is modeled faster.
    if (!ref.converged || !ref.recoveries.empty() ||
        !(ref.modeled_time < first.modeled_time)) {
      ++failed;
      std::cerr << "check failed [" << w.name << "]: the reference did not run "
                << "failure-free with strategy none (modeled "
                << ref.modeled_time << " s vs " << first.modeled_time << " s)\n";
    }
  }
  failed += check_report(w, warm, first, reference, handle.matrix(), inputs.rhs);

  std::ostringstream ctx;
  ctx << "{" << context_fields(w, handle) << ", \"seed\": " << opt.seed
      << ", \"setup_samples\": " << setup.size()
      << ", \"solve_samples\": " << solve.size()
      << ", \"solve_min_s\": " << json_num(*std::min_element(solve.begin(), solve.end()))
      << ", \"solve_max_s\": " << json_num(*std::max_element(solve.begin(), solve.end()))
      << ", \"recovery_s\": " << json_num(median(recovery))
      << ", \"modeled_s\": " << json_num(first.modeled_time)
      << ", \"recoveries_per_solve\": " << warm.recoveries.size() << "}";
  const Metrics metrics = {
      {"setup_s", {median(setup), "s"}},
      {"solve_s", {median(solve), "s"}},
      {"iterations", {static_cast<double>(first.iterations), "count"}},
      {"executed_iterations", {static_cast<double>(first.executed_iterations), "count"}},
      {"peak_rss_mb", {rss, "MiB"}},
  };
  print_result(ctx.str(), failed == 0, attempted, failed, metrics);
  return 0;
}

} // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool triad = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (arg == "--trace-out") opt.trace_out = value();
      else if (arg == "--triad") triad = true;
      else throw std::runtime_error("unknown argument " + arg);
    }
    if (triad) return run_triad();
    if (!(opt.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
    // Kernel threads pinned to one: a second thread roughly doubles the
    // process-to-process spread on a bandwidth-bound 4-vCPU KVM guest.
    esrp::set_num_threads(1);
    const Workload w = find_workload(opt.workload);
    return opt.trace ? run_traced(opt, w) : run_timed(opt, w);
  } catch (const std::exception& e) {
    std::cerr << "esrp_perfbench: " << e.what() << '\n';
    return 1;
  }
}
