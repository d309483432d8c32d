// Shared pieces of the repository benchmark: the workload table, the
// seed-derived run inputs, the output checks, small statistics helpers, the
// in-memory span recorder of the traced run, and the JSON emitters.
//
// The benchmark only calls public library APIs. The timed run drives one
// closed-loop client through SolveService (prepare -> solve); the traced run
// (traced.cpp) additionally times direct calls into each layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/solve_spec.hpp"
#include "service/solve_service.hpp"

namespace perfbench {

using esrp::index_t;
using esrp::real_t;

/// Cluster shape of the distributed workloads. The traced run's layer
/// probes use it for service-seq too, which has no cluster of its own.
constexpr esrp::rank_t kClusterNodes = 128;
constexpr int kClusterPhi = 3;

/// One benchmark workload. The seed sets only the rhs values and which
/// ranks fail; the matrix, the failure iterations and the amount of work
/// are fixed here.
struct Workload {
  std::string name;
  esrp::ProblemSpec problem;
  esrp::SolverConfig config;
  /// Iterations at which a failure event fires (empty: failure-free).
  std::vector<index_t> failure_iterations;
  /// Contiguous ranks lost per event.
  int failure_width = 0;
  /// The strategy-none solve must return a bitwise-identical x.
  bool bitwise_vs_reference = false;
  /// The recovery rung every event must resolve through (none: no events).
  esrp::RecoveryRung expected_rung = esrp::RecoveryRung::none;
};

/// Looks the workload up by name; throws std::runtime_error when unknown.
Workload find_workload(const std::string& name);

/// The rhs and failure schedule a seed selects for `w` on `rows` rows.
struct RunInputs {
  esrp::Vector rhs;
  std::vector<esrp::FailureEvent> failures;
};
RunInputs make_inputs(const Workload& w, index_t rows, std::uint64_t seed);

/// A RunSpec for one request: owned copy of the rhs, the failure schedule,
/// and one kernel thread.
esrp::RunSpec make_run(const RunInputs& in);

/// The untimed reference solve: same problem, solver and rhs, strategy
/// none, no failures, one kernel thread. It runs through the esrp::solve
/// facade, outside any plan cache: a cached handle keeps the strategy it
/// was prepared with, since the cache key leaves the strategy out.
esrp::SolveSpec reference_spec(const Workload& w, const RunInputs& in);

/// The report fields every request of one run must reproduce exactly.
struct Expected {
  esrp::Vector x;
  index_t iterations = 0;
  index_t executed_iterations = 0;
  double modeled_time = 0;
};
Expected expected_of(const esrp::SolveReport& r);

/// Output checks of one request; returns the number of failed checks and
/// describes each failure on stderr. `first` is the run's first request
/// (x, counts and modeled time must repeat bitwise); `reference` is the
/// untimed strategy-none solve.
int check_report(const Workload& w, const esrp::SolveReport& report,
                 const Expected& first, const Expected& reference,
                 const esrp::CsrMatrix& a, std::span<const real_t> b);

/// Observer recording the host-time landmarks of one solve: first and last
/// on_iteration, and the on_failure -> on_recovery windows. With a tracer
/// attached it also records one span per iteration and per recovery.
class Tracer;
class SolveClock final : public esrp::SolverObserver {
public:
  using clock = std::chrono::steady_clock;
  explicit SolveClock(Tracer* tracer = nullptr) : tracer_(tracer) {}
  void on_iteration(index_t iteration, real_t relres) override;
  void on_failure(const esrp::FailureEvent& event) override;
  void on_recovery(const esrp::RecoveryRecord& record) override;

  clock::time_point first{}, last{};
  std::size_t calls = 0; ///< on_iteration calls
  double recovery_seconds = 0;

private:
  Tracer* tracer_;
  clock::time_point failed_at_{};
  std::size_t open_span_ = 0;
};

/// In-memory spans (name, start, end, parent, request id), written out as
/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
class Tracer {
public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0, end_ns = -1;
    std::int64_t parent = -1; ///< index of the enclosing span, -1 at top
    std::int64_t request = -1;
  };
  std::size_t open(std::string name);
  void close(std::size_t id);
  /// Request id stamped on spans opened from now on.
  void set_request(std::int64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }
  void write_chrome_json(const std::string& path) const;
  /// Self time per span name: duration minus the time its children cover.
  std::map<std::string, std::pair<double, std::size_t>> self_seconds() const;

private:
  static std::int64_t now_ns();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::int64_t request_ = -1;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer* t, std::string name) : t_(t) {
    if (t_ != nullptr) id_ = t_->open(std::move(name));
  }
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer* t_;
  std::size_t id_ = 0;
};

double median(std::vector<double> v);
double seconds_between(SolveClock::clock::time_point a,
                       SolveClock::clock::time_point b);

/// Peak resident set of this process [MiB] (getrusage ru_maxrss).
double peak_rss_mb();

/// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// Prints the run-context line, then the result line the benchmark contract
/// requires as the last line of stdout.
void print_result(const std::string& context_json, bool correct,
                  long attempted, long failed, const Metrics& metrics);

/// JSON string escaping for the small set of strings the benchmark emits.
std::string json_str(const std::string& s);
std::string json_num(double v);

/// Command-line options of one benchmark process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out; ///< span file of the traced run
};

/// The timed end-to-end run (main.cpp) and the traced per-layer run
/// (traced.cpp). Both return the process exit code.
int run_timed(const Options& opt, const Workload& w);
int run_traced(const Options& opt, const Workload& w);

/// Shared context fields: compiler, flags, ISA, thread counts, and the
/// working-set bytes computed from matrix, preconditioner and vector sizes.
std::string context_fields(const Workload& w, const esrp::ProblemHandle& h);

} // namespace perfbench
