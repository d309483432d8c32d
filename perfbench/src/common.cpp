#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "netsim/failure.hpp"
#include "parallel/parallel.hpp"
#include "service/problem_handle.hpp"
#include "sparse/sell.hpp"

namespace perfbench {
namespace {

/// Every request's recomputed ||b - A x|| / ||b|| must lie within this
/// multiple of rtol. The recursive residual stops below rtol; the true one
/// drifts above it by rounding (paper Eq. 2) and, after an ESRP
/// reconstruction, by the inner solves' 1e-14 accuracy.
constexpr double kRelresMultiple = 10.0;

Workload distributed(std::string name, std::string matrix,
                     esrp::Strategy strategy, index_t interval) {
  Workload w;
  w.name = std::move(name);
  w.problem.matrix = std::move(matrix);
  w.problem.nodes = kClusterNodes;
  w.problem.precond = "block-jacobi";
  w.config.solver = "resilient-pcg";
  w.config.rtol = 1e-8;
  w.config.strategy = strategy;
  w.config.interval = interval;
  w.config.phi = kClusterPhi;
  return w;
}

} // namespace

Workload find_workload(const std::string& name) {
  if (name == "esr-capture") {
    // Classic ESR: a redundant copy is captured by every iteration's ASpMV.
    // phi = 3 because at phi = 1 the 7-point halo already covers every
    // entry and the ASpMV sends no extra bytes.
    Workload w = distributed(name, "poisson3d:48,48,48", esrp::Strategy::esrp, 1);
    w.bitwise_vs_reference = true;
    return w;
  }
  if (name == "esrp-recover" || name == "imcr-recover") {
    // Three events of phi contiguous ranks, each two iterations before the
    // end of a T = 20 interval (the paper's worst case), so every event
    // rolls back 17 (ESRP) or 18 (IMCR) iterations.
    const bool esrp = name == "esrp-recover";
    Workload w = distributed(name, "emilia",
                             esrp ? esrp::Strategy::esrp : esrp::Strategy::imcr, 20);
    w.failure_iterations = {318, 618, 918};
    w.failure_width = 3;
    w.bitwise_vs_reference = !esrp;
    w.expected_rung =
        esrp ? esrp::RecoveryRung::reconstruct : esrp::RecoveryRung::checkpoint;
    return w;
  }
  if (name == "service-seq") {
    // 32^3 keeps the ~10 MB working set cache-resident: at 64^3 (~100 MB)
    // the request time follows the host's memory-bandwidth contention and
    // spread 33% within one run on a 4-vCPU KVM guest, against 4% here.
    Workload w;
    w.name = name;
    w.problem.matrix = "poisson3d:32,32,32;format=sell";
    w.problem.precond = "block-jacobi";
    w.config.solver = "pcg";
    w.config.rtol = 1e-8;
    return w;
  }
  throw std::runtime_error("unknown workload '" + name +
                           "' (esr-capture, esrp-recover, imcr-recover, "
                           "service-seq)");
}

RunInputs make_inputs(const Workload& w, index_t rows, std::uint64_t seed) {
  RunInputs in;
  // b = b0 + 1e-3 xi: b0 is one fixed pseudo-random vector and xi is drawn
  // from the seed. Every seed gets its own rhs values but the same
  // iteration count, so the seed never changes the amount of work (a fully
  // random rhs moves the count by up to 5% on poisson3d:48^3).
  esrp::Rng base(0x5EED), rng(0x9E3779B97F4A7C15ULL ^ seed);
  in.rhs.resize(static_cast<std::size_t>(rows));
  for (auto& v : in.rhs) v = base.uniform(-1, 1) + 1e-3 * rng.uniform(-1, 1);
  for (index_t it : w.failure_iterations) {
    esrp::FailureEvent e;
    e.iteration = it;
    const auto start = static_cast<esrp::rank_t>(
        rng.next_below(static_cast<std::uint64_t>(w.problem.nodes)));
    e.ranks = esrp::contiguous_ranks(start, w.failure_width, w.problem.nodes);
    in.failures.push_back(std::move(e));
  }
  return in;
}

esrp::RunSpec make_run(const RunInputs& in) {
  esrp::RunSpec run;
  run.take_rhs(in.rhs);
  run.failures = in.failures;
  run.threads = 1;
  return run;
}

esrp::SolveSpec reference_spec(const Workload& w, const RunInputs& in) {
  esrp::SolveSpec spec;
  static_cast<esrp::ProblemSpec&>(spec) = w.problem;
  static_cast<esrp::SolverConfig&>(spec) = w.config;
  spec.strategy = esrp::Strategy::none;
  spec.take_rhs(in.rhs);
  spec.threads = 1;
  return spec;
}

Expected expected_of(const esrp::SolveReport& r) {
  return Expected{r.x, r.iterations, r.executed_iterations, r.modeled_time};
}

int check_report(const Workload& w, const esrp::SolveReport& report,
                 const Expected& first, const Expected& reference,
                 const esrp::CsrMatrix& a, std::span<const real_t> b) {
  int failed = 0;
  auto fail = [&](const std::string& what) {
    ++failed;
    std::cerr << "check failed [" << w.name << "]: " << what << '\n';
  };
  if (!report.converged) fail("did not converge");
  if (report.x != first.x) fail("x differs bitwise from the run's first request");
  if (report.iterations != first.iterations ||
      report.executed_iterations != first.executed_iterations ||
      report.modeled_time != first.modeled_time)
    fail("iteration counts or modeled time differ from the first request");
  if (report.iterations != reference.iterations)
    fail("iterations " + std::to_string(report.iterations) +
         " != reference " + std::to_string(reference.iterations));
  if (w.bitwise_vs_reference && report.x != reference.x)
    fail("x differs bitwise from the strategy-none reference");
  const double relres = esrp::true_relative_residual(a, b, report.x);
  if (!(relres <= kRelresMultiple * w.config.rtol))
    fail("recomputed relres " + std::to_string(relres) + " > " +
         std::to_string(kRelresMultiple) + " x rtol");
  if (report.recoveries.size() != w.failure_iterations.size())
    fail("expected " + std::to_string(w.failure_iterations.size()) +
         " recoveries, got " + std::to_string(report.recoveries.size()));
  for (const esrp::RecoveryRecord& rec : report.recoveries)
    if (rec.rung != w.expected_rung || rec.restarted_from_scratch)
      fail("recovery at " + std::to_string(rec.failed_at) + " resolved via " +
           esrp::to_string(rec.rung));
  return failed;
}

// ------------------------------------------------------------- observer ---

void SolveClock::on_iteration(index_t, real_t) {
  const auto now = clock::now();
  if (calls == 0) first = now;
  last = now;
  ++calls;
  if (tracer_ != nullptr) {
    if (calls > 1) tracer_->close(open_span_);
    open_span_ = tracer_->open("solver.iteration");
  }
}

void SolveClock::on_failure(const esrp::FailureEvent&) {
  failed_at_ = clock::now();
  if (tracer_ != nullptr) {
    tracer_->close(open_span_);
    open_span_ = tracer_->open("resilience.recover");
  }
}

void SolveClock::on_recovery(const esrp::RecoveryRecord&) {
  recovery_seconds += seconds_between(failed_at_, clock::now());
  // The next on_iteration closes the recovery span and opens the resumed
  // iteration's.
}

// --------------------------------------------------------------- tracer ---

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t Tracer::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = now_ns();
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.request = request_;
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t id) {
  if (id >= spans_.size() || spans_[id].end_ns >= 0) return;
  const std::int64_t t = now_ns();
  // Close `id` and anything still open inside it.
  while (!stack_.empty()) {
    const std::size_t top = stack_.back();
    stack_.pop_back();
    spans_[top].end_ns = t;
    if (top == id) break;
  }
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << json_str(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << json_num(static_cast<double>(s.start_ns - t0) / 1e3)
        << ",\"dur\":" << json_num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
}

std::map<std::string, std::pair<double, std::size_t>> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& [self, count] = out[spans_[i].name];
    self += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9 -
            child[i];
    ++count;
  }
  return out;
}

// ---------------------------------------------------------------- utils ---

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_between(SolveClock::clock::time_point a,
                       SolveClock::clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const std::string& context_json, bool correct,
                  long attempted, long failed, const Metrics& metrics) {
  std::cout << "{\"context\": " << context_json << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << json_str(metrics[i].first)
              << ": {\"value\": " << json_num(metrics[i].second.value)
              << ", \"unit\": " << json_str(metrics[i].second.unit) << "}";
  std::cout << "}}" << std::endl;
}

namespace {

/// Computed, not measured: cache misses are not counted.
double computed_working_set_bytes(const Workload& w,
                                  const esrp::ProblemHandle& h) {
  const esrp::CsrMatrix& a = h.matrix();
  const double rows = static_cast<double>(a.rows());
  const double idx = sizeof(index_t), val = sizeof(real_t);
  double bytes = static_cast<double>(a.nnz()) * (idx + val) + (rows + 1) * idx;
  if (const esrp::SellMatrix* s = a.sell())
    bytes += static_cast<double>(s->padded_entries()) * val +
             static_cast<double>(s->col_stream_entries()) * 4 + rows * idx;
  if (const esrp::CsrMatrix* p = h.precond().action_matrix())
    bytes += static_cast<double>(p->nnz()) * (idx + val) + (rows + 1) * idx;
  // b, x, r, z, p and A p.
  bytes += 6 * rows * val;
  // The exchange engine keeps one global-length scratch vector per node.
  if (h.distributed()) bytes += static_cast<double>(w.problem.nodes) * rows * val;
  return bytes;
}

} // namespace

std::string context_fields(const Workload& w, const esrp::ProblemHandle& h) {
  std::ostringstream os;
  os << "\"workload\": " << json_str(w.name)
     << ", \"matrix\": " << json_str(h.name()) << ", \"rows\": "
     << h.matrix().rows() << ", \"nnz\": " << h.matrix().nnz()
     << ", \"compiler\": " << json_str(PERFBENCH_CXX_ID)
     << ", \"cxx_flags\": " << json_str(PERFBENCH_CXX_FLAGS)
#if defined(__AVX512F__)
     << ", \"isa\": \"avx512\""
#elif defined(__AVX2__)
     << ", \"isa\": \"avx2\""
#elif defined(__AVX__)
     << ", \"isa\": \"avx\""
#else
     << ", \"isa\": \"sse2\""
#endif
     << ", \"hardware_threads\": " << esrp::hardware_threads()
     << ", \"kernel_threads\": " << esrp::num_threads()
     << ", \"working_set_bytes_computed\": "
     << json_num(computed_working_set_bytes(w, h));
  return os.str();
}

} // namespace perfbench
