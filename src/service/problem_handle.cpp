#include "service/problem_handle.hpp"

#include <cstdint>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "xp/experiment.hpp"

namespace esrp {

namespace {

// FNV-1a-64 (common/fnv.hpp) — same constants as the parity tests'
// trajectory hashes, so a key printed in a failing test can be compared
// against a handle key directly.
std::uint64_t matrix_content_hash(const CsrMatrix& a) {
  std::uint64_t h = fnv1a(a.row_ptr().data(), a.row_ptr().size_bytes());
  h = fnv1a(a.col_idx().data(), a.col_idx().size_bytes(), h);
  return fnv1a(a.values().data(), a.values().size_bytes(), h);
}

} // namespace

std::string ProblemHandle::content_key(const ProblemSpec& problem,
                                       const SolverConfig& config) {
  std::ostringstream key;
  if (problem.matrix_data != nullptr) {
    const CsrMatrix& a = *problem.matrix_data;
    key << "data:" << a.rows() << "x" << a.cols() << ":nnz=" << a.nnz()
        << ":fnv=" << std::hex << matrix_content_hash(a) << std::dec;
  } else {
    key << "key:" << problem.matrix;
  }
  // The preconditioner factorization depends on the full parameter surface;
  // keying on all of it keeps equal keys implying equal factorizations.
  key << "|precond=" << problem.precond << ",bs=" << problem.block_size
      << ",omega=" << problem.ssor_omega << ",shift=" << problem.ic0_shift;
  // Distributed handles carry partition-aligned artifacts (partition, SpMV /
  // ASpMV plans, per-node preconditioner blocks); sequential handles carry a
  // single-domain factorization. nodes/phi only shape the former.
  const bool distributed = solver_registry().get(config.solver).distributed;
  key << "|dist=" << (distributed ? 1 : 0);
  if (distributed)
    key << ",nodes=" << problem.nodes << ",phi=" << config.phi;
  return key.str();
}

std::shared_ptr<const ProblemHandle> ProblemHandle::build(
    const ProblemSpec& problem, const SolverConfig& config) {
  // make_shared needs a public ctor; the aliasing-free way around the
  // private default ctor is a derived helper local to this function.
  struct Concrete : ProblemHandle {};
  auto handle = std::make_shared<Concrete>();

  handle->key_ = content_key(problem, config); // validates config.solver too
  handle->config_ = config;
  handle->problem_ = problem;

  if (problem.matrix_data != nullptr) {
    check_finite_matrix(*problem.matrix_data);
    handle->matrix_ = *problem.matrix_data;
    handle->name_ =
        problem.matrix_name.empty() ? "custom" : problem.matrix_name;
  } else {
    TestProblem tp = resolve_matrix(problem.matrix);
    handle->matrix_ = std::move(tp.matrix);
    handle->name_ = std::move(tp.name);
  }
  // The handle is self-contained: its ProblemSpec points at its own matrix
  // copy, never the caller's buffer.
  handle->problem_.matrix_data = &handle->matrix_;
  handle->problem_.matrix_name = handle->name_;

  if (handle->matrix_.rows() != handle->matrix_.cols())
    throw Error("prepare requires a square matrix, got " +
                std::to_string(handle->matrix_.rows()) + " x " +
                std::to_string(handle->matrix_.cols()));

  handle->default_rhs_ = xp::make_rhs(handle->matrix_);

  const bool distributed = solver_registry().get(config.solver).distributed;
  if (distributed) {
    handle->partition_ = std::make_unique<BlockRowPartition>(
        handle->matrix_.rows(), problem.nodes);
    handle->spmv_plan_ =
        std::make_unique<SpmvPlan>(handle->matrix_, *handle->partition_);
    handle->aspmv_plan_ =
        std::make_unique<AspmvPlan>(*handle->spmv_plan_, config.phi);
  }

  // Factorize exactly as the facade drivers would: partition-aligned for
  // distributed solvers (resolve_precond passes the cluster partition),
  // single-domain for sequential ones (null partition).
  SolveSpec factorize_spec;
  static_cast<ProblemSpec&>(factorize_spec) = handle->problem_;
  static_cast<SolverConfig&>(factorize_spec) = config;
  handle->precond_ = precond_registry().get(problem.precond).make(
      PrecondContext{handle->matrix_, handle->partition_.get(),
                     factorize_spec});

  return handle;
}

} // namespace esrp
