// SolveSpec validation: every malformed-spec class the facade must reject
// before any expensive work — bad scalars, phi vs nodes, malformed failure
// schedules, unknown registry keys, and solver/strategy mismatches.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "api/solve.hpp"
#include "common/error.hpp"
#include "netsim/failure.hpp"
#include "service/solve_service.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

/// Smallest valid distributed spec.
SolveSpec distributed_spec() {
  SolveSpec spec;
  spec.matrix = "poisson2d:8,8";
  spec.solver = "resilient-pcg";
  spec.precond = "block-jacobi";
  spec.nodes = 4;
  spec.phi = 1;
  return spec;
}

void expect_invalid(const SolveSpec& spec, const std::string& needle) {
  try {
    validate_spec(spec);
    FAIL() << "expected validation to reject the spec (" << needle << ")";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(SolveSpecValidation, AcceptsMinimalSpecs) {
  EXPECT_NO_THROW(validate_spec(distributed_spec()));
  SolveSpec seq;
  seq.matrix = "poisson2d:8,8";
  seq.solver = "pcg";
  seq.precond = "jacobi";
  EXPECT_NO_THROW(validate_spec(seq));
}

TEST(SolveSpecValidation, RequiresAProblem) {
  SolveSpec spec = distributed_spec();
  spec.matrix.clear();
  expect_invalid(spec, "matrix");
}

TEST(SolveSpecValidation, RejectsNonPositiveInterval) {
  SolveSpec spec = distributed_spec();
  spec.interval = 0;
  expect_invalid(spec, "interval");
  spec.interval = -20;
  expect_invalid(spec, "interval");
}

TEST(SolveSpecValidation, RejectsBadScalars) {
  SolveSpec spec = distributed_spec();
  spec.rtol = 0;
  expect_invalid(spec, "rtol");

  spec = distributed_spec();
  spec.max_iterations = -1;
  expect_invalid(spec, "max_iterations");

  spec = distributed_spec();
  spec.block_size = 0;
  expect_invalid(spec, "block_size");

  spec = distributed_spec();
  spec.threads = -2;
  expect_invalid(spec, "threads");

  spec = distributed_spec();
  spec.ssor_omega = 2.5;
  expect_invalid(spec, "ssor_omega");
}

TEST(SolveSpecValidation, RejectsPhiNotBelowNodes) {
  SolveSpec spec = distributed_spec();
  spec.phi = 5; // > nodes = 4
  expect_invalid(spec, "phi");
  spec.phi = 4; // == nodes: no node can hold a copy of itself
  expect_invalid(spec, "phi");
  spec.phi = 0;
  expect_invalid(spec, "phi");
}

TEST(SolveSpecValidation, RejectsMalformedFailureSchedules) {
  // Duplicate iterations (validated by the shared netsim schedule checker).
  SolveSpec spec = distributed_spec();
  spec.failures.push_back(FailureEvent{10, {0}});
  spec.failures.push_back(FailureEvent{10, {1}});
  expect_invalid(spec, "strictly increasing");

  // Under-specified event (no ranks).
  spec = distributed_spec();
  spec.failures.push_back(FailureEvent{10, {}});
  expect_invalid(spec, "not fully specified");

  // Under-specified event (negative iteration).
  spec = distributed_spec();
  spec.failures.push_back(FailureEvent{-1, {0}});
  expect_invalid(spec, "not fully specified");

  // Rank out of range.
  spec = distributed_spec();
  spec.failures.push_back(FailureEvent{10, {7}});
  expect_invalid(spec, "outside");

  // Same rank listed twice in one event.
  spec = distributed_spec();
  spec.failures.push_back(FailureEvent{10, {1, 1}});
  expect_invalid(spec, "more than once");

  // All ranks failing at once is *valid* since the recovery ladder: it
  // resolves to a deterministic scratch restart instead of being rejected.
  spec = distributed_spec();
  spec.failures.push_back(FailureEvent{10, {0, 1, 2, 3}});
  EXPECT_NO_THROW(validate_spec(spec));
}

TEST(SolveSpecValidation, RecoveryPolicyNamesAndCapabilities) {
  // Every preset parses on the capable solver (esrp: every rung is legal).
  for (const char* name :
       {"ladder", "exact", "checkpoint", "scratch", "shrink"}) {
    SolveSpec spec = distributed_spec();
    spec.strategy = Strategy::esrp;
    spec.recovery_policy = name;
    EXPECT_NO_THROW(validate_spec(spec)) << name;
  }

  // Unknown policy names are rejected with the valid spellings.
  SolveSpec spec = distributed_spec();
  spec.recovery_policy = "lader";
  expect_invalid(spec, "recovery policy");

  // dist-pipelined has no repartition/rejoin hooks -> no shrink policy.
  spec = distributed_spec();
  spec.solver = "dist-pipelined";
  spec.recovery_policy = "shrink";
  expect_invalid(spec, "shrink");

  // The shrink rung is esrp-only, like no-spare recovery.
  spec = distributed_spec();
  spec.strategy = Strategy::imcr;
  spec.recovery_policy = "shrink";
  expect_invalid(spec, "esrp");
}

TEST(SolveSpecValidation, SdcRedundantStateTargetsAreStrategyGated) {
  SdcEvent flip;
  flip.iteration = 5;

  // "pcopy" corrupts a redundancy-queue copy: esrp only.
  SolveSpec spec = distributed_spec();
  spec.strategy = Strategy::esrp;
  flip.target = "pcopy";
  spec.sdc_events.push_back(flip);
  EXPECT_NO_THROW(validate_spec(spec));
  spec.strategy = Strategy::imcr;
  expect_invalid(spec, "esrp");

  // "checkpoint" corrupts the IMCR buddy checkpoint: imcr only.
  spec = distributed_spec();
  spec.strategy = Strategy::imcr;
  flip.target = "checkpoint";
  spec.sdc_events.push_back(flip);
  EXPECT_NO_THROW(validate_spec(spec));
  spec.strategy = Strategy::esrp;
  expect_invalid(spec, "imcr");

  // Unknown targets still list the full vocabulary.
  spec = distributed_spec();
  flip.target = "q";
  spec.sdc_events.push_back(flip);
  expect_invalid(spec, "checkpoint, or pcopy");
}

TEST(SolveSpecValidation, DistributedSolversNeedExplicitActionPrecond) {
  for (const char* solver : {"resilient-pcg", "dist-pipelined"}) {
    for (const char* precond : {"ssor", "ic0"}) {
      SCOPED_TRACE(std::string(solver) + " + " + precond);
      SolveSpec spec = distributed_spec();
      spec.solver = solver;
      spec.precond = precond;
      expect_invalid(spec, "no explicit node-local action matrix");
    }
  }
  // The sequential solvers pair with every preconditioner.
  SolveSpec spec;
  spec.matrix = "poisson2d:8,8";
  spec.solver = "pipelined";
  spec.precond = "ssor";
  EXPECT_NO_THROW(validate_spec(spec));
}

TEST(SolveSpecValidation, SequentialSolversCannotTakeFailures) {
  SolveSpec spec;
  spec.matrix = "poisson2d:8,8";
  spec.solver = "pcg";
  spec.precond = "jacobi";
  spec.failures.push_back(FailureEvent{10, {0}});
  expect_invalid(spec, "sequential");
}

TEST(SolveSpecValidation, DistPipelinedTakesMultiEventSchedulesAndEsrp) {
  SolveSpec spec = distributed_spec();
  spec.solver = "dist-pipelined";
  spec.failures.push_back(FailureEvent{10, {0}});
  spec.failures.push_back(FailureEvent{20, {1}});
  EXPECT_NO_THROW(validate_spec(spec));
  spec.strategy = Strategy::esrp;
  EXPECT_NO_THROW(validate_spec(spec));
  spec.strategy = Strategy::imcr;
  EXPECT_NO_THROW(validate_spec(spec));
}

TEST(SolveSpecValidation, NoSpareRecoveryNeedsACapableSolver) {
  SolveSpec spec = distributed_spec();
  spec.solver = "resilient-pcg";
  spec.strategy = Strategy::esrp;
  spec.spare_nodes = false;
  EXPECT_NO_THROW(validate_spec(spec));
  spec.solver = "dist-pipelined";
  expect_invalid(spec, "does not support no-spare recovery");
}

TEST(SolveSpecValidation, NoSpareRecoveryNeedsEsrpStrategy) {
  SolveSpec spec = distributed_spec();
  spec.solver = "resilient-pcg";
  spec.spare_nodes = false;
  for (Strategy s : {Strategy::none, Strategy::imcr}) {
    spec.strategy = s;
    expect_invalid(spec, "only defined for the esrp strategy");
  }
}

TEST(SolveSpecValidation, ResidualReplacementNeedsACapableSolver) {
  SolveSpec spec = distributed_spec();
  spec.solver = "resilient-pcg";
  spec.residual_replacement = 10;
  EXPECT_NO_THROW(validate_spec(spec));
  spec.solver = "dist-pipelined";
  expect_invalid(spec, "does not implement residual replacement");
}

TEST(SolveSpecValidation, DistPipelinedRejectsInitialGuess) {
  const Vector x0(64, 0.5); // poisson2d:8,8 has 64 rows
  SolveSpec spec = distributed_spec();
  spec.solver = "dist-pipelined";
  spec.x0 = x0;
  expect_invalid(spec, "initial guess");
  spec.solver = "resilient-pcg";
  EXPECT_NO_THROW(validate_spec(spec));
}

TEST(SolveSpecValidation, UnknownKeysGetDidYouMean) {
  SolveSpec spec = distributed_spec();
  spec.solver = "resilient-pgc";
  expect_invalid(spec, "did you mean \"resilient-pcg\"");

  spec = distributed_spec();
  spec.precond = "jacobbi";
  expect_invalid(spec, "did you mean \"jacobi\"");

  spec = distributed_spec();
  spec.matrix = "poisssson2d:8,8";
  expect_invalid(spec, "did you mean \"poisson2d\"");
}

TEST(SolveSpecValidation, SolveRejectsMismatchedVectors) {
  const Vector short_rhs(7, 1.0);
  SolveSpec spec;
  spec.matrix = "poisson2d:4,4"; // 16 rows
  spec.solver = "pcg";
  spec.precond = "identity";
  spec.rhs = short_rhs;
  EXPECT_THROW(solve(spec), Error);

  spec.rhs = {};
  spec.x0 = short_rhs;
  EXPECT_THROW(solve(spec), Error);
}

/// The non-finite values every input vector is checked against, with the
/// word the error must use for each.
const std::pair<real_t, const char*> kNonFinite[] = {
    {std::numeric_limits<real_t>::quiet_NaN(), "NaN"},
    {std::numeric_limits<real_t>::infinity(), "infinite"},
    {-std::numeric_limits<real_t>::infinity(), "infinite"}};

TEST(SolveSpecValidation, RejectsNonFiniteRhs) {
  for (const auto& [bad, word] : kNonFinite) {
    Vector rhs(64, 1.0);
    rhs[41] = bad;
    SolveSpec spec = distributed_spec();
    spec.rhs = rhs;
    expect_invalid(spec, std::string("rhs[41] is ") + word);
  }
}

TEST(SolveSpecValidation, RejectsNonFiniteX0) {
  for (const auto& [bad, word] : kNonFinite) {
    Vector x0(64, 0.0);
    x0[0] = bad;
    SolveSpec spec = distributed_spec();
    spec.x0 = x0;
    expect_invalid(spec, std::string("x0[0] is ") + word);
  }
}

TEST(SolveSpecValidation, RejectsNonFiniteRhsBatchVector) {
  for (const auto& [bad, word] : kNonFinite) {
    SolveSpec spec;
    spec.matrix = "poisson2d:8,8";
    spec.solver = "pcg";
    spec.precond = "jacobi";
    spec.rhs_batch = {Vector(64, 1.0), Vector(64, 2.0), Vector(64, 3.0)};
    spec.rhs_batch[2][63] = bad;
    expect_invalid(spec, std::string("rhs_batch[2][63] is ") + word);
  }
}

/// Both entry points that take a caller's matrix reject a non-finite value
/// and name the first bad entry: esrp::solve on every call, and
/// SolveService::prepare before it builds (and caches) a handle.
TEST(SolveSpecValidation, RejectsNonFiniteMatrixData) {
  for (const auto& [bad, word] : kNonFinite) {
    SCOPED_TRACE(word);
    CsrMatrix a = poisson2d(8, 8);
    // Entry (13, 14), and a later one that must not be the one named.
    const std::span<const index_t> cols = a.row_cols(13);
    const auto first = static_cast<std::size_t>(
        a.row_ptr()[13] + (std::find(cols.begin(), cols.end(), 14) - cols.begin()));
    ASSERT_EQ(a.col_idx()[first], 14);
    a.values_mut()[first] = bad;
    a.values_mut()[static_cast<std::size_t>(a.nnz()) - 1] = bad;
    const std::string needle = std::string("matrix_data(13, 14) is ") + word;

    SolveSpec spec = distributed_spec();
    spec.matrix_data = &a;
    try {
      (void)solve(spec);
      ADD_FAILURE() << "esrp::solve accepted a non-finite matrix";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }

    SolveService service;
    ProblemSpec problem;
    problem.matrix_data = &a;
    problem.precond = "block-jacobi";
    problem.nodes = 4;
    try {
      (void)service.prepare(problem, SolverConfig{});
      ADD_FAILURE() << "SolveService::prepare accepted a non-finite matrix";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(service.cache_stats().size, 0u);
  }
}

TEST(SolveSpecValidation, FiniteInputsWithZerosAndExtremesPass) {
  SolveSpec spec = distributed_spec();
  Vector rhs(64, 0.0);
  rhs[1] = -0.0;
  rhs[2] = std::numeric_limits<real_t>::max();
  rhs[3] = std::numeric_limits<real_t>::denorm_min();
  spec.rhs = rhs;
  EXPECT_NO_THROW(validate_spec(spec));
}

} // namespace
} // namespace esrp
