// Fundamental scalar and index types shared by every module.
#pragma once

#include <cstdint>
#include <cstddef>

namespace esrp {

/// Floating-point scalar used throughout the library.
using real_t = double;

/// Signed index type for matrix/vector dimensions. Signed so that index
/// arithmetic in partitioning code (differences, modular wrap-around of
/// ranks) cannot underflow.
using index_t = std::int64_t;

/// Rank of a node in the (simulated) cluster.
using rank_t = std::int32_t;

/// Column id into one node's compact [owned | ghosts] buffer, the
/// distributed-CSR local numbering of comm/spmv_plan.hpp. 32 bits: a node's
/// buffer is far below 2^31 entries, and the ids are stored per nonzero.
using local_index_t = std::int32_t;

} // namespace esrp
