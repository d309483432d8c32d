// The redundancy queue of paper §3 and Fig. 1: a bounded FIFO of redundant
// search-direction copies. ESR uses two slots (the two latest directions);
// ESRP needs *three*, so that a failure striking after the first ASpMV of a
// storage stage — when the queue's newest entry has no adjacent partner yet —
// still finds the two consecutive directions of the previous stage.
//
// Pushes are idempotent by iteration tag: when the solver re-executes
// iterations after a rollback it re-pushes identical copies, which replace
// the stale entries in place.
#pragma once

#include <optional>
#include <vector>

#include "comm/exchange.hpp"
#include "common/types.hpp"

namespace esrp {

class RedundancyQueue {
public:
  /// `capacity` is 3 for ESRP (default); 2 reproduces the failure mode the
  /// paper's three-slot design avoids (see bench_ablation_queue).
  explicit RedundancyQueue(std::size_t capacity = 3);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }

  /// Insert a sealed copy. If an entry with the same tag exists it is
  /// replaced; otherwise the copy is appended and the oldest entry beyond
  /// capacity is evicted. Tags of new entries must exceed all existing tags.
  void push(RedundantCopy copy);

  /// The copy tagged `tag`, or nullptr.
  const RedundantCopy* find(index_t tag) const;

  /// Newest tag t such that both t-1 and t are present (the reconstruction
  /// candidate pair); nullopt if no adjacent pair exists.
  std::optional<index_t> newest_adjacent_pair() const;

  /// Drop the entries held by the given (failed) ranks in all stored copies.
  void drop_holders(std::span<const rank_t> ranks);

  /// Fault injection: flip `bit` of the stored value of global entry
  /// `entry` in the newest copy, without refreshing its checksum seal (see
  /// RedundantCopy::corrupt). Returns the holder rank, or -1 if the queue
  /// is empty or no holder stores that entry.
  rank_t corrupt_newest(index_t entry, int bit);

  /// Tags currently in the queue, oldest first (diagnostics; matches the
  /// queue drawings of Fig. 1).
  std::vector<index_t> tags() const;

  void clear() { entries_.clear(); }

private:
  std::size_t capacity_;
  std::vector<RedundantCopy> entries_; // oldest first
};

} // namespace esrp
