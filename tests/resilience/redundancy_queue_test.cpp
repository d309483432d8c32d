// Queue-semantics tests, including a replay of the Fig. 1 timeline.
#include "resilience/redundancy_queue.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace esrp {
namespace {

/// Entry 0 held by rank 1 of 4 nodes, valued `tag`.
RedundantCopy make_copy(index_t tag) {
  std::vector<IndexSet> held(4);
  held[1] = {0};
  std::vector<Vector> values(4);
  values[1] = {static_cast<real_t>(tag)};
  return RedundantCopy(
      tag,
      std::make_shared<const CopyLayout>(std::move(held),
                                         std::vector<std::size_t>(4, 0)),
      std::move(values));
}

TEST(RedundancyQueue, StartsEmpty) {
  RedundancyQueue q;
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_FALSE(q.newest_adjacent_pair().has_value());
  EXPECT_TRUE(q.tags().empty());
}

TEST(RedundancyQueue, CapacityBelowTwoRejected) {
  EXPECT_THROW(RedundancyQueue{1}, Error);
}

TEST(RedundancyQueue, EvictsOldestBeyondCapacity) {
  RedundancyQueue q(3);
  q.push(make_copy(1));
  q.push(make_copy(2));
  q.push(make_copy(3));
  q.push(make_copy(4));
  EXPECT_EQ(q.tags(), (std::vector<index_t>{2, 3, 4}));
  EXPECT_EQ(q.find(1), nullptr);
  EXPECT_NE(q.find(2), nullptr);
}

TEST(RedundancyQueue, PushSameTagReplacesInPlace) {
  RedundancyQueue q(3);
  q.push(make_copy(5));
  q.push(make_copy(6));
  q.push(make_copy(6)); // rollback re-execution
  EXPECT_EQ(q.tags(), (std::vector<index_t>{5, 6}));
}

TEST(RedundancyQueue, OutOfOrderNewTagThrows) {
  RedundancyQueue q(3);
  q.push(make_copy(5));
  EXPECT_THROW(q.push(make_copy(3)), Error);
}

TEST(RedundancyQueue, NewestAdjacentPairFindsLatest) {
  RedundancyQueue q(3);
  q.push(make_copy(20));
  q.push(make_copy(21));
  EXPECT_EQ(q.newest_adjacent_pair(), 21);
  q.push(make_copy(40));
  // [20, 21, 40]: the pair (20,21) is still the newest adjacent one.
  EXPECT_EQ(q.newest_adjacent_pair(), 21);
  q.push(make_copy(41));
  // [21, 40, 41]: now (40,41).
  EXPECT_EQ(q.newest_adjacent_pair(), 41);
}

TEST(RedundancyQueue, NoAdjacentPairWithGappedTags) {
  RedundancyQueue q(3);
  q.push(make_copy(20));
  q.push(make_copy(40));
  EXPECT_FALSE(q.newest_adjacent_pair().has_value());
}

TEST(RedundancyQueue, Figure1Timeline) {
  // Replays the queue states of the paper's Fig. 1 with T = 20:
  // j = 0..T-1 : [_, _, _]
  // j = T      : [_, _, p'(T)]
  // j = T+1    : [_, p'(T), p'(T+1)]
  // j = 2T     : [p'(T), p'(T+1), p'(2T)]
  // j = 2T+1   : [p'(T+1), p'(2T), p'(2T+1)]
  const index_t T = 20;
  RedundancyQueue q(3);
  auto step = [&](index_t j) {
    if (j >= T && (j % T == 0 || j % T == 1)) q.push(make_copy(j));
  };
  for (index_t j = 0; j < T; ++j) step(j);
  EXPECT_TRUE(q.tags().empty());
  step(T);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T}));
  step(T + 1);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T, T + 1}));
  for (index_t j = T + 2; j < 2 * T; ++j) step(j);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T, T + 1}));
  step(2 * T);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T, T + 1, 2 * T}));
  // Failure here must still reconstruct T+1 (the thin arrows of Fig. 1).
  EXPECT_EQ(q.newest_adjacent_pair(), T + 1);
  step(2 * T + 1);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T + 1, 2 * T, 2 * T + 1}));
  EXPECT_EQ(q.newest_adjacent_pair(), 2 * T + 1);
}

TEST(RedundancyQueue, TwoSlotQueueLosesThePreviousStage) {
  // The ablation the paper motivates: with only two slots, a failure right
  // after the first ASpMV of a storage stage has no adjacent pair left.
  const index_t T = 20;
  RedundancyQueue q(2);
  q.push(make_copy(T));
  q.push(make_copy(T + 1));
  EXPECT_EQ(q.newest_adjacent_pair(), T + 1);
  q.push(make_copy(2 * T)); // evicts p'(T)
  EXPECT_FALSE(q.newest_adjacent_pair().has_value());
}

TEST(RedundancyQueue, DropHoldersPropagatesToAllCopies) {
  RedundancyQueue q(3);
  q.push(make_copy(1));
  q.push(make_copy(2));
  const std::vector<rank_t> failed{1}; // holder rank used by make_copy
  q.drop_holders(failed);
  const std::vector<rank_t> none;
  EXPECT_FALSE(q.find(1)->find_surviving(0, none).has_value());
  EXPECT_FALSE(q.find(2)->find_surviving(0, none).has_value());
}

TEST(RedundancyQueue, ClearEmptiesQueue) {
  RedundancyQueue q(3);
  q.push(make_copy(1));
  q.clear();
  EXPECT_EQ(q.size(), 0u);
}

} // namespace
} // namespace esrp
