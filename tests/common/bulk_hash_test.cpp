// Word-wise seals (BulkHash): over buffers of 0-9 words — every lane phase
// and tail length — every single-bit flip of every word and every swap of
// two distinct adjacent words changes the seal. fnv1a stays the byte-serial
// hash that goldens, cell seeds and content keys rely on.
#include "common/fnv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

namespace esrp {
namespace {

/// Distinct, irregular words.
std::vector<std::uint64_t> test_words(std::size_t n) {
  std::vector<std::uint64_t> w(n);
  for (std::size_t k = 0; k < n; ++k) w[k] = 0x9e3779b97f4a7c15ull * (k + 1);
  return w;
}

BulkSeal seal_of(const std::vector<std::uint64_t>& w) {
  return BulkHash().words(w.data(), w.size()).seal();
}

TEST(BulkHash, EverySingleBitFlipChangesTheSeal) {
  for (std::size_t n = 0; n <= 9; ++n) {
    const std::vector<std::uint64_t> words = test_words(n);
    const BulkSeal base = seal_of(words);
    for (std::size_t k = 0; k < n; ++k) {
      for (int bit = 0; bit < 64; ++bit) {
        std::vector<std::uint64_t> flipped = words;
        flipped[k] ^= std::uint64_t{1} << bit;
        EXPECT_NE(seal_of(flipped), base)
            << n << " words, word " << k << ", bit " << bit;
      }
    }
  }
}

TEST(BulkHash, SwappingAdjacentWordsChangesTheSeal) {
  for (std::size_t n = 2; n <= 9; ++n) {
    const std::vector<std::uint64_t> words = test_words(n);
    const BulkSeal base = seal_of(words);
    for (std::size_t k = 0; k + 1 < n; ++k) {
      std::vector<std::uint64_t> swapped = words;
      std::swap(swapped[k], swapped[k + 1]);
      EXPECT_NE(seal_of(swapped), base) << n << " words, swap at " << k;
    }
  }
}

TEST(BulkHash, LengthIsPartOfTheSeal) {
  for (std::size_t n = 0; n < 9; ++n) {
    std::vector<std::uint64_t> zeros(n, 0);
    const BulkSeal shorter = seal_of(zeros);
    zeros.push_back(0);
    EXPECT_NE(seal_of(zeros), shorter) << n;
  }
}

TEST(BulkHash, ChainedCallsEqualOneCall) {
  const std::vector<std::uint64_t> words = test_words(9);
  const BulkSeal whole = seal_of(words);
  for (std::size_t a = 0; a <= words.size(); ++a) {
    for (std::size_t b = a; b <= words.size(); ++b) {
      BulkHash h;
      h.words(words.data(), a);
      h.words(words.data() + a, b - a);
      h.words(words.data() + b, words.size() - b);
      EXPECT_EQ(h.seal(), whole) << "split at " << a << ", " << b;
    }
  }
  BulkHash one_by_one;
  for (std::uint64_t w : words) one_by_one.value(w);
  EXPECT_EQ(one_by_one.seal(), whole);
}

TEST(BulkHash, CopyWordsCopiesAndFoldsLikeWords) {
  const std::vector<std::uint64_t> words = test_words(9);
  for (std::size_t head = 0; head <= 3; ++head) {
    BulkHash folded, copied;
    folded.words(words.data(), head);
    copied.words(words.data(), head);
    std::vector<std::uint64_t> out(words.size() - head, 0);
    folded.words(words.data() + head, out.size());
    copied.copy_words(out.data(), words.data() + head, out.size());
    EXPECT_EQ(copied.seal(), folded.seal()) << "lane phase " << head;
    EXPECT_TRUE(std::equal(out.begin(), out.end(), words.begin() + head));
  }
}

TEST(Fnv1a, PinnedValuesUnchanged) {
  // The project's own offset basis (kFnvOffset), not the published FNV-64
  // basis: these values seed scenario cells and key cached plans, so they
  // must never move.
  constexpr std::string_view a = "a", foobar = "foobar";
  EXPECT_EQ(fnv1a("", 0), kFnvOffset);
  EXPECT_EQ(fnv1a(a.data(), a.size()), 4953267810257967366ull);
  EXPECT_EQ(fnv1a(foobar.data(), foobar.size()), 9870438755804841970ull);
}

} // namespace
} // namespace esrp
