// Content hashing, shared by every place that fingerprints bytes.
//
// - fnv1a: byte-serial 64-bit FNV-1a. Kept byte-identical for the values
//   that outlive a process or are pinned by goldens: plan-cache content keys
//   (service/problem_handle), scenario cell seeds, property-harness digests.
// - BulkHash: a word-wise multi-lane FNV variant for sealing large numeric
//   buffers (the integrity seals guarding redundant copies and checkpoints,
//   resilience). Word k of the stream folds into lane k mod kBulkLanes, so
//   the lanes are independent multiply chains the CPU overlaps.
//
// Neither is cryptographic — they detect accidental corruption (bit flips,
// torn writes), which is exactly the SDC threat model here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace esrp {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold `bytes` bytes at `data` into the running hash `h`. Chain calls by
/// passing the previous return value as `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline constexpr std::size_t kBulkLanes = 4;

/// Result of a BulkHash: the full lane state plus the word count. The lanes
/// are not folded together, so a change confined to one lane's words can
/// never be cancelled by another lane.
struct BulkSeal {
  std::array<std::uint64_t, kBulkLanes> lanes{};
  std::uint64_t words = 0;
  friend bool operator==(const BulkSeal&, const BulkSeal&) = default;
};

/// Word-wise multi-lane hash over a stream of 8-byte words. Each lane step
/// is lane := (lane ^ w) * kFnvPrime, a bijection in both lane and w (the
/// prime is odd), so changing any single word — one flipped bit or all 64 —
/// changes its lane's final state by construction, and so does swapping two
/// distinct adjacent words (they sit in different lanes).
class BulkHash {
public:
  BulkHash() { lanes_.fill(kFnvOffset); }

  /// Fold `count` 8-byte words starting at `data` (any alignment).
  BulkHash& words(const void* data, std::size_t count) {
    return fold(data, count, [](std::size_t, std::uint64_t) {});
  }

  /// Copy `count` 8-byte words from `src` to `dst` (not overlapping) and
  /// fold them as words(src, count) would, in one pass over the data.
  BulkHash& copy_words(void* dst, const void* src, std::size_t count) {
    auto* out = static_cast<unsigned char*>(dst);
    return fold(src, count, [out](std::size_t k, std::uint64_t w) {
      std::memcpy(out + 8 * k, &w, sizeof(w));
    });
  }

  /// Fold one trivially copyable 8-byte value.
  template <class T>
  BulkHash& value(const T& v) {
    static_assert(sizeof(T) == 8, "BulkHash folds 8-byte words");
    std::uint64_t w;
    std::memcpy(&w, &v, sizeof(w));
    step(w);
    return *this;
  }

  BulkSeal seal() const { return BulkSeal{lanes_, n_}; }

private:
  /// The lane loop; `sink(k, w)` sees every word w at position k.
  template <class Sink>
  BulkHash& fold(const void* data, std::size_t count, Sink sink) {
    const auto* p = static_cast<const unsigned char*>(data);
    const auto next = [&](std::size_t k) {
      const std::uint64_t w = load(p, k);
      sink(k, w);
      return w;
    };
    std::size_t k = 0;
    // Bring the stream to a lane-0 boundary, then run the lanes in step.
    for (; k < count && n_ % kBulkLanes != 0; ++k) step(next(k));
    std::uint64_t l0 = lanes_[0], l1 = lanes_[1], l2 = lanes_[2],
                  l3 = lanes_[3];
    static_assert(kBulkLanes == 4);
    const std::size_t body_end = k + (count - k) / kBulkLanes * kBulkLanes;
    n_ += body_end - k;
    for (; k < body_end; k += kBulkLanes) {
      l0 = (l0 ^ next(k)) * kFnvPrime;
      l1 = (l1 ^ next(k + 1)) * kFnvPrime;
      l2 = (l2 ^ next(k + 2)) * kFnvPrime;
      l3 = (l3 ^ next(k + 3)) * kFnvPrime;
    }
    lanes_ = {l0, l1, l2, l3};
    for (; k < count; ++k) step(next(k));
    return *this;
  }

  static std::uint64_t load(const unsigned char* p, std::size_t k) {
    std::uint64_t w;
    std::memcpy(&w, p + 8 * k, sizeof(w));
    return w;
  }
  void step(std::uint64_t w) {
    std::uint64_t& lane = lanes_[n_ % kBulkLanes];
    lane = (lane ^ w) * kFnvPrime;
    ++n_;
  }

  std::array<std::uint64_t, kBulkLanes> lanes_;
  std::uint64_t n_ = 0;
};

} // namespace esrp
