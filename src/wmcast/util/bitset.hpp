// Dynamic bitset tuned for the set-cover kernels: the hot operations are
// popcount of an intersection (|S ∩ X'|) and in-place and/or/andnot updates.
// Count kernels dispatch through wmcast::simd (unrolled word-parallel scalar
// or AVX2, selected at runtime, bit-identical by construction); the visitor
// templates skip zero words four at a time so sparse sets cost loads, not
// per-bit branches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wmcast/util/simd.hpp"

namespace wmcast::util {

/// Fixed-universe dynamic bitset. All binary operations require both operands
/// to share the same universe size (checked with assertions).
class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(int n_bits);

  int size() const { return n_bits_; }

  void set(int i);
  void reset(int i);
  bool test(int i) const;
  /// Clears bit i and returns its previous value (one word access — the
  /// solvers' commit loop fuses its test+reset pair through this).
  bool test_and_reset(int i);

  void set_all();
  void reset_all();

  /// Number of set bits.
  int count() const;
  bool any() const;
  bool none() const { return !any(); }

  /// popcount(*this & other) without materializing the intersection.
  int and_count(const DynBitset& other) const;
  /// popcount(*this & ~other) without materializing the difference.
  int andnot_count(const DynBitset& other) const;
  /// True iff (*this & other) is nonempty.
  bool intersects(const DynBitset& other) const;
  /// True iff every set bit of *this is also set in other.
  bool is_subset_of(const DynBitset& other) const;

  /// Grows (or shrinks) the universe to n_bits; surviving bits keep their
  /// values, new bits start clear.
  void resize(int n_bits);

  void or_assign(const DynBitset& other);
  void and_assign(const DynBitset& other);
  /// *this &= ~other.
  void andnot_assign(const DynBitset& other);

  bool operator==(const DynBitset& other) const {
    return n_bits_ == other.n_bits_ && words_ == other.words_;
  }

  /// Indices of set bits in increasing order.
  std::vector<int> to_indices() const;

  /// Raw word storage (ceil(size/64) words, trailing bits clear). For the
  /// engine's fused kernels; never exposes writable access.
  const uint64_t* words() const { return words_.data(); }
  std::size_t word_count() const { return words_.size(); }

  /// Calls fn(i) for every set bit i in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const uint64_t* w = words_.data();
    const std::size_t n = words_.size();
    std::size_t i = 0;
    // Blocks of four words: one OR + branch skips 256 empty bits at a time.
    for (; i + 4 <= n; i += 4) {
      if ((w[i] | w[i + 1] | w[i + 2] | w[i + 3]) == 0) continue;
      visit_word(w[i], static_cast<int>(i * 64), fn);
      visit_word(w[i + 1], static_cast<int>((i + 1) * 64), fn);
      visit_word(w[i + 2], static_cast<int>((i + 2) * 64), fn);
      visit_word(w[i + 3], static_cast<int>((i + 3) * 64), fn);
    }
    for (; i < n; ++i) visit_word(w[i], static_cast<int>(i * 64), fn);
  }

  /// Calls fn(i) for every bit set in (*this & other), in increasing order,
  /// without materializing the intersection.
  template <typename Fn>
  void for_each_and(const DynBitset& other, Fn&& fn) const {
    const uint64_t* a = words_.data();
    const uint64_t* b = other.words_.data();
    const std::size_t n = words_.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const uint64_t w0 = a[i] & b[i];
      const uint64_t w1 = a[i + 1] & b[i + 1];
      const uint64_t w2 = a[i + 2] & b[i + 2];
      const uint64_t w3 = a[i + 3] & b[i + 3];
      if ((w0 | w1 | w2 | w3) == 0) continue;
      visit_word(w0, static_cast<int>(i * 64), fn);
      visit_word(w1, static_cast<int>((i + 1) * 64), fn);
      visit_word(w2, static_cast<int>((i + 2) * 64), fn);
      visit_word(w3, static_cast<int>((i + 3) * 64), fn);
    }
    for (; i < n; ++i) visit_word(a[i] & b[i], static_cast<int>(i * 64), fn);
  }

  /// Calls fn(i) for every bit set in (*this & ~other), in increasing order,
  /// without materializing the difference.
  template <typename Fn>
  void for_each_andnot(const DynBitset& other, Fn&& fn) const {
    const uint64_t* a = words_.data();
    const uint64_t* b = other.words_.data();
    const std::size_t n = words_.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const uint64_t w0 = a[i] & ~b[i];
      const uint64_t w1 = a[i + 1] & ~b[i + 1];
      const uint64_t w2 = a[i + 2] & ~b[i + 2];
      const uint64_t w3 = a[i + 3] & ~b[i + 3];
      if ((w0 | w1 | w2 | w3) == 0) continue;
      visit_word(w0, static_cast<int>(i * 64), fn);
      visit_word(w1, static_cast<int>((i + 1) * 64), fn);
      visit_word(w2, static_cast<int>((i + 2) * 64), fn);
      visit_word(w3, static_cast<int>((i + 3) * 64), fn);
    }
    for (; i < n; ++i) visit_word(a[i] & ~b[i], static_cast<int>(i * 64), fn);
  }

 private:
  template <typename Fn>
  static void visit_word(uint64_t bits, int base, Fn&& fn) {
    while (bits != 0) {
      fn(base + __builtin_ctzll(bits));
      bits &= bits - 1;
    }
  }

  int n_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace wmcast::util
