// Kernel-dispatch tests (DESIGN.md §13).
//
// The SIMD contract is bit-identity: scalar and dispatched (possibly AVX2)
// kernels compute exact integer popcounts, so every result is compared with
// EXPECT_EQ, never a tolerance. The bitset sizes 0/1/63/64/65/127 pin the
// trailing-word edge cases: empty, single word, full word, one-past-a-word,
// and a partial second word — where a masking bug would double-count or drop
// the bits above n_bits.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "wmcast/util/bitset.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/simd.hpp"

namespace wmcast {
namespace {

constexpr int kEdgeSizes[] = {0, 1, 63, 64, 65, 127};

// Deterministic ~half-density bit pattern with all trailing-word shapes.
util::DynBitset patterned(int n_bits, uint64_t seed) {
  util::DynBitset b(n_bits);
  util::Rng rng(seed);
  for (int i = 0; i < n_bits; ++i) {
    if (rng.next_u64() & 1) b.set(i);
  }
  return b;
}

int count_reference(const util::DynBitset& b, int n_bits) {
  int n = 0;
  for (int i = 0; i < n_bits; ++i) n += b.test(i) ? 1 : 0;
  return n;
}

TEST(SimdKernelsTest, ScalarMatchesDispatchedOnWordArrays) {
  util::Rng rng(2024);
  // Sizes straddle the n >= 8 AVX2 dispatch threshold and the 4x unroll.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                         size_t{8}, size_t{9}, size_t{31}, size_t{256},
                         size_t{1000}}) {
    std::vector<uint64_t> a(n), b(n);
    for (auto& w : a) w = rng.next_u64();
    for (auto& w : b) w = rng.next_u64();
    EXPECT_EQ(simd::popcount_words(a.data(), n),
              simd::popcount_words_scalar(a.data(), n))
        << "n=" << n;
    EXPECT_EQ(simd::popcount_and_words(a.data(), b.data(), n),
              simd::popcount_and_words_scalar(a.data(), b.data(), n))
        << "n=" << n;
    EXPECT_EQ(simd::popcount_andnot_words(a.data(), b.data(), n),
              simd::popcount_andnot_words_scalar(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(SimdKernelsTest, ModeNamesRoundTrip) {
  EXPECT_EQ(simd::mode_from_name("auto"), simd::Mode::kAuto);
  EXPECT_EQ(simd::mode_from_name("scalar"), simd::Mode::kScalar);
  EXPECT_THROW(simd::mode_from_name("sse9"), std::invalid_argument);
  EXPECT_STREQ(simd::mode_name(simd::Mode::kScalar), "scalar");
  EXPECT_STREQ(simd::mode_name(simd::Mode::kAuto), "auto");
  EXPECT_STREQ(simd::mode_name(simd::Mode::kAvx2), "avx2");
  if (!simd::caps().avx2) {
    EXPECT_THROW(simd::set_mode(simd::Mode::kAvx2), std::invalid_argument);
  }
}

TEST(SimdKernelsTest, ScopedModeRestores) {
  const simd::Mode before = simd::mode();
  {
    simd::ScopedMode force(simd::Mode::kScalar);
    EXPECT_EQ(simd::mode(), simd::Mode::kScalar);
    EXPECT_FALSE(simd::active_avx2());
  }
  EXPECT_EQ(simd::mode(), before);
}

TEST(BitsetEdgeTest, CountAtEveryTrailingWordShape) {
  for (const int n : kEdgeSizes) {
    const util::DynBitset b = patterned(n, 7 + static_cast<uint64_t>(n));
    const int expected = count_reference(b, n);
    EXPECT_EQ(b.count(), expected) << "n=" << n;
    simd::ScopedMode force(simd::Mode::kScalar);
    EXPECT_EQ(b.count(), expected) << "scalar n=" << n;
  }
}

TEST(BitsetEdgeTest, AndAndnotCountsMatchScalarAtEdgeSizes) {
  for (const int n : kEdgeSizes) {
    const util::DynBitset a = patterned(n, 11 + static_cast<uint64_t>(n));
    const util::DynBitset b = patterned(n, 13 + static_cast<uint64_t>(n));
    int and_ref = 0;
    int andnot_ref = 0;
    for (int i = 0; i < n; ++i) {
      and_ref += (a.test(i) && b.test(i)) ? 1 : 0;
      andnot_ref += (a.test(i) && !b.test(i)) ? 1 : 0;
    }
    EXPECT_EQ(a.and_count(b), and_ref) << "n=" << n;
    EXPECT_EQ(a.andnot_count(b), andnot_ref) << "n=" << n;
    simd::ScopedMode force(simd::Mode::kScalar);
    EXPECT_EQ(a.and_count(b), and_ref) << "scalar n=" << n;
    EXPECT_EQ(a.andnot_count(b), andnot_ref) << "scalar n=" << n;
  }
}

TEST(BitsetEdgeTest, VisitorsMatchTestLoopAtEdgeSizes) {
  for (const int n : kEdgeSizes) {
    const util::DynBitset a = patterned(n, 17 + static_cast<uint64_t>(n));
    const util::DynBitset b = patterned(n, 19 + static_cast<uint64_t>(n));
    std::vector<int> plain_ref, and_ref, andnot_ref;
    for (int i = 0; i < n; ++i) {
      if (a.test(i)) plain_ref.push_back(i);
      if (a.test(i) && b.test(i)) and_ref.push_back(i);
      if (a.test(i) && !b.test(i)) andnot_ref.push_back(i);
    }
    std::vector<int> plain, both, anot;
    a.for_each([&](int i) { plain.push_back(i); });
    a.for_each_and(b, [&](int i) { both.push_back(i); });
    a.for_each_andnot(b, [&](int i) { anot.push_back(i); });
    EXPECT_EQ(plain, plain_ref) << "n=" << n;
    EXPECT_EQ(both, and_ref) << "n=" << n;
    EXPECT_EQ(anot, andnot_ref) << "n=" << n;
  }
}

TEST(BitsetEdgeTest, TestAndReset) {
  util::DynBitset b(65);
  b.set(0);
  b.set(64);
  EXPECT_TRUE(b.test_and_reset(64));
  EXPECT_FALSE(b.test(64));
  EXPECT_FALSE(b.test_and_reset(64));
  EXPECT_TRUE(b.test_and_reset(0));
  EXPECT_EQ(b.count(), 0);
}

}  // namespace
}  // namespace wmcast
