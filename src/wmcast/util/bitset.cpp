#include "wmcast/util/bitset.hpp"

#include "wmcast/util/assert.hpp"
#include "wmcast/util/simd.hpp"

namespace wmcast::util {

DynBitset::DynBitset(int n_bits)
    : n_bits_(n_bits),
      words_(static_cast<std::size_t>((n_bits + 63) / 64), 0) {
  WMCAST_ASSERT(n_bits >= 0, "bitset size must be non-negative");
}

void DynBitset::set(int i) {
  WMCAST_ASSERT(i >= 0 && i < n_bits_, "bit index out of range");
  words_[static_cast<std::size_t>(i) / 64] |= uint64_t{1} << (i % 64);
}

void DynBitset::reset(int i) {
  WMCAST_ASSERT(i >= 0 && i < n_bits_, "bit index out of range");
  words_[static_cast<std::size_t>(i) / 64] &= ~(uint64_t{1} << (i % 64));
}

bool DynBitset::test(int i) const {
  WMCAST_ASSERT(i >= 0 && i < n_bits_, "bit index out of range");
  return (words_[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1;
}

bool DynBitset::test_and_reset(int i) {
  WMCAST_ASSERT(i >= 0 && i < n_bits_, "bit index out of range");
  uint64_t& w = words_[static_cast<std::size_t>(i) / 64];
  const uint64_t mask = uint64_t{1} << (i % 64);
  const bool was = (w & mask) != 0;
  w &= ~mask;
  return was;
}

void DynBitset::set_all() {
  for (auto& w : words_) w = ~uint64_t{0};
  // Clear the bits above n_bits_ in the last word so count() stays exact.
  if (n_bits_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << (n_bits_ % 64)) - 1;
  }
}

void DynBitset::reset_all() {
  for (auto& w : words_) w = 0;
}

int DynBitset::count() const {
  return simd::popcount_words(words_.data(), words_.size());
}

bool DynBitset::any() const {
  const uint64_t* w = words_.data();
  const std::size_t n = words_.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if ((w[i] | w[i + 1] | w[i + 2] | w[i + 3]) != 0) return true;
  }
  for (; i < n; ++i) {
    if (w[i] != 0) return true;
  }
  return false;
}

int DynBitset::and_count(const DynBitset& other) const {
  WMCAST_ASSERT(n_bits_ == other.n_bits_, "bitset universe mismatch");
  return simd::popcount_and_words(words_.data(), other.words_.data(),
                                  words_.size());
}

int DynBitset::andnot_count(const DynBitset& other) const {
  WMCAST_ASSERT(n_bits_ == other.n_bits_, "bitset universe mismatch");
  return simd::popcount_andnot_words(words_.data(), other.words_.data(),
                                     words_.size());
}

void DynBitset::resize(int n_bits) {
  WMCAST_ASSERT(n_bits >= 0, "bitset size must be non-negative");
  n_bits_ = n_bits;
  words_.resize(static_cast<std::size_t>((n_bits + 63) / 64), 0);
  // Clear the bits above n_bits_ in the last word so count() stays exact.
  if (n_bits_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << (n_bits_ % 64)) - 1;
  }
}

bool DynBitset::intersects(const DynBitset& other) const {
  WMCAST_ASSERT(n_bits_ == other.n_bits_, "bitset universe mismatch");
  const uint64_t* a = words_.data();
  const uint64_t* b = other.words_.data();
  const std::size_t n = words_.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (((a[i] & b[i]) | (a[i + 1] & b[i + 1]) | (a[i + 2] & b[i + 2]) |
         (a[i + 3] & b[i + 3])) != 0) {
      return true;
    }
  }
  for (; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

bool DynBitset::is_subset_of(const DynBitset& other) const {
  WMCAST_ASSERT(n_bits_ == other.n_bits_, "bitset universe mismatch");
  const uint64_t* a = words_.data();
  const uint64_t* b = other.words_.data();
  const std::size_t n = words_.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (((a[i] & ~b[i]) | (a[i + 1] & ~b[i + 1]) | (a[i + 2] & ~b[i + 2]) |
         (a[i + 3] & ~b[i + 3])) != 0) {
      return false;
    }
  }
  for (; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

void DynBitset::or_assign(const DynBitset& other) {
  WMCAST_ASSERT(n_bits_ == other.n_bits_, "bitset universe mismatch");
  uint64_t* a = words_.data();
  const uint64_t* b = other.words_.data();
  for (std::size_t i = 0; i < words_.size(); ++i) a[i] |= b[i];
}

void DynBitset::and_assign(const DynBitset& other) {
  WMCAST_ASSERT(n_bits_ == other.n_bits_, "bitset universe mismatch");
  uint64_t* a = words_.data();
  const uint64_t* b = other.words_.data();
  for (std::size_t i = 0; i < words_.size(); ++i) a[i] &= b[i];
}

void DynBitset::andnot_assign(const DynBitset& other) {
  WMCAST_ASSERT(n_bits_ == other.n_bits_, "bitset universe mismatch");
  uint64_t* a = words_.data();
  const uint64_t* b = other.words_.data();
  for (std::size_t i = 0; i < words_.size(); ++i) a[i] &= ~b[i];
}

std::vector<int> DynBitset::to_indices() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count()));
  for_each([&out](int i) { out.push_back(i); });
  return out;
}

}  // namespace wmcast::util
