// IndexSet / IdSet: word-parallel membership, ascending iteration, and
// the insertion-order-independent hash the PlanCache keys rely on; and the
// bit-range operations behind the simulator's FB-word occupancy map.
#include "msys/common/bitset.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "msys/common/hash.hpp"
#include "msys/common/rng.hpp"
#include "msys/common/types.hpp"

namespace msys {
namespace {

std::vector<std::uint32_t> as_vector(const IndexSet& s) {
  std::vector<std::uint32_t> out;
  for (const std::uint32_t i : s) out.push_back(i);
  return out;
}

std::uint64_t hash_of(const IndexSet& s) {
  Hasher h;
  hash_append(h, s);
  return h.finalize();
}

TEST(IndexSet, InsertEraseContains) {
  IndexSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(7));
  EXPECT_FALSE(s.insert(7));  // duplicate insert reports not-new
  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.insert(63));
  EXPECT_TRUE(s.insert(64));  // word boundary
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s.contains(7));
  EXPECT_TRUE(s.contains(64));
  EXPECT_FALSE(s.contains(8));
  EXPECT_TRUE(s.erase(7));
  EXPECT_FALSE(s.erase(7));  // double erase reports absent
  EXPECT_FALSE(s.contains(7));
  EXPECT_EQ(s.size(), 3u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(0));
}

TEST(IndexSet, IterationIsAscendingRegardlessOfInsertionOrder) {
  IndexSet s;
  for (const std::uint32_t i : {200U, 3U, 64U, 0U, 129U, 63U}) s.insert(i);
  EXPECT_EQ(as_vector(s), (std::vector<std::uint32_t>{0, 3, 63, 64, 129, 200}));
}

TEST(IndexSet, SpillsPastInlineCapacityTransparently) {
  IndexSet s;
  // Indices past kInlineWords * 64 land in the heap spill vector.
  const std::uint32_t big = IndexSet::kInlineWords * 64 + 10;
  EXPECT_FALSE(s.contains(big));  // probing unallocated spill is safe
  EXPECT_TRUE(s.insert(big));
  EXPECT_TRUE(s.insert(big + 500));
  EXPECT_TRUE(s.insert(5));  // inline and spill coexist
  EXPECT_TRUE(s.contains(big));
  EXPECT_EQ(as_vector(s), (std::vector<std::uint32_t>{5, big, big + 500}));
  EXPECT_TRUE(s.erase(big + 500));
  EXPECT_FALSE(s.contains(big + 500));
}

TEST(IndexSet, EqualityIsByMembershipNotCapacity) {
  IndexSet a;
  IndexSet b;
  a.insert(3);
  a.insert(90);
  b.insert(90);
  b.insert(3);
  EXPECT_EQ(a, b);
  // Grow b's spill then remove the element again: capacity differs,
  // membership matches.
  b.insert(1000);
  EXPECT_FALSE(a == b);
  b.erase(1000);
  EXPECT_EQ(a, b);
  b.erase(90);
  EXPECT_FALSE(a == b);
}

TEST(IndexSet, HashIsInsertionOrderAndCapacityIndependent) {
  IndexSet a;
  IndexSet b;
  for (const std::uint32_t i : {5U, 70U, 300U}) a.insert(i);
  for (const std::uint32_t i : {300U, 5U, 70U}) b.insert(i);
  EXPECT_EQ(hash_of(a), hash_of(b));
  // A transiently larger spill must not change the hash once membership
  // is back to equal.
  b.insert(5000);
  b.erase(5000);
  EXPECT_EQ(hash_of(a), hash_of(b));
  b.erase(70);
  EXPECT_NE(hash_of(a), hash_of(b));
}

TEST(IdSet, TypedInterfaceIteratesAscendingIds) {
  IdSet<DataId> s{DataId{9}, DataId{2}, DataId{70}};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(DataId{2}));
  EXPECT_FALSE(s.contains(DataId{}));  // invalid id is never a member
  std::vector<std::uint32_t> got;
  for (const DataId d : s) got.push_back(d.index());
  EXPECT_EQ(got, (std::vector<std::uint32_t>{2, 9, 70}));
  EXPECT_TRUE(s.erase(DataId{9}));
  EXPECT_FALSE(s.erase(DataId{}));  // erasing an invalid id is a no-op
  EXPECT_EQ(s.size(), 2u);
}

/// The set bits of a word array, in ascending order.
std::vector<std::uint64_t> set_bits(const std::vector<std::uint64_t>& words) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < words.size() * 64; ++i) {
    if ((words[i / 64] >> (i % 64)) & 1U) out.push_back(i);
  }
  return out;
}

std::vector<std::uint64_t> iota(std::uint64_t begin, std::uint64_t end) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = begin; i < end; ++i) out.push_back(i);
  return out;
}

TEST(BitRange, RangesAtWordBoundaries) {
  // [begin, end) pairs starting or ending at bits 0, 63 and 64.
  const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
      {0, 1}, {0, 63}, {0, 64}, {0, 65}, {63, 64}, {63, 65}, {64, 65}, {64, 128}, {1, 63}};
  for (const auto& [begin, end] : ranges) {
    std::vector<std::uint64_t> words(3, 0);
    set_range(words, begin, end);
    EXPECT_EQ(set_bits(words), iota(begin, end)) << begin << ".." << end;
    EXPECT_TRUE(any_in_range(words, begin, end));
    EXPECT_TRUE(any_in_range(words, end - 1, end));
    EXPECT_FALSE(any_in_range(words, end, 192));
    EXPECT_FALSE(any_in_range(words, 0, begin));  // empty when begin is 0
    clear_range(words, begin, end);
    EXPECT_TRUE(set_bits(words).empty()) << begin << ".." << end;
  }
}

TEST(BitRange, RangeAcrossSeveralWords) {
  std::vector<std::uint64_t> words(5, 0);
  set_range(words, 10, 300);
  EXPECT_EQ(words[0], ~((1ULL << 10) - 1));
  EXPECT_EQ(words[1], ~0ULL);
  EXPECT_EQ(words[3], ~0ULL);
  EXPECT_EQ(words[4], (1ULL << (300 - 256)) - 1);
  EXPECT_EQ(set_bits(words), iota(10, 300));
  // Clearing a middle stretch leaves both ends set.
  clear_range(words, 60, 200);
  std::vector<std::uint64_t> want = iota(10, 60);
  for (const std::uint64_t i : iota(200, 300)) want.push_back(i);
  EXPECT_EQ(set_bits(words), want);
  EXPECT_FALSE(any_in_range(words, 60, 200));
  EXPECT_TRUE(any_in_range(words, 59, 200));
  EXPECT_TRUE(any_in_range(words, 60, 201));
}

TEST(BitRange, RangeEndingExactlyAtCapacity) {
  std::vector<std::uint64_t> words(2, 0);  // capacity 128 bits
  set_range(words, 100, 128);
  EXPECT_EQ(set_bits(words), iota(100, 128));
  EXPECT_TRUE(any_in_range(words, 127, 128));
  EXPECT_FALSE(any_in_range(words, 0, 100));
  set_range(words, 0, 128);
  EXPECT_EQ(words[0], ~0ULL);
  EXPECT_EQ(words[1], ~0ULL);
  clear_range(words, 0, 128);
  EXPECT_TRUE(set_bits(words).empty());
}

TEST(BitRange, EmptyRangesTouchNothing) {
  std::vector<std::uint64_t> words(2, 0);
  set_range(words, 0, 128);
  // Empty ranges inside, at a word boundary and at the end of a full array.
  for (const std::uint64_t at : {0U, 5U, 63U, 64U, 128U}) {
    EXPECT_FALSE(any_in_range(words, at, at)) << at;
    clear_range(words, at, at);
  }
  EXPECT_EQ(set_bits(words), iota(0, 128));
  std::vector<std::uint64_t> empty(2, 0);
  for (const std::uint64_t at : {0U, 63U, 64U, 128U}) set_range(empty, at, at);
  EXPECT_TRUE(set_bits(empty).empty());
}

TEST(BitRange, MatchesAPerBitModel) {
  constexpr std::uint64_t kBits = 320;
  Rng rng(7);
  std::vector<std::uint64_t> words(kBits / 64, 0);
  std::vector<bool> model(kBits, false);
  for (int step = 0; step < 2000; ++step) {
    std::uint64_t begin = rng.uniform(0, kBits);
    std::uint64_t end = rng.uniform(0, kBits);
    if (begin > end) std::swap(begin, end);
    bool any = false;
    for (std::uint64_t i = begin; i < end; ++i) any = any || model[i];
    ASSERT_EQ(any_in_range(words, begin, end), any) << begin << ".." << end;
    const bool set = rng.chance(1, 2);
    if (set) {
      set_range(words, begin, end);
    } else {
      clear_range(words, begin, end);
    }
    for (std::uint64_t i = begin; i < end; ++i) model[i] = set;
    for (std::uint64_t i = 0; i < kBits; ++i) {
      ASSERT_EQ(((words[i / 64] >> (i % 64)) & 1U) != 0, model[i]) << "bit " << i;
    }
  }
}

}  // namespace
}  // namespace msys
