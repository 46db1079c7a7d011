// Word-parallel sets of small dense indices.
//
// The schedulers track retained objects, PlanCache keys hash retained
// sets, and §4's greedy retention tests membership inside the Figure-4
// walk's innermost loops.  A node-based std::unordered_set makes each of
// those a pointer chase, iterates in a stdlib-hash-dependent order (not
// even stable across platforms), and forces key builders to copy + sort
// before hashing.  IndexSet stores membership as bits: contains/insert/
// erase are one word op, equality and hashing stream whole words with no
// sorting, and iteration is ascending by construction — so any structure
// that consumes the set's order (ReleaseEvent streams, cache keys) is
// canonical for free.
//
// Ids are dense and small (they index the owning container's vectors), so
// kInlineWords words of inline storage cover every real workload; larger
// universes spill to the heap transparently.
//
// The range operations at the end work on a plain array of words instead:
// the simulator keeps one bit per Frame Buffer word and marks or tests a
// whole extent at a time, a word op per 64 FB words.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/common/hash.hpp"
#include "msys/common/types.hpp"

namespace msys {

/// Bitset-backed set of std::uint32_t indices.  Iteration is always
/// ascending.  Equality is by membership (capacity never matters).
class IndexSet {
 public:
  /// 4 × 64 = indices 0..255 without touching the heap.
  static constexpr std::size_t kInlineWords = 4;

  IndexSet() = default;

  /// True when `i` was newly inserted (mirrors std::set::insert().second).
  bool insert(std::uint32_t i) {
    std::uint64_t& w = word_for(i);
    const std::uint64_t bit = 1ULL << (i & 63U);
    if ((w & bit) != 0) return false;
    w |= bit;
    ++size_;
    return true;
  }

  /// True when `i` was present (mirrors std::set::erase() count).
  bool erase(std::uint32_t i) {
    const std::size_t word = i >> 6U;
    if (word >= kInlineWords + spill_.size()) return false;
    std::uint64_t& w = word >= kInlineWords ? spill_[word - kInlineWords] : inline_[word];
    const std::uint64_t bit = 1ULL << (i & 63U);
    if ((w & bit) == 0) return false;
    w &= ~bit;
    --size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint32_t i) const {
    const std::size_t word = i >> 6U;
    if (word < kInlineWords) return (inline_[word] >> (i & 63U)) & 1U;
    const std::size_t s = word - kInlineWords;
    return s < spill_.size() && ((spill_[s] >> (i & 63U)) & 1U) != 0;
  }

  void clear() {
    inline_ = {};
    spill_.clear();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] std::size_t word_count() const { return kInlineWords + spill_.size(); }
  [[nodiscard]] std::uint64_t word(std::size_t i) const {
    return i < kInlineWords ? inline_[i] : spill_[i - kInlineWords];
  }

  friend bool operator==(const IndexSet& a, const IndexSet& b) {
    if (a.size_ != b.size_) return false;
    const std::size_t words = std::max(a.word_count(), b.word_count());
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint64_t wa = i < a.word_count() ? a.word(i) : 0;
      const std::uint64_t wb = i < b.word_count() ? b.word(i) : 0;
      if (wa != wb) return false;
    }
    return true;
  }

  /// Ascending iteration over the set indices (ctz word scan).
  class iterator {
   public:
    using value_type = std::uint32_t;

    iterator(const IndexSet* set, std::size_t word) : set_(set), word_(word) {
      advance_to_nonempty();
    }

    std::uint32_t operator*() const {
      return static_cast<std::uint32_t>(word_ * 64 +
                                        static_cast<std::uint32_t>(__builtin_ctzll(bits_)));
    }
    iterator& operator++() {
      bits_ &= bits_ - 1;  // clear lowest set bit
      if (bits_ == 0) {
        ++word_;
        advance_to_nonempty();
      }
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.word_ == b.word_ && a.bits_ == b.bits_;
    }

   private:
    void advance_to_nonempty() {
      const std::size_t words = set_->word_count();
      for (; word_ < words; ++word_) {
        bits_ = set_->word(word_);
        if (bits_ != 0) return;
      }
      bits_ = 0;  // end: word_ == word_count()
      word_ = words;
    }

    const IndexSet* set_;
    std::size_t word_;
    std::uint64_t bits_{0};
  };

  [[nodiscard]] iterator begin() const { return iterator(this, 0); }
  [[nodiscard]] iterator end() const { return iterator(this, word_count()); }

 private:
  std::uint64_t& word_for(std::uint32_t i) {
    const std::size_t word = i >> 6U;
    if (word < kInlineWords) return inline_[word];
    MSYS_REQUIRE(word < (1U << 20U), "IndexSet index implausibly large");
    if (word - kInlineWords >= spill_.size()) spill_.resize(word - kInlineWords + 1, 0);
    return spill_[word - kInlineWords];
  }

  std::array<std::uint64_t, kInlineWords> inline_{};
  std::vector<std::uint64_t> spill_;
  std::uint32_t size_{0};
};

/// Canonical encoding: cardinality, then every non-zero word as
/// (word index, word bits) — independent of spill capacity and of the
/// order elements were inserted, with no sort and no copy.
inline void hash_append(Hasher& h, const IndexSet& s) {
  h.update_u64(s.size());
  const std::size_t words = s.word_count();
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = s.word(i);
    if (w == 0) continue;
    h.update_u64(i);
    h.update_u64(w);
  }
}

/// IndexSet over a strong Id type: same word-parallel representation,
/// typed element interface.  Iteration yields Ids in ascending index
/// order.
template <class IdT>
class IdSet {
 public:
  IdSet() = default;
  IdSet(std::initializer_list<IdT> ids) {
    for (const IdT id : ids) insert(id);
  }

  bool insert(IdT id) {
    MSYS_REQUIRE(id.valid(), "IdSet cannot hold invalid ids");
    return bits_.insert(id.index());
  }
  bool erase(IdT id) { return id.valid() && bits_.erase(id.index()); }
  [[nodiscard]] bool contains(IdT id) const { return id.valid() && bits_.contains(id.index()); }

  void clear() { bits_.clear(); }
  [[nodiscard]] std::size_t size() const { return bits_.size(); }
  [[nodiscard]] bool empty() const { return bits_.empty(); }

  [[nodiscard]] const IndexSet& bits() const { return bits_; }

  friend bool operator==(const IdSet&, const IdSet&) = default;

  class iterator {
   public:
    using value_type = IdT;
    explicit iterator(IndexSet::iterator it) : it_(it) {}
    IdT operator*() const { return IdT{*it_}; }
    iterator& operator++() {
      ++it_;
      return *this;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    IndexSet::iterator it_;
  };

  [[nodiscard]] iterator begin() const { return iterator(bits_.begin()); }
  [[nodiscard]] iterator end() const { return iterator(bits_.end()); }

 private:
  IndexSet bits_;
};

template <class IdT>
inline void hash_append(Hasher& h, const IdSet<IdT>& s) {
  hash_append(h, s.bits());
}

// ---------------------------------------------------------------------------
// Bit ranges over a word array: bit i is bit (i % 64) of words[i / 64].
// Each function covers the half-open range [begin, end); an empty range
// touches nothing.  The caller keeps `end` within the array.
// ---------------------------------------------------------------------------

namespace detail {

/// The bits of word `w` that fall inside [begin, end); needs begin < end
/// and the word to overlap the range.
[[nodiscard]] constexpr std::uint64_t range_mask(std::uint64_t w, std::uint64_t begin,
                                                 std::uint64_t end) {
  const std::uint64_t base = w * 64;
  const std::uint64_t from = std::max(begin, base) - base;     // 0..63
  const std::uint64_t to = std::min(end, base + 64) - base;    // 1..64
  const std::uint64_t below_to = to == 64 ? ~0ULL : (1ULL << to) - 1;
  return below_to & ~((1ULL << from) - 1);
}

}  // namespace detail

/// True when any bit in [begin, end) is set.
[[nodiscard]] inline bool any_in_range(std::span<const std::uint64_t> words,
                                       std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return false;
  for (std::uint64_t w = begin / 64; w <= (end - 1) / 64; ++w) {
    if ((words[w] & detail::range_mask(w, begin, end)) != 0) return true;
  }
  return false;
}

/// Sets every bit in [begin, end).
inline void set_range(std::span<std::uint64_t> words, std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  for (std::uint64_t w = begin / 64; w <= (end - 1) / 64; ++w) {
    words[w] |= detail::range_mask(w, begin, end);
  }
}

/// Clears every bit in [begin, end).
inline void clear_range(std::span<std::uint64_t> words, std::uint64_t begin,
                        std::uint64_t end) {
  if (begin >= end) return;
  for (std::uint64_t w = begin / 64; w <= (end - 1) / 64; ++w) {
    words[w] &= ~detail::range_mask(w, begin, end);
  }
}

}  // namespace msys
