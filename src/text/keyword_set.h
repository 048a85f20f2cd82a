// Keyword sets: the textual side of spatial web objects and queries.
//
// A KeywordSet is an immutable-ish sorted, duplicate-free vector of term
// ids. All set algebra used by the paper lives here: intersection/union
// sizes for Jaccard (Eqn 2), set difference for candidate generation, and
// the insertion/deletion edit distance of the penalty model (Eqn 4).
#ifndef WSK_TEXT_KEYWORD_SET_H_
#define WSK_TEXT_KEYWORD_SET_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace wsk {

using TermId = uint32_t;

class KeywordSet {
 public:
  KeywordSet() = default;
  KeywordSet(std::initializer_list<TermId> terms)
      : KeywordSet(std::vector<TermId>(terms)) {}
  // Sorts and deduplicates.
  explicit KeywordSet(std::vector<TermId> terms);

  // Wraps a vector that is already sorted and unique (checked in debug).
  static KeywordSet FromSorted(std::vector<TermId> terms);

  bool Contains(TermId t) const;
  size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }

  const std::vector<TermId>& terms() const { return terms_; }
  auto begin() const { return terms_.begin(); }
  auto end() const { return terms_.end(); }

  size_t IntersectionSize(const KeywordSet& other) const;
  size_t UnionSize(const KeywordSet& other) const {
    return size() + other.size() - IntersectionSize(other);
  }

  KeywordSet Union(const KeywordSet& other) const;
  KeywordSet Intersect(const KeywordSet& other) const;
  // Terms in this set that are not in `other`.
  KeywordSet Subtract(const KeywordSet& other) const;

  // Returns a copy with `t` added / removed.
  KeywordSet With(TermId t) const;
  KeywordSet Without(TermId t) const;

  // Adds `t` in place; returns its index and whether it was new.
  std::pair<size_t, bool> Insert(TermId t);

  // Serialization: little-endian u32 count followed by the sorted term ids.
  void Serialize(std::vector<uint8_t>* out) const;
  static KeywordSet Deserialize(const uint8_t* data, size_t size);
  size_t SerializedSize() const { return 4 + 4 * terms_.size(); }

  std::string ToString() const;  // "{1, 5, 9}"

  friend bool operator==(const KeywordSet& a, const KeywordSet& b) {
    return a.terms_ == b.terms_;
  }
  friend bool operator<(const KeywordSet& a, const KeywordSet& b) {
    return a.terms_ < b.terms_;
  }

 private:
  std::vector<TermId> terms_;
};

// Number of insert/delete operations turning `from` into `to`
// (= |from \ to| + |to \ from|); the paper's ED(doc0, doc').
size_t EditDistance(const KeywordSet& from, const KeywordSet& to);

namespace internal {

// The individual intersection paths behind KeywordSet::IntersectionSize,
// exposed so tests and benches can pin each against the others. All inputs
// are sorted and duplicate-free.

// Linear two-pointer merge (the reference).
size_t IntersectionSizeScalar(const TermId* a, size_t na, const TermId* b,
                              size_t nb);

// Exponential (galloping) search of the larger array per element of the
// smaller; wins when the sizes are heavily skewed. Requires ns <= nl.
size_t IntersectionSizeGalloping(const TermId* s, size_t ns, const TermId* l,
                                 size_t nl);

// Block compare over 4-wide (SSE2) / 8-wide (AVX2, when compiled in)
// chunks; portable scalar fallback on other targets. Wins for comparable
// sizes.
size_t IntersectionSizeBlock(const TermId* a, size_t na, const TermId* b,
                             size_t nb);

}  // namespace internal

}  // namespace wsk

#endif  // WSK_TEXT_KEYWORD_SET_H_
