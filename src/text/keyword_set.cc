#include "text/keyword_set.h"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/macros.h"

namespace wsk {

namespace internal {

size_t IntersectionSizeScalar(const TermId* a, size_t na, const TermId* b,
                              size_t nb) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

size_t IntersectionSizeGalloping(const TermId* s, size_t ns, const TermId* l,
                                 size_t nl) {
  size_t count = 0;
  size_t base = 0;
  for (size_t i = 0; i < ns && base < nl; ++i) {
    const TermId t = s[i];
    // Exponential probe from the previous match position, then a binary
    // search inside the bracketed window.
    size_t offset = 0;
    size_t step = 1;
    while (base + step < nl && l[base + step] < t) {
      offset = step;
      step <<= 1;
    }
    const TermId* it = std::lower_bound(
        l + base + offset, l + std::min(nl, base + step + 1), t);
    base = static_cast<size_t>(it - l);
    if (base < nl && l[base] == t) {
      ++count;
      ++base;
    }
  }
  return count;
}

size_t IntersectionSizeBlock(const TermId* a, size_t na, const TermId* b,
                             size_t nb) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
#if defined(__AVX2__)
  // Compare an 8-lane block of `a` against all 8 rotations of a block of
  // `b`; sets are duplicate-free, so each lane matches at most once and the
  // OR-reduced compare mask counts matches exactly.
  const __m256i rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i cmp = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      vb = _mm256_permutevar8x32_epi32(vb, rotate1);
      cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi32(va, vb));
    }
    count += static_cast<size_t>(std::popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(cmp)))));
    const TermId amax = a[i + 7];
    const TermId bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
#endif
#if defined(__SSE2__)
  while (i + 4 <= na && j + 4 <= nb) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i cmp = _mm_cmpeq_epi32(va, vb);
    cmp = _mm_or_si128(
        cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2,
                                                                   1))));
    cmp = _mm_or_si128(
        cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3,
                                                                   2))));
    cmp = _mm_or_si128(
        cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0,
                                                                   3))));
    count += static_cast<size_t>(std::popcount(
        static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(cmp)))));
    const TermId amax = a[i + 3];
    const TermId bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
#endif
  return count + IntersectionSizeScalar(a + i, na - i, b + j, nb - j);
}

}  // namespace internal

KeywordSet::KeywordSet(std::vector<TermId> terms) : terms_(std::move(terms)) {
  std::sort(terms_.begin(), terms_.end());
  terms_.erase(std::unique(terms_.begin(), terms_.end()), terms_.end());
}

KeywordSet KeywordSet::FromSorted(std::vector<TermId> terms) {
  KeywordSet set;
#ifndef NDEBUG
  for (size_t i = 1; i < terms.size(); ++i) WSK_CHECK(terms[i - 1] < terms[i]);
#endif
  set.terms_ = std::move(terms);
  return set;
}

bool KeywordSet::Contains(TermId t) const {
  return std::binary_search(terms_.begin(), terms_.end(), t);
}

size_t KeywordSet::IntersectionSize(const KeywordSet& other) const {
  const TermId* a = terms_.data();
  const TermId* b = other.terms_.data();
  size_t na = terms_.size();
  size_t nb = other.terms_.size();
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
  // Heavily skewed sizes: gallop through the large set. Comparable sizes
  // big enough to fill SIMD blocks: block compare. Otherwise the plain
  // merge wins on setup cost.
  if (na * 16 < nb) return internal::IntersectionSizeGalloping(a, na, b, nb);
  if (na >= 8) return internal::IntersectionSizeBlock(a, na, b, nb);
  return internal::IntersectionSizeScalar(a, na, b, nb);
}

KeywordSet KeywordSet::Union(const KeywordSet& other) const {
  std::vector<TermId> out;
  out.reserve(size() + other.size());
  std::set_union(terms_.begin(), terms_.end(), other.terms_.begin(),
                 other.terms_.end(), std::back_inserter(out));
  return FromSorted(std::move(out));
}

KeywordSet KeywordSet::Intersect(const KeywordSet& other) const {
  std::vector<TermId> out;
  std::set_intersection(terms_.begin(), terms_.end(), other.terms_.begin(),
                        other.terms_.end(), std::back_inserter(out));
  return FromSorted(std::move(out));
}

KeywordSet KeywordSet::Subtract(const KeywordSet& other) const {
  std::vector<TermId> out;
  std::set_difference(terms_.begin(), terms_.end(), other.terms_.begin(),
                      other.terms_.end(), std::back_inserter(out));
  return FromSorted(std::move(out));
}

KeywordSet KeywordSet::With(TermId t) const {
  if (Contains(t)) return *this;
  std::vector<TermId> out = terms_;
  out.insert(std::upper_bound(out.begin(), out.end(), t), t);
  return FromSorted(std::move(out));
}

KeywordSet KeywordSet::Without(TermId t) const {
  std::vector<TermId> out = terms_;
  auto it = std::lower_bound(out.begin(), out.end(), t);
  if (it != out.end() && *it == t) out.erase(it);
  return FromSorted(std::move(out));
}

std::pair<size_t, bool> KeywordSet::Insert(TermId t) {
  auto it = std::lower_bound(terms_.begin(), terms_.end(), t);
  const size_t index = static_cast<size_t>(it - terms_.begin());
  if (it != terms_.end() && *it == t) return {index, false};
  terms_.insert(it, t);
  return {index, true};
}

void KeywordSet::Serialize(std::vector<uint8_t>* out) const {
  const size_t base = out->size();
  out->resize(base + SerializedSize());
  const uint32_t count = static_cast<uint32_t>(terms_.size());
  std::memcpy(out->data() + base, &count, 4);
  if (count > 0) {
    std::memcpy(out->data() + base + 4, terms_.data(), 4 * terms_.size());
  }
}

KeywordSet KeywordSet::Deserialize(const uint8_t* data, size_t size) {
  WSK_CHECK(size >= 4);
  uint32_t count;
  std::memcpy(&count, data, 4);
  WSK_CHECK(size >= 4 + 4ull * count);
  std::vector<TermId> terms(count);
  if (count > 0) std::memcpy(terms.data(), data + 4, 4ull * count);
  return FromSorted(std::move(terms));
}

std::string KeywordSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(terms_[i]);
  }
  out += "}";
  return out;
}

size_t EditDistance(const KeywordSet& from, const KeywordSet& to) {
  const size_t common = from.IntersectionSize(to);
  return (from.size() - common) + (to.size() - common);
}

}  // namespace wsk
