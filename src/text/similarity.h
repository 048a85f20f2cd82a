// Textual similarity models.
//
// The paper's ranking function uses Jaccard similarity (Eqn 2); footnote 1
// notes that the framework extends to other set-based models, so Dice and
// Overlap are provided behind the same interface. Each model also exposes
// the node-level upper bound needed by Theorem 1: given a tree node N with
// union keyword set N_u and intersection keyword set N_i, the similarity of
// any object under N to a query keyword set q is at most
// NodeUpperBound(|N_u ∩ q|, |N_i|, |q|), because |o ∩ q| <= |N_u ∩ q| and
// |o ∪ q| >= |N_i ∪ q|.
//
// N_i is almost always empty above the leaves, so that bound sits near 1.
// The length-aware bound tightens it with ℓ_t, the length of the shortest
// document under N that contains union term t: an object matching j query
// terms has at least j terms and contains a term with ℓ_t >= ℓ_(j), the
// j-th smallest ℓ among the query terms in N_u (DESIGN.md "Length-aware
// node bound").
#ifndef WSK_TEXT_SIMILARITY_H_
#define WSK_TEXT_SIMILARITY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "text/keyword_set.h"

namespace wsk {

enum class SimilarityModel {
  kJaccard,  // |a ∩ b| / |a ∪ b|
  kDice,     // 2|a ∩ b| / (|a| + |b|)
  kOverlap,  // |a ∩ b| / min(|a|, |b|)
};

const char* SimilarityModelName(SimilarityModel model);

// Similarity of two keyword sets in [0, 1]. Two empty sets score 0 (there
// is no textual evidence of a match).
double TextualSimilarity(const KeywordSet& a, const KeywordSet& b,
                         SimilarityModel model = SimilarityModel::kJaccard);

// Theorem 1 upper bound on TextualSimilarity(o, q) for any object o inside
// a node whose union set intersects q in `union_inter_query` terms and
// whose intersection set unions with q to `inter_union_query` terms.
//   Jaccard: |N_u ∩ q| / |N_i ∪ q|
//   Dice:    2 |N_u ∩ q| / (|N_i| + |q|)
//   Overlap: |N_u ∩ q| / max(1, min(|N_i|, |q|))
double NodeSimilarityUpperBound(size_t union_inter_query,
                                size_t inter_union_query, size_t inter_size,
                                size_t query_size,
                                SimilarityModel model =
                                    SimilarityModel::kJaccard);

// ℓ_t is stored capped at this value, as a 4-bit code in 1..15. A smaller
// ℓ only loosens the bound, so the cap is sound.
inline constexpr uint32_t kMaxLengthCode = 15;

// The code of a document of `doc_size` terms (at least 1).
inline uint8_t LengthCode(size_t doc_size) {
  return static_cast<uint8_t>(doc_size < kMaxLengthCode ? doc_size
                                                        : kMaxLengthCode);
}

// Adds one document's terms to a union and its parallel codes in place,
// lowering a present term's code to the document's; allocates only when a
// term is new.
void AddDocLengths(const KeywordSet& doc, KeywordSet* uni,
                   std::vector<uint8_t>* min_len);

// counts[c] is how many query terms lie in the node's union with ℓ code c.
using LengthCounts = std::array<uint32_t, kMaxLengthCode + 1>;

// The length-aware bound on TextualSimilarity(o, q), with ℓ_(j) the j-th
// smallest code among the counted query terms:
//   Jaccard: max_j j / (max(j, ℓ_(j)) + |q| - j)
//   Dice:    max_j 2j / (max(j, ℓ_(j)) + |q|)
//   Overlap: 1 (the length gives it nothing; NodeSimilarityUpperBound holds)
// 0 when no query term is counted.
double LengthAwareUpperBound(const LengthCounts& counts, size_t query_size,
                             SimilarityModel model);

// The node bound the indexes prune with: the min of the Theorem 1 bound and
// the length-aware bound. `min_len[i]` is the ℓ code of the i-th term of
// `uni` (parallel array).
double NodeSimilarityUpperBound(const KeywordSet& uni, const uint8_t* min_len,
                                const KeywordSet& inter,
                                const KeywordSet& query,
                                SimilarityModel model);

}  // namespace wsk

#endif  // WSK_TEXT_SIMILARITY_H_
