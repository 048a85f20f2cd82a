// Candidate-scoring kernel (docs/PERF.md).
//
// The why-not algorithms score the same few documents against thousands of
// candidate keyword sets, and every candidate is a subset of the small
// universe U = doc0 ∪ M.doc. This kernel turns that structure into near-free
// per-candidate scoring: U is frozen into a bit index (≤ 64 terms), each
// candidate becomes a uint64_t mask over U, and each document is reduced
// once to a *footprint* — its mask over U plus the count of its terms
// outside U. Any (document, candidate) similarity is then two popcounts and
// one divide instead of an O(|doc| + |cand|) sorted merge.
//
// Correctness contract: every kernel score is bit-identical to the scalar
// TextualSimilarity(doc, candidate, model) — the same integer intersection
// and union sizes go through the same floating-point expressions, so ranks,
// thresholds, and tie-breaks cannot drift between the two paths. The
// differential tests enforce this.
//
// Universes larger than kMaxUniverseTerms cannot be represented; Build()
// returns an invalid universe and callers fall back to the scalar path.
#ifndef WSK_TEXT_SCORE_KERNEL_H_
#define WSK_TEXT_SCORE_KERNEL_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/keyword_set.h"
#include "text/similarity.h"

namespace wsk {

// A candidate mask is a bitset over the universe terms in sorted order:
// bit i set <=> universe term i is in the candidate.
using CandidateMask = uint64_t;

inline constexpr size_t kMaxUniverseTerms = 64;

// A document reduced against a universe: enough to recover |doc ∩ c| and
// |doc| for any candidate c ⊆ U.
struct Footprint {
  CandidateMask mask = 0;  // doc ∩ U, as universe bits
  uint32_t doc_size = 0;   // |doc|, including terms outside U
};

class CandidateUniverse {
 public:
  CandidateUniverse() = default;  // invalid: always fall back to scalar

  // Freezes `universe` into a bit index. The result is invalid when the
  // universe exceeds kMaxUniverseTerms.
  static CandidateUniverse Build(const KeywordSet& universe);

  bool valid() const { return valid_; }
  size_t size() const { return terms_.size(); }
  TermId term(size_t i) const { return terms_[i]; }

  // Mask covering every universe term (the universe itself as a candidate).
  CandidateMask FullMask() const {
    return terms_.empty() ? 0
                          : (~uint64_t{0} >> (64 - terms_.size()));
  }

  // Mask of a candidate keyword set; the candidate must be a subset of the
  // universe (checked in debug builds).
  CandidateMask MaskOf(const KeywordSet& candidate) const;

  // Footprint of an arbitrary document (terms outside the universe only
  // contribute to doc_size).
  Footprint FootprintOf(const KeywordSet& doc) const;

 private:
  // FootprintOf's term lookup, keyed by a term's low bits: slot_[t &
  // kSlotMask] is the index of the one universe term with those bits,
  // kSharedSlot when several universe terms have them, or 0 when none does.
  static constexpr TermId kSlotMask = 255;
  static constexpr uint8_t kSharedSlot = 0xff;

  std::vector<TermId> terms_;  // sorted, unique
  uint8_t slot_[kSlotMask + 1] = {};
  bool valid_ = false;
};

// Similarity of the footprinted document against one candidate mask.
// Bit-identical to TextualSimilarity(doc, candidate, model): the same
// integer intersection and union sizes go through the same floating-point
// expressions, term for term. Inline — batches as small as 8 candidates
// are call-overhead-bound otherwise.
inline double ScoreCandidate(const Footprint& fp, CandidateMask candidate,
                             SimilarityModel model) {
  const size_t inter = static_cast<size_t>(std::popcount(fp.mask & candidate));
  const size_t cand_size = static_cast<size_t>(std::popcount(candidate));
  const size_t doc_size = fp.doc_size;
  switch (model) {
    case SimilarityModel::kJaccard: {
      const size_t uni = doc_size + cand_size - inter;
      return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
    }
    case SimilarityModel::kDice: {
      const size_t denom = doc_size + cand_size;
      return denom == 0 ? 0.0 : 2.0 * inter / denom;
    }
    case SimilarityModel::kOverlap: {
      const size_t denom = std::min(doc_size, cand_size);
      return denom == 0 ? 0.0 : static_cast<double>(inter) / denom;
    }
  }
  return 0.0;
}

// Batched form: scores `fp` against `count` candidate masks into `out`
// (sized >= count). One node/object visit amortizes its footprint across an
// entire edit-distance batch of candidates. Specialized per-model loops
// keep the switch out of the hot loop; each iteration is two popcounts and
// one divide, independent across iterations so they pipeline/vectorize.
inline void ScoreAllCandidates(const Footprint& fp,
                               const CandidateMask* candidates, size_t count,
                               SimilarityModel model, double* out) {
  const uint64_t doc_mask = fp.mask;
  const size_t doc_size = fp.doc_size;
  switch (model) {
    case SimilarityModel::kJaccard:
      for (size_t i = 0; i < count; ++i) {
        const size_t inter =
            static_cast<size_t>(std::popcount(doc_mask & candidates[i]));
        const size_t uni = doc_size +
                           static_cast<size_t>(std::popcount(candidates[i])) -
                           inter;
        out[i] = uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
      }
      return;
    case SimilarityModel::kDice:
      for (size_t i = 0; i < count; ++i) {
        const size_t inter =
            static_cast<size_t>(std::popcount(doc_mask & candidates[i]));
        const size_t denom =
            doc_size + static_cast<size_t>(std::popcount(candidates[i]));
        out[i] = denom == 0 ? 0.0 : 2.0 * inter / denom;
      }
      return;
    case SimilarityModel::kOverlap:
      for (size_t i = 0; i < count; ++i) {
        const size_t inter =
            static_cast<size_t>(std::popcount(doc_mask & candidates[i]));
        const size_t denom = std::min(
            doc_size, static_cast<size_t>(std::popcount(candidates[i])));
        out[i] = denom == 0 ? 0.0 : static_cast<double>(inter) / denom;
      }
      return;
  }
  for (size_t i = 0; i < count; ++i) out[i] = 0.0;
}

inline void ScoreAllCandidates(const Footprint& fp,
                               const std::vector<CandidateMask>& candidates,
                               SimilarityModel model,
                               std::vector<double>* out) {
  out->resize(candidates.size());
  ScoreAllCandidates(fp, candidates.data(), candidates.size(), model,
                     out->data());
}

}  // namespace wsk

#endif  // WSK_TEXT_SCORE_KERNEL_H_
