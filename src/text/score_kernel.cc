#include "text/score_kernel.h"

#include <algorithm>
#include <bit>

#include "common/macros.h"

namespace wsk {

CandidateUniverse CandidateUniverse::Build(const KeywordSet& universe) {
  CandidateUniverse u;
  if (universe.size() > kMaxUniverseTerms) return u;  // invalid: fallback
  u.terms_ = universe.terms();
  bool taken[kSlotMask + 1] = {};
  for (size_t i = 0; i < u.terms_.size(); ++i) {
    const TermId key = u.terms_[i] & kSlotMask;
    u.slot_[key] = taken[key] ? kSharedSlot : static_cast<uint8_t>(i);
    taken[key] = true;
  }
  u.valid_ = true;
  return u;
}

CandidateMask CandidateUniverse::MaskOf(const KeywordSet& candidate) const {
  WSK_CHECK(valid_);
  CandidateMask mask = 0;
  size_t i = 0;
  for (TermId t : candidate) {
    while (i < terms_.size() && terms_[i] < t) ++i;
    WSK_CHECK_MSG(i < terms_.size() && terms_[i] == t,
                  "candidate term %u outside the universe", t);
    mask |= uint64_t{1} << i;
    ++i;
  }
  return mask;
}

Footprint CandidateUniverse::FootprintOf(const KeywordSet& doc) const {
  WSK_CHECK(valid_);
  Footprint fp;
  fp.doc_size = static_cast<uint32_t>(doc.size());
  if (terms_.empty()) return fp;
  // One table load and one compare per document term, without a branch on
  // the outcome. A term whose low bits no universe term has reads slot 0
  // and cannot equal terms_[0], which would own that slot. Only a slot that
  // several universe terms share costs a binary search.
  for (TermId t : doc) {
    const uint8_t slot = slot_[t & kSlotMask];
    if (slot != kSharedSlot) {
      fp.mask |= uint64_t{terms_[slot] == t} << slot;
      continue;
    }
    const auto it = std::lower_bound(terms_.begin(), terms_.end(), t);
    if (it != terms_.end() && *it == t) {
      fp.mask |= uint64_t{1} << (it - terms_.begin());
    }
  }
  return fp;
}

}  // namespace wsk
