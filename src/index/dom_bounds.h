// MaxDom / MinDom: bounds on the number of objects under a KcR-tree node
// that dominate (rank strictly above) the missing object for a candidate
// keyword set S (Section V-B).
//
// Theorem 2 gives a textual-similarity threshold L: an object o in node N
// can dominate the missing object m only if
//   TSim(o, S) > L = alpha/(1-alpha) * (MinDist(N,q) - SDist(m,q)) + TSim(m,S)
// (distances normalized). Algorithm 2 then uses the node's keyword-count
// map to find the largest number `ans` of objects that could all satisfy
// the pseudo-similarity necessary condition of Theorem 3 — that is MaxDom.
//
// MinDom is the dual, which the paper omits "as it is done similarly": with
// U defined like L but using MaxDist, any object with TSim(o,S) > U surely
// dominates; MinDom is the smallest `ans` such that the keyword counts can
// be arranged with only `ans` objects above U (see DESIGN.md).
//
// Both bounds are implemented for the Jaccard model, the model the paper's
// Theorem 3 algebra assumes.
#ifndef WSK_INDEX_DOM_BOUNDS_H_
#define WSK_INDEX_DOM_BOUNDS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "index/keyword_count_map.h"
#include "text/keyword_set.h"
#include "text/score_kernel.h"

namespace wsk {

// Query- and missing-object-dependent constants shared by every bound
// computation of one why-not query.
struct DomContext {
  Point query_loc;
  double alpha = 0.5;
  double diagonal = 1.0;
  double missing_sdist = 0.0;  // SDist(m, q), normalized
};

// Per-node statistics derived from a keyword-count map once and reused for
// every candidate keyword set. One query-independent table,
//   capped_[p] = G(p) = Σ_t min(count(t), p)   for p = 0 .. max count,
// gives O(1) access to both the capped mass G(p) (the closed forms of
// MaxDom) and, by differencing, |{t : count(t) >= c}| (the MinDom walk).
// Every count is at most cnt: an object holds a term at most once.
class NodeDomStats {
 public:
  NodeDomStats(const KeywordCountMap* kcm, uint32_t cnt, const Rect& mbr);

  uint32_t cnt() const { return cnt_; }
  const Rect& mbr() const { return mbr_; }
  uint64_t total_count() const { return total_; }
  uint32_t CountOf(TermId t) const { return kcm_->CountOf(t); }

  // Number of terms (over the whole map) with count >= c; 0 for c > max.
  uint32_t NumTermsGe(uint32_t c) const {
    if (c == 0) return static_cast<uint32_t>(kcm_->num_terms());
    if (c >= capped_.size()) return 0;
    return static_cast<uint32_t>(capped_[c] - capped_[c - 1]);
  }

  // G(p) = Σ_t min(count(t), p) over the whole map; total_count() once p
  // reaches the largest count.
  uint64_t CappedTotal(uint32_t p) const {
    return p < capped_.size() ? capped_[p] : total_;
  }

  // Approximate heap footprint, for node-cache byte budgeting (the
  // referenced KeywordCountMap is charged by its owner).
  size_t MemoryBytes() const {
    return sizeof(*this) + capped_.capacity() * sizeof(uint64_t);
  }

 private:
  const KeywordCountMap* kcm_;
  uint32_t cnt_;
  Rect mbr_;
  uint64_t total_ = 0;
  std::vector<uint64_t> capped_;  // capped_[p] = G(p)
};

// The counts of one candidate universe's terms inside one node, gathered
// once per (node, batch). The per-candidate kernel overloads of MaxDom /
// MinDom below select a candidate's counts from here by mask bit instead of
// probing the keyword-count map per term per candidate.
struct NodeUniverseCounts {
  // counts[i] = node count of universe term i (entries past the universe
  // size are unused). Fixed-size, so gathering allocates nothing.
  std::array<uint32_t, kMaxUniverseTerms> counts{};

  static NodeUniverseCounts Build(const NodeDomStats& stats,
                                  const CandidateUniverse& universe);
};

// Theorem 2 threshold with MinDist (objects can dominate only if above it).
double DominatorThresholdLow(const Rect& node_mbr, const DomContext& ctx,
                             double tsim_missing);

// Dual threshold with MaxDist (objects above it surely dominate).
double DominatorThresholdHigh(const Rect& node_mbr, const DomContext& ctx,
                              double tsim_missing);

// Upper bound on the number of dominators of the missing object inside the
// node, for candidate keyword set S with TSim(m, S) = tsim_missing.
// Algorithm 2's answer, found by a search over closed forms of its walk
// (see MaxDomCore in dom_bounds.cc).
uint32_t MaxDom(const NodeDomStats& stats, const KeywordSet& candidate,
                double tsim_missing, const DomContext& ctx);

// Lower bound (guaranteed dominators).
uint32_t MinDom(const NodeDomStats& stats, const KeywordSet& candidate,
                double tsim_missing, const DomContext& ctx);

// Kernel overloads: identical results for the candidate whose universe mask
// is `candidate` (bit-for-bit — the same count vector feeds the same
// arithmetic). `cand_size` is popcount(candidate).
uint32_t MaxDom(const NodeDomStats& stats, const NodeUniverseCounts& uc,
                CandidateMask candidate, uint32_t cand_size,
                double tsim_missing, const DomContext& ctx);
uint32_t MinDom(const NodeDomStats& stats, const NodeUniverseCounts& uc,
                CandidateMask candidate, uint32_t cand_size,
                double tsim_missing, const DomContext& ctx);

}  // namespace wsk

#endif  // WSK_INDEX_DOM_BOUNDS_H_
