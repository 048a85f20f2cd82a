#include "index/dom_bounds.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "common/macros.h"

namespace wsk {

namespace {

// Counts of the candidate's terms that occur in the node, i.e. the counts
// of S ∩ N.doc.
std::vector<uint32_t> RelevantCounts(const NodeDomStats& stats,
                                     const KeywordSet& candidate) {
  std::vector<uint32_t> rel;
  rel.reserve(candidate.size());
  for (TermId t : candidate) {
    const uint32_t c = stats.CountOf(t);
    if (c > 0) rel.push_back(c);
  }
  return rel;
}

// Same, but selecting precomputed universe counts by mask bit into `out`
// (room for kMaxUniverseTerms). Bits are consumed in ascending position =
// ascending term id, so the counts are identical to RelevantCounts over
// the equivalent KeywordSet.
std::span<const uint32_t> RelevantCountsFromMask(
    const NodeUniverseCounts& uc, CandidateMask mask,
    std::array<uint32_t, kMaxUniverseTerms>* out) {
  size_t n = 0;
  while (mask != 0) {
    const int i = std::countr_zero(mask);
    mask &= mask - 1;
    const uint32_t c = uc.counts[static_cast<size_t>(i)];
    if (c > 0) (*out)[n++] = c;
  }
  return {out->data(), n};
}

uint32_t CountGe(std::span<const uint32_t> values, uint32_t threshold) {
  uint32_t n = 0;
  for (uint32_t v : values) {
    if (v >= threshold) ++n;
  }
  return n;
}

// Σ_r min(r, p) over the relevant counts.
uint64_t CappedSum(std::span<const uint32_t> values, uint32_t p) {
  uint64_t sum = 0;
  for (uint32_t v : values) sum += std::min(v, p);
  return sum;
}

// Algorithm 2 walks ans = cnt … 1 and returns the first ans whose pseudo
// similarity clears the threshold (Theorem 3 necessary condition), where
//   c_rel(ans) = Σ_{t ∈ S∩N} min(count(t), ans)    (max relevant mass on
//                                                    the remaining objects)
//   c_irr(ans) = irr_total − Σ_{t ∈ N−S} min(count(t), cnt − ans)
//              = irr_total − (G(cnt − ans) − Σ_{t ∈ S∩N} min(count(t),
//                                                        cnt − ans))
//                                                   (min irrelevant mass
//                                                    left on them).
// Those closed forms are the walk's running sums, so each test below sees
// the same integers in the same double expression as the walk did.
//
// For ans >= max_r (the largest relevant count) c_rel is the constant
// rel_total while the right-hand side threshold·(|S|·ans + c_irr) only
// shrinks as ans drops: the test is monotone there, rounding included, so
// the walk's first hit is found by galloping down from cnt and bisecting.
// Below max_r both sides shrink; the test is still monotone in exact
// arithmetic, but the rounding of threshold·denominator can break that
// (tests/dom_bounds_test.cc has a case), so the walk is replayed step by
// step. Cost: O(|S| log cnt) plus O(|S|) per step below max_r, against
// O(|S| cnt).
uint32_t MaxDomCore(const NodeDomStats& stats, std::span<const uint32_t> rel,
                    double query_size, double threshold) {
  const uint32_t cnt = stats.cnt();
  uint64_t rel_total = 0;
  uint32_t max_r = 0;
  for (uint32_t c : rel) {
    rel_total += c;
    max_r = std::max(max_r, c);
  }
  const uint64_t irr_total = stats.total_count() - rel_total;
  auto clears = [&](uint32_t ans) {
    const uint32_t pruned = cnt - ans;
    const double c_rel = static_cast<double>(CappedSum(rel, ans));
    const double c_irr = static_cast<double>(
        irr_total - (stats.CappedTotal(pruned) - CappedSum(rel, pruned)));
    const double pseudo_denom = query_size * ans + c_irr;
    return c_rel >= threshold * pseudo_denom;
  };

  // Monotone region [mono_lo, cnt]: clears() holds on a prefix of it.
  const uint32_t mono_lo = std::min(std::max(max_r, 1u), cnt);
  uint32_t fail = cnt + 1;  // smallest ans known to fail (cnt + 1: none)
  uint32_t step = 1;
  uint32_t pass = 0;        // largest ans known to clear (0: none yet)
  while (pass == 0) {
    const uint32_t probe = fail - mono_lo > step ? fail - step : mono_lo;
    if (clears(probe)) {
      pass = probe;
    } else if (probe == mono_lo) {
      break;
    } else {
      fail = probe;
      step *= 2;
    }
  }
  if (pass != 0) {
    while (fail - pass > 1) {
      const uint32_t mid = pass + (fail - pass) / 2;
      if (clears(mid)) {
        pass = mid;
      } else {
        fail = mid;
      }
    }
    return pass;
  }
  for (uint32_t ans = mono_lo - 1; ans >= 1; --ans) {
    if (clears(ans)) return ans;
  }
  return 0;
}

uint32_t MinDomCore(const NodeDomStats& stats, std::span<const uint32_t> rel,
                    double query_size, double threshold) {
  const uint32_t cnt = stats.cnt();
  uint64_t rel_total = 0;
  for (uint32_t c : rel) rel_total += c;

  // Walk ans upward, maintaining
  //   lhs     = Σ_{t ∈ S∩N} max(0, count(t) − ans)   (relevant mass that
  //              cannot be packed onto ans dominators)
  //   irr_max = Σ_{t ∈ N−S} min(count(t), cnt − ans) (max irrelevant mass
  //              available to dilute the non-dominators)
  // and return the first ans for which the non-dominators can plausibly
  // all sit at or below the threshold:
  //   lhs <= threshold * (|S| (cnt − ans) + irr_max).
  double lhs = static_cast<double>(rel_total);
  double irr_max = static_cast<double>(stats.total_count() - rel_total);
  for (uint32_t ans = 0; ans <= cnt; ++ans) {
    if (ans > 0) {
      // ans-1 -> ans: relevant terms with count >= ans park one more
      // occurrence on a dominator; the non-dominator pool shrinks by one,
      // costing every term with count >= (cnt - ans + 1) one unit of
      // dilution capacity.
      lhs -= CountGe(rel, ans);
      const uint32_t b_old = cnt - ans + 1;
      const uint32_t all_ge = stats.NumTermsGe(b_old);
      const uint32_t rel_ge = CountGe(rel, b_old);
      irr_max -= (all_ge - rel_ge);
    }
    const double rhs =
        threshold * (query_size * (cnt - ans) + irr_max);
    if (lhs <= rhs) return ans;
  }
  return cnt;
}

}  // namespace

NodeDomStats::NodeDomStats(const KeywordCountMap* kcm, uint32_t cnt,
                           const Rect& mbr)
    : kcm_(kcm), cnt_(cnt), mbr_(mbr) {
  uint32_t max_count = 0;
  for (const auto& [term, count] : kcm->pairs()) {
    total_ += count;
    max_count = std::max(max_count, count);
  }
  // Histogram, suffix-accumulate to |{t : count(t) >= c}|, then
  // prefix-accumulate: G(p) = Σ_{c=1..p} |{t : count(t) >= c}|.
  capped_.assign(max_count + 1, 0);
  for (const auto& [term, count] : kcm->pairs()) ++capped_[count];
  for (uint32_t c = max_count; c >= 1; --c) capped_[c - 1] += capped_[c];
  capped_[0] = 0;
  for (uint32_t p = 1; p <= max_count; ++p) capped_[p] += capped_[p - 1];
}

NodeUniverseCounts NodeUniverseCounts::Build(
    const NodeDomStats& stats, const CandidateUniverse& universe) {
  NodeUniverseCounts uc;
  for (size_t i = 0; i < universe.size(); ++i) {
    uc.counts[i] = stats.CountOf(universe.term(i));
  }
  return uc;
}

double DominatorThresholdLow(const Rect& node_mbr, const DomContext& ctx,
                             double tsim_missing) {
  WSK_CHECK(ctx.alpha > 0.0 && ctx.alpha < 1.0);
  const double min_sdist = MinDist(ctx.query_loc, node_mbr) / ctx.diagonal;
  return ctx.alpha / (1.0 - ctx.alpha) * (min_sdist - ctx.missing_sdist) +
         tsim_missing;
}

double DominatorThresholdHigh(const Rect& node_mbr, const DomContext& ctx,
                              double tsim_missing) {
  WSK_CHECK(ctx.alpha > 0.0 && ctx.alpha < 1.0);
  const double max_sdist = MaxDist(ctx.query_loc, node_mbr) / ctx.diagonal;
  return ctx.alpha / (1.0 - ctx.alpha) * (max_sdist - ctx.missing_sdist) +
         tsim_missing;
}

uint32_t MaxDom(const NodeDomStats& stats, const KeywordSet& candidate,
                double tsim_missing, const DomContext& ctx) {
  const uint32_t cnt = stats.cnt();
  if (cnt == 0) return 0;
  const double threshold = DominatorThresholdLow(stats.mbr(), ctx,
                                                 tsim_missing);
  // A dominator needs TSim > threshold; TSim ranges over [0, 1].
  if (threshold < 0.0) return cnt;  // every object clears the bar
  if (threshold >= 1.0) return 0;   // nothing can
  if (candidate.empty()) return 0;  // TSim == 0 for every object
  return MaxDomCore(stats, RelevantCounts(stats, candidate),
                    static_cast<double>(candidate.size()), threshold);
}

uint32_t MinDom(const NodeDomStats& stats, const KeywordSet& candidate,
                double tsim_missing, const DomContext& ctx) {
  const uint32_t cnt = stats.cnt();
  if (cnt == 0) return 0;
  const double threshold = DominatorThresholdHigh(stats.mbr(), ctx,
                                                  tsim_missing);
  if (threshold < 0.0) return cnt;  // TSim >= 0 > U: all surely dominate
  if (threshold >= 1.0) return 0;
  if (candidate.empty()) return 0;
  return MinDomCore(stats, RelevantCounts(stats, candidate),
                    static_cast<double>(candidate.size()), threshold);
}

uint32_t MaxDom(const NodeDomStats& stats, const NodeUniverseCounts& uc,
                CandidateMask candidate, uint32_t cand_size,
                double tsim_missing, const DomContext& ctx) {
  const uint32_t cnt = stats.cnt();
  if (cnt == 0) return 0;
  const double threshold = DominatorThresholdLow(stats.mbr(), ctx,
                                                 tsim_missing);
  if (threshold < 0.0) return cnt;
  if (threshold >= 1.0) return 0;
  if (candidate == 0) return 0;
  std::array<uint32_t, kMaxUniverseTerms> rel;
  return MaxDomCore(stats, RelevantCountsFromMask(uc, candidate, &rel),
                    static_cast<double>(cand_size), threshold);
}

uint32_t MinDom(const NodeDomStats& stats, const NodeUniverseCounts& uc,
                CandidateMask candidate, uint32_t cand_size,
                double tsim_missing, const DomContext& ctx) {
  const uint32_t cnt = stats.cnt();
  if (cnt == 0) return 0;
  const double threshold = DominatorThresholdHigh(stats.mbr(), ctx,
                                                  tsim_missing);
  if (threshold < 0.0) return cnt;
  if (threshold >= 1.0) return 0;
  if (candidate == 0) return 0;
  std::array<uint32_t, kMaxUniverseTerms> rel;
  return MinDomCore(stats, RelevantCountsFromMask(uc, candidate, &rel),
                    static_cast<double>(cand_size), threshold);
}

}  // namespace wsk
