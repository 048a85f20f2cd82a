#include "index/dom_bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "text/score_kernel.h"
#include "text/similarity.h"

namespace wsk {
namespace {

// A synthetic "node": concrete objects with locations inside an MBR, from
// which the kcm is derived. The exact dominator count is computed from the
// concrete objects; MaxDom/MinDom only ever see the aggregate summary.
struct SyntheticNode {
  Rect mbr;
  std::vector<Point> locs;
  std::vector<KeywordSet> docs;
  KeywordCountMap kcm;
};

SyntheticNode MakeNode(Rng& rng, uint32_t num_objects, uint32_t vocab) {
  SyntheticNode node;
  node.mbr = Rect{0.3, 0.3, 0.7, 0.7};
  for (uint32_t i = 0; i < num_objects; ++i) {
    node.locs.push_back(Point{rng.NextDouble(0.3, 0.7),
                              rng.NextDouble(0.3, 0.7)});
    std::vector<TermId> terms;
    for (TermId t = 0; t < vocab; ++t) {
      if (rng.NextBool(0.3)) terms.push_back(t);
    }
    node.docs.emplace_back(std::move(terms));
    node.kcm.AddDoc(node.docs.back());
    node.mbr.Extend(node.locs.back());
  }
  return node;
}

// Number of node objects whose score strictly exceeds the missing object's.
uint32_t ExactDominators(const SyntheticNode& node, const KeywordSet& s,
                         const DomContext& ctx, double tsim_missing) {
  const double missing_score = ctx.alpha * (1.0 - ctx.missing_sdist) +
                               (1.0 - ctx.alpha) * tsim_missing;
  uint32_t count = 0;
  for (size_t i = 0; i < node.locs.size(); ++i) {
    const double sdist =
        Distance(node.locs[i], ctx.query_loc) / ctx.diagonal;
    const double tsim = TextualSimilarity(node.docs[i], s);
    const double score =
        ctx.alpha * (1.0 - sdist) + (1.0 - ctx.alpha) * tsim;
    if (score > missing_score) ++count;
  }
  return count;
}

TEST(DomBoundsTest, ThresholdsOrdered) {
  const Rect mbr{0.2, 0.2, 0.8, 0.8};
  DomContext ctx;
  ctx.query_loc = Point{0.0, 0.0};
  ctx.alpha = 0.5;
  ctx.diagonal = 1.5;
  ctx.missing_sdist = 0.4;
  // MinDist <= MaxDist, so the low threshold never exceeds the high one.
  EXPECT_LE(DominatorThresholdLow(mbr, ctx, 0.3),
            DominatorThresholdHigh(mbr, ctx, 0.3));
}

TEST(DomBoundsTest, AllDominateWhenNodeStrictlyCloserAndMoreSimilar) {
  // Node hugging the query; missing object far with zero similarity.
  KeywordCountMap kcm;
  kcm.AddDoc(KeywordSet{0, 1});
  kcm.AddDoc(KeywordSet{0, 1});
  const Rect mbr{0.0, 0.0, 0.05, 0.05};
  const NodeDomStats stats(&kcm, 2, mbr);
  DomContext ctx;
  ctx.query_loc = Point{0.0, 0.0};
  ctx.alpha = 0.5;
  ctx.diagonal = 1.0;
  ctx.missing_sdist = 0.9;
  const KeywordSet s{0, 1};
  EXPECT_EQ(MaxDom(stats, s, 0.0, ctx), 2u);
  EXPECT_EQ(MinDom(stats, s, 0.0, ctx), 2u);
}

TEST(DomBoundsTest, NoneDominateWhenNodeHopeless) {
  // Node far away with disjoint keywords; missing object adjacent to the
  // query with perfect similarity.
  KeywordCountMap kcm;
  kcm.AddDoc(KeywordSet{5});
  const Rect mbr{0.9, 0.9, 1.0, 1.0};
  const NodeDomStats stats(&kcm, 1, mbr);
  DomContext ctx;
  ctx.query_loc = Point{0.0, 0.0};
  ctx.alpha = 0.5;
  ctx.diagonal = std::sqrt(2.0);
  ctx.missing_sdist = 0.0;
  const KeywordSet s{0, 1};
  EXPECT_EQ(MaxDom(stats, s, 1.0, ctx), 0u);
  EXPECT_EQ(MinDom(stats, s, 1.0, ctx), 0u);
}

TEST(DomBoundsTest, EmptyCandidateDominanceIsPurelySpatial) {
  KeywordCountMap kcm;
  kcm.AddDoc(KeywordSet{1});
  const NodeDomStats stats(&kcm, 1, Rect{0, 0, 1, 1});
  DomContext ctx;
  ctx.query_loc = Point{0.5, 0.5};
  ctx.alpha = 0.5;
  ctx.diagonal = 1.0;
  // Missing object far away: the node's object could still be closer, so
  // with TSim == 0 for everyone the upper bound must stay at cnt.
  ctx.missing_sdist = 0.5;
  EXPECT_EQ(MaxDom(stats, KeywordSet(), 0.0, ctx), 1u);
  // Missing object *at* the query location: nothing can be strictly closer
  // and textual similarity is 0 under an empty keyword set, so no object
  // can dominate.
  ctx.missing_sdist = 0.0;
  EXPECT_EQ(MaxDom(stats, KeywordSet(), 0.0, ctx), 0u);
}

TEST(DomBoundsTest, PaperExample5) {
  // Example 5: kcm {(t1,8),(t2,3),(t3,7),(t4,2),(t5,1)}, cnt=8, S={t3,t4},
  // threshold 0.395 -> MaxDom = 6. We reconstruct the setting by inverting
  // the threshold equation: with alpha=0.5, diagonal=1, MinDist=0 the
  // threshold reduces to tsim_m - sdist_m = 0.395.
  KeywordCountMap kcm;
  for (int i = 0; i < 8; ++i) {
    std::vector<TermId> terms;
    if (i < 8) terms.push_back(1);  // t1 count 8
    if (i < 3) terms.push_back(2);  // t2 count 3
    if (i < 7) terms.push_back(3);  // t3 count 7
    if (i < 2) terms.push_back(4);  // t4 count 2
    if (i < 1) terms.push_back(5);  // t5 count 1
    kcm.AddDoc(KeywordSet(std::move(terms)));
  }
  ASSERT_EQ(kcm.CountOf(1), 8u);
  ASSERT_EQ(kcm.CountOf(5), 1u);
  ASSERT_EQ(kcm.TotalCount(), 21u);
  const Rect mbr{0.0, 0.0, 1.0, 1.0};
  const NodeDomStats stats(&kcm, 8, mbr);
  DomContext ctx;
  ctx.query_loc = Point{0.5, 0.5};  // inside: MinDist = 0
  ctx.alpha = 0.5;
  ctx.diagonal = 1.0;
  ctx.missing_sdist = 0.0;
  const KeywordSet s{3, 4};
  // threshold L = 1*(0 - 0) + tsim_m; choose tsim_m = 0.395.
  EXPECT_EQ(MaxDom(stats, s, 0.395, ctx), 6u);
}

// The core soundness property: MinDom <= exact dominators <= MaxDom for
// random nodes, candidates, and missing objects.
class DomBoundsProperty : public ::testing::TestWithParam<double> {};

TEST_P(DomBoundsProperty, Soundness) {
  const double alpha = GetParam();
  Rng rng(static_cast<uint64_t>(alpha * 1000) + 3);
  for (int iter = 0; iter < 150; ++iter) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextUint64(30));
    SyntheticNode node = MakeNode(rng, n, 10);
    const NodeDomStats stats(&node.kcm, n, node.mbr);

    DomContext ctx;
    ctx.query_loc = Point{rng.NextDouble(), rng.NextDouble()};
    ctx.alpha = alpha;
    ctx.diagonal = 1.5;
    ctx.missing_sdist = rng.NextDouble();

    // Random candidate keyword set and missing-object similarity.
    std::vector<TermId> cand_terms;
    for (TermId t = 0; t < 12; ++t) {
      if (rng.NextBool(0.35)) cand_terms.push_back(t);
    }
    if (cand_terms.empty()) cand_terms.push_back(0);
    const KeywordSet s(std::move(cand_terms));
    // A plausible missing doc: random subset of the candidate + extras.
    std::vector<TermId> m_terms;
    for (TermId t = 0; t < 12; ++t) {
      if (rng.NextBool(0.4)) m_terms.push_back(t);
    }
    const KeywordSet m_doc(std::move(m_terms));
    const double tsim_m = TextualSimilarity(m_doc, s);

    const uint32_t exact = ExactDominators(node, s, ctx, tsim_m);
    const uint32_t max_dom = MaxDom(stats, s, tsim_m, ctx);
    const uint32_t min_dom = MinDom(stats, s, tsim_m, ctx);
    EXPECT_LE(min_dom, exact)
        << "iter " << iter << " n=" << n << " S=" << s.ToString();
    EXPECT_GE(max_dom, exact)
        << "iter " << iter << " n=" << n << " S=" << s.ToString();
    EXPECT_LE(min_dom, max_dom);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DomBoundsProperty,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

// Algorithm 2 as a step-by-step walk over ans = cnt … 1 with O(|S|)
// incremental updates — the formulation MaxDom replaced with closed forms
// and a search. Kept here as the reference the search must reproduce
// exactly, including every pre-check of the public MaxDom.
uint32_t WalkMaxDom(const KeywordCountMap& kcm, uint32_t cnt,
                    const KeywordSet& candidate, double threshold) {
  if (cnt == 0) return 0;
  if (threshold < 0.0) return cnt;
  if (threshold >= 1.0) return 0;
  if (candidate.empty()) return 0;
  std::vector<uint32_t> rel;
  uint64_t rel_total = 0;
  for (TermId t : candidate) {
    const uint32_t c = kcm.CountOf(t);
    if (c > 0) {
      rel.push_back(c);
      rel_total += c;
    }
  }
  auto count_ge = [](const std::vector<uint32_t>& values, uint32_t c) {
    uint32_t n = 0;
    for (uint32_t v : values) n += v >= c ? 1 : 0;
    return n;
  };
  std::vector<uint32_t> all;
  for (const auto& [term, count] : kcm.pairs()) all.push_back(count);
  const double query_size = static_cast<double>(candidate.size());
  double c_rel = static_cast<double>(rel_total);
  double c_irr = static_cast<double>(kcm.TotalCount() - rel_total);
  for (uint32_t ans = cnt; ans >= 1; --ans) {
    const uint32_t pruned = cnt - ans;
    if (pruned > 0) {
      c_rel -= count_ge(rel, ans + 1);
      c_irr -= count_ge(all, pruned) - count_ge(rel, pruned);
    }
    const double pseudo_denom = query_size * ans + c_irr;
    if (c_rel >= threshold * pseudo_denom) return ans;
  }
  return 0;
}

// MaxDom (both overloads) against the walk on random count maps: cnt from
// 1 to several thousand, counts up to and including cnt, candidates with
// and without terms in the node, thresholds 0, just below 1 and in
// between. The tally checks that answers land both in the monotone region
// (ans >= the largest relevant count) and in the scan below it.
TEST(DomBoundsTest, MaxDomMatchesStepwiseWalk) {
  Rng rng(20160516);
  const double kJustBelowOne[] = {std::nextafter(1.0, 0.0), 1.0 - 1e-9,
                                  0.999};
  uint64_t large_nodes = 0, full_counts = 0, empty_rel = 0, zero_threshold = 0,
           near_one = 0, in_search = 0, in_scan = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const uint32_t max_cnt = iter % 10 == 0 ? 5000 : iter % 3 == 0 ? 300 : 30;
    const uint32_t cnt = 1 + static_cast<uint32_t>(rng.NextUint64(max_cnt));
    large_nodes += cnt >= 1000 ? 1 : 0;
    // Node terms 0..vocab-1; universe terms 0..vocab+3, so candidates may
    // hold terms the node lacks (and can miss the node entirely).
    const uint32_t vocab = 1 + static_cast<uint32_t>(rng.NextUint64(20));
    std::vector<std::pair<TermId, uint32_t>> pairs;
    for (TermId t = 0; t < vocab; ++t) {
      if (rng.NextBool(0.2)) continue;  // term absent from the node
      uint32_t count;
      if (rng.NextBool(0.15)) {
        count = cnt;
        ++full_counts;
      } else if (rng.NextBool(0.5)) {
        count = 1 + static_cast<uint32_t>(rng.NextUint64((cnt + 9) / 10));
      } else {
        count = 1 + static_cast<uint32_t>(rng.NextUint64(cnt));
      }
      pairs.emplace_back(t, count);
    }
    const KeywordCountMap kcm = KeywordCountMap::FromSortedPairs(pairs);
    // Query inside the MBR with alpha 0.5 and a missing object at the
    // query: the threshold is exactly tsim_missing.
    const NodeDomStats stats(&kcm, cnt, Rect{0.0, 0.0, 1.0, 1.0});
    DomContext ctx;
    ctx.query_loc = Point{0.5, 0.5};
    ctx.alpha = 0.5;
    ctx.diagonal = 1.0;
    ctx.missing_sdist = 0.0;

    std::vector<TermId> universe_terms;
    for (TermId t = 0; t < vocab + 4; ++t) universe_terms.push_back(t);
    const KeywordSet universe_set(std::move(universe_terms));
    const CandidateUniverse universe = CandidateUniverse::Build(universe_set);
    const NodeUniverseCounts uc = NodeUniverseCounts::Build(stats, universe);

    for (int c = 0; c < 6; ++c) {
      std::vector<TermId> cand_terms;
      const bool outside_only = rng.NextBool(0.1);
      for (TermId t = outside_only ? vocab : 0; t < vocab + 4; ++t) {
        if (rng.NextBool(0.35)) cand_terms.push_back(t);
      }
      if (cand_terms.empty()) cand_terms.push_back(vocab + 1);
      const KeywordSet cand(std::move(cand_terms));
      uint32_t max_r = 0;
      for (TermId t : cand) max_r = std::max(max_r, kcm.CountOf(t));
      empty_rel += max_r == 0 ? 1 : 0;

      const int pick = static_cast<int>(rng.NextUint64(8));
      double threshold;
      if (pick == 0) {
        threshold = 0.0;
        ++zero_threshold;
      } else if (pick == 1) {
        threshold = kJustBelowOne[rng.NextUint64(3)];
        ++near_one;
      } else if (pick < 5) {
        threshold = rng.NextDouble(0.0, 0.3);
      } else {
        threshold = rng.NextDouble();
      }

      const uint32_t expected = WalkMaxDom(kcm, cnt, cand, threshold);
      const uint32_t by_set = MaxDom(stats, cand, threshold, ctx);
      const uint32_t by_mask =
          MaxDom(stats, uc, universe.MaskOf(cand),
                 static_cast<uint32_t>(cand.size()), threshold, ctx);
      ASSERT_EQ(by_set, expected)
          << "iter " << iter << " cnt=" << cnt << " S=" << cand.ToString()
          << " threshold=" << threshold;
      ASSERT_EQ(by_mask, expected)
          << "iter " << iter << " cnt=" << cnt << " S=" << cand.ToString()
          << " threshold=" << threshold;
      if (expected > 0 && expected < cnt) {
        if (expected >= max_r) {
          ++in_search;
        } else {
          ++in_scan;
        }
      }
    }
  }
  EXPECT_GT(large_nodes, 100u);
  EXPECT_GT(full_counts, 100u);
  EXPECT_GT(empty_rel, 100u);
  EXPECT_GT(zero_threshold, 100u);
  EXPECT_GT(near_one, 100u);
  EXPECT_GT(in_search, 100u);
  EXPECT_GT(in_scan, 100u);
}

// Below the largest relevant count the Theorem 3 test is monotone only in
// exact arithmetic. Here both relevant terms sit in all 17 objects and the
// candidate adds a third term the node lacks, so the test reads
// 2·ans >= L·(3·ans). With L one ulp above 2/3 the rounded test passes
// only at ans = 1, 2, 4, 8 and 16: the walk (and MaxDom) returns 16, while
// galloping and bisecting over this region would land on 2.
TEST(DomBoundsTest, MaxDomScansWhereRoundingBreaksMonotonicity) {
  const uint32_t cnt = 17;
  const KeywordCountMap kcm =
      KeywordCountMap::FromSortedPairs({{0, cnt}, {1, cnt}});
  const NodeDomStats stats(&kcm, cnt, Rect{0.0, 0.0, 1.0, 1.0});
  DomContext ctx;
  ctx.query_loc = Point{0.5, 0.5};
  ctx.alpha = 0.5;
  ctx.diagonal = 1.0;
  ctx.missing_sdist = 0.0;
  const KeywordSet cand{0, 1, 7};
  const double threshold = std::nextafter(2.0 / 3.0, 1.0);
  ASSERT_EQ(WalkMaxDom(kcm, cnt, cand, threshold), 16u);
  EXPECT_EQ(MaxDom(stats, cand, threshold, ctx), 16u);
  const CandidateUniverse universe = CandidateUniverse::Build(cand);
  const NodeUniverseCounts uc = NodeUniverseCounts::Build(stats, universe);
  EXPECT_EQ(MaxDom(stats, uc, universe.MaskOf(cand), 3, threshold, ctx), 16u);
}

TEST(DomBoundsTest, NodeDomStatsSuffixCounts) {
  KeywordCountMap kcm;
  kcm.AddDoc(KeywordSet{1, 2, 3});
  kcm.AddDoc(KeywordSet{1, 2});
  kcm.AddDoc(KeywordSet{1});
  const NodeDomStats stats(&kcm, 3, Rect{0, 0, 1, 1});
  EXPECT_EQ(stats.total_count(), 6u);
  EXPECT_EQ(stats.NumTermsGe(0), 3u);
  EXPECT_EQ(stats.NumTermsGe(1), 3u);
  EXPECT_EQ(stats.NumTermsGe(2), 2u);
  EXPECT_EQ(stats.NumTermsGe(3), 1u);
  EXPECT_EQ(stats.NumTermsGe(4), 0u);
  EXPECT_EQ(stats.CountOf(2), 2u);
  // G(p) = Σ_t min(count(t), p) with counts {3, 2, 1}.
  EXPECT_EQ(stats.CappedTotal(0), 0u);
  EXPECT_EQ(stats.CappedTotal(1), 3u);
  EXPECT_EQ(stats.CappedTotal(2), 5u);
  EXPECT_EQ(stats.CappedTotal(3), 6u);
  EXPECT_EQ(stats.CappedTotal(7), 6u);
}

}  // namespace
}  // namespace wsk
