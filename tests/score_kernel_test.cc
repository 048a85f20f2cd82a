// Correctness contract of the candidate-scoring kernel (docs/PERF.md):
// every kernel score must be bit-identical to the scalar
// TextualSimilarity(doc, candidate, model) it replaces — exact double
// equality, not approximate — across all three similarity models, universe
// sizes from 1 to the 64-term cap, and documents that extend beyond the
// universe; footprint masks must equal a sorted-merge reference. Plus the same contract for the mask-based MaxDom/MinDom
// overloads against their KeywordSet originals.
#include "text/score_kernel.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "index/dom_bounds.h"
#include "text/keyword_set.h"
#include "text/similarity.h"

namespace wsk {
namespace {

constexpr SimilarityModel kModels[] = {
    SimilarityModel::kJaccard, SimilarityModel::kDice,
    SimilarityModel::kOverlap};

KeywordSet RandomSet(Rng& rng, uint32_t vocab, double p) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < vocab; ++t) {
    if (rng.NextBool(p)) terms.push_back(t);
  }
  return KeywordSet(std::move(terms));
}

// Random subset of `universe` (possibly empty).
KeywordSet RandomSubset(Rng& rng, const KeywordSet& universe, double p) {
  std::vector<TermId> terms;
  for (TermId t : universe) {
    if (rng.NextBool(p)) terms.push_back(t);
  }
  return KeywordSet(std::move(terms));
}

// 10k+ random (footprint, candidate) pairs per model, exact equality.
TEST(ScoreKernelTest, BitIdenticalToScalarSimilarity) {
  Rng rng(20160777);
  uint64_t pairs = 0;
  for (const size_t universe_size : {1u, 3u, 8u, 20u, 40u, 64u}) {
    for (int rep = 0; rep < 14; ++rep) {
      // Universe terms drawn sparsely from a larger vocabulary so documents
      // routinely contain terms outside the universe.
      std::vector<TermId> uterms;
      TermId next = 0;
      while (uterms.size() < universe_size) {
        next += 1 + static_cast<TermId>(rng.NextUint64(5));
        uterms.push_back(next);
      }
      const KeywordSet universe_set(std::move(uterms));
      const CandidateUniverse universe = CandidateUniverse::Build(universe_set);
      ASSERT_TRUE(universe.valid());

      std::vector<KeywordSet> cands;
      std::vector<CandidateMask> masks;
      cands.push_back(KeywordSet());  // empty candidate -> mask 0
      cands.push_back(universe_set);  // the full universe
      for (int c = 0; c < 14; ++c) {
        cands.push_back(RandomSubset(rng, universe_set, rng.NextDouble()));
      }
      for (const KeywordSet& cand : cands) {
        masks.push_back(universe.MaskOf(cand));
      }
      EXPECT_EQ(masks[0], CandidateMask{0});
      EXPECT_EQ(masks[1], universe.FullMask());

      std::vector<KeywordSet> docs;
      docs.push_back(KeywordSet());  // empty document
      for (int d = 0; d < 7; ++d) {
        // Union of universe terms and out-of-universe terms.
        docs.push_back(RandomSubset(rng, universe_set, rng.NextDouble())
                           .Union(RandomSet(rng, 40, rng.NextDouble() * 0.4)));
      }
      for (const KeywordSet& doc : docs) {
        const Footprint fp = universe.FootprintOf(doc);
        ASSERT_EQ(fp.doc_size, doc.size());
        for (const SimilarityModel model : kModels) {
          std::vector<double> batch;
          ScoreAllCandidates(fp, masks, model, &batch);
          for (size_t c = 0; c < cands.size(); ++c) {
            const double scalar = TextualSimilarity(doc, cands[c], model);
            const double kernel = ScoreCandidate(fp, masks[c], model);
            ASSERT_EQ(kernel, scalar)
                << "model " << SimilarityModelName(model) << " universe "
                << universe_set.ToString() << " doc " << doc.ToString()
                << " cand " << cands[c].ToString();
            ASSERT_EQ(batch[c], scalar) << "batched score drifted";
            ++pairs;
          }
        }
      }
    }
  }
  // The contract covers a meaningful sample: >= 10k pairs per model.
  EXPECT_GE(pairs, 3u * 10000u);
}

TEST(ScoreKernelTest, UniverseOverCapIsInvalid) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < 65; ++t) terms.push_back(t);
  const CandidateUniverse over = CandidateUniverse::Build(KeywordSet(terms));
  EXPECT_FALSE(over.valid());

  terms.pop_back();
  const CandidateUniverse at_cap = CandidateUniverse::Build(KeywordSet(terms));
  EXPECT_TRUE(at_cap.valid());
  EXPECT_EQ(at_cap.size(), kMaxUniverseTerms);
  EXPECT_EQ(at_cap.FullMask(), ~CandidateMask{0});
}

TEST(ScoreKernelTest, DefaultConstructedUniverseIsInvalid) {
  const CandidateUniverse u;
  EXPECT_FALSE(u.valid());
}

TEST(ScoreKernelTest, EmptyUniverse) {
  const CandidateUniverse u = CandidateUniverse::Build(KeywordSet());
  ASSERT_TRUE(u.valid());
  EXPECT_EQ(u.size(), 0u);
  EXPECT_EQ(u.FullMask(), CandidateMask{0});
  const Footprint fp = u.FootprintOf(KeywordSet{1, 2});
  EXPECT_EQ(fp.mask, CandidateMask{0});
  EXPECT_EQ(fp.doc_size, 2u);
  // Empty candidate vs non-empty doc: similarity 0 under every model.
  for (const SimilarityModel model : kModels) {
    EXPECT_EQ(ScoreCandidate(fp, 0, model),
              TextualSimilarity(KeywordSet{1, 2}, KeywordSet(), model));
  }
}

// Test-local reference: the sorted merge of universe and document.
Footprint MergeFootprint(const KeywordSet& universe, const KeywordSet& doc) {
  Footprint fp;
  fp.doc_size = static_cast<uint32_t>(doc.size());
  const std::vector<TermId>& u = universe.terms();
  const std::vector<TermId>& d = doc.terms();
  size_t i = 0;
  size_t j = 0;
  while (i < u.size() && j < d.size()) {
    if (u[i] < d[j]) {
      ++i;
    } else if (d[j] < u[i]) {
      ++j;
    } else {
      fp.mask |= uint64_t{1} << i;
      ++i;
      ++j;
    }
  }
  return fp;
}

// FootprintOf looks terms up in a table keyed by their low bits and
// binary-searches only keys several universe terms share; its masks must
// equal the merge reference. Half the universes put every term on three
// residues mod 1024, so their terms collide on every low-bit key up to that
// width (t & 63 and t & 255 included) and outsiders with a universe
// term's key are the common case. Documents mix universe terms, such
// colliding outsiders and random terms, from empty up to well past 8x the
// universe size.
TEST(ScoreKernelTest, SlotFootprintMatchesMergeReference) {
  Rng rng(1515);
  uint64_t docs_checked = 0;
  for (const size_t universe_size : {0u, 1u, 2u, 4u, 14u, 33u, 63u, 64u}) {
    for (int rep = 0; rep < 30; ++rep) {
      const bool colliding = rep % 2 == 0;
      std::vector<TermId> uterms;
      while (KeywordSet(uterms).size() < universe_size) {
        uterms.push_back(
            colliding ? static_cast<TermId>(1024 * rng.NextUint64(250) +
                                            rng.NextUint64(3))
                      : static_cast<TermId>(rng.NextUint64(256000)));
      }
      const KeywordSet universe_set(std::move(uterms));
      const CandidateUniverse universe = CandidateUniverse::Build(universe_set);
      ASSERT_TRUE(universe.valid());

      std::vector<KeywordSet> docs;
      docs.push_back(KeywordSet());
      for (int d = 0; d < 12; ++d) {
        // Every third document is longer than 8x the universe.
        const size_t length =
            d % 3 == 0 ? 8 * universe_size + 1 + rng.NextUint64(40)
                       : rng.NextUint64(12);
        std::vector<TermId> terms;
        for (size_t t = 0; t < length; ++t) {
          const uint64_t kind = rng.NextUint64(3);
          if (kind == 0 && universe_size > 0) {
            terms.push_back(
                universe_set.terms()[rng.NextUint64(universe_size)]);
          } else if (kind == 1 && universe_size > 0) {
            // Same low 10 bits as a universe term, usually not in the
            // universe.
            const TermId base =
                universe_set.terms()[rng.NextUint64(universe_size)];
            terms.push_back(base + 1024 * static_cast<TermId>(
                                              1 + rng.NextUint64(100)));
          } else {
            terms.push_back(static_cast<TermId>(rng.NextUint64(256000)));
          }
        }
        docs.push_back(KeywordSet(std::move(terms)));
      }
      for (const KeywordSet& doc : docs) {
        const Footprint fp = universe.FootprintOf(doc);
        const Footprint ref = MergeFootprint(universe_set, doc);
        ASSERT_EQ(fp.mask, ref.mask) << "universe " << universe_set.ToString()
                                     << " doc " << doc.ToString();
        ASSERT_EQ(fp.doc_size, ref.doc_size);
        ++docs_checked;
      }
    }
  }
  EXPECT_EQ(docs_checked, 8u * 30u * 13u);
}

// The mask-based MaxDom/MinDom must agree exactly with the KeywordSet
// overloads for every candidate of a universe: same counts, same
// arithmetic, same bounds.
TEST(ScoreKernelTest, DomBoundOverloadsMatchKeywordSetPath) {
  Rng rng(4451);
  for (int iter = 0; iter < 60; ++iter) {
    KeywordCountMap kcm;
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextUint64(24));
    for (uint32_t i = 0; i < n; ++i) {
      kcm.AddDoc(RandomSet(rng, 16, 0.3));
    }
    const NodeDomStats stats(&kcm, n, Rect{0.2, 0.2, 0.8, 0.8});

    const KeywordSet universe_set = RandomSet(rng, 16, 0.6);
    if (universe_set.empty()) continue;
    const CandidateUniverse universe = CandidateUniverse::Build(universe_set);
    const NodeUniverseCounts uc = NodeUniverseCounts::Build(stats, universe);

    DomContext ctx;
    ctx.query_loc = Point{rng.NextDouble(), rng.NextDouble()};
    ctx.alpha = rng.NextDouble(0.1, 0.9);
    ctx.diagonal = 1.5;
    ctx.missing_sdist = rng.NextDouble();

    for (int c = 0; c < 12; ++c) {
      const KeywordSet cand = RandomSubset(rng, universe_set, 0.5);
      const CandidateMask mask = universe.MaskOf(cand);
      const double tsim_m = rng.NextDouble();
      EXPECT_EQ(MaxDom(stats, cand, tsim_m, ctx),
                MaxDom(stats, uc, mask, static_cast<uint32_t>(cand.size()),
                       tsim_m, ctx))
          << "universe " << universe_set.ToString() << " cand "
          << cand.ToString();
      EXPECT_EQ(MinDom(stats, cand, tsim_m, ctx),
                MinDom(stats, uc, mask, static_cast<uint32_t>(cand.size()),
                       tsim_m, ctx))
          << "universe " << universe_set.ToString() << " cand "
          << cand.ToString();
    }
  }
}

}  // namespace
}  // namespace wsk
