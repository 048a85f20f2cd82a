#include "text/similarity.h"

#include <algorithm>

namespace wsk {

const char* SimilarityModelName(SimilarityModel model) {
  switch (model) {
    case SimilarityModel::kJaccard:
      return "jaccard";
    case SimilarityModel::kDice:
      return "dice";
    case SimilarityModel::kOverlap:
      return "overlap";
  }
  return "unknown";
}

double TextualSimilarity(const KeywordSet& a, const KeywordSet& b,
                         SimilarityModel model) {
  const size_t inter = a.IntersectionSize(b);
  switch (model) {
    case SimilarityModel::kJaccard: {
      const size_t uni = a.size() + b.size() - inter;
      return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
    }
    case SimilarityModel::kDice: {
      const size_t denom = a.size() + b.size();
      return denom == 0 ? 0.0 : 2.0 * inter / denom;
    }
    case SimilarityModel::kOverlap: {
      const size_t denom = std::min(a.size(), b.size());
      return denom == 0 ? 0.0 : static_cast<double>(inter) / denom;
    }
  }
  return 0.0;
}

double NodeSimilarityUpperBound(size_t union_inter_query,
                                size_t inter_union_query, size_t inter_size,
                                size_t query_size, SimilarityModel model) {
  // TextualSimilarity never exceeds 1, so any bound above 1 is slack: clamp
  // it. Without the clamp the kOverlap branch (and kDice when |N_i| < |q|)
  // returns > 1 whenever union_inter_query exceeds the denominator, which
  // inflates node priorities and deepens best-first search for nothing.
  switch (model) {
    case SimilarityModel::kJaccard:
      // With consistent inputs |N_u ∩ q| <= |q| <= |N_i ∪ q| the ratio is
      // already <= 1; the clamp makes the [0, 1] contract unconditional.
      return inter_union_query == 0
                 ? 0.0
                 : std::min(1.0, static_cast<double>(union_inter_query) /
                                     inter_union_query);
    case SimilarityModel::kDice: {
      const size_t denom = inter_size + query_size;
      return denom == 0
                 ? 0.0
                 : std::min(1.0, 2.0 * union_inter_query / denom);
    }
    case SimilarityModel::kOverlap: {
      // Any object's doc has at least |N_i| terms but could be as small as
      // max(1, |N_i|); the query size is fixed.
      const size_t denom = std::max<size_t>(
          1, std::min(inter_size == 0 ? 1 : inter_size, query_size));
      return std::min(1.0, static_cast<double>(union_inter_query) / denom);
    }
  }
  return 1.0;
}

void AddDocLengths(const KeywordSet& doc, KeywordSet* uni,
                   std::vector<uint8_t>* min_len) {
  const uint8_t code = LengthCode(doc.size());
  for (TermId t : doc) {
    const auto [index, added] = uni->Insert(t);
    if (added) {
      min_len->insert(min_len->begin() + index, code);
    } else {
      (*min_len)[index] = std::min((*min_len)[index], code);
    }
  }
}

double LengthAwareUpperBound(const LengthCounts& counts, size_t query_size,
                             SimilarityModel model) {
  if (model == SimilarityModel::kOverlap) return 1.0;
  // Within one code the bound grows with j, so only the last j of each
  // code can be the max.
  double best = 0.0;
  size_t j = 0;
  for (size_t code = 0; code < counts.size(); ++code) {
    if (counts[code] == 0) continue;
    j += counts[code];
    const size_t min_doc = std::max(j, code);
    // The same integer ratios TextualSimilarity divides, with |o| replaced
    // by its lower bound min_doc.
    const double bound =
        model == SimilarityModel::kJaccard
            ? static_cast<double>(j) / (min_doc + query_size - j)
            : 2.0 * j / (min_doc + query_size);
    best = std::max(best, bound);
  }
  return std::min(1.0, best);
}

double NodeSimilarityUpperBound(const KeywordSet& uni, const uint8_t* min_len,
                                const KeywordSet& inter,
                                const KeywordSet& query,
                                SimilarityModel model) {
  LengthCounts counts{};
  size_t matched = 0;
  const std::vector<TermId>& terms = uni.terms();
  auto from = terms.begin();
  for (TermId t : query) {
    from = std::lower_bound(from, terms.end(), t);
    if (from == terms.end()) break;
    if (*from == t) {
      ++counts[min_len[from - terms.begin()]];
      ++matched;
    }
  }
  return std::min(NodeSimilarityUpperBound(matched, inter.UnionSize(query),
                                           inter.size(), query.size(), model),
                  LengthAwareUpperBound(counts, query.size(), model));
}

}  // namespace wsk
