// Spatial keyword top-k query semantics (Definitions in Section III-A).
//
// This header defines the query tuple and the *reference* semantics:
// scoring (Eqn 1), rank (Eqn 3), and brute-force top-k / rank evaluation
// over the in-memory dataset. The disk-based indexes must agree with these
// functions exactly; the test suite enforces that.
#ifndef WSK_DATA_QUERY_H_
#define WSK_DATA_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "data/dataset.h"
#include "text/similarity.h"

namespace wsk {

// q = (loc, doc, k, alpha) plus the similarity model of footnote 1.
struct SpatialKeywordQuery {
  Point loc;
  KeywordSet doc;
  uint32_t k = 10;
  double alpha = 0.5;  // must lie strictly inside (0, 1)
  SimilarityModel model = SimilarityModel::kJaccard;
};

struct ScoredObject {
  ObjectId id = kInvalidObjectId;
  double score = 0.0;
};

// Deterministic result ordering: score descending, then id ascending.
struct ScoreGreater {
  bool operator()(const ScoredObject& a, const ScoredObject& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }
};

// ST(o, q) of Eqn 1; `diagonal` is the SDist normalizer (Dataset::diagonal).
double Score(const SpatialObject& object, const SpatialKeywordQuery& query,
             double diagonal);

// Checks the parts of a query that outside input controls: alpha strictly
// inside (0, 1) and a finite location, each tested so that NaN fails. Any
// k is valid (k = 0 answers empty). Returns InvalidArgument on violation.
Status ValidateTopKQuery(const SpatialKeywordQuery& query);

// Brute-force evaluation helpers (reference semantics for tests and tiny
// datasets; the indexes provide the scalable path).

// The k best objects ordered by (score desc, id asc).
std::vector<ScoredObject> BruteForceTopK(const Dataset& dataset,
                                         const SpatialKeywordQuery& query);

// R(target, q) per Eqn 3: 1 + number of objects scoring strictly higher.
uint32_t BruteForceRank(const Dataset& dataset,
                        const SpatialKeywordQuery& query, ObjectId target);

}  // namespace wsk

#endif  // WSK_DATA_QUERY_H_
