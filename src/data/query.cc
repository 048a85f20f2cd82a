#include "data/query.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace wsk {

Status ValidateTopKQuery(const SpatialKeywordQuery& query) {
  if (!(query.alpha > 0.0 && query.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must lie strictly inside (0, 1)");
  }
  if (!std::isfinite(query.loc.x) || !std::isfinite(query.loc.y)) {
    return Status::InvalidArgument("query location must be finite");
  }
  return Status::Ok();
}

double Score(const SpatialObject& object, const SpatialKeywordQuery& query,
             double diagonal) {
  WSK_CHECK(query.alpha > 0.0 && query.alpha < 1.0);
  WSK_CHECK(diagonal > 0.0);
  const double sdist = Distance(object.loc, query.loc) / diagonal;
  const double tsim = TextualSimilarity(object.doc, query.doc, query.model);
  return query.alpha * (1.0 - sdist) + (1.0 - query.alpha) * tsim;
}

std::vector<ScoredObject> BruteForceTopK(const Dataset& dataset,
                                         const SpatialKeywordQuery& query) {
  const double diagonal = dataset.diagonal();
  std::vector<ScoredObject> scored;
  scored.reserve(dataset.size());
  for (const SpatialObject& o : dataset.objects()) {
    scored.push_back(ScoredObject{o.id, Score(o, query, diagonal)});
  }
  const size_t k = std::min<size_t>(query.k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    ScoreGreater());
  scored.resize(k);
  return scored;
}

uint32_t BruteForceRank(const Dataset& dataset,
                        const SpatialKeywordQuery& query, ObjectId target) {
  const double diagonal = dataset.diagonal();
  const double target_score =
      Score(dataset.object(target), query, diagonal);
  uint32_t better = 0;
  for (const SpatialObject& o : dataset.objects()) {
    if (Score(o, query, diagonal) > target_score) ++better;
  }
  return better + 1;
}

}  // namespace wsk
