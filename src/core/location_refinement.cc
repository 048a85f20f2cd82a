#include "core/location_refinement.h"

#include <algorithm>
#include <cmath>

namespace wsk {

namespace {

// R(M, q) with the query relocated to `loc` (exact, in-memory).
uint32_t RankAt(const Dataset& dataset, const SpatialKeywordQuery& original,
                const std::vector<ObjectId>& missing, Point loc) {
  SpatialKeywordQuery q = original;
  q.loc = loc;
  const double diagonal = dataset.diagonal();
  double min_score = std::numeric_limits<double>::infinity();
  for (ObjectId m : missing) {
    min_score = std::min(min_score, Score(dataset.object(m), q, diagonal));
  }
  uint32_t better = 0;
  for (const SpatialObject& o : dataset.objects()) {
    if (Score(o, q, diagonal) > min_score) ++better;
  }
  return better + 1;
}

}  // namespace

StatusOr<LocationRefineResult> RefineLocationApproximate(
    const Dataset& dataset, const SpatialKeywordQuery& original,
    const std::vector<ObjectId>& missing, double lambda, uint32_t samples) {
  // Range tests are written so that NaN fails them.
  if (!(0.0 < original.alpha && original.alpha < 1.0)) {
    return Status::InvalidArgument("alpha must lie strictly inside (0, 1)");
  }
  if (!std::isfinite(original.loc.x) || !std::isfinite(original.loc.y)) {
    return Status::InvalidArgument("query location must be finite");
  }
  if (missing.empty()) {
    return Status::InvalidArgument("no missing objects given");
  }
  if (!(0.0 <= lambda && lambda <= 1.0)) {
    return Status::InvalidArgument("lambda must lie in [0, 1]");
  }
  if (samples < 2) {
    return Status::InvalidArgument("need at least 2 samples");
  }
  for (ObjectId id : missing) {
    if (id >= dataset.size()) {
      return Status::InvalidArgument("missing object id out of range");
    }
  }

  LocationRefineResult result;
  result.initial_rank = RankAt(dataset, original, missing, original.loc);
  if (result.initial_rank <= original.k) {
    result.already_in_result = true;
    result.loc = original.loc;
    result.k = original.k;
    result.rank = result.initial_rank;
    return result;
  }

  // Search direction: toward the missing objects' centroid — the move that
  // most directly raises their spatial component.
  Point centroid{0.0, 0.0};
  for (ObjectId m : missing) {
    centroid.x += dataset.object(m).loc.x;
    centroid.y += dataset.object(m).loc.y;
  }
  centroid.x /= static_cast<double>(missing.size());
  centroid.y /= static_cast<double>(missing.size());

  const double diagonal = dataset.diagonal();
  const double k_normalizer =
      static_cast<double>(result.initial_rank - original.k);

  auto evaluate = [&](double t) {
    const Point loc{original.loc.x + t * (centroid.x - original.loc.x),
                    original.loc.y + t * (centroid.y - original.loc.y)};
    const uint32_t rank = RankAt(dataset, original, missing, loc);
    const double moved = Distance(loc, original.loc);
    const double dk =
        rank > original.k ? static_cast<double>(rank - original.k) : 0.0;
    const double penalty =
        lambda * dk / k_normalizer + (1.0 - lambda) * moved / diagonal;
    return std::tuple<double, Point, uint32_t, double>(penalty, loc, rank,
                                                       moved);
  };

  // Seed with the basic refinement (stay put, enlarge k): penalty lambda.
  result.loc = original.loc;
  result.rank = result.initial_rank;
  result.k = result.initial_rank;
  result.penalty = lambda;
  result.moved = 0.0;

  double best_t = 0.0;
  for (uint32_t i = 0; i <= samples; ++i) {
    const double t = static_cast<double>(i) / samples;
    const auto [penalty, loc, rank, moved] = evaluate(t);
    if (penalty < result.penalty) {
      result.penalty = penalty;
      result.loc = loc;
      result.rank = rank;
      result.k = std::max(original.k, rank);
      result.moved = moved;
      best_t = t;
    }
  }

  // Local shrink around the best sample: halve the bracket a few times and
  // retest the midpoints (the penalty is piecewise linear in t between rank
  // changes, so the optimum within the winning bracket hugs a boundary).
  double lo = std::max(0.0, best_t - 1.0 / samples);
  double hi = std::min(1.0, best_t + 1.0 / samples);
  for (int round = 0; round < 20; ++round) {
    const double mid_lo = lo + (hi - lo) / 3.0;
    const double mid_hi = hi - (hi - lo) / 3.0;
    for (double t : {mid_lo, mid_hi}) {
      const auto [penalty, loc, rank, moved] = evaluate(t);
      if (penalty < result.penalty) {
        result.penalty = penalty;
        result.loc = loc;
        result.rank = rank;
        result.k = std::max(original.k, rank);
        result.moved = moved;
        best_t = t;
      }
    }
    if (best_t <= mid_lo) {
      hi = mid_lo;
    } else if (best_t >= mid_hi) {
      lo = mid_hi;
    } else {
      lo = mid_lo;
      hi = mid_hi;
    }
  }
  return result;
}

}  // namespace wsk
