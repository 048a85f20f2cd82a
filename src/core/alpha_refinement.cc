#include "core/alpha_refinement.h"

#include <algorithm>
#include <cmath>

namespace wsk {

namespace {

// ST_alpha(o) = alpha * slope_o + tsim_o with slope_o = (1-SDist) - TSim.
struct ScoreLine {
  double slope = 0.0;
  double tsim = 0.0;

  double At(double alpha) const { return alpha * slope + tsim; }
};

ScoreLine LineFor(const SpatialObject& object,
                  const SpatialKeywordQuery& query, double diagonal) {
  const double sdist = Distance(object.loc, query.loc) / diagonal;
  const double tsim = TextualSimilarity(object.doc, query.doc, query.model);
  return ScoreLine{(1.0 - sdist) - tsim, tsim};
}

}  // namespace

StatusOr<AlphaRefineResult> RefineAlpha(const Dataset& dataset,
                                        const SpatialKeywordQuery& original,
                                        const std::vector<ObjectId>& missing,
                                        double lambda, double alpha_min,
                                        double alpha_max) {
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
  if (!(alpha_min > 0.0 && alpha_min < alpha_max && alpha_max < 1.0)) {
    return Status::InvalidArgument("need 0 < alpha_min < alpha_max < 1");
  }
  if (!(alpha_min <= original.alpha && original.alpha <= alpha_max)) {
    return Status::InvalidArgument("original alpha outside the search range");
  }
  for (ObjectId id : missing) {
    if (id >= dataset.size()) {
      return Status::InvalidArgument("missing object id out of range");
    }
  }

  const double diagonal = dataset.diagonal();
  std::vector<ScoreLine> lines;
  lines.reserve(dataset.size());
  for (const SpatialObject& o : dataset.objects()) {
    lines.push_back(LineFor(o, original, diagonal));
  }

  // Rank of the missing set at a given alpha: strict dominators of the
  // worst-scored missing object, plus one (Eqn 3 extended to sets).
  auto rank_at = [&](double alpha) -> uint32_t {
    double min_score = std::numeric_limits<double>::infinity();
    for (ObjectId m : missing) min_score = std::min(min_score,
                                                    lines[m].At(alpha));
    uint32_t better = 0;
    for (const ScoreLine& line : lines) {
      if (line.At(alpha) > min_score) ++better;
    }
    return better + 1;
  };

  AlphaRefineResult result;
  result.initial_rank = rank_at(original.alpha);
  if (result.initial_rank <= original.k) {
    result.already_in_result = true;
    result.alpha = original.alpha;
    result.k = original.k;
    result.rank = result.initial_rank;
    result.penalty = 0.0;
    return result;
  }

  // Candidate breakpoints: every alpha where some object's score line
  // crosses a missing object's line (rank changes only there), plus the
  // range ends and the original alpha.
  std::vector<double> breakpoints{alpha_min, alpha_max, original.alpha};
  for (ObjectId m : missing) {
    const ScoreLine& lm = lines[m];
    for (const ScoreLine& lo : lines) {
      const double denom = lm.slope - lo.slope;
      if (denom == 0.0) continue;
      const double crossing = (lo.tsim - lm.tsim) / denom;
      if (crossing > alpha_min && crossing < alpha_max) {
        breakpoints.push_back(crossing);
      }
    }
  }
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()),
                    breakpoints.end());

  const double alpha_normalizer =
      std::max(original.alpha - 0.0, 1.0 - original.alpha);
  const double k_normalizer =
      static_cast<double>(result.initial_rank - original.k);

  // Seed with the basic refinement: keep alpha, enlarge k (penalty lambda).
  result.alpha = original.alpha;
  result.rank = result.initial_rank;
  result.k = result.initial_rank;
  result.penalty = lambda;

  // Within each interval between breakpoints the rank is constant, so the
  // best alpha inside is the one closest to the original. Evaluate exactly
  // at that point (nudged off the boundary, where ties flip).
  for (size_t i = 0; i + 1 < breakpoints.size(); ++i) {
    const double lo = breakpoints[i];
    const double hi = breakpoints[i + 1];
    if (hi - lo <= 1e-12) continue;
    const double nudge = (hi - lo) * 1e-6;
    const double alpha =
        std::clamp(original.alpha, lo + nudge, hi - nudge);
    const uint32_t rank = rank_at(alpha);
    const double dk = rank > original.k
                          ? static_cast<double>(rank - original.k)
                          : 0.0;
    const double penalty =
        lambda * dk / k_normalizer +
        (1.0 - lambda) * std::abs(alpha - original.alpha) / alpha_normalizer;
    const bool better =
        penalty < result.penalty ||
        (penalty == result.penalty &&
         std::abs(alpha - original.alpha) <
             std::abs(result.alpha - original.alpha));
    if (better) {
      result.alpha = alpha;
      result.rank = rank;
      result.k = std::max(original.k, rank);
      result.penalty = penalty;
    }
  }
  return result;
}

}  // namespace wsk
