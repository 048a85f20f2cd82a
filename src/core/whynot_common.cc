#include "core/whynot_common.h"

#include <algorithm>
#include <string>

#include "common/macros.h"

namespace wsk::internal {

StatusOr<MissingSet> MissingSet::Build(const ObjectStore& store,
                                       const std::vector<ObjectId>& missing) {
  MissingSet set;
  for (ObjectId id : missing) {
    const SpatialObject* o = store.FindObject(id);
    if (o == nullptr) {
      return Status::InvalidArgument("missing object id out of range");
    }
    if (std::find(set.ids.begin(), set.ids.end(), id) != set.ids.end()) {
      continue;  // ignore duplicates
    }
    set.ids.push_back(id);
    set.locs.push_back(o->loc);
    set.docs.push_back(&o->doc);
    set.union_doc = set.union_doc.Union(o->doc);
  }
  if (set.ids.empty()) {
    return Status::InvalidArgument("missing object set is empty");
  }
  return set;
}

double MissingSet::MinScore(const SpatialKeywordQuery& query,
                            double diagonal) const {
  double min_score = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ids.size(); ++i) {
    const double sdist = Distance(locs[i], query.loc) / diagonal;
    const double tsim = TextualSimilarity(*docs[i], query.doc, query.model);
    const double score =
        query.alpha * (1.0 - sdist) + (1.0 - query.alpha) * tsim;
    min_score = std::min(min_score, score);
  }
  return min_score;
}

WhyNotScorer::WhyNotScorer(const ObjectStore& store, const MissingSet& missing,
                           const SpatialKeywordQuery& original,
                           double diagonal, const KeywordSet& universe,
                           bool enable_kernel)
    : store_(store),
      query_loc_(original.loc),
      diagonal_(diagonal),
      alpha_(original.alpha),
      model_(original.model) {
  if (!enable_kernel) return;  // universe_ stays invalid: scalar path
  universe_ = CandidateUniverse::Build(universe);
  if (!universe_.valid()) return;
  missing_fp_.reserve(missing.size());
  missing_sdist_.reserve(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    missing_fp_.push_back(universe_.FootprintOf(*missing.docs[i]));
    // Same expression as MissingSet::MinScore so the doubles match bit for
    // bit.
    missing_sdist_.push_back(Distance(missing.locs[i], query_loc_) /
                             diagonal);
  }
}

double WhyNotScorer::MinScore(CandidateMask cand) const {
  double min_score = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < missing_fp_.size(); ++i) {
    const double sdist = missing_sdist_[i];
    const double tsim = ScoreCandidate(missing_fp_[i], cand, model_);
    const double score = alpha_ * (1.0 - sdist) + (1.0 - alpha_) * tsim;
    min_score = std::min(min_score, score);
  }
  return min_score;
}

double WhyNotScorer::ObjectScore(ObjectId id, CandidateMask cand) const {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(id);
    if (it != memo_.end()) {
      const double tsim = ScoreCandidate(it->second.fp, cand, model_);
      return alpha_ * (1.0 - it->second.sdist) + (1.0 - alpha_) * tsim;
    }
  }
  const SpatialObject* o = store_.FindObject(id);
  WSK_CHECK(o != nullptr);
  ObjectEntry entry;
  entry.fp = universe_.FootprintOf(o->doc);
  // Mirrors Score(): sdist normalized against the same diagonal.
  entry.sdist = Distance(o->loc, query_loc_) / diagonal_;
  const double tsim = ScoreCandidate(entry.fp, cand, model_);
  const double score =
      alpha_ * (1.0 - entry.sdist) + (1.0 - alpha_) * tsim;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    memo_.emplace(id, entry);
  }
  return score;
}

Status ValidateWhyNotInput(const SpatialKeywordQuery& original,
                           const std::vector<ObjectId>& missing,
                           const WhyNotOptions& options, size_t dataset_size) {
  WSK_RETURN_IF_ERROR(ValidateTopKQuery(original));
  if (original.doc.empty()) {
    return Status::InvalidArgument("original query has no keywords");
  }
  if (original.k == 0) {
    return Status::InvalidArgument("k must be at least 1");
  }
  if (missing.empty()) {
    return Status::InvalidArgument("no missing objects given");
  }
  if (missing.size() >= dataset_size) {
    return Status::InvalidArgument("more missing objects than data objects");
  }
  // Written so that NaN fails it.
  if (!(options.lambda >= 0.0 && options.lambda <= 1.0)) {
    return Status::InvalidArgument("lambda must lie in [0, 1]");
  }
  if (options.num_threads < 0 || options.num_threads > kMaxWhyNotThreads) {
    return Status::InvalidArgument("num_threads must lie in [0, " +
                                   std::to_string(kMaxWhyNotThreads) + "]");
  }
  return Status::Ok();
}

BestRefinement::BestRefinement(const KeywordSet& doc0, uint32_t k0,
                               uint32_t initial_rank, double lambda)
    : k0_(k0), threshold_(lambda) {
  best_.doc = doc0;
  best_.k = initial_rank;
  best_.rank = initial_rank;
  best_.penalty = lambda;
}

double BestRefinement::Threshold() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threshold_;
}

void BestRefinement::Tighten(double pen_hi) {
  std::lock_guard<std::mutex> lock(mu_);
  threshold_ = std::min(threshold_, pen_hi);
}

bool BestRefinement::WinsTie(const Candidate& cand, double penalty) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WinsTieLocked(cand, penalty);
}

bool BestRefinement::WinsTieLocked(const Candidate& cand,
                                   double penalty) const {
  return penalty == best_.penalty && !best_is_seed_ &&
         CanonicalOrderLess(cand, best_cand_);
}

void BestRefinement::Offer(const Candidate& cand, uint32_t rank,
                           double penalty) {
  std::lock_guard<std::mutex> lock(mu_);
  if (penalty < best_.penalty || WinsTieLocked(cand, penalty)) {
    best_.doc = cand.doc;
    best_.rank = rank;
    best_.k = std::max(k0_, rank);
    best_.edit_distance = cand.edit_distance;
    best_.penalty = penalty;
    best_is_seed_ = false;
    best_cand_ = cand;
  }
  threshold_ = std::min(threshold_, penalty);
}

RefinedQuery BestRefinement::best() const {
  std::lock_guard<std::mutex> lock(mu_);
  return best_;
}

StatusOr<uint32_t> RankFromIndex(const TopKSource& tree,
                                 const SpatialKeywordQuery& query,
                                 double min_score, int64_t limit,
                                 bool* exceeded,
                                 std::vector<ObjectId>* dominators,
                                 const CancelToken* cancel,
                                 TraceRecorder* trace,
                                 uint64_t* nodes_expanded) {
  *exceeded = false;
  TraceSpan span(trace, TraceStage::kRankQuery);
  // min_score doubles as the traversal floor: only objects scoring above it
  // count, so entries at or below it never enter the iterator's heap. The
  // check below still stops a -inf floor (which drops nothing) at the first
  // object that is not strictly better.
  TopKIterator it(&tree, query, cancel, trace, min_score);
  uint32_t strictly_better = 0;
  std::optional<ScoredObject> next;
  for (;;) {
    Status s = it.Next(&next);
    if (!s.ok()) {
      if (nodes_expanded != nullptr) *nodes_expanded += it.num_expanded();
      return s;
    }
    if (!next || next->score <= min_score) break;
    ++strictly_better;
    if (dominators != nullptr) dominators->push_back(next->id);
    if (limit > 0 && static_cast<int64_t>(strictly_better) + 1 > limit) {
      *exceeded = true;
      break;
    }
  }
  if (nodes_expanded != nullptr) *nodes_expanded += it.num_expanded();
  return strictly_better + 1;
}

}  // namespace wsk::internal
