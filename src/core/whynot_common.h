// Internal helpers shared by the why-not algorithm implementations, and
// the interface between the shared search frame (PlannedBackend::Answer)
// and the two candidate searches (whynot_bs.h, whynot_kcr.h).
#ifndef WSK_CORE_WHYNOT_COMMON_H_
#define WSK_CORE_WHYNOT_COMMON_H_

#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/candidates.h"
#include "core/penalty.h"
#include "core/planned_backend.h"
#include "core/whynot.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/topk.h"
#include "text/score_kernel.h"

namespace wsk::internal {

// Materialized view of the missing-object set M.
struct MissingSet {
  std::vector<ObjectId> ids;
  std::vector<Point> locs;
  std::vector<const KeywordSet*> docs;  // borrowed from the store
  KeywordSet union_doc;                 // M.doc

  static StatusOr<MissingSet> Build(const ObjectStore& store,
                                    const std::vector<ObjectId>& missing);

  size_t size() const { return ids.size(); }

  // min_i ST(m_i, query): the score threshold above which an object counts
  // toward R(M, query).
  double MinScore(const SpatialKeywordQuery& query, double diagonal) const;
};

// Per-invocation candidate scorer (docs/PERF.md): freezes the candidate
// universe doc0 ∪ M.doc into a bit index, footprints every missing object's
// doc once (instead of re-scoring it per candidate), and memoizes
// dataset-object footprints for the Opt3 dominator re-checks. All scores
// are bit-identical to the scalar expressions they replace; when the kernel
// is disabled (options or a > 64-term universe) kernel_enabled() is false
// and callers take the scalar reference path.
class WhyNotScorer {
 public:
  // `universe` is the enumerator's doc0 ∪ M.doc: every candidate mask
  // passed to the scoring methods must be a subset of it.
  WhyNotScorer(const ObjectStore& store, const MissingSet& missing,
               const SpatialKeywordQuery& original, double diagonal,
               const KeywordSet& universe, bool enable_kernel);

  bool kernel_enabled() const { return universe_.valid(); }
  const CandidateUniverse& universe() const { return universe_; }

  size_t num_missing() const { return missing_fp_.size(); }
  const Footprint& missing_footprint(size_t i) const {
    return missing_fp_[i];
  }
  // SDist(m_i, q), normalized — precomputed once per invocation.
  double missing_sdist(size_t i) const { return missing_sdist_[i]; }

  // TSim(m_i, cand): bit-identical to TextualSimilarity(m_i.doc, cand.doc).
  double MissingTsim(size_t i, CandidateMask cand) const {
    return ScoreCandidate(missing_fp_[i], cand, model_);
  }

  // min_i ST(m_i, q') for the candidate with mask `cand`; bit-identical to
  // MissingSet::MinScore of the equivalent refined query.
  double MinScore(CandidateMask cand) const;

  // ST(o, q') for the candidate with mask `cand`; bit-identical to
  // Score(o, refined, diagonal). The object's footprint and normalized
  // distance are memoized across candidates (thread-safe).
  double ObjectScore(ObjectId id, CandidateMask cand) const;

 private:
  struct ObjectEntry {
    Footprint fp;
    double sdist = 0.0;
  };

  const ObjectStore& store_;
  CandidateUniverse universe_;
  Point query_loc_;
  double diagonal_ = 1.0;
  double alpha_ = 0.5;
  SimilarityModel model_ = SimilarityModel::kJaccard;
  std::vector<Footprint> missing_fp_;
  std::vector<double> missing_sdist_;
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<ObjectId, ObjectEntry> memo_;
};

// Validates the original query + options; returns a non-OK status for
// out-of-domain arguments.
Status ValidateWhyNotInput(const SpatialKeywordQuery& original,
                           const std::vector<ObjectId>& missing,
                           const WhyNotOptions& options, size_t dataset_size);

// R(M, query) = 1 + #objects scoring strictly above `min_score`, streamed
// from the index with `min_score` as the iterator's floor, so entries that
// cannot beat it never enter the frontier. With `limit` > 0, gives up once
// the count proves the rank exceeds `limit` (sets *exceeded). Dominator ids
// are appended to *dominators, in the unfloored stream's order, when it is
// non-null. `cancel` aborts the underlying traversal at node-visit
// granularity. `trace` receives a rank_query span plus the traversal's node
// counters; *nodes_expanded (when non-null) is incremented by the nodes
// this traversal materialized.
StatusOr<uint32_t> RankFromIndex(const TopKSource& tree,
                                 const SpatialKeywordQuery& query,
                                 double min_score, int64_t limit,
                                 bool* exceeded,
                                 std::vector<ObjectId>* dominators,
                                 const CancelToken* cancel = nullptr,
                                 TraceRecorder* trace = nullptr,
                                 uint64_t* nodes_expanded = nullptr);

// The best refined query found so far and the pruning threshold p_c,
// shared by every search worker (Sections IV-C4 and VII-B7). It starts as
// the basic refinement: keep doc0, k' = R(M, q), penalty lambda. Ties go to
// that seed, then to the canonically-first candidate, so the winner does
// not depend on the thread schedule or the batch chunking.
class BestRefinement {
 public:
  BestRefinement(const KeywordSet& doc0, uint32_t k0, uint32_t initial_rank,
                 double lambda);

  // p_c: the best exact penalty, or a lower proven penalty upper bound.
  double Threshold() const;
  // Records a penalty upper bound proven for some candidate.
  void Tighten(double pen_hi);
  // True when `cand` at exactly the incumbent's `penalty` would replace it.
  bool WinsTie(const Candidate& cand, double penalty) const;
  // Accepts `cand`'s exact rank R(M, q') and Eqn 4 penalty.
  void Offer(const Candidate& cand, uint32_t rank, double penalty);
  RefinedQuery best() const;

 private:
  bool WinsTieLocked(const Candidate& cand, double penalty) const;

  const uint32_t k0_;
  mutable std::mutex mu_;
  double threshold_;
  RefinedQuery best_;
  bool best_is_seed_ = true;
  Candidate best_cand_;  // tie-break key, valid once !best_is_seed_
};

// What the frame hands a candidate search: the plan, the ranked stream over
// the search's tree family, what Algorithm 4's preamble built once, and the
// candidate list. A search finds the candidates' ranks, offers exact
// penalties to `best`, and adds its candidate dispositions and
// nodes_expanded to `stats`.
struct SearchFrame {
  const WhyNotPlan& plan;
  const TopKSource& source;
  const SpatialKeywordQuery& original;
  const WhyNotOptions& options;
  const MissingSet& missing;
  const WhyNotScorer& scorer;
  const PenaltyModel& pm;
  const std::vector<Candidate>& candidates;
  BestRefinement* best;
  WhyNotStats* stats;
};

using CandidateSearch = Status (*)(const SearchFrame& frame);

}  // namespace wsk::internal

#endif  // WSK_CORE_WHYNOT_COMMON_H_
