// The basic why-not algorithm and its optimized variant (Section IV).
//
// For every candidate keyword set doc', a spatial keyword query is run on
// the SetR-tree until all missing objects are retrieved (or, with Opt1,
// until the Eqn 6 rank bound proves the candidate cannot beat the best
// penalty). Options toggle the Section IV-C optimizations:
//   * all switches off + num_threads 0  →  the paper's BS
//   * all switches on (+ threads)       →  AdvancedBS
#ifndef WSK_CORE_WHYNOT_BS_H_
#define WSK_CORE_WHYNOT_BS_H_

#include <vector>

#include "core/whynot.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/topk.h"

namespace wsk {

// Answers the keyword-adapted why-not query (Definition 2) by candidate
// enumeration over any best-first top-k source. `missing` must be
// non-empty; the missing objects must not already rank within the original
// top-k (if they do, the result reports already_in_result). The original
// query's doc must be non-empty and alpha strictly inside (0, 1).
//
// It runs over (object store, top-k source, diagonal), so the same
// implementation serves a single frozen SetR-tree and a live multi-segment
// snapshot (docs/SEGMENTS.md); PlannedBackend builds both.
StatusOr<WhyNotResult> AnswerWhyNotBasic(const ObjectStore& store,
                                         const TopKSource& source,
                                         double diagonal,
                                         const SpatialKeywordQuery& original,
                                         const std::vector<ObjectId>& missing,
                                         const WhyNotOptions& options);

}  // namespace wsk

#endif  // WSK_CORE_WHYNOT_BS_H_
