// The basic why-not search and its optimized variant (Section IV).
//
// For every candidate keyword set doc', a spatial keyword query is run on
// the frame's ranked stream (the SetR-trees) until all missing objects are
// retrieved (or, with Opt1, until the Eqn 6 rank bound proves the candidate
// cannot beat the best penalty). Options toggle the Section IV-C
// optimizations:
//   * all switches off + num_threads 0  →  the paper's BS
//   * all switches on (+ threads)       →  AdvancedBS
#ifndef WSK_CORE_WHYNOT_BS_H_
#define WSK_CORE_WHYNOT_BS_H_

#include "core/whynot_common.h"

namespace wsk::internal {

// Ranks the frame's candidates one rank query each, on the calling thread
// plus options.num_threads - 1 executor helpers (ParallelFor), which share
// p_c, the order stop and the Opt3 dominator cache.
Status SearchByRankQueries(const SearchFrame& frame);

}  // namespace wsk::internal

#endif  // WSK_CORE_WHYNOT_BS_H_
