// Public types of the keyword-adapted why-not query (Definition 2).
#ifndef WSK_CORE_WHYNOT_H_
#define WSK_CORE_WHYNOT_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "data/dataset.h"
#include "data/query.h"
#include "text/keyword_set.h"

namespace wsk {

class TraceRecorder;  // observability/trace.h

// The most threads one why-not query may ask for
// (WhyNotOptions::num_threads). Fig. 10 uses at most 8; the cap keeps a
// malformed request from cutting its work into unbounded pieces.
inline constexpr int kMaxWhyNotThreads = 64;

// Tuning knobs for the why-not algorithms. The three opt_* switches map to
// the Section IV-C optimizations (Fig. 11's Opt1/Opt2/Opt3); all of them
// only affect the basic/advanced algorithm family.
struct WhyNotOptions {
  // User preference between modifying k and modifying the keywords (Eqn 4).
  double lambda = 0.5;

  // Opt1 — early stop: abort a candidate's spatial keyword query once the
  // Eqn 6 rank bound is exceeded.
  bool opt_early_stop = true;

  // Opt2 — enumeration order: consider candidates by (edit distance,
  // particularity benefit) and stop when the next candidate's keyword
  // penalty alone reaches the best penalty.
  bool opt_enumeration_order = true;

  // Opt3 — keyword-set filtering: cache dominators of the missing objects
  // and skip candidates whose cached dominators already exceed the rank
  // bound.
  bool opt_keyword_filtering = true;

  // Threads for candidate evaluation (Section IV-C4): with T > 0 the
  // calling thread plus up to T - 1 helpers from the shared executor
  // (common/thread_pool.h), which creates no thread per query; 0 and 1 run
  // on the calling thread alone. KcRBased cuts each batch into min(T, batch)
  // chunks. At most kMaxWhyNotThreads.
  int num_threads = 0;

  // KcRBased only — Section V-D strategy switch. The default (false)
  // processes candidates in batches of equal edit distance with the early
  // stop between batches (Algorithm 4); true feeds every candidate to a
  // single Algorithm 3 traversal, the "straightforward way" the paper
  // describes and argues against for large candidate sets.
  bool kcr_single_batch = false;

  // Section VI-B approximate mode: evaluate only the `sample_size`
  // candidates with the highest particularity benefit. 0 = exact.
  uint32_t sample_size = 0;

  // Candidate-scoring kernel (docs/PERF.md): represent candidates as bit
  // masks over doc0 ∪ M.doc and score via footprint popcounts instead of
  // sorted merges. Results are bit-identical either way (the differential
  // tests compare the two paths); false forces the scalar reference path.
  // The kernel also disables itself when the universe exceeds 64 terms.
  bool use_score_kernel = true;

  // Optional cooperative cancellation (borrowed; must outlive the query).
  // All three algorithms check it at candidate / node-visit granularity and
  // return kCancelled or kDeadlineExceeded instead of running to
  // completion. nullptr = never cancelled.
  const CancelToken* cancel = nullptr;

  // Optional per-query trace sink (borrowed; must outlive the query). The
  // algorithms record stage spans and pruning counters into it
  // (docs/OBSERVABILITY.md). nullptr — the default — disables tracing;
  // every instrumentation site then reduces to a pointer test, which the
  // CI trace-overhead gate holds to the untraced baseline.
  TraceRecorder* trace = nullptr;
};

// The answer: the refined query q' = (loc, doc', k', alpha). loc and alpha
// are unchanged from the original query.
struct RefinedQuery {
  KeywordSet doc;           // doc'
  uint32_t k = 0;           // k'
  uint32_t rank = 0;        // R(M, q') under the refined keywords
  uint32_t edit_distance = 0;
  double penalty = 0.0;     // Eqn 4
};

// Per-query work accounting. All three algorithms populate every
// applicable field with the same meaning, and every enumerated candidate
// lands in exactly one disposition bucket:
//
//   candidates_total = candidates_evaluated + candidates_filtered
//                    + candidates_skipped_order + candidates_pruned_bounds
//
// (asserted against the brute-force oracle by the differential tests).
struct WhyNotStats {
  uint32_t initial_rank = 0;  // R(M, q)
  uint64_t candidates_total = 0;
  // BS/AdvancedBS: spatial keyword queries run (including Opt1-capped
  // ones). KcRBased: candidates whose rank bounds converged to an exact
  // penalty.
  uint64_t candidates_evaluated = 0;
  uint64_t candidates_filtered = 0;       // pruned by the dominator cache
  uint64_t candidates_skipped_order = 0;  // skipped by the Opt2 order stop
  // Pruned by a rank/penalty bound before any exact evaluation: the Eqn 6
  // bound in BS/AdvancedBS, the MaxDom/MinDom penalty bounds in KcRBased.
  uint64_t candidates_pruned_bounds = 0;
  // Index nodes materialized: KcR Algorithm 3 unfoldings plus every node
  // expanded by the rank traversals (initial rank and per candidate).
  uint64_t nodes_expanded = 0;
  double elapsed_ms = 0.0;
  // Pages of the algorithm's tree family (SetR for BS/AdvancedBS, KcR for
  // KcRBased) fetched during the query: physical + mapped reads, the same
  // on every backend (mapped reads are 0 unless the files are mmap'd).
  uint64_t io_reads = 0;
};

struct WhyNotResult {
  // True when every missing object already ranks within the original top-k;
  // `refined` then equals the original query with penalty 0.
  bool already_in_result = false;
  RefinedQuery refined;
  WhyNotStats stats;
};

}  // namespace wsk

#endif  // WSK_CORE_WHYNOT_H_
