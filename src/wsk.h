// Umbrella header: the library's public API in one include.
//
//   #include "wsk.h"
//
//   wsk::Dataset data = ...;
//   auto engine = wsk::WhyNotEngine::Build(&data, {}).value();
//   auto answer = engine->Answer(wsk::WhyNotAlgorithm::kKcrBased, query,
//                                {missing_id}, {}).value();
//
// Individual headers remain includable on their own; this file is a
// convenience for applications.
#ifndef WSK_WSK_H_
#define WSK_WSK_H_

#include "common/cancel.h"        // cooperative cancellation / deadlines
#include "common/geometry.h"      // Point, Rect, distances
#include "common/status.h"        // Status, StatusOr
#include "core/alpha_refinement.h"     // preference adaption ([8])
#include "core/engine.h"               // WhyNotEngine facade
#include "core/explain.h"              // miss explanations
#include "core/integrated.h"           // keyword vs preference answering
#include "core/location_refinement.h"  // location adaption (future work)
#include "core/whynot.h"               // options & result types
#include "data/dataset.h"         // the object table
#include "data/dataset_io.h"      // CSV import/export
#include "data/generator.h"       // EURO/GN-like synthesis
#include "data/query.h"           // spatial keyword query semantics
#include "data/stats.h"           // Table II-style statistics
#include "index/batch_topk.h"     // multi-query shared traversal
#include "index/kcr_tree.h"       // Section V index
#include "index/setr_tree.h"      // Section IV index
#include "index/topk.h"           // incremental top-k
#include "index/verify.h"         // index fsck
#include "service/metrics.h"        // counters + latency histograms
#include "service/query_service.h"  // concurrent service front end
#include "service/result_cache.h"   // shared LRU result cache
#include "text/keyword_set.h"     // keyword-set algebra
#include "text/similarity.h"      // Jaccard / Dice / Overlap
#include "text/vocabulary.h"      // term dictionary + particularity

#endif  // WSK_WSK_H_
