// Batched multi-query top-k (docs/BATCHING.md): BatchedIndexTopK must be
// bit-identical to IndexTopK run solo for every query in the batch, on
// both tree sources, across batch sizes, mixed similarity models (one
// shared leaf universe, each query scored under its own model),
// cancellation mid-batch, and k larger than the dataset. One node
// expansion with N slots must equal N single-slot expansions, on the trees
// and on the merged multi-segment source. The trace counters must account the
// amortization exactly: every per-query node opening is either the
// expansion that performed the physical work or a shared ride on one.
#include "index/batch_topk.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/cancel.h"
#include "data/generator.h"
#include "index/kcr_tree.h"
#include "index/merged_source.h"
#include "index/setr_tree.h"
#include "index/topk.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

class BatchTopKTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 300;
    config.vocab_size = 50;
    config.seed = 777;
    dataset_ = GenerateDataset(config);

    setr_file_ = std::make_unique<TempFile>("batch_setr");
    setr_pager_ = Pager::Create(setr_file_->path()).value();
    setr_pool_ = std::make_unique<BufferPool>(setr_pager_.get(), 4u << 20);
    SetRTree::Options setr_options;
    setr_options.capacity = 8;
    setr_tree_ =
        SetRTree::BulkLoad(dataset_, setr_pool_.get(), setr_options).value();

    kcr_file_ = std::make_unique<TempFile>("batch_kcr");
    kcr_pager_ = Pager::Create(kcr_file_->path()).value();
    kcr_pool_ = std::make_unique<BufferPool>(kcr_pager_.get(), 4u << 20);
    KcrTree::Options kcr_options;
    kcr_options.capacity = 8;
    kcr_tree_ =
        KcrTree::BulkLoad(dataset_, kcr_pool_.get(), kcr_options).value();
  }

  // A varied pool of queries: different locations, docs, k, alpha.
  std::vector<SpatialKeywordQuery> MakeQueries(size_t n) const {
    std::vector<SpatialKeywordQuery> queries;
    for (size_t i = 0; i < n; ++i) {
      SpatialKeywordQuery q;
      q.loc = Point{0.1 + 0.08 * static_cast<double>(i % 10),
                    0.9 - 0.07 * static_cast<double>(i % 11)};
      std::vector<TermId> terms(dataset_.object(13 * i + 5).doc.begin(),
                                dataset_.object(13 * i + 5).doc.end());
      if (terms.size() > 4) terms.resize(4);
      q.doc = KeywordSet(std::move(terms));
      q.k = 3 + static_cast<uint32_t>(i % 9);
      q.alpha = 0.2 + 0.1 * static_cast<double>(i % 6);
      queries.push_back(std::move(q));
    }
    return queries;
  }

  void ExpectBitIdentical(const std::vector<ScoredObject>& got,
                          const std::vector<ScoredObject>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "position " << i;
      EXPECT_EQ(got[i].score, want[i].score) << "position " << i;
    }
  }

  // Runs the queries solo and in batches of `batch_size` over `source`,
  // comparing every slot bit for bit.
  void RunDifferential(const TopKSource& source,
                       const std::vector<SpatialKeywordQuery>& queries,
                       size_t batch_size) {
    for (size_t start = 0; start < queries.size(); start += batch_size) {
      const size_t end = std::min(start + batch_size, queries.size());
      std::vector<BatchTopKRequest> requests;
      for (size_t i = start; i < end; ++i) {
        requests.push_back(BatchTopKRequest{&queries[i], nullptr});
      }
      std::vector<BatchTopKResult> batched =
          BatchedIndexTopK(source, requests);
      ASSERT_EQ(batched.size(), requests.size());
      for (size_t i = start; i < end; ++i) {
        SCOPED_TRACE("query " + std::to_string(i) + " batch_size " +
                     std::to_string(batch_size));
        StatusOr<std::vector<ScoredObject>> solo =
            IndexTopK(source, queries[i]);
        ASSERT_TRUE(solo.ok()) << solo.status().ToString();
        const BatchTopKResult& slot = batched[i - start];
        ASSERT_TRUE(slot.status.ok()) << slot.status.ToString();
        ExpectBitIdentical(slot.topk, solo.value());
      }
    }
  }

  Dataset dataset_;
  std::unique_ptr<TempFile> setr_file_;
  std::unique_ptr<Pager> setr_pager_;
  std::unique_ptr<BufferPool> setr_pool_;
  std::unique_ptr<SetRTree> setr_tree_;
  std::unique_ptr<TempFile> kcr_file_;
  std::unique_ptr<Pager> kcr_pager_;
  std::unique_ptr<BufferPool> kcr_pool_;
  std::unique_ptr<KcrTree> kcr_tree_;
};

TEST_F(BatchTopKTest, MatchesSoloOnSetRTree) {
  const std::vector<SpatialKeywordQuery> queries = MakeQueries(16);
  for (size_t batch_size : {2u, 4u, 8u}) {
    RunDifferential(*setr_tree_, queries, batch_size);
  }
}

TEST_F(BatchTopKTest, MatchesSoloOnKcrTree) {
  const std::vector<SpatialKeywordQuery> queries = MakeQueries(16);
  for (size_t batch_size : {2u, 4u, 8u}) {
    RunDifferential(*kcr_tree_, queries, batch_size);
  }
}

TEST_F(BatchTopKTest, MixedSimilarityModelsMatchSolo) {
  std::vector<SpatialKeywordQuery> queries = MakeQueries(9);
  const SimilarityModel models[] = {SimilarityModel::kJaccard,
                                    SimilarityModel::kDice,
                                    SimilarityModel::kOverlap};
  for (size_t i = 0; i < queries.size(); ++i) queries[i].model = models[i % 3];
  RunDifferential(*setr_tree_, queries, 3);
  RunDifferential(*kcr_tree_, queries, 3);
}

TEST_F(BatchTopKTest, KLargerThanDatasetEmitsEverything) {
  std::vector<SpatialKeywordQuery> queries = MakeQueries(4);
  for (SpatialKeywordQuery& q : queries) {
    q.k = static_cast<uint32_t>(dataset_.size()) + 10;
  }
  RunDifferential(*setr_tree_, queries, 4);
}

TEST_F(BatchTopKTest, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(BatchedIndexTopK(*setr_tree_, {}).empty());
}

TEST_F(BatchTopKTest, CancelledSlotFailsWithoutDisturbingOthers) {
  const std::vector<SpatialKeywordQuery> queries = MakeQueries(3);
  CancelToken cancelled = CancelToken::Create();
  cancelled.Cancel();
  std::vector<BatchTopKRequest> requests = {
      BatchTopKRequest{&queries[0], nullptr},
      BatchTopKRequest{&queries[1], &cancelled},
      BatchTopKRequest{&queries[2], nullptr},
  };
  std::vector<BatchTopKResult> batched =
      BatchedIndexTopK(*setr_tree_, requests);
  ASSERT_EQ(batched.size(), 3u);
  EXPECT_EQ(batched[1].status.code(), StatusCode::kCancelled);
  for (size_t i : {0u, 2u}) {
    SCOPED_TRACE("slot " + std::to_string(i));
    ASSERT_TRUE(batched[i].status.ok()) << batched[i].status.ToString();
    ExpectBitIdentical(batched[i].topk,
                       IndexTopK(*setr_tree_, queries[i]).value());
  }
}

TEST_F(BatchTopKTest, ExpiredDeadlineFailsSlot) {
  const std::vector<SpatialKeywordQuery> queries = MakeQueries(2);
  CancelToken expired = CancelToken::WithTimeout(0.0001);
  // Spin until the deadline has definitely passed.
  while (expired.Check().ok()) {
  }
  std::vector<BatchTopKRequest> requests = {
      BatchTopKRequest{&queries[0], &expired},
      BatchTopKRequest{&queries[1], nullptr},
  };
  std::vector<BatchTopKResult> batched =
      BatchedIndexTopK(*setr_tree_, requests);
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(batched[0].status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(batched[1].status.ok());
  ExpectBitIdentical(batched[1].topk,
                     IndexTopK(*setr_tree_, queries[1]).value());
}

TEST_F(BatchTopKTest, TraceCountersAccountAmortizationExactly) {
  // Four identical queries share every expansion: the physical work is a
  // quarter of the logical openings, and visited == expanded + shared.
  const std::vector<SpatialKeywordQuery> queries = MakeQueries(1);
  std::vector<BatchTopKRequest> requests(4,
                                         BatchTopKRequest{&queries[0], nullptr});
  TraceRecorder trace(0);
  std::vector<BatchTopKResult> batched =
      BatchedIndexTopK(*setr_tree_, requests, &trace);
  for (const BatchTopKResult& slot : batched) ASSERT_TRUE(slot.status.ok());

  EXPECT_EQ(trace.counter(TraceCounter::kBatchQueries), 4u);
  const uint64_t expanded = trace.counter(TraceCounter::kBatchNodesExpanded);
  const uint64_t shared = trace.counter(TraceCounter::kBatchNodesShared);
  const uint64_t visited = trace.counter(TraceCounter::kNodesVisited);
  EXPECT_GT(expanded, 0u);
  EXPECT_EQ(visited, expanded + shared);
  EXPECT_EQ(shared, 3 * expanded);  // perfect sharing across 4 clones
  EXPECT_EQ(trace.StageCount(TraceStage::kBatchTopK), 1u);
}

// Hides every third object id (a segment's tombstones).
class EveryThirdHidden : public ObjectVisibility {
 public:
  bool IsVisible(ObjectId id) const override { return id % 3 != 0; }
};

// One ExpandNode call with N slots must append to each slot exactly what N
// calls of one slot each append. Odd slots carry a floor, so the batched
// leaf scorer's floor and disjoint skip are held to the solo ones too.
void ExpectBatchMatchesSolo(const TopKSource& source, PageId node,
                            const std::vector<SpatialKeywordQuery>& queries) {
  std::vector<std::vector<SearchEntry>> batch_out(queries.size());
  std::vector<uint64_t> batch_scored(queries.size(), 0);
  std::vector<ExpandSlot> slots;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double floor =
        i % 2 == 0 ? -std::numeric_limits<double>::infinity()
                   : queries[i].alpha;
    slots.push_back(
        ExpandSlot{&queries[i], floor, &batch_out[i], &batch_scored[i]});
  }
  ASSERT_TRUE(source.ExpandNode(node, slots).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    std::vector<SearchEntry> solo;
    uint64_t objects_scored = 0;
    ExpandSlot slot = slots[i];
    slot.out = &solo;
    slot.objects_scored = &objects_scored;
    ASSERT_TRUE(source.ExpandNode(node, {&slot, 1}).ok());
    EXPECT_EQ(batch_scored[i], objects_scored);
    ASSERT_EQ(batch_out[i].size(), solo.size());
    for (size_t e = 0; e < solo.size(); ++e) {
      EXPECT_EQ(batch_out[i][e].bound, solo[e].bound) << "entry " << e;
      EXPECT_EQ(batch_out[i][e].is_object, solo[e].is_object);
      EXPECT_EQ(batch_out[i][e].node, solo[e].node);
      EXPECT_EQ(batch_out[i][e].object, solo[e].object);
    }
  }
}

// Checks `node` and then its first child, level by level, down to a leaf.
// Returns the leaf's single-slot expansion for queries[0] (no floor) and
// the objects its scorer examined.
void ExpectBatchMatchesSoloDownToLeaf(
    const TopKSource& source, PageId node,
    const std::vector<SpatialKeywordQuery>& queries,
    std::vector<SearchEntry>* leaf, uint64_t* leaf_scored) {
  for (;;) {
    SCOPED_TRACE("node " + std::to_string(node));
    ExpectBatchMatchesSolo(source, node, queries);
    leaf->clear();
    *leaf_scored = 0;
    const ExpandSlot slot{&queries[0],
                          -std::numeric_limits<double>::infinity(), leaf,
                          leaf_scored};
    ASSERT_TRUE(source.ExpandNode(node, {&slot, 1}).ok());
    ASSERT_FALSE(leaf->empty());
    if ((*leaf)[0].is_object) return;
    node = (*leaf)[0].node;
  }
}

TEST_F(BatchTopKTest, BatchExpansionMatchesSoloExpansionOnTrees) {
  const std::vector<SpatialKeywordQuery> queries = MakeQueries(5);
  for (const TopKSource* source :
       {static_cast<const TopKSource*>(setr_tree_.get()),
        static_cast<const TopKSource*>(kcr_tree_.get())}) {
    const PageId root = source->SearchRoot();
    ASSERT_NE(root, kInvalidPageId);
    std::vector<SearchEntry> leaf;
    uint64_t leaf_scored = 0;
    ExpectBatchMatchesSoloDownToLeaf(*source, root, queries, &leaf,
                                     &leaf_scored);
  }
}

TEST_F(BatchTopKTest, BatchExpansionMatchesSoloExpansionOnMergedSource) {
  // Two segments, one tombstone-filtered, plus delta objects: the virtual
  // root fans out per slot; segment nodes are expanded once, then
  // re-namespaced and filtered per slot.
  const std::vector<SpatialKeywordQuery> queries = MakeQueries(5);
  EveryThirdHidden hidden;
  std::vector<SpatialObject> delta;
  for (ObjectId id = 0; id < 6; ++id) {
    SpatialObject o = dataset_.object(7 * id + 2);
    o.id = static_cast<ObjectId>(dataset_.size()) + id;
    delta.push_back(o);
  }
  std::vector<const SpatialObject*> extras;
  for (const SpatialObject& o : delta) extras.push_back(&o);
  const MergedTopKSource merged(
      {{setr_tree_.get(), &hidden}, {kcr_tree_.get(), nullptr}},
      std::move(extras), dataset_.diagonal());

  ExpectBatchMatchesSolo(merged, MergedTopKSource::kVirtualRoot, queries);
  // The first segment, from its inner root down to a leaf.
  const PageId segment0 = PageId{1} << MergedTopKSource::kSegmentShift;
  std::vector<SearchEntry> leaf;
  uint64_t leaf_scored = 0;
  ExpectBatchMatchesSoloDownToLeaf(merged, segment0 | setr_tree_->SearchRoot(),
                                   queries, &leaf, &leaf_scored);
  // The leaf's tombstoned objects were examined, then filtered.
  EXPECT_LT(leaf.size(), leaf_scored);
  for (const SearchEntry& e : leaf) EXPECT_NE(e.object % 3, 0u);
}

}  // namespace
}  // namespace wsk
