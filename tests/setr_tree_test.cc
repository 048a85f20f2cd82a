#include "index/setr_tree.h"

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "data/generator.h"
#include "index/topk.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

struct TreeBundle {
  std::unique_ptr<TempFile> file;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<SetRTree> tree;
};

TreeBundle BulkLoad(const Dataset& dataset, uint32_t capacity = 8) {
  TreeBundle bundle;
  bundle.file = std::make_unique<TempFile>("setr");
  bundle.pager = Pager::Create(bundle.file->path()).value();
  bundle.pool = std::make_unique<BufferPool>(bundle.pager.get(), 4u << 20);
  SetRTree::Options options;
  options.capacity = capacity;
  bundle.tree =
      SetRTree::BulkLoad(dataset, bundle.pool.get(), options).value();
  return bundle;
}

Dataset SmallDataset(uint32_t n, uint64_t seed) {
  GeneratorConfig config;
  config.num_objects = n;
  config.vocab_size = 40;
  config.seed = seed;
  return GenerateDataset(config);
}

// Recursively validates the structural invariants of the SetR-tree: every
// inner entry's MBR contains its subtree, its union set equals the union of
// the subtree's keyword sets, and its intersection set the intersection.
struct SubtreeFacts {
  Rect mbr;
  KeywordSet uni;
  KeywordSet inter;
  size_t objects = 0;
};

SubtreeFacts CheckSubtree(const SetRTree& tree, const Dataset& dataset,
                          PageId page) {
  SubtreeFacts facts;
  const SetRTree::Node node = tree.ReadNode(page).value();
  EXPECT_GE(node.size(), 1u);
  EXPECT_LE(node.size(), tree.options().capacity);
  bool first = true;
  if (node.is_leaf) {
    for (const SetRTree::LeafEntry& e : node.leaf_entries) {
      const KeywordSet doc = tree.ReadBlob<KeywordSet>(e.keywords).value();
      EXPECT_EQ(doc, dataset.object(e.object).doc);
      EXPECT_EQ(e.loc, dataset.object(e.object).loc);
      facts.mbr.Extend(e.loc);
      facts.uni = facts.uni.Union(doc);
      facts.inter = first ? doc : facts.inter.Intersect(doc);
      facts.objects += 1;
      first = false;
    }
  } else {
    for (const SetRTree::InnerEntry& e : node.inner_entries) {
      const SubtreeFacts child = CheckSubtree(tree, dataset, e.child);
      EXPECT_TRUE(e.mbr.ContainsRect(child.mbr));
      EXPECT_EQ(tree.ReadBlob<KeywordSet>(e.union_set).value(), child.uni);
      EXPECT_EQ(tree.ReadBlob<KeywordSet>(e.inter_set).value(), child.inter);
      facts.mbr.Extend(child.mbr);
      facts.uni = facts.uni.Union(child.uni);
      facts.inter = first ? child.inter : facts.inter.Intersect(child.inter);
      facts.objects += child.objects;
      first = false;
    }
  }
  return facts;
}

TEST(SetRTreeTest, BulkLoadStructuralInvariants) {
  const Dataset dataset = SmallDataset(300, 11);
  TreeBundle bundle = BulkLoad(dataset);
  EXPECT_EQ(bundle.tree->num_objects(), dataset.size());
  EXPECT_GE(bundle.tree->height(), 2u);
  const SubtreeFacts facts =
      CheckSubtree(*bundle.tree, dataset, bundle.tree->SearchRoot());
  EXPECT_EQ(facts.objects, dataset.size());
}

TEST(SetRTreeTest, EmptyTree) {
  Dataset dataset;
  TreeBundle bundle = BulkLoad(dataset);
  EXPECT_EQ(bundle.tree->SearchRoot(), kInvalidPageId);
  SpatialKeywordQuery q;
  q.doc = KeywordSet{1};
  q.alpha = 0.5;
  const auto top = IndexTopK(*bundle.tree, q).value();
  EXPECT_TRUE(top.empty());
}

TEST(SetRTreeTest, SingleObjectTree) {
  Dataset dataset;
  dataset.Add(Point{0.3, 0.7}, KeywordSet{1, 2});
  dataset.Add(Point{0.6, 0.1}, KeywordSet{2, 3});
  TreeBundle bundle = BulkLoad(dataset);
  SpatialKeywordQuery q;
  q.loc = Point{0.3, 0.7};
  q.doc = KeywordSet{1};
  q.k = 2;
  q.alpha = 0.5;
  const auto top = IndexTopK(*bundle.tree, q).value();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 0u);
}

// Parameterized sweep: index top-k must equal brute force for every (k,
// alpha, model) combination.
class SetRTopKSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, double,
                                                 SimilarityModel>> {};

TEST_P(SetRTopKSweep, MatchesBruteForce) {
  const auto [k, alpha, model] = GetParam();
  const Dataset dataset = SmallDataset(400, 23);
  TreeBundle bundle = BulkLoad(dataset);
  Rng rng(900 + k);
  for (int q_iter = 0; q_iter < 5; ++q_iter) {
    SpatialKeywordQuery q;
    q.loc = Point{rng.NextDouble(), rng.NextDouble()};
    const SpatialObject& pivot =
        dataset.object(static_cast<ObjectId>(rng.NextUint64(dataset.size())));
    q.doc = pivot.doc;  // realistic keywords
    q.k = k;
    q.alpha = alpha;
    q.model = model;
    const auto expected = BruteForceTopK(dataset, q);
    const auto actual = IndexTopK(*bundle.tree, q).value();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id) << "position " << i;
      EXPECT_NEAR(actual[i].score, expected[i].score, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SetRTopKSweep,
    ::testing::Combine(::testing::Values(1u, 5u, 20u, 100u),
                       ::testing::Values(0.1, 0.5, 0.9),
                       ::testing::Values(SimilarityModel::kJaccard,
                                         SimilarityModel::kDice)));

TEST(SetRTreeTest, ReopenFinalizedIndex) {
  const Dataset dataset = SmallDataset(120, 41);
  TempFile file("setr_reopen");
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = SetRTree::Open(&pool).value();
  EXPECT_EQ(tree->num_objects(), dataset.size());
  EXPECT_EQ(tree->options().capacity, 8u);
  SpatialKeywordQuery q;
  q.loc = Point{0.5, 0.5};
  q.doc = dataset.object(3).doc;
  q.k = 10;
  q.alpha = 0.5;
  const auto expected = BruteForceTopK(dataset, q);
  const auto actual = IndexTopK(*tree, q).value();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id);
  }
}

TEST(SetRTreeTest, OpenRejectsWrongMagic) {
  TempFile file("setr_magic");
  {
    auto pager = Pager::Create(file.path()).value();
    const PageId id = pager->AllocatePages(1);
    std::vector<uint8_t> junk(pager->page_size(), 0x5a);
    ASSERT_TRUE(pager->WritePage(id, junk.data()).ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 1u << 20);
  auto tree = SetRTree::Open(&pool);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST(SetRTreeTest, CreateRequiresFreshFile) {
  const Dataset dataset = SmallDataset(20, 43);
  TempFile file("setr_fresh");
  auto pager = Pager::Create(file.path()).value();
  pager->AllocatePages(1);
  BufferPool pool(pager.get(), 1u << 20);
  SetRTree::Options options;
  auto tree = SetRTree::BulkLoadObjects(dataset.objects(), dataset.diagonal(),
                                        &pool, options);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kFailedPrecondition);
}

TreeBundle BulkLoadV2(const Dataset& dataset, uint32_t capacity = 8) {
  TreeBundle bundle;
  bundle.file = std::make_unique<TempFile>("setr_v2");
  bundle.pager = Pager::Create(bundle.file->path()).value();
  bundle.pool = std::make_unique<BufferPool>(bundle.pager.get(), 4u << 20);
  SetRTree::Options options;
  options.capacity = capacity;
  options.format = kNodeFormatV2;
  bundle.tree =
      SetRTree::BulkLoad(dataset, bundle.pool.get(), options).value();
  return bundle;
}

TEST(SetRTreeTest, V2BulkLoadMatchesV1AndShrinksFile) {
  const Dataset dataset = SmallDataset(300, 17);
  TreeBundle v1 = BulkLoad(dataset);
  TreeBundle v2 = BulkLoadV2(dataset);
  ASSERT_TRUE(v1.tree->Finalize().ok());
  ASSERT_TRUE(v2.tree->Finalize().ok());
  EXPECT_EQ(v2.tree->options().format, kNodeFormatV2);
  EXPECT_EQ(v2.tree->num_objects(), v1.tree->num_objects());
  EXPECT_EQ(v2.tree->height(), v1.tree->height());
  // The compact format drops the fixed-slot slack and out-of-line blobs.
  EXPECT_LT(v2.pager->num_pages(), v1.pager->num_pages());

  SpatialKeywordQuery q;
  q.loc = Point{0.3, 0.6};
  q.doc = dataset.object(1).doc;
  q.k = 10;
  q.alpha = 0.5;
  const auto top_v1 = IndexTopK(*v1.tree, q).value();
  const auto top_v2 = IndexTopK(*v2.tree, q).value();
  ASSERT_EQ(top_v1.size(), top_v2.size());
  for (size_t i = 0; i < top_v1.size(); ++i) {
    EXPECT_EQ(top_v1[i].id, top_v2[i].id);
    EXPECT_EQ(top_v1[i].score, top_v2[i].score);  // bit-exact
  }
}

TEST(SetRTreeTest, V2StatNodeReportsCompactRecords) {
  const Dataset dataset = SmallDataset(200, 23);
  TreeBundle v1 = BulkLoad(dataset);
  TreeBundle v2 = BulkLoadV2(dataset);
  const NodeStat s1 = v1.tree->StatNode(v1.tree->SearchRoot()).value();
  const NodeStat s2 = v2.tree->StatNode(v2.tree->SearchRoot()).value();
  EXPECT_EQ(s1.is_leaf, s2.is_leaf);
  EXPECT_EQ(s1.entries, s2.entries);
  EXPECT_GT(s2.record_bytes, 0u);
  EXPECT_LE(s2.record_pages, s1.record_pages);
  EXPECT_LE(s2.record_bytes,
            s2.record_pages * v2.pager->page_size());
}

TEST(SetRTreeTest, V2ReopenAndMappedReadsServeQueries) {
  const Dataset dataset = SmallDataset(300, 31);
  TempFile file("setr_v2_reopen");
  SpatialKeywordQuery q;
  q.loc = Point{0.7, 0.2};
  q.doc = dataset.object(2).doc;
  q.k = 8;
  q.alpha = 0.5;
  std::vector<ScoredObject> want;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    options.format = kNodeFormatV2;
    auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    want = IndexTopK(*tree, q).value();
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = SetRTree::Open(&pool).value();
  EXPECT_EQ(tree->options().format, kNodeFormatV2);

  ASSERT_TRUE(pager->EnableMappedReads().ok());
  pager->io_stats().Reset();
  const auto got = IndexTopK(*tree, q).value();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].score, want[i].score);
  }
  // Node reads were served from the map, not buffered pread.
  EXPECT_GT(pager->io_stats().mapped_reads(), 0u);
  EXPECT_EQ(pager->io_stats().physical_reads(), 0u);
}

// A v2 node with a flipped body byte must surface as Corruption from the
// tree read path (checksum), never as UB.
TEST(SetRTreeTest, V2DetectsCorruptedNode) {
  const Dataset dataset = SmallDataset(300, 37);
  TempFile file("setr_v2_corrupt");
  PageId victim;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    options.format = kNodeFormatV2;
    auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    victim = tree->SearchRoot();
  }
  {
    auto pager = Pager::Open(file.path()).value();
    std::vector<uint8_t> page(pager->page_size());
    ASSERT_TRUE(pager->ReadPage(victim, page.data()).ok());
    page[kNodeHeaderBytesV2 + 3] ^= 0x40;
    ASSERT_TRUE(pager->WritePage(victim, page.data()).ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = SetRTree::Open(&pool).value();
  const auto read = tree->ReadDecodedNode(victim, /*use_cache=*/false);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST(SetRTreeTest, NodeAccessesAreCountedAsIo) {
  const Dataset dataset = SmallDataset(300, 53);
  TreeBundle bundle = BulkLoad(dataset);
  ASSERT_TRUE(bundle.pool->InvalidateAll().ok());
  bundle.pager->io_stats().Reset();
  SpatialKeywordQuery q;
  q.loc = Point{0.2, 0.2};
  q.doc = dataset.object(0).doc;
  q.k = 5;
  q.alpha = 0.5;
  (void)IndexTopK(*bundle.tree, q).value();
  EXPECT_GT(bundle.pager->io_stats().physical_reads(), 0u);
}

}  // namespace
}  // namespace wsk
