#include "index/kcr_tree.h"

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "data/generator.h"
#include "index/setr_tree.h"
#include "index/topk.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

struct TreeBundle {
  std::unique_ptr<TempFile> file;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<KcrTree> tree;
};

TreeBundle BulkLoad(const Dataset& dataset, uint32_t capacity = 8) {
  TreeBundle bundle;
  bundle.file = std::make_unique<TempFile>("kcr");
  bundle.pager = Pager::Create(bundle.file->path()).value();
  bundle.pool = std::make_unique<BufferPool>(bundle.pager.get(), 4u << 20);
  KcrTree::Options options;
  options.capacity = capacity;
  bundle.tree = KcrTree::BulkLoad(dataset, bundle.pool.get(), options).value();
  return bundle;
}

Dataset SmallDataset(uint32_t n, uint64_t seed) {
  GeneratorConfig config;
  config.num_objects = n;
  config.vocab_size = 40;
  config.seed = seed;
  return GenerateDataset(config);
}

struct SubtreeFacts {
  Rect mbr;
  KeywordCountMap kcm;
  uint32_t objects = 0;
};

SubtreeFacts CheckSubtree(const KcrTree& tree, const Dataset& dataset,
                          PageId page) {
  SubtreeFacts facts;
  const KcrTree::Node node = tree.ReadNode(page).value();
  EXPECT_GE(node.size(), 1u);
  EXPECT_LE(node.size(), tree.options().capacity);
  if (node.is_leaf) {
    for (const KcrTree::LeafEntry& e : node.leaf_entries) {
      const KeywordSet doc = tree.ReadBlob<KeywordSet>(e.keywords).value();
      EXPECT_EQ(doc, dataset.object(e.object).doc);
      facts.mbr.Extend(e.loc);
      facts.kcm.AddDoc(doc);
      facts.objects += 1;
    }
  } else {
    for (const KcrTree::InnerEntry& e : node.inner_entries) {
      const SubtreeFacts child = CheckSubtree(tree, dataset, e.child);
      EXPECT_TRUE(e.mbr.ContainsRect(child.mbr));
      EXPECT_EQ(e.cnt, child.objects);
      EXPECT_TRUE(tree.ReadBlob<KeywordCountMap>(e.kcm).value() == child.kcm);
      facts.mbr.Extend(child.mbr);
      facts.kcm.Merge(child.kcm);
      facts.objects += child.objects;
    }
  }
  return facts;
}

TEST(KcrTreeTest, BulkLoadStructuralInvariants) {
  const Dataset dataset = SmallDataset(300, 11);
  TreeBundle bundle = BulkLoad(dataset);
  EXPECT_EQ(bundle.tree->num_objects(), dataset.size());
  const SubtreeFacts facts =
      CheckSubtree(*bundle.tree, dataset, bundle.tree->SearchRoot());
  EXPECT_EQ(facts.objects, dataset.size());
  // The root summary in the metadata matches the recomputed facts.
  EXPECT_EQ(bundle.tree->root_cnt(), facts.objects);
  EXPECT_TRUE(bundle.tree->root_mbr().ContainsRect(facts.mbr));
  EXPECT_TRUE(bundle.tree->ReadRootKcm().value() == facts.kcm);
}

TEST(KcrTreeTest, RootKcmCountsMatchDocumentFrequencies) {
  const Dataset dataset = SmallDataset(200, 13);
  TreeBundle bundle = BulkLoad(dataset);
  const KeywordCountMap root = bundle.tree->ReadRootKcm().value();
  for (const auto& [term, count] : root.pairs()) {
    EXPECT_EQ(count, dataset.vocabulary().DocumentFrequency(term));
  }
}

class KcrTopKSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, double>> {};

TEST_P(KcrTopKSweep, MatchesBruteForce) {
  const auto [k, alpha] = GetParam();
  const Dataset dataset = SmallDataset(400, 29);
  TreeBundle bundle = BulkLoad(dataset);
  Rng rng(100 + k);
  for (int q_iter = 0; q_iter < 5; ++q_iter) {
    SpatialKeywordQuery q;
    q.loc = Point{rng.NextDouble(), rng.NextDouble()};
    q.doc = dataset
                .object(static_cast<ObjectId>(rng.NextUint64(dataset.size())))
                .doc;
    q.k = k;
    q.alpha = alpha;
    const auto expected = BruteForceTopK(dataset, q);
    const auto actual = IndexTopK(*bundle.tree, q).value();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id) << "position " << i;
      EXPECT_NEAR(actual[i].score, expected[i].score, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KcrTopKSweep,
                         ::testing::Combine(::testing::Values(1u, 5u, 20u,
                                                              100u),
                                            ::testing::Values(0.1, 0.5,
                                                              0.9)));

TEST(KcrTreeTest, ReopenFinalizedIndex) {
  const Dataset dataset = SmallDataset(120, 43);
  TempFile file("kcr_reopen");
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    KcrTree::Options options;
    options.capacity = 8;
    auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool).value();
  EXPECT_EQ(tree->num_objects(), dataset.size());
  EXPECT_EQ(tree->root_cnt(), dataset.size());
  const SubtreeFacts facts = CheckSubtree(*tree, dataset, tree->SearchRoot());
  EXPECT_EQ(facts.objects, dataset.size());
}

TEST(KcrTreeTest, OpenRejectsSetRFile) {
  // Cross-format confusion must be caught by the magic check.
  const Dataset dataset = SmallDataset(50, 47);
  TempFile file("kcr_magic");
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
  auto tree = KcrTree::Open(&pool);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST(KcrTreeTest, EmptyTree) {
  Dataset dataset;
  TreeBundle bundle = BulkLoad(dataset);
  EXPECT_EQ(bundle.tree->SearchRoot(), kInvalidPageId);
  EXPECT_TRUE(bundle.tree->ReadRootKcm().value().empty());
}

TreeBundle BulkLoadV2(const Dataset& dataset, uint32_t capacity = 8) {
  TreeBundle bundle;
  bundle.file = std::make_unique<TempFile>("kcr_v2");
  bundle.pager = Pager::Create(bundle.file->path()).value();
  bundle.pool = std::make_unique<BufferPool>(bundle.pager.get(), 4u << 20);
  KcrTree::Options options;
  options.capacity = capacity;
  options.format = kNodeFormatV2;
  bundle.tree = KcrTree::BulkLoad(dataset, bundle.pool.get(), options).value();
  return bundle;
}

TEST(KcrTreeTest, V2BulkLoadMatchesV1AndShrinksFile) {
  const Dataset dataset = SmallDataset(300, 41);
  TreeBundle v1 = BulkLoad(dataset);
  TreeBundle v2 = BulkLoadV2(dataset);
  ASSERT_TRUE(v1.tree->Finalize().ok());
  ASSERT_TRUE(v2.tree->Finalize().ok());
  EXPECT_EQ(v2.tree->options().format, kNodeFormatV2);
  EXPECT_EQ(v2.tree->num_objects(), v1.tree->num_objects());
  EXPECT_EQ(v2.tree->height(), v1.tree->height());
  EXPECT_EQ(v2.tree->root_cnt(), v1.tree->root_cnt());
  EXPECT_TRUE(v2.tree->ReadRootKcm().value() ==
              v1.tree->ReadRootKcm().value());
  EXPECT_LT(v2.pager->num_pages(), v1.pager->num_pages());

  SpatialKeywordQuery q;
  q.loc = Point{0.4, 0.4};
  q.doc = dataset.object(3).doc;
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

TEST(KcrTreeTest, V2ReopenAndMappedReadsPreserveSummaries) {
  const Dataset dataset = SmallDataset(250, 47);
  TempFile file("kcr_v2_reopen");
  uint32_t want_root_cnt;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    KcrTree::Options options;
    options.capacity = 8;
    options.format = kNodeFormatV2;
    auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    want_root_cnt = tree->root_cnt();
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool).value();
  EXPECT_EQ(tree->options().format, kNodeFormatV2);
  EXPECT_EQ(tree->root_cnt(), want_root_cnt);
  ASSERT_TRUE(pager->EnableMappedReads().ok());
  pager->io_stats().Reset();
  // Decoded nodes (with their per-child dominator stats) come off the map.
  const auto decoded =
      tree->ReadDecodedNode(tree->SearchRoot(), /*use_cache=*/false);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.value()->node.is_leaf) {
    EXPECT_EQ(decoded.value()->child_stats.size(),
              decoded.value()->node.inner_entries.size());
  }
  EXPECT_GT(pager->io_stats().mapped_reads(), 0u);
  EXPECT_EQ(pager->io_stats().physical_reads(), 0u);
}

TEST(KcrTreeTest, V2DetectsCorruptedNode) {
  const Dataset dataset = SmallDataset(250, 53);
  TempFile file("kcr_v2_corrupt");
  PageId victim;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    KcrTree::Options options;
    options.capacity = 8;
    options.format = kNodeFormatV2;
    auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    victim = tree->SearchRoot();
  }
  {
    auto pager = Pager::Open(file.path()).value();
    std::vector<uint8_t> page(pager->page_size());
    ASSERT_TRUE(pager->ReadPage(victim, page.data()).ok());
    page[kNodeHeaderBytesV2 + 5] ^= 0x10;
    ASSERT_TRUE(pager->WritePage(victim, page.data()).ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool).value();
  const auto read = tree->ReadDecodedNode(victim, /*use_cache=*/false);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace wsk
