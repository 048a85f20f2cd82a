#include "index/setr_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
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


// --- Length codes (the length-aware Theorem 1 bound) ---

// Every document under `page`, in entry order.
void CollectDocs(const SetRTree& tree, PageId page,
                 std::vector<KeywordSet>* docs) {
  const auto decoded = tree.ReadDecodedNode(page, /*use_cache=*/false).value();
  if (decoded->node.is_leaf) {
    docs->insert(docs->end(), decoded->leaf_docs.begin(),
                 decoded->leaf_docs.end());
    return;
  }
  for (const SetRTree::InnerEntry& e : decoded->node.inner_entries) {
    CollectDocs(tree, e.child, docs);
  }
}

// Checks every inner entry's codes against a brute-force ℓ_t over its
// subtree's documents; returns the number of codes checked.
size_t CheckLengthCodes(const SetRTree& tree, PageId page) {
  const auto decoded = tree.ReadDecodedNode(page, /*use_cache=*/false).value();
  if (decoded->node.is_leaf) return 0;
  size_t checked = 0;
  for (size_t i = 0; i < decoded->node.inner_entries.size(); ++i) {
    const PageId child = decoded->node.inner_entries[i].child;
    std::vector<KeywordSet> docs;
    CollectDocs(tree, child, &docs);
    const KeywordSet& uni = decoded->child_union[i];
    for (size_t t = 0; t < uni.size(); ++t) {
      size_t shortest = SIZE_MAX;
      for (const KeywordSet& doc : docs) {
        if (doc.Contains(uni.terms()[t])) {
          shortest = std::min(shortest, doc.size());
        }
      }
      EXPECT_NE(shortest, SIZE_MAX);
      EXPECT_EQ(decoded->MinLengths(i)[t], LengthCode(shortest))
          << "page " << page << " entry " << i << " term " << t;
      ++checked;
    }
    checked += CheckLengthCodes(tree, child);
  }
  return checked;
}

// A dataset whose documents run from 1 to 20 terms, so codes cover the
// whole 1..15 range and the cap.
Dataset VariedLengthDataset(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset dataset;
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<TermId> terms;
    const uint64_t length = 1 + rng.NextUint64(20);
    while (terms.size() < length) {
      terms.push_back(static_cast<TermId>(rng.NextUint64(60)));
      std::sort(terms.begin(), terms.end());
      terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    }
    dataset.Add(Point{rng.NextDouble(), rng.NextDouble()},
                KeywordSet(std::move(terms)));
  }
  return dataset;
}

// Builds a v1 or v2 tree of capacity 8 into `file`; returns its root.
PageId BuildFile(const TempFile& file, const Dataset& dataset,
                 uint8_t format) {
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  SetRTree::Options options;
  options.capacity = 8;
  options.format = format;
  auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
  EXPECT_TRUE(tree->Finalize().ok());
  return tree->SearchRoot();
}

TEST(SetRTreeTest, LengthCodesRoundTripInBothFormats) {
  const Dataset dataset = VariedLengthDataset(300, 5);
  for (uint8_t format : {kNodeFormatV1, kNodeFormatV2}) {
    SCOPED_TRACE("v" + std::to_string(format));
    TempFile file("setr_codes");
    BuildFile(file, dataset, format);
    auto pager = Pager::Open(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    auto tree = SetRTree::Open(&pool).value();
    ASSERT_GE(tree->height(), 3u);
    EXPECT_GT(CheckLengthCodes(*tree, tree->SearchRoot()), 300u);
  }
}

// Reopens `file` and decodes `page` uncached.
Status DecodeAfterReopen(const TempFile& file, PageId page) {
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = SetRTree::Open(&pool);
  if (!tree.ok()) return tree.status();
  return tree.value()->ReadDecodedNode(page, /*use_cache=*/false).status();
}

// Re-encodes the v2 record at `page` (checksum included) after `edit`
// rewrites its body and entry count.
void RewriteV2Record(
    const TempFile& file, PageId page,
    const std::function<void(std::vector<uint8_t>*, uint32_t*)>& edit) {
  auto pager = Pager::Open(file.path()).value();
  std::vector<uint8_t> body;
  uint32_t count = 0;
  bool is_leaf = false;
  {
    BufferPool pool(pager.get(), 4u << 20);
    const NodeRecordV2 record = ReadNodeRecordV2(&pool, page).value();
    body.assign(record.body(), record.body() + record.body_bytes());
    count = record.count();
    is_leaf = record.is_leaf();
  }
  edit(&body, &count);
  std::vector<uint8_t> out;
  ASSERT_TRUE(
      EncodeNodeRecordV2(is_leaf, count, body, pager->page_size(), &out)
          .ok());
  for (size_t at = 0; at < out.size(); at += pager->page_size()) {
    ASSERT_TRUE(pager
                    ->WritePage(page + static_cast<PageId>(
                                           at / pager->page_size()),
                                out.data() + at)
                    .ok());
  }
}

// Byte offset of the first entry's length codes in an inner v2 body, and
// its union's term count.
size_t FirstCodeOffset(const std::vector<uint8_t>& body, size_t* terms) {
  CheckedReader reader(body.data(), body.size());
  uint64_t ref = 0;
  Rect mbr;
  KeywordSet uni;
  EXPECT_TRUE(reader.GetVarint(&ref) && reader.GetRect(&mbr) &&
              GetKeywordSetV2(&reader, &uni));
  *terms = uni.size();
  return body.size() - reader.remaining();
}

TEST(SetRTreeTest, V2ZeroOrTruncatedLengthCodeIsCorruption) {
  const Dataset dataset = SmallDataset(300, 19);
  {
    TempFile file("setr_code_zero");
    const PageId root = BuildFile(file, dataset, kNodeFormatV2);
    RewriteV2Record(file, root, [](std::vector<uint8_t>* body, uint32_t*) {
      size_t terms = 0;
      (*body)[FirstCodeOffset(*body, &terms)] &= 0xf0;
    });
    const Status status = DecodeAfterReopen(file, root);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.message().find("malformed length code"),
              std::string::npos)
        << status.ToString();
  }
  {
    TempFile file("setr_code_cut");
    const PageId root = BuildFile(file, dataset, kNodeFormatV2);
    RewriteV2Record(file, root,
                    [](std::vector<uint8_t>* body, uint32_t* count) {
                      size_t terms = 0;
                      const size_t at = FirstCodeOffset(*body, &terms);
                      ASSERT_GT(terms, 0u);
                      body->resize(at + (terms + 1) / 2 - 1);
                      *count = 1;
                    });
    const Status status = DecodeAfterReopen(file, root);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.message().find("truncated length codes"),
              std::string::npos)
        << status.ToString();
  }
}

// Rewrites bytes of one page of `file` in place.
void PatchPage(const TempFile& file, PageId page,
               const std::function<void(uint8_t*)>& patch) {
  auto pager = Pager::Open(file.path()).value();
  std::vector<uint8_t> bytes(pager->page_size());
  ASSERT_TRUE(pager->ReadPage(page, bytes.data()).ok());
  patch(bytes.data());
  ASSERT_TRUE(pager->WritePage(page, bytes.data()).ok());
}

TEST(SetRTreeTest, V1ZeroOrTruncatedLengthCodeIsCorruption) {
  const Dataset dataset = SmallDataset(300, 29);
  BlobRef uni;
  {
    TempFile file("setr_v1_code_zero");
    const PageId root = BuildFile(file, dataset, kNodeFormatV1);
    {
      auto pager = Pager::Open(file.path()).value();
      BufferPool pool(pager.get(), 4u << 20);
      auto tree = SetRTree::Open(&pool).value();
      uni = tree->ReadNode(root).value().inner_entries[0].union_set;
    }
    PatchPage(file, uni.page, [&uni](uint8_t* page) {
      uint32_t count = 0;
      std::memcpy(&count, page + uni.offset, 4);
      page[uni.offset + 4 + 4 * count] &= 0xf0;
    });
    const Status status = DecodeAfterReopen(file, root);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.message().find("malformed length code"),
              std::string::npos)
        << status.ToString();
  }
  {
    // The union blob's length in the root's first entry, one byte short.
    TempFile file("setr_v1_code_cut");
    const PageId root = BuildFile(file, dataset, kNodeFormatV1);
    PatchPage(file, root, [](uint8_t* page) {
      uint32_t length = 0;
      std::memcpy(&length, page + 8 + 4 + 32 + 8, 4);
      --length;
      std::memcpy(page + 8 + 4 + 32 + 8, &length, 4);
    });
    const Status status = DecodeAfterReopen(file, root);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.message().find("union blob size"), std::string::npos)
        << status.ToString();
  }
}

// A file written before the length codes carries the old "WKRS" magic; it
// must be refused, never misread as codes.
TEST(SetRTreeTest, OpenRejectsFileWithoutLengthCodes) {
  const Dataset dataset = SmallDataset(100, 31);
  for (uint8_t format : {kNodeFormatV1, kNodeFormatV2}) {
    TempFile file("setr_old_magic");
    BuildFile(file, dataset, format);
    PatchPage(file, 0, [](uint8_t* page) {
      const uint32_t old_magic = 0x53524b57;
      std::memcpy(page, &old_magic, 4);
    });
    auto pager = Pager::Open(file.path()).value();
    BufferPool pool(pager.get(), 1u << 20);
    const auto tree = SetRTree::Open(&pool);
    ASSERT_FALSE(tree.ok());
    EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
  }
}

// Property: for random subtrees and queries, TextBound stays at or above
// every object's exact similarity (with no tolerance: both are ratios of
// integers) and at or below the Theorem 1 bound alone, in every model.
// Subtrees mix documents longer than the 15 cap, and half of them give
// every document one length, so the sorted ℓ_(j) tie.
TEST(SetRTreeTest, TextBoundDominatesEveryObjectAndTightensTheorem1) {
  Rng rng(77);
  size_t tighter = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const bool tied = iter % 2 == 0;
    const uint64_t tied_length = 1 + rng.NextUint64(20);
    std::vector<KeywordSet> docs;
    SetRPayload::Summary summary;
    const uint64_t num_docs = 1 + rng.NextUint64(6);
    for (uint64_t d = 0; d < num_docs; ++d) {
      const uint64_t length = tied ? tied_length : 1 + rng.NextUint64(20);
      std::vector<TermId> terms;
      while (terms.size() < length) {
        terms.push_back(static_cast<TermId>(rng.NextUint64(24)));
        std::sort(terms.begin(), terms.end());
        terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
      }
      docs.emplace_back(std::move(terms));
      summary.AddDoc(docs.back());
    }
    SetRPayload::Decoded decoded;
    decoded.child_union.push_back(summary.uni);
    decoded.child_inter.push_back(summary.inter);
    decoded.min_len = summary.min_len;
    decoded.min_len_begin.push_back(0);

    SpatialKeywordQuery query;
    std::vector<TermId> query_terms;
    const uint64_t query_size = 1 + rng.NextUint64(6);
    for (uint64_t t = 0; t < query_size; ++t) {
      query_terms.push_back(static_cast<TermId>(rng.NextUint64(28)));
    }
    query.doc = KeywordSet(std::move(query_terms));
    for (SimilarityModel model :
         {SimilarityModel::kJaccard, SimilarityModel::kDice,
          SimilarityModel::kOverlap}) {
      query.model = model;
      const double bound = SetRPayload::TextBound(decoded, 0, query);
      const double theorem1 = NodeSimilarityUpperBound(
          summary.uni.IntersectionSize(query.doc),
          summary.inter.UnionSize(query.doc), summary.inter.size(),
          query.doc.size(), model);
      EXPECT_LE(bound, theorem1);
      if (bound < theorem1) ++tighter;
      for (const KeywordSet& doc : docs) {
        EXPECT_GE(bound, TextualSimilarity(doc, query.doc, model))
            << SimilarityModelName(model) << " doc " << doc.ToString()
            << " query " << query.doc.ToString();
      }
      // One document of at most 15 terms: the bound is its exact score.
      if (docs.size() == 1 && docs[0].size() <= kMaxLengthCode &&
          model != SimilarityModel::kOverlap) {
        EXPECT_EQ(bound, TextualSimilarity(docs[0], query.doc, model));
      }
    }
  }
  EXPECT_GT(tighter, 1000u);
}

}  // namespace
}  // namespace wsk
