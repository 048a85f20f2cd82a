#include "index/verify.h"

#include <gtest/gtest.h>

#include <cstring>

#include "data/generator.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

Dataset SmallDataset(uint32_t n, uint64_t seed) {
  GeneratorConfig config;
  config.num_objects = n;
  config.vocab_size = 30;
  config.seed = seed;
  return GenerateDataset(config);
}

TEST(VerifyTest, BulkLoadedSetRTreePasses) {
  const Dataset dataset = SmallDataset(300, 1);
  TempFile file("verify_setr");
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  SetRTree::Options options;
  options.capacity = 8;
  auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
  VerifyStats stats;
  EXPECT_TRUE(VerifySetRTree(*tree, &stats).ok());
  EXPECT_EQ(stats.objects_seen, dataset.size());
  EXPECT_GT(stats.nodes_visited, 1u);
}

TEST(VerifyTest, BulkLoadedKcrTreePasses) {
  const Dataset dataset = SmallDataset(300, 3);
  TempFile file("verify_kcr");
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  KcrTree::Options options;
  options.capacity = 8;
  auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
  VerifyStats stats;
  EXPECT_TRUE(VerifyKcrTree(*tree, &stats).ok());
  EXPECT_EQ(stats.objects_seen, dataset.size());
}

TEST(VerifyTest, EmptyTreesPass) {
  Dataset dataset;
  TempFile file("verify_empty");
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  SetRTree::Options options;
  auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
  EXPECT_TRUE(VerifySetRTree(*tree).ok());
}

TEST(VerifyTest, DetectsCorruptedNodePage) {
  const Dataset dataset = SmallDataset(300, 5);
  TempFile file("verify_corrupt");
  PageId victim;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    // The root is an inner node; smash the count field of its first child.
    const SetRTree::Node root = tree->ReadNode(tree->SearchRoot()).value();
    ASSERT_FALSE(root.is_leaf);
    victim = root.inner_entries[0].child;
  }
  {
    // Shrink the child's entry count to 1: the remaining entries vanish,
    // so the parent's recorded union/intersection sets (and the object
    // count) no longer match the reachable subtree.
    auto pager = Pager::Open(file.path()).value();
    std::vector<uint8_t> page(pager->page_size());
    ASSERT_TRUE(pager->ReadPage(victim, page.data()).ok());
    page[4] = 1;
    page[5] = page[6] = page[7] = 0;
    ASSERT_TRUE(pager->WritePage(victim, page.data()).ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = SetRTree::Open(&pool).value();
  const Status status = VerifySetRTree(*tree);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // The diagnostic names the first violated invariant: the parent entry's
  // recorded union set no longer covers the (shrunken) subtree.
  EXPECT_NE(status.message().find("entry union set differs from subtree"),
            std::string::npos)
      << status.ToString();
}

TEST(VerifyTest, DetectsCountMismatchInKcrEntry) {
  const Dataset dataset = SmallDataset(200, 6);
  TempFile file("verify_kcr_cnt");
  PageId root_page;
  uint32_t pages_per_node;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    KcrTree::Options options;
    options.capacity = 8;
    auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    root_page = tree->SearchRoot();
    pages_per_node = tree->pages_per_node();
  }
  {
    // Flip a byte in the middle of the root node's entry area: with high
    // probability this lands in an entry's cnt or MBR.
    auto pager = Pager::Open(file.path()).value();
    std::vector<uint8_t> page(pager->page_size());
    ASSERT_TRUE(pager->ReadPage(root_page, page.data()).ok());
    page[8 + 36] ^= 0x5a;  // first entry's cnt field (child 4 + rect 32)
    ASSERT_TRUE(pager->WritePage(root_page, page.data()).ok());
    (void)pages_per_node;
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = KcrTree::Open(&pool).value();
  const Status status = VerifyKcrTree(*tree);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("entry cnt differs from subtree"),
            std::string::npos)
      << status.ToString();
}

// A length code rewritten to another valid code decodes cleanly but no
// longer matches the subtree's shortest document: verify re-derives ℓ_t.
TEST(VerifyTest, DetectsLengthCodeMismatchInSetREntry) {
  const Dataset dataset = SmallDataset(300, 9);
  TempFile file("verify_setr_code");
  PageId root_page;
  BlobRef uni;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    root_page = tree->SearchRoot();
    uni = tree->ReadNode(root_page).value().inner_entries[0].union_set;
  }
  {
    auto pager = Pager::Open(file.path()).value();
    std::vector<uint8_t> page(pager->page_size());
    ASSERT_TRUE(pager->ReadPage(uni.page, page.data()).ok());
    uint32_t count = 0;
    std::memcpy(&count, page.data() + uni.offset, 4);
    ASSERT_GT(count, 0u);
    // The first term's code sits in the low nibble; move it to another
    // code in 1..15.
    uint8_t& codes = page[uni.offset + 4 + 4 * count];
    const uint8_t code = codes & 0x0f;
    codes = static_cast<uint8_t>((codes & 0xf0) | (code % 15 + 1));
    ASSERT_TRUE(pager->WritePage(uni.page, page.data()).ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = SetRTree::Open(&pool).value();
  const Status status = VerifySetRTree(*tree);
  ASSERT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  const std::string want = "node " + std::to_string(root_page) +
                           ": entry length codes differ from subtree";
  EXPECT_NE(status.message().find(want), std::string::npos)
      << status.ToString();
}

// Byte-level corruption injected through the pager must always surface as
// a Corruption status whose message names the violated invariant (and the
// offending page where the walk can attribute one) — never as a crash or a
// silent pass.

// Zeroing a child's entry-count field empties the node.
TEST(VerifyTest, DetectsEmptyNode) {
  const Dataset dataset = SmallDataset(300, 7);
  TempFile file("verify_empty_node");
  PageId victim;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    const SetRTree::Node root = tree->ReadNode(tree->SearchRoot()).value();
    ASSERT_FALSE(root.is_leaf);
    victim = root.inner_entries[0].child;
  }
  {
    auto pager = Pager::Open(file.path()).value();
    std::vector<uint8_t> page(pager->page_size());
    ASSERT_TRUE(pager->ReadPage(victim, page.data()).ok());
    page[4] = page[5] = page[6] = page[7] = 0;  // count u32 at offset 4
    ASSERT_TRUE(pager->WritePage(victim, page.data()).ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = SetRTree::Open(&pool).value();
  const Status status = VerifySetRTree(*tree);
  ASSERT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  const std::string want =
      "node " + std::to_string(victim) + ": empty node";
  EXPECT_NE(status.message().find(want), std::string::npos)
      << status.ToString();
}

// Flipping a leaf's kind byte turns it into an inner node at depth 1.
TEST(VerifyTest, DetectsLeafFlagFlip) {
  const Dataset dataset = SmallDataset(300, 8);
  TempFile file("verify_leaf_flag");
  PageId victim;
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
    ASSERT_TRUE(tree->Finalize().ok());
    // Descend the leftmost path to a leaf.
    PageId page = tree->SearchRoot();
    SetRTree::Node node = tree->ReadNode(page).value();
    while (!node.is_leaf) {
      page = node.inner_entries[0].child;
      node = tree->ReadNode(page).value();
    }
    victim = page;
  }
  {
    auto pager = Pager::Open(file.path()).value();
    std::vector<uint8_t> page(pager->page_size());
    ASSERT_TRUE(pager->ReadPage(victim, page.data()).ok());
    ASSERT_EQ(page[0], 0);  // leaf kind
    page[0] = 1;            // now claims to be inner
    ASSERT_TRUE(pager->WritePage(victim, page.data()).ok());
  }
  auto pager = Pager::Open(file.path()).value();
  BufferPool pool(pager.get(), 4u << 20);
  auto tree = SetRTree::Open(&pool).value();
  const Status status = VerifySetRTree(*tree);
  ASSERT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  const std::string want =
      "node " + std::to_string(victim) + ": leaf flag inconsistent with depth";
  EXPECT_NE(status.message().find(want), std::string::npos)
      << status.ToString();
}

// An entry count larger than the node can physically hold must be rejected
// at decode time (it would otherwise read past the node buffer).
TEST(VerifyTest, DetectsEntryCountOverflow) {
  const Dataset dataset = SmallDataset(200, 9);
  TempFile file("verify_count_overflow");
  PageId victim;
  for (const bool kcr : {false, true}) {
    SCOPED_TRACE(kcr ? "KcrTree" : "SetRTree");
    {
      auto pager = Pager::Create(file.path()).value();
      BufferPool pool(pager.get(), 4u << 20);
      if (kcr) {
        KcrTree::Options options;
        options.capacity = 8;
        auto tree = KcrTree::BulkLoad(dataset, &pool, options).value();
        ASSERT_TRUE(tree->Finalize().ok());
        victim = tree->SearchRoot();
      } else {
        SetRTree::Options options;
        options.capacity = 8;
        auto tree = SetRTree::BulkLoad(dataset, &pool, options).value();
        ASSERT_TRUE(tree->Finalize().ok());
        victim = tree->SearchRoot();
      }
    }
    {
      auto pager = Pager::Open(file.path()).value();
      std::vector<uint8_t> page(pager->page_size());
      ASSERT_TRUE(pager->ReadPage(victim, page.data()).ok());
      page[4] = page[5] = 0xff;  // count ~= 65535, far beyond any node
      ASSERT_TRUE(pager->WritePage(victim, page.data()).ok());
    }
    auto pager = Pager::Open(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    Status status;
    if (kcr) {
      auto tree = KcrTree::Open(&pool).value();
      status = VerifyKcrTree(*tree);
    } else {
      auto tree = SetRTree::Open(&pool).value();
      status = VerifySetRTree(*tree);
    }
    ASSERT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    const std::string want = "node " + std::to_string(victim) +
                             ": entry count overflows the node";
    EXPECT_NE(status.message().find(want), std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace wsk
