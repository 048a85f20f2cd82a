#include "storage/blob_store.h"

#include <gtest/gtest.h>

#include <numeric>

#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

class BlobStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("blob");
    pager_ = Pager::Create(file_->path(), 256).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 256 * 16);
    store_ = std::make_unique<BlobStore>(pool_.get());
  }

  std::vector<uint8_t> Bytes(size_t n, uint8_t seed) {
    std::vector<uint8_t> v(n);
    std::iota(v.begin(), v.end(), seed);
    return v;
  }

  std::unique_ptr<TempFile> file_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BlobStore> store_;
};

TEST_F(BlobStoreTest, RoundTripSmall) {
  const auto data = Bytes(40, 1);
  auto ref = store_->Append(data);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(store_->Flush().ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store_->Read(ref.value(), &out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(BlobStoreTest, SmallBlobsPackIntoOnePage) {
  const auto a = Bytes(50, 1);
  const auto b = Bytes(60, 9);
  auto ra = store_->Append(a);
  auto rb = store_->Append(b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value().page, rb.value().page);
  EXPECT_EQ(rb.value().offset, 50u);
  ASSERT_TRUE(store_->Flush().ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store_->Read(ra.value(), &out).ok());
  EXPECT_EQ(out, a);
  ASSERT_TRUE(store_->Read(rb.value(), &out).ok());
  EXPECT_EQ(out, b);
}

TEST_F(BlobStoreTest, BlobNeverStraddlesPageUnlessLarge) {
  // 200 bytes then 100 bytes: the second cannot fit in the 256-byte page
  // and must start a fresh one.
  auto ra = store_->Append(Bytes(200, 1));
  auto rb = store_->Append(Bytes(100, 2));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_NE(ra.value().page, rb.value().page);
  EXPECT_EQ(rb.value().offset, 0u);
}

TEST_F(BlobStoreTest, MultiPageBlobRoundTrip) {
  const auto big = Bytes(1000, 3);  // spans 4 pages of 256
  auto ref = store_->Append(big);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().offset, 0u);
  ASSERT_TRUE(store_->Flush().ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(store_->Read(ref.value(), &out).ok());
  EXPECT_EQ(out, big);
}

TEST_F(BlobStoreTest, MixedSizesRoundTrip) {
  std::vector<std::pair<BlobRef, std::vector<uint8_t>>> blobs;
  for (int i = 0; i < 50; ++i) {
    const size_t n = 1 + (i * 37) % 700;
    auto data = Bytes(n, static_cast<uint8_t>(i));
    auto ref = store_->Append(data);
    ASSERT_TRUE(ref.ok());
    blobs.emplace_back(ref.value(), std::move(data));
  }
  ASSERT_TRUE(store_->Flush().ok());
  for (const auto& [ref, data] : blobs) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(store_->Read(ref, &out).ok());
    EXPECT_EQ(out, data);
  }
}

TEST_F(BlobStoreTest, EmptyBlob) {
  auto ref = store_->Append(nullptr, 0);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(store_->Flush().ok());
  std::vector<uint8_t> out{1, 2, 3};
  ASSERT_TRUE(store_->Read(ref.value(), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(BlobStoreTest, ReadInvalidRefFails) {
  BlobRef bogus;
  bogus.length = 10;
  std::vector<uint8_t> out;
  EXPECT_EQ(store_->Read(bogus, &out).code(), StatusCode::kInvalidArgument);
}

TEST_F(BlobStoreTest, SerializeRefRoundTrip) {
  BlobRef ref{12, 34, 56};
  uint8_t buf[BlobRef::kSerializedSize];
  ref.Serialize(buf);
  EXPECT_EQ(BlobRef::Deserialize(buf), ref);
}

TEST_F(BlobStoreTest, ReadCostsOneFetchPerPageSpanned) {
  const auto big = Bytes(700, 5);  // 3 pages
  auto ref = store_->Append(big);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(store_->Flush().ok());
  ASSERT_TRUE(pool_->InvalidateAll().ok());
  pager_->io_stats().Reset();
  std::vector<uint8_t> out;
  ASSERT_TRUE(store_->Read(ref.value(), &out).ok());
  EXPECT_EQ(pager_->io_stats().physical_reads(), 3u);
}

}  // namespace
}  // namespace wsk
