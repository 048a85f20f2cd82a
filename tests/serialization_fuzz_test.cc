// Randomized round-trip testing of every serialized structure: whatever the
// writers produce, the readers must reconstruct bit-exactly, across sizes
// from empty to multi-page.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/keyword_count_map.h"
#include "index/node_codec.h"
#include "storage/blob_store.h"
#include "text/keyword_set.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

TEST(SerializationFuzzTest, KeywordSetRoundTrips) {
  Rng rng(1);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t n = rng.NextUint64(64);
    std::vector<TermId> terms;
    for (size_t i = 0; i < n; ++i) {
      terms.push_back(static_cast<TermId>(rng.Next()));  // full 32-bit ids
    }
    const KeywordSet set(std::move(terms));
    std::vector<uint8_t> bytes;
    set.Serialize(&bytes);
    ASSERT_EQ(bytes.size(), set.SerializedSize());
    EXPECT_EQ(KeywordSet::Deserialize(bytes.data(), bytes.size()), set);
  }
}

TEST(SerializationFuzzTest, KeywordCountMapRoundTrips) {
  Rng rng(2);
  for (int iter = 0; iter < 300; ++iter) {
    KeywordCountMap map;
    const size_t docs = rng.NextUint64(20);
    for (size_t d = 0; d < docs; ++d) {
      std::vector<TermId> terms;
      const size_t n = rng.NextUint64(10);
      for (size_t i = 0; i < n; ++i) {
        terms.push_back(static_cast<TermId>(rng.NextUint64(50)));
      }
      map.AddDoc(KeywordSet(std::move(terms)));
    }
    std::vector<uint8_t> bytes;
    map.Serialize(&bytes);
    ASSERT_EQ(bytes.size(), map.SerializedSize());
    EXPECT_TRUE(KeywordCountMap::Deserialize(bytes.data(), bytes.size()) ==
                map);
  }
}

TEST(SerializationFuzzTest, BlobRefRoundTrips) {
  Rng rng(3);
  for (int iter = 0; iter < 200; ++iter) {
    BlobRef ref{static_cast<PageId>(rng.Next()),
                static_cast<uint32_t>(rng.Next()),
                static_cast<uint32_t>(rng.Next())};
    uint8_t buf[BlobRef::kSerializedSize];
    ref.Serialize(buf);
    EXPECT_EQ(BlobRef::Deserialize(buf), ref);
  }
}

TEST(SerializationFuzzTest, RandomBlobSequencesRoundTrip) {
  TempFile file("fuzz_blobs");
  auto pager = Pager::Create(file.path(), 128).value();
  BufferPool pool(pager.get(), 128 * 32);
  BlobStore store(&pool);
  Rng rng(4);

  std::vector<std::pair<BlobRef, std::vector<uint8_t>>> blobs;
  for (int iter = 0; iter < 200; ++iter) {
    // Mix of empty, sub-page, page-boundary, and multi-page sizes.
    size_t n;
    switch (rng.NextUint64(5)) {
      case 0:
        n = 0;
        break;
      case 1:
        n = 1 + rng.NextUint64(100);
        break;
      case 2:
        n = 127 + rng.NextUint64(3);  // around the 128-byte page boundary
        break;
      default:
        n = rng.NextUint64(700);
        break;
    }
    std::vector<uint8_t> data(n);
    for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
    auto ref = store.Append(data);
    ASSERT_TRUE(ref.ok());
    // Interleave reads of earlier blobs while later ones are appended —
    // exercises the open-page read path.
    if (!blobs.empty() && rng.NextBool(0.3)) {
      const auto& [old_ref, old_data] =
          blobs[rng.NextUint64(blobs.size())];
      std::vector<uint8_t> out;
      ASSERT_TRUE(store.Read(old_ref, &out).ok());
      ASSERT_EQ(out, old_data);
    }
    blobs.emplace_back(ref.value(), std::move(data));
  }
  ASSERT_TRUE(store.Flush().ok());
  for (const auto& [ref, data] : blobs) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(store.Read(ref, &out).ok());
    EXPECT_EQ(out, data);
  }
}

TEST(SerializationFuzzTest, ByteWriterReaderRandomSequences) {
  Rng rng(5);
  for (int iter = 0; iter < 100; ++iter) {
    // Record a random schema, write it, read it back.
    std::vector<int> schema;
    std::vector<uint64_t> ints;
    std::vector<double> doubles;
    std::vector<uint8_t> bytes;
    ByteWriter writer(&bytes);
    const size_t fields = 1 + rng.NextUint64(20);
    for (size_t i = 0; i < fields; ++i) {
      switch (rng.NextUint64(4)) {
        case 0: {
          const uint8_t v = static_cast<uint8_t>(rng.Next());
          writer.PutU8(v);
          schema.push_back(0);
          ints.push_back(v);
          break;
        }
        case 1: {
          const uint32_t v = static_cast<uint32_t>(rng.Next());
          writer.PutU32(v);
          schema.push_back(1);
          ints.push_back(v);
          break;
        }
        case 2: {
          const uint64_t v = rng.Next();
          writer.PutU64(v);
          schema.push_back(2);
          ints.push_back(v);
          break;
        }
        default: {
          const double v = rng.NextDouble(-1e6, 1e6);
          writer.PutDouble(v);
          schema.push_back(3);
          doubles.push_back(v);
          break;
        }
      }
    }
    ByteReader reader(bytes.data(), bytes.size());
    size_t int_index = 0, double_index = 0;
    for (int kind : schema) {
      switch (kind) {
        case 0:
          EXPECT_EQ(reader.GetU8(), static_cast<uint8_t>(ints[int_index++]));
          break;
        case 1:
          EXPECT_EQ(reader.GetU32(),
                    static_cast<uint32_t>(ints[int_index++]));
          break;
        case 2:
          EXPECT_EQ(reader.GetU64(), ints[int_index++]);
          break;
        default:
          EXPECT_DOUBLE_EQ(reader.GetDouble(), doubles[double_index++]);
          break;
      }
    }
    EXPECT_EQ(reader.remaining(), 0u);
  }
}

}  // namespace
}  // namespace wsk
