// Pins the on-disk bytes of both trees in both node formats: the SHA-256
// of a finalized SetR-tree and KcR-tree file, v1 and v2, built from one
// seeded dataset at node capacities 8 and 100. A change to the build loop,
// either codec, the blob layout or the meta page shows up here as a digest
// mismatch, before any answer could differ.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "data/generator.h"
#include "index/kcr_tree.h"
#include "index/setr_tree.h"
#include "test_util.h"

namespace wsk {
namespace {

using testing::TempFile;

// FIPS 180-4 SHA-256 of a byte string, as lowercase hex.
std::string Sha256Hex(const std::vector<uint8_t>& data) {
  static constexpr std::array<uint32_t, 64> kK = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::array<uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};
  std::vector<uint8_t> msg = data;
  const uint64_t bit_len = static_cast<uint64_t>(data.size()) * 8;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  for (int i = 7; i >= 0; --i) {
    msg.push_back(static_cast<uint8_t>(bit_len >> (8 * i)));
  }
  auto rotr = [](uint32_t x, int n) { return (x >> n) | (x << (32 - n)); };
  for (size_t block = 0; block < msg.size(); block += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      const uint8_t* p = &msg[block + 4 * i];
      w[i] = (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
             (uint32_t{p[2]} << 8) | uint32_t{p[3]};
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4], f = h[5],
             g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t t1 = hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                          ((e & f) ^ (~e & g)) + kK[i] + w[i];
      const uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                          ((a & b) ^ (a & c) ^ (b & c));
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
  }
  std::string hex;
  char buf[9];
  for (uint32_t word : h) {
    std::snprintf(buf, sizeof(buf), "%08x", word);
    hex += buf;
  }
  return hex;
}

TEST(TreeFormatGoldenTest, Sha256OfKnownInputs) {
  EXPECT_EQ(Sha256Hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::string abc = "abc";
  EXPECT_EQ(Sha256Hex(std::vector<uint8_t>(abc.begin(), abc.end())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// Builds one tree into a fresh file, closes it, and hashes the file.
template <typename Tree>
std::string BuildAndHash(const Dataset& dataset, uint8_t format,
                         uint32_t capacity) {
  TempFile file("golden");
  {
    auto pager = Pager::Create(file.path()).value();
    BufferPool pool(pager.get(), 4u << 20);
    typename Tree::Options options;
    options.capacity = capacity;
    options.format = format;
    auto tree = Tree::BulkLoad(dataset, &pool, options).value();
    EXPECT_TRUE(tree->Finalize().ok());
  }
  return Sha256Hex(ReadFile(file.path()));
}

TEST(TreeFormatGoldenTest, FilesMatchPinnedDigests) {
  GeneratorConfig config;
  config.num_objects = 500;
  config.vocab_size = 40;
  config.seed = 61;
  const Dataset dataset = GenerateDataset(config);

  struct Case {
    const char* tree;
    uint8_t format;
    uint32_t capacity;
    const char* sha256;
  };
  const Case cases[] = {
      {"setr", kNodeFormatV1, 8,
       "ae4afd92caf93755380d54c0e5a4526ca78622c8cd27a8d7b1692a2b3c4f0516"},
      {"setr", kNodeFormatV2, 8,
       "226705f64c649c91d81db196fdb26a4c57b20ec360a3f3b466a88a463062337e"},
      {"setr", kNodeFormatV1, 100,
       "8709acee08edfbd80394fd6cd3d141946c74cf4895899a5b0408ad3f6ef7c345"},
      {"setr", kNodeFormatV2, 100,
       "c74aba0a7c697806188f27e8da68714db9947c114db088a59bf1b782d960706c"},
      {"kcr", kNodeFormatV1, 8,
       "4799ed3a991b2ac10ed5015147962b1ffbc43d9def7922ed3e4645ad96a29c22"},
      {"kcr", kNodeFormatV2, 8,
       "1fa53a6afa4e2864547d4de3e6fed04bd2842e18e61b1ebfee75162c75e34004"},
      {"kcr", kNodeFormatV1, 100,
       "143fc5f450be54ab8e37f9a30e0dc418796a808d06eefd345cd0594632c13323"},
      {"kcr", kNodeFormatV2, 100,
       "4ab1000c17fa02dbfb31edcb34eded55208e1038c3344af76bbf93a01e4f2e80"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.tree) + " v" + std::to_string(c.format) +
                 " capacity " + std::to_string(c.capacity));
    const std::string digest =
        std::string(c.tree) == "setr"
            ? BuildAndHash<SetRTree>(dataset, c.format, c.capacity)
            : BuildAndHash<KcrTree>(dataset, c.format, c.capacity);
    EXPECT_EQ(digest, c.sha256);
  }
}

}  // namespace
}  // namespace wsk
