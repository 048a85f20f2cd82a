// Compact v2 static node format.
//
// v1 nodes are fixed-slot records: every node occupies `pages_per_node`
// consecutive pages sized for a full-capacity node, entries are loose
// fixed-width structs, and per-entry keyword payloads live out-of-line in
// the blob store. The trees are never updated after bulk load, so that
// slack buys nothing.
//
// v2 is a write-once record format for frozen trees:
//
//   header (16 bytes, fixed)                body (variable, checksummed)
//   +----------+----------+-----------+     +--------------------------+
//   | u8  ver  | u8  kind | u16 count |     | entries, varint-packed   |
//   | u32 body_bytes      |           |     | keyword ids delta-coded  |
//   | u32 checksum (FNV-1a over body) |     | child refs tagged u64s   |
//   | u32 reserved (0)                |     +--------------------------+
//   +---------------------------------+
//
// Records are padded to a whole number of pages and read back in place —
// from a borrowed buffer-pool pin or straight from a read-only mapping —
// with zero allocation on the single-page hot path. Child references pack
// the leaf/internal discriminator into bit 0 of a u64 with the page id in
// the high bits (after LeviDB's index_format tagged-offset scheme), so one
// varint carries both. Sorted term ids are delta-encoded: strictly
// ascending ids make every delta positive, and the common dense-id case
// fits one byte per term instead of four.
//
// Decoding is fully checked: CheckedReader never reads past the record and
// never aborts, so a corrupt or truncated record surfaces as a Corruption
// Status from the tree, not as UB.
#ifndef WSK_STORAGE_NODE_CODEC_V2_H_
#define WSK_STORAGE_NODE_CODEC_V2_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace wsk {

// Node format versions, stored both in the tree meta page and in byte 0 of
// every v2 node header. v1 has no per-node version byte; its meta version
// field identifies it.
inline constexpr uint8_t kNodeFormatV1 = 1;
inline constexpr uint8_t kNodeFormatV2 = 2;

inline constexpr uint32_t kNodeHeaderBytesV2 = 16;

// v2 stores the entry count in a u16.
inline constexpr uint32_t kMaxNodeCountV2 = 0xffff;

// --- Tagged child references (leaf bit in bit 0, page id above) ---------

inline uint64_t MakeChildRef(PageId page, bool child_is_leaf) {
  return (static_cast<uint64_t>(page) << 1) |
         (child_is_leaf ? 1u : 0u);
}

inline PageId ChildRefPage(uint64_t ref) {
  return static_cast<PageId>(ref >> 1);
}

inline bool ChildRefIsLeaf(uint64_t ref) { return (ref & 1u) != 0; }

// --- Varint encoding (LEB128) -------------------------------------------

void PutVarint(std::vector<uint8_t>* out, uint64_t value);

// Appends `count` strictly ascending u32 ids as a raw first id plus
// positive deltas, all varint-coded.
void PutDeltaU32s(std::vector<uint8_t>* out, const uint32_t* ids,
                  size_t count);

// FNV-1a over `size` bytes; seeds the per-record checksum.
uint32_t Fnv1a32(const uint8_t* data, size_t size);

// --- Checked in-place reader --------------------------------------------

// Bounds-checked cursor over a borrowed record body. Every getter returns
// false (and leaves its output untouched) once the cursor would pass the
// end or a varint is malformed; the error is sticky. Callers check ok()
// or the per-call bool and translate failure into Status::Corruption.
class CheckedReader {
 public:
  CheckedReader(const uint8_t* data, size_t size)
      : data_(data), end_(data + size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - data_); }

  bool GetU8(uint8_t* out);
  bool GetVarint(uint64_t* out);
  // Varint that must fit u32.
  bool GetVarint32(uint32_t* out);
  bool GetDouble(double* out);
  bool GetRect(Rect* out);
  bool GetBytes(const uint8_t** out, size_t size);

  // Reads `count` delta-coded ascending u32 ids (PutDeltaU32s inverse)
  // into `out` (appended). Fails on overrun, non-positive delta, or u32
  // overflow.
  bool GetDeltaU32s(size_t count, std::vector<uint32_t>* out);

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  const uint8_t* data_;
  const uint8_t* end_;
  bool ok_ = true;
};

// --- Record encode / decode ---------------------------------------------

// Serializes header + body, padded with zeros to a whole number of
// `page_size` pages. Public so corruption tests can craft records (valid
// or deliberately broken via later byte surgery) without private access.
// Fails if count exceeds kMaxNodeCountV2.
Status EncodeNodeRecordV2(bool is_leaf, uint32_t count,
                          const std::vector<uint8_t>& body,
                          uint32_t page_size, std::vector<uint8_t>* out);

// Encodes and appends a record to fresh pages allocated from the pool's
// pager, returning the first page id.
StatusOr<PageId> AppendNodeRecordV2(BufferPool* pool, bool is_leaf,
                                    uint32_t count,
                                    const std::vector<uint8_t>& body);

// Remembers which record pages already passed their body-checksum check.
// v2 records are write-once (trees are only ever bulk-loaded), so a record
// that verified cleanly once cannot go bad underneath a live tree, and the
// byte-serial FNV-1a re-hash — the single largest warm-decode cost — can
// be skipped on every later read. First read of each record still hashes,
// so corruption introduced before the first touch is always caught.
//
// Thread-safe: bits only ever flip 0 -> 1, recorded with relaxed atomics;
// the bitmap itself is allocated once (sized to the file at first use) and
// published with acquire/release. Pages past the first-use file size are
// simply re-verified every time.
class ChecksumLedger {
 public:
  ChecksumLedger() = default;
  ~ChecksumLedger() { delete map_.load(std::memory_order_relaxed); }
  ChecksumLedger(const ChecksumLedger&) = delete;
  ChecksumLedger& operator=(const ChecksumLedger&) = delete;

  bool Verified(PageId page) const {
    const Bitmap* map = map_.load(std::memory_order_acquire);
    if (map == nullptr || page >= map->size_pages) return false;
    return (map->words[page >> 6].load(std::memory_order_relaxed) >>
            (page & 63)) &
           1u;
  }

  // Marks `page` verified; `num_pages` sizes the bitmap on first use.
  void MarkVerified(PageId page, PageId num_pages) {
    Bitmap* map = map_.load(std::memory_order_acquire);
    if (map == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      map = map_.load(std::memory_order_relaxed);
      if (map == nullptr) {
        map = new Bitmap(num_pages);
        map_.store(map, std::memory_order_release);
      }
    }
    if (page < map->size_pages) {
      map->words[page >> 6].fetch_or(uint64_t{1} << (page & 63),
                                     std::memory_order_relaxed);
    }
  }

 private:
  struct Bitmap {
    explicit Bitmap(PageId n)
        : size_pages(n), words((static_cast<size_t>(n) + 63) / 64) {}
    PageId size_pages;
    std::vector<std::atomic<uint64_t>> words;  // value-initialized to 0
  };

  std::atomic<Bitmap*> map_{nullptr};
  std::mutex mu_;
};

// A decoded v2 record header plus a borrowed view of its body. The body
// pointer stays valid for the lifetime of this object: it borrows a
// buffer-pool pin (single-page records), the pager's read-only mapping
// (mapped mode, any size), or an owned scratch copy (multi-page records
// read through the pool).
class NodeRecordV2 {
 public:
  NodeRecordV2() = default;

  bool is_leaf() const { return is_leaf_; }
  uint32_t count() const { return count_; }
  const uint8_t* body() const { return body_; }
  uint32_t body_bytes() const { return body_bytes_; }
  // Pages the record spans on disk (header + body, page-padded).
  uint32_t pages() const { return pages_; }
  bool zero_copy() const { return pin_.valid() || mapped_; }

 private:
  friend StatusOr<NodeRecordV2> ReadNodeRecordV2(BufferPool* pool,
                                                 PageId page,
                                                 ChecksumLedger* ledger);

  bool is_leaf_ = false;
  uint32_t count_ = 0;
  uint32_t body_bytes_ = 0;
  uint32_t pages_ = 0;
  const uint8_t* body_ = nullptr;
  bool mapped_ = false;
  PageHandle pin_;
  std::vector<uint8_t> scratch_;
};

// Reads and validates the record starting at `page`. Validates the
// version byte, kind, count, record extent against the file, and the body
// checksum; any violation is Status::Corruption naming the page. With a
// ledger, the checksum is verified on the record's first read only (see
// ChecksumLedger); without one it is verified every time.
StatusOr<NodeRecordV2> ReadNodeRecordV2(BufferPool* pool, PageId page,
                                        ChecksumLedger* ledger = nullptr);

}  // namespace wsk

#endif  // WSK_STORAGE_NODE_CODEC_V2_H_
