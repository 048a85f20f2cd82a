// Variable-length record storage on top of the pager.
//
// Both trees keep textual payloads out of line: the SetR-tree's per-node
// union/intersection keyword sets (`pku`/`pki`), per-object keyword sets
// (`pks`), and the KcR-tree's keyword-count maps (`pcm`) are blobs
// referenced from node entries. Blobs written consecutively are packed
// sequentially on disk, mirroring the paper's note that a node's keyword
// sets are "stored sequentially on disk to reduce the number of disk
// seeks"; reading a blob costs one buffered page fetch per page spanned.
#ifndef WSK_STORAGE_BLOB_STORE_H_
#define WSK_STORAGE_BLOB_STORE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"

namespace wsk {

// Locates a blob: `length` bytes starting at byte `offset` of page `page`
// (continuing into physically consecutive pages when it does not fit).
struct BlobRef {
  PageId page = kInvalidPageId;
  uint32_t offset = 0;
  uint32_t length = 0;

  static constexpr size_t kSerializedSize = 12;

  void Serialize(uint8_t* out) const;
  static BlobRef Deserialize(const uint8_t* in);

  friend bool operator==(const BlobRef& a, const BlobRef& b) {
    return a.page == b.page && a.offset == b.offset && a.length == b.length;
  }
};

// Append-only writer + random-access reader. Small blobs are packed within
// a page and never straddle a page boundary; blobs larger than one page get
// dedicated consecutive pages. Writes bypass the buffer pool (index
// construction is not part of the query I/O metric); call Flush() before
// reading what was appended.
class BlobStore {
 public:
  explicit BlobStore(BufferPool* pool);

  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  StatusOr<BlobRef> Append(const uint8_t* data, uint32_t length);
  StatusOr<BlobRef> Append(const std::vector<uint8_t>& data) {
    return Append(data.data(), static_cast<uint32_t>(data.size()));
  }

  // Writes out the partially filled current page, if any.
  Status Flush();

  // Reads the blob through the buffer pool (so reads are cached + counted).
  Status Read(const BlobRef& ref, std::vector<uint8_t>* out) const;

 private:
  BufferPool* const pool_;
  const uint32_t page_size_;
  std::vector<uint8_t> current_;     // in-memory image of the open page
  PageId current_page_ = kInvalidPageId;
  uint32_t current_offset_ = 0;      // next free byte in current_
};

}  // namespace wsk

#endif  // WSK_STORAGE_BLOB_STORE_H_
