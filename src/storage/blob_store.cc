#include "storage/blob_store.h"

#include <cstring>

namespace wsk {

namespace {

void PutU32(uint8_t* out, uint32_t v) { std::memcpy(out, &v, sizeof(v)); }
uint32_t GetU32(const uint8_t* in) {
  uint32_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

}  // namespace

void BlobRef::Serialize(uint8_t* out) const {
  PutU32(out, page);
  PutU32(out + 4, offset);
  PutU32(out + 8, length);
}

BlobRef BlobRef::Deserialize(const uint8_t* in) {
  BlobRef ref;
  ref.page = GetU32(in);
  ref.offset = GetU32(in + 4);
  ref.length = GetU32(in + 8);
  return ref;
}

BlobStore::BlobStore(BufferPool* pool)
    : pool_(pool), page_size_(pool->pager()->page_size()) {
  current_.resize(page_size_);
}

StatusOr<BlobRef> BlobStore::Append(const uint8_t* data, uint32_t length) {
  Pager* pager = pool_->pager();
  if (length > page_size_) {
    // Multi-page blob: close the open page, then write whole pages into a
    // dedicated consecutive run.
    WSK_RETURN_IF_ERROR(Flush());
    const uint32_t pages = (length + page_size_ - 1) / page_size_;
    const PageId first = pager->AllocatePages(pages);
    std::vector<uint8_t> buf(page_size_, 0);
    uint32_t written = 0;
    for (uint32_t i = 0; i < pages; ++i) {
      const uint32_t chunk =
          std::min<uint32_t>(page_size_, length - written);
      std::memcpy(buf.data(), data + written, chunk);
      if (chunk < page_size_) {
        std::memset(buf.data() + chunk, 0, page_size_ - chunk);
      }
      WSK_RETURN_IF_ERROR(pager->WritePage(first + i, buf.data()));
      written += chunk;
    }
    return BlobRef{first, 0, length};
  }

  if (current_page_ == kInvalidPageId ||
      current_offset_ + length > page_size_) {
    WSK_RETURN_IF_ERROR(Flush());
    current_page_ = pager->AllocatePages(1);
    current_offset_ = 0;
    std::memset(current_.data(), 0, page_size_);
  }
  if (length != 0) {
    // memcpy with a null source is UB even at length 0, and empty blobs
    // legitimately pass data == nullptr.
    std::memcpy(current_.data() + current_offset_, data, length);
  }
  const BlobRef ref{current_page_, current_offset_, length};
  current_offset_ += length;
  return ref;
}

Status BlobStore::Flush() {
  if (current_page_ == kInvalidPageId) return Status::Ok();
  WSK_RETURN_IF_ERROR(
      pool_->pager()->WritePage(current_page_, current_.data()));
  current_page_ = kInvalidPageId;
  current_offset_ = 0;
  return Status::Ok();
}

Status BlobStore::Read(const BlobRef& ref, std::vector<uint8_t>* out) const {
  if (ref.length == 0) {
    out->clear();
    return Status::Ok();
  }
  if (ref.page == kInvalidPageId) {
    return Status::InvalidArgument("invalid blob reference");
  }
  if (ref.offset >= page_size_) {
    // A reference decoded from a corrupted page: honoring the offset would
    // read beyond the fetched page's buffer.
    return Status::Corruption("blob reference offset past the page end");
  }
  if (ref.page == current_page_) {
    // The blob lives on the still-open page, which exists only in memory;
    // serving it from the buffer also keeps the buffer pool from caching a
    // stale on-disk image of this page. Small blobs never straddle pages,
    // so the whole blob is in current_.
    if (static_cast<uint64_t>(ref.offset) + ref.length > page_size_) {
      return Status::Corruption("blob reference overruns the open page");
    }
    out->resize(ref.length);
    std::memcpy(out->data(), current_.data() + ref.offset, ref.length);
    return Status::Ok();
  }
  const uint64_t span_pages =
      (static_cast<uint64_t>(ref.offset) + ref.length + page_size_ - 1) /
      page_size_;
  if (static_cast<uint64_t>(ref.page) + span_pages >
      pool_->pager()->num_pages()) {
    // Bounds the allocation below by the file size before any page is
    // fetched; a corrupted length field can otherwise demand gigabytes.
    return Status::Corruption("blob reference extends past the file");
  }
  if (pool_->pager()->mapped()) {
    // Mapped read mode: copy straight from the OS page cache; the span
    // was bounds-checked against the file above and again by the pager.
    StatusOr<const uint8_t*> span = pool_->pager()->MappedSpan(
        ref.page, static_cast<uint64_t>(ref.offset) + ref.length);
    if (span.ok()) {
      out->resize(ref.length);
      std::memcpy(out->data(), span.value() + ref.offset, ref.length);
      return Status::Ok();
    }
    // Fall through to the buffered path.
  }
  out->resize(ref.length);
  uint32_t copied = 0;
  uint32_t offset = ref.offset;
  PageId page = ref.page;
  while (copied < ref.length) {
    StatusOr<PageHandle> handle = pool_->Fetch(page);
    if (!handle.ok()) return handle.status();
    const uint32_t chunk =
        std::min<uint32_t>(page_size_ - offset, ref.length - copied);
    std::memcpy(out->data() + copied, handle.value().data() + offset, chunk);
    copied += chunk;
    offset = 0;
    ++page;
  }
  return Status::Ok();
}

}  // namespace wsk
