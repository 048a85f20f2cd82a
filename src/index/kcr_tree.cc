#include "index/kcr_tree.h"

#include <algorithm>

namespace wsk {

namespace {

// v2 body encoding of a keyword-count map: varint pair count, then per
// pair the term delta (strictly ascending, like a keyword set) followed by
// its count as a plain varint.
void PutKcmV2(std::vector<uint8_t>* body, const KeywordCountMap& map) {
  const auto& pairs = map.pairs();
  PutVarint(body, pairs.size());
  uint32_t prev = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0) {
      PutVarint(body, pairs[0].first);
    } else {
      WSK_CHECK(pairs[i].first > prev);
      PutVarint(body, pairs[i].first - prev);
    }
    prev = pairs[i].first;
    PutVarint(body, pairs[i].second);
  }
}

bool GetKcmV2(CheckedReader* reader, KeywordCountMap* out) {
  uint32_t n = 0;
  if (!reader->GetVarint32(&n)) return false;
  std::vector<std::pair<TermId, uint32_t>> pairs;
  pairs.reserve(std::min<size_t>(n, reader->remaining()));
  uint64_t term = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t step = 0;
    if (!reader->GetVarint(&step)) return false;
    if (i == 0) {
      term = step;
    } else {
      if (step == 0) return false;  // terms must be strictly ascending
      term += step;
    }
    if (term > 0xffffffffull) return false;
    uint32_t count = 0;
    if (!reader->GetVarint32(&count) || count == 0) return false;
    pairs.emplace_back(static_cast<TermId>(term), count);
  }
  *out = KeywordCountMap::FromSortedPairs(std::move(pairs));
  return true;
}

}  // namespace

void KcrPayload::PutRef(ByteWriter* writer, const Ref& ref) {
  writer->PutU32(ref.cnt);
  uint8_t bytes[BlobRef::kSerializedSize];
  ref.kcm.Serialize(bytes);
  writer->PutBytes(bytes, sizeof(bytes));
}

void KcrPayload::GetRef(ByteReader* reader, Ref* ref) {
  ref->cnt = reader->GetU32();
  ref->kcm = BlobRef::Deserialize(reader->GetBytes(BlobRef::kSerializedSize));
}

StatusOr<KcrPayload::Ref> KcrPayload::WriteRef(BlobStore* blobs,
                                               const Summary& summary) {
  StatusOr<BlobRef> kcm = WriteBlob(blobs, summary.kcm);
  if (!kcm.ok()) return kcm.status();
  return Ref{summary.cnt, kcm.value()};
}

StatusOr<size_t> KcrPayload::ReadRef(const BlobStore& blobs, const Ref& ref,
                                     Decoded* out) {
  StatusOr<KeywordCountMap> kcm = ReadBlob<KeywordCountMap>(blobs, ref.kcm);
  if (!kcm.ok()) return kcm.status();
  const size_t bytes = sizeof(KeywordCountMap) + kcm.value().SerializedSize();
  out->child_kcms.push_back(std::move(kcm).value());
  return bytes;
}

void KcrPayload::PutInline(std::vector<uint8_t>* body,
                           const Summary& summary) {
  PutVarint(body, summary.cnt);
  PutKcmV2(body, summary.kcm);
}

const char* KcrPayload::GetInline(CheckedReader* reader, Ref* ref,
                                  Decoded* out, size_t* bytes) {
  if (!reader->GetVarint32(&ref->cnt)) return "bad subtree count";
  KeywordCountMap kcm;
  if (!GetKcmV2(reader, &kcm)) return "malformed keyword-count map";
  *bytes += sizeof(KeywordCountMap) + kcm.SerializedSize();
  out->child_kcms.push_back(std::move(kcm));
  return nullptr;
}

size_t KcrPayload::Finish(const std::vector<RTreeInnerEntry<Ref>>& entries,
                          Decoded* out) {
  size_t bytes = 0;
  out->child_stats.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    out->child_stats.emplace_back(&out->child_kcms[i], entries[i].cnt,
                                  entries[i].mbr);
    bytes += out->child_stats.back().MemoryBytes();
  }
  return bytes;
}

void KcrPayload::Mix(FingerprintHasher* hasher, const Ref& ref,
                     const Decoded& decoded, size_t i) {
  hasher->MixU64(ref.cnt);
  const auto& pairs = decoded.child_kcms[i].pairs();
  hasher->Mix(pairs.data(), pairs.size() * sizeof(pairs[0]));
}

void KcrPayload::PutMeta(ByteWriter* writer, const Meta& meta) {
  writer->PutU32(meta.root_cnt);
  writer->PutRect(meta.root_mbr);
  uint8_t bytes[BlobRef::kSerializedSize];
  meta.root_kcm.Serialize(bytes);
  writer->PutBytes(bytes, sizeof(bytes));
}

void KcrPayload::GetMeta(ByteReader* reader, Meta* meta) {
  meta->root_cnt = reader->GetU32();
  meta->root_mbr = reader->GetRect();
  meta->root_kcm =
      BlobRef::Deserialize(reader->GetBytes(BlobRef::kSerializedSize));
}

Status KcrPayload::SetRoot(BlobStore* blobs, const Rect& mbr,
                           const Summary& summary, Meta* meta) {
  StatusOr<BlobRef> kcm = WriteBlob(blobs, summary.kcm);
  if (!kcm.ok()) return kcm.status();
  meta->root_cnt = summary.cnt;
  meta->root_mbr = mbr;
  meta->root_kcm = kcm.value();
  return Status::Ok();
}

}  // namespace wsk
