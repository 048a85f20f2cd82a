#include "index/setr_tree.h"

namespace wsk {

void SetRPayload::PutRef(ByteWriter* writer, const Ref& ref) {
  uint8_t bytes[BlobRef::kSerializedSize];
  ref.union_set.Serialize(bytes);
  writer->PutBytes(bytes, sizeof(bytes));
  ref.inter_set.Serialize(bytes);
  writer->PutBytes(bytes, sizeof(bytes));
}

void SetRPayload::GetRef(ByteReader* reader, Ref* ref) {
  ref->union_set =
      BlobRef::Deserialize(reader->GetBytes(BlobRef::kSerializedSize));
  ref->inter_set =
      BlobRef::Deserialize(reader->GetBytes(BlobRef::kSerializedSize));
}

StatusOr<SetRPayload::Ref> SetRPayload::WriteRef(BlobStore* blobs,
                                                 const Summary& summary) {
  Ref ref;
  StatusOr<BlobRef> uni = WriteBlob(blobs, summary.uni);
  if (!uni.ok()) return uni.status();
  ref.union_set = uni.value();
  StatusOr<BlobRef> inter = WriteBlob(blobs, summary.inter);
  if (!inter.ok()) return inter.status();
  ref.inter_set = inter.value();
  return ref;
}

StatusOr<size_t> SetRPayload::ReadRef(const BlobStore& blobs, const Ref& ref,
                                      Decoded* out) {
  StatusOr<KeywordSet> uni = ReadBlob<KeywordSet>(blobs, ref.union_set);
  if (!uni.ok()) return uni.status();
  StatusOr<KeywordSet> inter = ReadBlob<KeywordSet>(blobs, ref.inter_set);
  if (!inter.ok()) return inter.status();
  const size_t bytes = 2 * sizeof(KeywordSet) +
                       uni.value().SerializedSize() +
                       inter.value().SerializedSize();
  out->child_union.push_back(std::move(uni).value());
  out->child_inter.push_back(std::move(inter).value());
  return bytes;
}

void SetRPayload::PutInline(std::vector<uint8_t>* body,
                            const Summary& summary) {
  PutKeywordSetV2(body, summary.uni);
  PutKeywordSetV2(body, summary.inter);
}

const char* SetRPayload::GetInline(CheckedReader* reader, Ref*, Decoded* out,
                                   size_t* bytes) {
  KeywordSet uni, inter;
  if (!GetKeywordSetV2(reader, &uni) || !GetKeywordSetV2(reader, &inter)) {
    return "malformed summary keyword set";
  }
  *bytes += 2 * sizeof(KeywordSet) + uni.SerializedSize() +
            inter.SerializedSize();
  out->child_union.push_back(std::move(uni));
  out->child_inter.push_back(std::move(inter));
  return nullptr;
}

void SetRPayload::Mix(FingerprintHasher* hasher, const Ref&,
                      const Decoded& decoded, size_t i) {
  for (const KeywordSet* set : {&decoded.child_union[i],
                                &decoded.child_inter[i]}) {
    hasher->Mix(set->terms().data(), set->terms().size() * sizeof(TermId));
  }
}

}  // namespace wsk
