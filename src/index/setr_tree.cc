#include "index/setr_tree.h"

#include <algorithm>
#include <cstring>

namespace wsk {

namespace {

// Merges a child's union and codes into the summary's, keeping the smaller
// code of a shared term.
void MergeUnion(const KeywordSet& terms, const uint8_t* codes,
                KeywordSet* uni, std::vector<uint8_t>* min_len) {
  const std::vector<TermId>& a = uni->terms();
  const std::vector<TermId>& b = terms.terms();
  const std::vector<uint8_t>& a_len = *min_len;
  std::vector<TermId> out_terms(a.size() + b.size());
  std::vector<uint8_t> out_len(a.size() + b.size());
  size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      out_terms[n] = a[i];
      out_len[n++] = a_len[i++];
    } else if (b[j] < a[i]) {
      out_terms[n] = b[j];
      out_len[n++] = codes[j++];
    } else {
      out_terms[n] = a[i];
      out_len[n++] = std::min(a_len[i++], codes[j++]);
    }
  }
  for (; i < a.size(); ++i, ++n) {
    out_terms[n] = a[i];
    out_len[n] = a_len[i];
  }
  for (; j < b.size(); ++j, ++n) {
    out_terms[n] = b[j];
    out_len[n] = codes[j];
  }
  out_terms.resize(n);
  out_len.resize(n);
  *uni = KeywordSet::FromSorted(std::move(out_terms));
  *min_len = std::move(out_len);
}

// Length codes on disk: two per byte, the even-indexed term's in the low
// nibble, a zero high nibble padding an odd count.
void PutLengthCodes(std::vector<uint8_t>* out,
                    const std::vector<uint8_t>& codes) {
  for (size_t i = 0; i < codes.size(); i += 2) {
    const uint8_t high = i + 1 < codes.size() ? codes[i + 1] : 0;
    out->push_back(static_cast<uint8_t>(codes[i] | high << 4));
  }
}

size_t LengthCodeBytes(size_t count) { return (count + 1) / 2; }

// Appends `count` codes from `bytes` (LengthCodeBytes(count) of them) to
// `out`; false when a code is 0 or the padding nibble is not.
bool GetLengthCodes(const uint8_t* bytes, size_t count,
                    std::vector<uint8_t>* out) {
  for (size_t i = 0; i < count; ++i) {
    const uint8_t code = (bytes[i / 2] >> (4 * (i % 2))) & 0x0f;
    if (code == 0) return false;
    out->push_back(code);
  }
  return count % 2 == 0 || (bytes[count / 2] >> 4) == 0;
}

}  // namespace

// A document adds a few terms to a large union: insert them in place. A
// child's union is as large as the summary's: merge.
void SetRPayload::Summary::AddDoc(const KeywordSet& doc) {
  AddDocLengths(doc, &uni, &min_len);
  AddInter(doc);
}

void SetRPayload::Summary::AddChild(const Summary& child) {
  MergeUnion(child.uni, child.min_len.data(), &uni, &min_len);
  AddInter(child.inter);
}

void SetRPayload::Summary::AddInter(const KeywordSet& part) {
  if (empty) {
    inter = part;
    empty = false;
  } else if (!inter.empty()) {
    inter = inter.Intersect(part);
  }
}

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
  std::vector<uint8_t> union_bytes;
  summary.uni.Serialize(&union_bytes);
  PutLengthCodes(&union_bytes, summary.min_len);
  StatusOr<BlobRef> uni = blobs->Append(union_bytes);
  if (!uni.ok()) return uni.status();
  ref.union_set = uni.value();
  StatusOr<BlobRef> inter = WriteBlob(blobs, summary.inter);
  if (!inter.ok()) return inter.status();
  ref.inter_set = inter.value();
  return ref;
}

StatusOr<size_t> SetRPayload::ReadRef(const BlobStore& blobs, const Ref& ref,
                                      Decoded* out) {
  std::vector<uint8_t> union_bytes;
  WSK_RETURN_IF_ERROR(blobs.Read(ref.union_set, &union_bytes));
  uint32_t count = 0;
  if (union_bytes.size() >= 4) std::memcpy(&count, union_bytes.data(), 4);
  const size_t terms_bytes = 4 + 4ull * count;
  if (union_bytes.size() < 4 ||
      union_bytes.size() != terms_bytes + LengthCodeBytes(count)) {
    return Status::Corruption("union blob size disagrees with its count");
  }
  out->min_len_begin.push_back(static_cast<uint32_t>(out->min_len.size()));
  if (!GetLengthCodes(union_bytes.data() + terms_bytes, count,
                      &out->min_len)) {
    return Status::Corruption("malformed length code");
  }
  KeywordSet uni = KeywordSet::Deserialize(union_bytes.data(), terms_bytes);
  StatusOr<KeywordSet> inter = ReadBlob<KeywordSet>(blobs, ref.inter_set);
  if (!inter.ok()) return inter.status();
  const size_t bytes = 2 * sizeof(KeywordSet) + uni.SerializedSize() +
                       inter.value().SerializedSize();
  out->child_union.push_back(std::move(uni));
  out->child_inter.push_back(std::move(inter).value());
  return bytes;
}

void SetRPayload::PutInline(std::vector<uint8_t>* body,
                            const Summary& summary) {
  PutKeywordSetV2(body, summary.uni);
  PutLengthCodes(body, summary.min_len);
  PutKeywordSetV2(body, summary.inter);
}

const char* SetRPayload::GetInline(CheckedReader* reader, Ref*, Decoded* out,
                                   size_t* bytes) {
  KeywordSet uni, inter;
  if (!GetKeywordSetV2(reader, &uni)) return "malformed summary keyword set";
  const uint8_t* codes = nullptr;
  if (!reader->GetBytes(&codes, LengthCodeBytes(uni.size()))) {
    return "truncated length codes";
  }
  out->min_len_begin.push_back(static_cast<uint32_t>(out->min_len.size()));
  if (!GetLengthCodes(codes, uni.size(), &out->min_len)) {
    return "malformed length code";
  }
  if (!GetKeywordSetV2(reader, &inter)) return "malformed summary keyword set";
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
  hasher->Mix(decoded.MinLengths(i), decoded.child_union[i].size());
}

}  // namespace wsk
