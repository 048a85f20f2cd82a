// SetR-tree: the disk-resident hybrid index of Section IV-B.
//
// A variant of the IR-tree. Leaf entries are (object, point, pks) where
// pks points at the object's keyword set; non-leaf entries are
// (child, mbr, pku, pki) where pku/pki point at the union / intersection of
// all keyword sets in the child's subtree. Theorem 1 turns those two sets
// into an upper bound on the ranking score of any object below a node,
// which drives best-first top-k search (TopKSource).
//
// The tree is a StaticRTree (static_rtree.h) with the union/intersection
// payload below.
#ifndef WSK_INDEX_SETR_TREE_H_
#define WSK_INDEX_SETR_TREE_H_

#include <vector>

#include "index/static_rtree.h"

namespace wsk {

struct SetRPayload {
  static constexpr uint32_t kMagic = 0x53524b57;  // "WKRS"
  static constexpr const char* kName = "SetR-tree";
  static constexpr bool kRootSummary = false;

  // v1: where the child's pku and pki sets live in the blob store.
  struct Ref {
    BlobRef union_set;  // pku
    BlobRef inter_set;  // pki
  };
  static constexpr size_t kRefBytes = 2 * BlobRef::kSerializedSize;

  // Union and intersection of every keyword set in a subtree.
  struct Summary {
    KeywordSet uni;
    KeywordSet inter;
    bool empty = true;

    void AddDoc(const KeywordSet& doc) { Add(doc, doc); }
    void AddChild(const Summary& child) { Add(child.uni, child.inter); }
    void Add(const KeywordSet& uni_part, const KeywordSet& inter_part) {
      uni = uni.Union(uni_part);
      inter = empty ? inter_part : inter.Intersect(inter_part);
      empty = false;
    }
  };

  // Inner nodes: per-entry pku and pki.
  struct Decoded {
    std::vector<KeywordSet> child_union;
    std::vector<KeywordSet> child_inter;

    void reserve(size_t n) {
      child_union.reserve(n);
      child_inter.reserve(n);
    }
  };

  struct Meta {};

  static void PutRef(ByteWriter* writer, const Ref& ref);
  static void GetRef(ByteReader* reader, Ref* ref);
  static StatusOr<Ref> WriteRef(BlobStore* blobs, const Summary& summary);
  // Appends the child's sets to `out`; returns the bytes charged.
  static StatusOr<size_t> ReadRef(const BlobStore& blobs, const Ref& ref,
                                  Decoded* out);
  static void PutInline(std::vector<uint8_t>* body, const Summary& summary);
  // Decodes one entry's sets into `out`, adding their charge to *bytes;
  // returns what is malformed, or nullptr.
  static const char* GetInline(CheckedReader* reader, Ref* ref, Decoded* out,
                               size_t* bytes);
  static size_t Finish(const std::vector<RTreeInnerEntry<Ref>>&, Decoded*) {
    return 0;
  }

  // Theorem 1: |N_u ∩ q| / |N_i ∪ q| bounds TSim(o, q) for every o under
  // the child (per similarity model, text/similarity.h).
  static double TextBound(const Decoded& decoded, size_t i,
                          const SpatialKeywordQuery& query) {
    const KeywordSet& uni = decoded.child_union[i];
    const KeywordSet& inter = decoded.child_inter[i];
    return NodeSimilarityUpperBound(
        uni.IntersectionSize(query.doc), inter.UnionSize(query.doc),
        inter.size(), query.doc.size(), query.model);
  }

  static void Mix(FingerprintHasher* hasher, const Ref& ref,
                  const Decoded& decoded, size_t i);
  static void PutMeta(ByteWriter*, const Meta&) {}
  static void GetMeta(ByteReader*, Meta*) {}
  static Status SetRoot(BlobStore*, const Rect&, const Summary&, Meta*) {
    return Status::Ok();
  }
};

using SetRTree = StaticRTree<SetRPayload>;

}  // namespace wsk

#endif  // WSK_INDEX_SETR_TREE_H_
