// SetR-tree: the disk-resident hybrid index of Section IV-B.
//
// A variant of the IR-tree. Leaf entries are (object, point, pks) where
// pks points at the object's keyword set; non-leaf entries are
// (child, mbr, pku, pki) where pku/pki point at the union / intersection of
// all keyword sets in the child's subtree. Theorem 1 turns those two sets
// into an upper bound on the ranking score of any object below a node,
// which drives best-first top-k search (TopKSource).
//
// Beyond the paper, pku also carries ℓ_t for every union term t: the
// length of the shortest document under the child that contains t, capped
// at 15 and stored as a 4-bit code, two per byte, right after the union's
// terms. TextBound takes the min of Theorem 1 and the length-aware bound
// those codes allow (text/similarity.h; DESIGN.md "Length-aware node
// bound"). The codes changed the file format, so kMagic changed with them
// and Open refuses a SetR file written before them.
//
// The tree is a StaticRTree (static_rtree.h) with the union/intersection
// payload below.
#ifndef WSK_INDEX_SETR_TREE_H_
#define WSK_INDEX_SETR_TREE_H_

#include <vector>

#include "index/static_rtree.h"

namespace wsk {

struct SetRPayload {
  // "WKRL"; files before the length codes carry "WKRS" (0x53524b57).
  static constexpr uint32_t kMagic = 0x4c524b57;
  static constexpr const char* kName = "SetR-tree";
  static constexpr bool kRootSummary = false;

  // v1: where the child's pku and pki sets live in the blob store.
  struct Ref {
    BlobRef union_set;  // pku: the union's terms, then its length codes
    BlobRef inter_set;  // pki
  };
  static constexpr size_t kRefBytes = 2 * BlobRef::kSerializedSize;

  // Union and intersection of every keyword set in a subtree, and the
  // LengthCode of each union term's shortest document.
  struct Summary {
    KeywordSet uni;
    std::vector<uint8_t> min_len;  // parallel to uni
    KeywordSet inter;
    bool empty = true;

    void AddDoc(const KeywordSet& doc);
    void AddChild(const Summary& child);

   private:
    void AddInter(const KeywordSet& part);
  };

  // Inner nodes: per-entry pku (with its codes) and pki.
  struct Decoded {
    std::vector<KeywordSet> child_union;
    std::vector<KeywordSet> child_inter;
    // Every entry's length codes back to back; entry i's start at
    // min_len_begin[i].
    std::vector<uint8_t> min_len;
    std::vector<uint32_t> min_len_begin;

    void reserve(size_t n) {
      child_union.reserve(n);
      child_inter.reserve(n);
      min_len_begin.reserve(n);
    }
    const uint8_t* MinLengths(size_t i) const {
      return min_len.data() + min_len_begin[i];
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
  // Charges the length-code arrays.
  static size_t Finish(const std::vector<RTreeInnerEntry<Ref>>&,
                       Decoded* decoded) {
    return decoded->min_len.capacity() +
           decoded->min_len_begin.capacity() * sizeof(uint32_t);
  }

  // Theorem 1 (|N_u ∩ q| / |N_i ∪ q| for Jaccard) tightened by the union
  // terms' length codes bounds TSim(o, q) for every o under the child (per
  // similarity model, text/similarity.h).
  static double TextBound(const Decoded& decoded, size_t i,
                          const SpatialKeywordQuery& query) {
    return NodeSimilarityUpperBound(
        decoded.child_union[i], decoded.MinLengths(i),
        decoded.child_inter[i], query.doc, query.model);
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
