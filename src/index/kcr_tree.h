// KcR-tree: the Keyword-count R-tree of Section V-A.
//
// An R-tree whose non-leaf entries carry, besides the child MBR, the number
// of objects in the child's subtree (cnt) and a pointer to its keyword-count
// map (pcm). Those summaries let the bound-and-prune algorithm estimate,
// for a candidate keyword set, how many objects under a node dominate the
// missing object (MaxDom / MinDom, see dom_bounds.h) without unfolding it.
// KcRBased also reads the tree as a TopKSource for its rank query R(M, q).
//
// The tree is a StaticRTree (static_rtree.h) with the count-map payload
// below; the metadata page additionally records the root's own cnt / MBR /
// kcm (the kcm as a blob in both formats).
#ifndef WSK_INDEX_KCR_TREE_H_
#define WSK_INDEX_KCR_TREE_H_

#include <vector>

#include "index/dom_bounds.h"
#include "index/keyword_count_map.h"
#include "index/static_rtree.h"

namespace wsk {

struct KcrPayload {
  static constexpr uint32_t kMagic = 0x43524b57;  // "WKRC"
  static constexpr const char* kName = "KcR-tree";
  static constexpr bool kRootSummary = true;

  struct Ref {
    uint32_t cnt = 0;  // objects in the child's subtree
    BlobRef kcm;       // pcm (v1)
  };
  static constexpr size_t kRefBytes = 4 + BlobRef::kSerializedSize;

  // Keyword-count map and object count of a subtree.
  struct Summary {
    KeywordCountMap kcm;
    uint32_t cnt = 0;

    void AddDoc(const KeywordSet& doc) {
      kcm.AddDoc(doc);
      ++cnt;
    }
    void AddChild(const Summary& child) {
      kcm.Merge(child.kcm);
      cnt += child.cnt;
    }
  };

  // Inner nodes: decoded count map + dominator stats per child (same
  // index). child_stats[i] points into child_kcms[i], which is why both
  // live together inside one shared, immutable allocation.
  struct Decoded {
    std::vector<KeywordCountMap> child_kcms;
    std::vector<NodeDomStats> child_stats;

    void reserve(size_t n) { child_kcms.reserve(n); }
  };

  struct Meta {
    uint32_t root_cnt = 0;
    Rect root_mbr;
    BlobRef root_kcm;
  };

  static void PutRef(ByteWriter* writer, const Ref& ref);
  static void GetRef(ByteReader* reader, Ref* ref);
  static StatusOr<Ref> WriteRef(BlobStore* blobs, const Summary& summary);
  static StatusOr<size_t> ReadRef(const BlobStore& blobs, const Ref& ref,
                                  Decoded* out);
  static void PutInline(std::vector<uint8_t>* body, const Summary& summary);
  static const char* GetInline(CheckedReader* reader, Ref* ref, Decoded* out,
                               size_t* bytes);
  // Builds child_stats once child_kcms is complete (so it never
  // reallocates under the stats' pointers); returns their charge.
  static size_t Finish(const std::vector<RTreeInnerEntry<Ref>>& entries,
                       Decoded* out);
  // An object below the child can share at most the query terms present
  // in the subtree's count map.
  static double TextBound(const Decoded& decoded, size_t i,
                          const SpatialKeywordQuery& query) {
    const KeywordCountMap& kcm = decoded.child_kcms[i];
    size_t present = 0;
    for (TermId t : query.doc) {
      if (kcm.CountOf(t) > 0) ++present;
    }
    switch (query.model) {
      case SimilarityModel::kJaccard:
        // |o ∩ q| <= present and |o ∪ q| >= |q|.
        return query.doc.empty()
                   ? 0.0
                   : static_cast<double>(present) / query.doc.size();
      case SimilarityModel::kDice:
        // |o.doc| >= 1 whenever the intersection is non-empty.
        return query.doc.empty() ? 0.0
                                 : 2.0 * present / (1.0 + query.doc.size());
      case SimilarityModel::kOverlap:
        return present > 0 ? 1.0 : 0.0;
      default:
        return 1.0;
    }
  }
  static void Mix(FingerprintHasher* hasher, const Ref& ref,
                  const Decoded& decoded, size_t i);
  static void PutMeta(ByteWriter* writer, const Meta& meta);
  static void GetMeta(ByteReader* reader, Meta* meta);
  static Status SetRoot(BlobStore* blobs, const Rect& mbr,
                        const Summary& summary, Meta* meta);
};

using KcrTree = StaticRTree<KcrPayload>;

}  // namespace wsk

#endif  // WSK_INDEX_KCR_TREE_H_
