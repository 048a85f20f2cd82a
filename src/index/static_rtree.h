// The static R-tree both indexes are built on.
//
// The SetR-tree (Section IV-B) and the KcR-tree (Section V-A) are the same
// R-tree over the same leaf entries (object, point, pks). They differ only
// in what a non-leaf entry says about its child's subtree: a union /
// intersection keyword-set pair, or an object count plus a keyword-count
// map. StaticRTree owns everything else — STR bulk loading, both node
// formats, the meta page, node materialization and caching, best-first
// expansion — and takes the subtree summary from a payload policy
// (SetRPayload in setr_tree.h, KcrPayload in kcr_tree.h):
//
//   kMagic, kName      meta-page magic; the tree's name in diagnostics
//   kRootSummary       whether the meta page records the root's summary
//   Ref, kRefBytes     v1 inner-entry fields after child + MBR (blob refs)
//   Summary            a subtree's summary: AddDoc(doc), AddChild(summary)
//   Decoded            materialized inner payloads, one per inner entry
//   Meta               extra meta-page fields
//   PutRef/GetRef, WriteRef/ReadRef        v1 slot and blob codec
//   PutInline/GetInline                    v2 inline codec
//   Finish             derived per-child data once a node is decoded
//   TextBound          Theorem 1-style textual bound of one inner entry
//   Mix                the inner payload's share of the cache fingerprint
//   PutMeta/GetMeta, SetRoot               meta-page extras
//
// Every hook is a static function resolved at compile time, so the hot
// per-entry loops carry no virtual calls.
//
// Trees are bulk-loaded once and never modified: live updates go through
// delta segments and merge rebuilds (docs/SEGMENTS.md).
//
// Storage. Page 0 is the meta page. v1 nodes are fixed slots of
// `pages_per_node` consecutive 4 KiB pages, with keyword payloads in a
// BlobStore written next to the node that references them ("stored
// sequentially on disk", Section IV-B). v2 nodes are compact checksummed
// records with the payloads inline (docs/STORAGE.md). Open() reads the
// format from the meta page, so either kind of file reopens.
#ifndef WSK_INDEX_STATIC_RTREE_H_
#define WSK_INDEX_STATIC_RTREE_H_

#include <memory>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/keyword_count_map.h"
#include "index/node_codec.h"
#include "index/topk.h"
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/node_cache.h"
#include "storage/node_codec_v2.h"
#include "text/keyword_set.h"
#include "text/similarity.h"

namespace wsk {

// Per-node layout facts for introspection (wsk_cli inspect).
struct NodeStat {
  bool is_leaf = true;
  uint32_t entries = 0;
  uint32_t record_bytes = 0;  // serialized bytes before page padding
  uint32_t record_pages = 0;  // pages the record occupies on disk
};

// Leaf entry of either tree. `keywords` (pks) locates the object's keyword
// set in the blob store; v2 keeps the set inline and leaves it empty.
struct RTreeLeafEntry {
  ObjectId object = kInvalidObjectId;
  Point loc;
  BlobRef keywords;  // pks
};

// Non-leaf entry: the payload's per-child fields, the child slot and its
// MBR.
template <typename Ref>
struct RTreeInnerEntry : Ref {
  PageId child = kInvalidPageId;
  Rect mbr;
};

// v1 payload blobs: any T with Serialize(std::vector<uint8_t>*) and a
// static Deserialize(const uint8_t*, size_t) (KeywordSet, KeywordCountMap).
template <typename T>
StatusOr<BlobRef> WriteBlob(BlobStore* blobs, const T& value) {
  std::vector<uint8_t> bytes;
  value.Serialize(&bytes);
  return blobs->Append(bytes);
}

template <typename T>
StatusOr<T> ReadBlob(const BlobStore& blobs, const BlobRef& ref) {
  std::vector<uint8_t> bytes;
  WSK_RETURN_IF_ERROR(blobs.Read(ref, &bytes));
  return T::Deserialize(bytes.data(), bytes.size());
}

// v2 body encoding of one keyword set: varint term count, then the sorted
// ids delta-coded. GetKeywordSetV2 is the checked inverse.
void PutKeywordSetV2(std::vector<uint8_t>* body, const KeywordSet& set);
bool GetKeywordSetV2(CheckedReader* reader, KeywordSet* out);

template <typename Payload>
class StaticRTree : public TopKSource {
 public:
  struct Options {
    uint32_t capacity = 100;  // max entries per node (Section VII-A1)
    SimilarityModel model = SimilarityModel::kJaccard;
    // Node format of the built file: v1 (default) is the fixed-slot format
    // with payloads in the blob store; v2 is the compact format
    // (varint/delta-packed, checksummed, payloads inline).
    uint8_t format = kNodeFormatV1;
  };

  using Summary = typename Payload::Summary;
  using LeafEntry = RTreeLeafEntry;
  using InnerEntry = RTreeInnerEntry<typename Payload::Ref>;

  struct Node {
    bool is_leaf = true;
    std::vector<LeafEntry> leaf_entries;
    std::vector<InnerEntry> inner_entries;

    size_t size() const {
      return is_leaf ? leaf_entries.size() : inner_entries.size();
    }
  };

  // A node decoded all the way down: structural entries, every leaf's
  // keyword set, and the inner entries' payloads (Payload::Decoded).
  // Immutable once built — the unit the NodeCache shares across queries.
  struct DecodedNode : Payload::Decoded {
    Node node;
    std::vector<KeywordSet> leaf_docs;  // leaves: per-entry doc
    size_t memory_bytes = 0;            // cache charge estimate
  };

  // Builds the tree bottom-up with Sort-Tile-Recursive packing into a fresh
  // pager file (no pages allocated yet), then finalizes it.
  static StatusOr<std::unique_ptr<StaticRTree>> BulkLoad(
      const Dataset& dataset, BufferPool* pool, const Options& options);

  // STR-packs an explicit object list (ids are preserved as given, need not
  // be dense) with a pinned SDist normalizer — the segment build path,
  // where every tree of a live dataset must share one diagonal. An empty
  // list builds an empty tree.
  static StatusOr<std::unique_ptr<StaticRTree>> BulkLoadObjects(
      const std::vector<SpatialObject>& objects, double diagonal,
      BufferPool* pool, const Options& options);

  // Reopens a finalized index file.
  static StatusOr<std::unique_ptr<StaticRTree>> Open(BufferPool* pool);

  // Flushes blobs, the metadata page and all dirty buffers. Bulk loading
  // already finalizes; calling it again is harmless.
  Status Finalize();

  // TopKSource: one read of the node for every slot. Leaves go through the
  // shared floor-aware ScoreLeaf (leaf_scorer.h); inner entries get
  // alpha (1 - MinDist) + (1 - alpha) Payload::TextBound per query.
  PageId SearchRoot() const override;
  Status ExpandNode(PageId node,
                    std::span<const ExpandSlot> slots) const override;

  // Attaches a shared decoded-node cache (not owned); the tree registers
  // itself under a fresh cache tree-id. Pass nullptr to detach.
  void AttachNodeCache(NodeCache* cache);

  // This tree's key namespace in the attached cache (0 = never attached).
  // Segment retirement uses it to drop the tree's entries (EraseTree).
  uint32_t cache_tree_id() const { return cache_tree_id_; }

  // Reads a fully materialized node, through the cache when one is attached
  // and `use_cache` is true. With `use_cache` false the read decodes the
  // file's bytes (no lookup, no insert, no counters): the verifiers must
  // check what is on disk, not a cached copy.
  StatusOr<std::shared_ptr<const DecodedNode>> ReadDecodedNode(
      PageId page, bool use_cache = true) const;

  double diagonal() const { return diagonal_; }
  uint32_t height() const { return height_; }  // 0 = empty, 1 = leaf root
  uint64_t num_objects() const { return num_objects_; }
  uint32_t pages_per_node() const { return pages_per_node_; }
  const Options& options() const { return options_; }

  // The structural entries of one node, without payloads. v2 entries carry
  // empty BlobRefs — their payloads are inline; use ReadDecodedNode.
  StatusOr<Node> ReadNode(PageId page) const;

  // Layout facts of one node without materializing payloads.
  StatusOr<NodeStat> StatNode(PageId page) const;

  // Reads one v1 payload blob (a KeywordSet or KeywordCountMap).
  template <typename T>
  StatusOr<T> ReadBlob(const BlobRef& ref) const {
    return wsk::ReadBlob<T>(blobs_, ref);
  }

  // KcR-tree: the root's own cnt / MBR / kcm from the meta page, so a
  // traversal can bound the whole tree before its first node access
  // (Algorithm 3, lines 2-6).
  const Rect& root_mbr() const requires Payload::kRootSummary {
    return meta_.root_mbr;
  }
  uint32_t root_cnt() const requires Payload::kRootSummary {
    return meta_.root_cnt;
  }
  StatusOr<KeywordCountMap> ReadRootKcm() const
      requires Payload::kRootSummary {
    if (height_ == 0) return KeywordCountMap();
    return ReadBlob<KeywordCountMap>(meta_.root_kcm);
  }

 private:
  StaticRTree(BufferPool* pool, const Options& options, double diagonal);

  // Writes one freshly built node: a new v1 slot, or an appended v2 record
  // with the payloads inline (leaves: `docs`; inner: `children`).
  StatusOr<PageId> WriteNewNode(const Node& node,
                                const std::vector<const KeywordSet*>& docs,
                                const std::vector<const Summary*>& children,
                                bool children_are_leaves);
  StatusOr<std::shared_ptr<const DecodedNode>> MaterializeV1(
      PageId page) const;
  StatusOr<std::shared_ptr<const DecodedNode>> MaterializeV2(
      PageId page) const;
  void AppendInnerEntries(const DecodedNode& decoded,
                          const SpatialKeywordQuery& query,
                          std::vector<SearchEntry>* out) const;
  Status WriteMeta();
  Status ReadMeta();

  BufferPool* const pool_;
  NodeCache* cache_ = nullptr;  // not owned; see AttachNodeCache
  uint32_t cache_tree_id_ = 0;
  mutable BlobStore blobs_;
  // First-touch body-checksum ledger for v2 records (write-once, so one
  // clean verification per record is enough).
  mutable ChecksumLedger checksum_ledger_;
  Options options_;
  uint32_t pages_per_node_ = 0;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint64_t num_objects_ = 0;
  double diagonal_ = 1.0;
  typename Payload::Meta meta_;
};

}  // namespace wsk

#endif  // WSK_INDEX_STATIC_RTREE_H_
